"""End-host substrate: hosts, IFQ monitoring, sockets and applications."""

from .apps import BulkSenderApp, CBRSource, OnOffSource, PoissonSource, SinkApp
from .host import Host
from .ifq import IFQMonitor
from .sockets import SimSocket, listen

__all__ = [
    "Host",
    "IFQMonitor",
    "SimSocket",
    "listen",
    "BulkSenderApp",
    "SinkApp",
    "CBRSource",
    "PoissonSource",
    "OnOffSource",
]
