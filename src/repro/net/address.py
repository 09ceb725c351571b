"""Addressing helpers.

Addresses in the simulator are small integers.  The :class:`AddressAllocator`
hands out unique addresses and human-readable names so topology builders do
not have to invent numbering schemes, and :class:`FlowId` identifies a
unidirectional transport flow (used for per-flow statistics and to demultiplex
segments at a host).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

__all__ = ["Address", "AddressAllocator", "FlowId"]

#: Type alias for node addresses.
Address = int


class AddressAllocator:
    """Hands out unique integer addresses, starting at 1.

    Address 0 is reserved as the "unspecified" address (analogous to
    ``0.0.0.0``) and never allocated.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self.allocated: dict[Address, str] = {}

    def allocate(self, name: str = "") -> Address:
        """Return a fresh address, remembering the owner's ``name``."""
        addr = next(self._counter)
        self.allocated[addr] = name
        return addr

    def name_of(self, address: Address) -> str:
        """Name registered for ``address`` (empty string if unknown)."""
        return self.allocated.get(address, "")

    def __len__(self) -> int:
        return len(self.allocated)


class FlowId(NamedTuple):
    """Identifies one unidirectional flow (``src``/``dst`` address + port pair).

    A named tuple, so hashing and equality run in C: every arriving segment
    is demultiplexed by its flow.
    """

    src: Address
    dst: Address
    src_port: int = 0
    dst_port: int = 0

    def reversed(self) -> "FlowId":
        """The flow identifier of the opposite direction (ACK path)."""
        return FlowId(self.dst, self.src, self.dst_port, self.src_port)

    def __str__(self) -> str:
        return f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port}"
