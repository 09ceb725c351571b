"""Per-layer timing for the traced run.

:meth:`LayerFold.install` replaces the public entry points of each layer
of :mod:`repro` with wrappers, at class (or module) level, from the
benchmark's own files: nothing under ``src/`` changes.  Each wrapper keeps
a parent stack and folds, per layer, the call count, the inclusive time
and the self time (inclusive minus the time spent in nested wrapped
calls).  The fold lives in memory; the child process reports it once,
after the timed pass.

Work not reached through one of these entry points counts as the self time
of the nearest wrapped caller.  For example the simulator dispatches
``NetworkInterface._deliver`` and ``_transmission_complete`` straight from
its event loop, so the bookkeeping they do lands in ``sim``, while the
``Router.receive`` / ``Host.receive`` calls they make land in ``net`` and
``host``.  Time outside every wrapped call (result assembly, the
benchmark's own loop) is in no layer: ``trace.coverage`` is the share the
layers do account for.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Iterator

#: Layer names, in report order.  They follow this repository's packages;
#: ``net.aqm`` and ``tcp.cc`` split the AQM disciplines and the congestion
#: controllers from the rest of their package.
LAYERS = (
    "sim",
    "net",
    "net.aqm",
    "host",
    "tcp",
    "tcp.cc",
    "control.pid",
    "fluid",
    "metrics",
    "workloads",
    "spec",
    "campaign.store.get",
    "campaign.store.put",
    "experiments.results_io",
)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def entry_points() -> Iterator[tuple[str, Any, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point.

    ``owner`` is a class or a module.  Methods are wrapped only on the
    classes that define them, so an inherited method is timed once, under
    the layer of the class that wrote it.
    """
    from repro.campaign.store import ResultStore
    from repro.control.pid import PIDController
    from repro.core.restricted_slow_start import RestrictedSlowStart  # noqa: F401 - registers the subclass
    from repro.experiments import results_io
    from repro.fluid.model import FluidFlowModel, FluidMultiFlowModel
    from repro.fluid.vector import FluidPopulationModel
    from repro.host.host import Host
    from repro.metrics.summary import SummaryAccumulator
    from repro.net.aqm import CoDelQueue, DualPI2Queue
    from repro.net.interface import NetworkInterface
    from repro.net.queues import PacketQueue, REDQueue
    from repro.net.router import Router
    from repro.sim.engine import Simulator
    from repro.spec import SpecBase
    from repro.tcp.cc import CongestionControl
    from repro.tcp.connection import TCPConnection
    from repro.tcp.stack import TCPStack

    compile_module = importlib.import_module("repro.workloads.compile")

    yield "sim", Simulator, "run"
    yield "net", NetworkInterface, "send"
    yield "net", Router, "receive"
    aqms = (REDQueue, CoDelQueue, DualPI2Queue)
    for cls in _subclasses(PacketQueue):
        for name in ("enqueue", "dequeue"):
            if name in vars(cls):
                yield ("net.aqm" if cls in aqms else "net"), cls, name
    yield "host", Host, "receive"
    yield "tcp", TCPStack, "handle_segment"
    yield "tcp", TCPConnection, "handle_segment"
    yield "tcp", TCPConnection, "app_write"
    for cls in _subclasses(CongestionControl):
        if "on_ack" in vars(cls):
            yield "tcp.cc", cls, "on_ack"
    yield "control.pid", PIDController, "update"
    for cls in (FluidFlowModel, FluidMultiFlowModel, FluidPopulationModel):
        yield "fluid", cls, "run"
    for name in ("add", "add_arrays", "finalize"):
        yield "metrics", SummaryAccumulator, name
    yield "workloads", compile_module, "compile_scenario"
    for cls in _subclasses(SpecBase):
        if "cache_key" in vars(cls):
            yield "spec", cls, "cache_key"
    yield "campaign.store.get", ResultStore, "get"
    yield "campaign.store.put", ResultStore, "put_document"
    yield "experiments.results_io", results_io, "result_document"
    yield "experiments.results_io", results_io, "validate_document"


class LayerFold:
    """Call count, inclusive and self seconds per layer (module docstring)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list[float]] = []
        #: layer -> [calls, inclusive seconds, self seconds]
        self._cells: dict[str, list[float]] = {layer: [0, 0.0, 0.0] for layer in LAYERS}

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed under ``layer``."""
        cell = self._cells[layer]
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]  # seconds spent in nested wrapped calls
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every :func:`entry_points` target for the rest of the process."""
        for layer, owner, name in list(entry_points()):
            original = vars(owner)[name]
            wrapped = self.wrap(layer, original)
            setattr(owner, name, wrapped)
            if isinstance(owner, type):
                continue
            # module functions: rebind names other modules imported eagerly
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, name, None) is original):
                    setattr(module, name, wrapped)

    def reset(self) -> None:
        """Zero the fold (between set-up and the timed pass)."""
        for cell in self._cells.values():
            cell[:] = [0, 0.0, 0.0]

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "inclusive_s", "self_s"}}`` for every layer."""
        return {layer: {"calls": int(calls), "inclusive_s": inclusive, "self_s": own}
                for layer, (calls, inclusive, own) in self._cells.items()}
