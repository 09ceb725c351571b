"""Canonical per-flow outcome record shared by all engines.

A :class:`FlowRecord` is the smallest common denominator of what every
engine knows about a finished (or truncated) flow: identity, congestion
control, class label, timing, volume, and the loss/stall event counts.
Engines build records either from their native outcome objects via
:meth:`FlowRecord.from_flow` (duck-typed over ``FlowResult`` and
``FluidFlowOutcome``) or directly from state arrays (vector engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["FlowRecord", "class_label_for"]

#: Class label given to flows generated by the open-loop churn process.
CHURN_LABEL = "churn"
#: Class label given to flows declared explicitly in a spec/scenario.
DECLARED_LABEL = "declared"


def class_label_for(name: str) -> str:
    """Default class label for a flow name.

    Churn-generated flows are named ``churn<i>:<cc>`` by the fluid backend;
    everything else is a declared flow.
    """
    return CHURN_LABEL if name.startswith("churn") else DECLARED_LABEL


@dataclass(frozen=True)
class FlowRecord:
    """Canonical outcome of one flow, engine-agnostic.

    ``completion_time`` is the absolute sim time at which the flow's finite
    transfer finished, or ``None`` if it never completed within the run
    (open-ended flows and truncated transfers alike).  ``start_time`` and
    ``completion_time`` share the same clock, so flow completion time (FCT)
    is simply their difference (:attr:`fct`).
    """

    flow_id: str
    cc: str
    src: str = ""
    dst: str = ""
    class_label: str = DECLARED_LABEL
    start_time: float = 0.0
    completion_time: float | None = None
    bytes_acked: int = 0
    goodput_bps: float = 0.0
    send_stalls: int = 0
    loss_events: int = 0
    retransmits: int = 0

    def __post_init__(self) -> None:
        if not self.flow_id:
            raise ValueError("flow_id must be non-empty")
        if self.start_time < 0.0:
            raise ValueError(f"start_time must be >= 0, got {self.start_time}")
        if self.completion_time is not None and self.completion_time < self.start_time:
            raise ValueError(
                f"completion_time {self.completion_time} precedes start_time "
                f"{self.start_time} for flow {self.flow_id!r}"
            )
        if self.bytes_acked < 0:
            raise ValueError(f"bytes_acked must be >= 0, got {self.bytes_acked}")
        for field in ("goodput_bps",):
            if getattr(self, field) < 0.0:
                raise ValueError(f"{field} must be >= 0")
        for field in ("send_stalls", "loss_events", "retransmits"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")

    @property
    def completed(self) -> bool:
        """Whether the flow's finite transfer finished within the run."""
        return self.completion_time is not None

    @property
    def fct(self) -> float | None:
        """Flow completion time (seconds), or ``None`` if incomplete."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time

    @classmethod
    def from_flow(
        cls,
        flow: Any,
        *,
        src: str = "",
        dst: str = "",
        class_label: str | None = None,
    ) -> "FlowRecord":
        """Build a record from an engine-native outcome object.

        Duck-typed over ``experiments.runner.FlowResult`` and
        ``fluid.model.FluidFlowOutcome``: both expose ``name``,
        ``algorithm``, ``start_time``, ``completion_time``, ``bytes_acked``,
        ``goodput_bps``, ``send_stalls``, ``congestion_signals`` and
        ``pkts_retrans``.
        """
        name = flow.name
        return cls(
            flow_id=name,
            cc=flow.algorithm,
            src=src,
            dst=dst,
            class_label=class_label_for(name) if class_label is None else class_label,
            start_time=float(flow.start_time),
            completion_time=(
                None if flow.completion_time is None else float(flow.completion_time)
            ),
            bytes_acked=int(flow.bytes_acked),
            goodput_bps=float(flow.goodput_bps),
            send_stalls=int(flow.send_stalls),
            loss_events=int(flow.congestion_signals),
            retransmits=int(flow.pkts_retrans),
        )
