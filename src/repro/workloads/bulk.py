"""Bulk-flow declarations for the dumbbell form of multi-flow specs.

A :class:`BulkFlowSpec` describes one flow (which algorithm, how many bytes,
when it starts, which sender/receiver pair).  ``MultiFlowSpec(flows=...)``
carries a tuple of them; :func:`repro.spec.scenario.from_bulk_flows` turns
that tuple into the :class:`~repro.spec.scenario.ScenarioSpec` every engine
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = ["BulkFlowSpec"]


@dataclass(frozen=True)
class BulkFlowSpec:
    """Description of one bulk TCP flow.

    Attributes
    ----------
    cc:
        Congestion-control registry name ("reno", "restricted", ...).
    total_bytes:
        Bytes to transfer, or ``None`` for a flow that sends for the whole
        experiment duration.
    start_time:
        When the flow starts (seconds).
    path_index:
        Which sender/receiver pair of the dumbbell carries the flow;
        ``None`` puts flow ``i`` on pair ``i``.  Ignored when the spec sets
        ``shared_paths``.
    cc_kwargs:
        Extra keyword arguments for the algorithm factory; for
        ``restricted``, :class:`~repro.core.config.RestrictedSlowStartConfig`
        field overrides.
    """

    cc: str = "reno"
    total_bytes: int | None = None
    start_time: float = 0.0
    path_index: int | None = None
    cc_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ConfigurationError("start_time must be >= 0")
        if self.total_bytes is not None and self.total_bytes <= 0:
            raise ConfigurationError("total_bytes must be positive or None")
