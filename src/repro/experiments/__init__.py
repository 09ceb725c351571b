"""Experiment harness reproducing every figure/table plus the ablations."""

from .aqm_gallery import AQMGalleryResult, aqm_gallery_spec, render_aqm_gallery
from .baselines import BaselineComparisonResult, render_baselines
from .fairness import FairnessResult, flow_mix, render_fairness
from .figure1 import Figure1Result, figure1_spec, render_figure1
from .parallel import default_worker_count, map_specs
from .registry import EXPERIMENTS, ExperimentSpec, all_experiments, get_experiment
from .report import (
    comparison_table,
    cumulative_stall_series,
    multi_flow_table,
    population_summary_table,
    render_population_summary,
    render_series,
    single_flow_summary,
)
from .runner import (
    ComparisonResult,
    FlowResult,
    MultiFlowResult,
    SingleFlowResult,
)
from .sweeps import (
    SweepResult,
    bandwidth_sweep_spec,
    execute_sweep_spec,
    fairness_sweep_spec,
    ifq_sweep_spec,
    render_sweep,
    rtt_sweep_spec,
    setpoint_sweep_spec,
    transfer_size_sweep_spec,
)
from .throughput import ThroughputResult, render_throughput, throughput_spec
from .tuning_ablation import TuningAblationResult, render_tuning_ablation

__all__ = [
    "FlowResult",
    "SingleFlowResult",
    "MultiFlowResult",
    "ComparisonResult",
    "render_figure1",
    "Figure1Result",
    "render_throughput",
    "ThroughputResult",
    "SweepResult",
    "render_sweep",
    "render_tuning_ablation",
    "TuningAblationResult",
    "render_baselines",
    "BaselineComparisonResult",
    "render_fairness",
    "flow_mix",
    "FairnessResult",
    "render_aqm_gallery",
    "aqm_gallery_spec",
    "AQMGalleryResult",
    "comparison_table",
    "multi_flow_table",
    "population_summary_table",
    "render_population_summary",
    "single_flow_summary",
    "cumulative_stall_series",
    "render_series",
    "map_specs",
    "default_worker_count",
    "EXPERIMENTS",
    "ExperimentSpec",
    "get_experiment",
    "all_experiments",
    "figure1_spec",
    "throughput_spec",
    "ifq_sweep_spec",
    "rtt_sweep_spec",
    "bandwidth_sweep_spec",
    "setpoint_sweep_spec",
    "transfer_size_sweep_spec",
    "fairness_sweep_spec",
    "execute_sweep_spec",
]
