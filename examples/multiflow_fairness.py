#!/usr/bin/env python
"""Multi-flow fairness: does restricted slow-start play well with others?

A sender-side slow-start modification is only deployable if it neither
starves competing standard flows nor gets starved by them.  This example
runs 2 and 4 concurrent bulk flows over a shared bottleneck in three
populations — all standard, all restricted, and a 50/50 mix — and reports
aggregate utilisation, Jain's fairness index and the bandwidth share of the
restricted flows in the mixed case.

Usage::

    python examples/multiflow_fairness.py
    python examples/multiflow_fairness.py --flows 2 8 --duration 20
"""

from __future__ import annotations

import argparse

from repro.experiments import render_fairness
from repro.experiments.fairness import fairness_from_campaign, fairness_spec
from repro.spec import execute
from repro.units import Mbps
from repro.workloads import PathConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, nargs="+", default=[2, 4],
                        help="flow counts to evaluate")
    parser.add_argument("--duration", type=float, default=12.0,
                        help="simulated seconds per scenario")
    parser.add_argument("--paper", action="store_true",
                        help="use the full 100 Mbit/s path (slower)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    config = PathConfig() if args.paper else PathConfig(
        bottleneck_rate_bps=Mbps(30), rtt=0.05, ifq_capacity_packets=40,
        router_buffer_packets=300)

    print(f"bottleneck {config.bottleneck_rate_bps / 1e6:.0f} Mbit/s, "
          f"RTT {config.rtt * 1e3:.0f} ms, {args.duration:.0f} s per scenario\n")
    grid = dict(flow_counts=tuple(args.flows),
                mixes=("standard", "restricted", "half"))
    result = fairness_from_campaign(
        execute(fairness_spec(**grid, duration=args.duration, config=config,
                              seed=args.seed)), **grid)
    print(render_fairness(result))

    print("\ninterpretation:")
    for n in args.flows:
        half = result.row_for(n, "half")
        share = half["restricted_share"]
        print(f"  {n} flows, 50/50 mix: restricted flows take "
              f"{share * 100:.1f}% of the aggregate goodput "
              f"(fair share would be ~50%), Jain index {half['jain_index']:.3f}")


if __name__ == "__main__":
    main()
