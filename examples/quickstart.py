#!/usr/bin/env python
"""Quickstart: standard TCP vs restricted slow-start on one long fat path.

Runs two short bulk transfers over the same simulated path — one with
standard (Reno) TCP, one with the paper's PID-restricted slow-start — and
prints the throughput, send-stall and window statistics side by side.

By default a scaled-down path (20 Mbit/s, 40 ms RTT, 20-packet interface
queue) is used so the script finishes in a few seconds; pass ``--paper`` to
use the paper's full-scale ANL–LBNL configuration (100 Mbit/s, 60 ms RTT,
100-packet ``txqueuelen``), which takes a minute or two.

Usage::

    python examples/quickstart.py
    python examples/quickstart.py --paper --duration 25
"""

from __future__ import annotations

import argparse

from repro.experiments import comparison_table
from repro.spec import ComparisonSpec, RunSpec, execute
from repro.units import Mbps, format_rate
from repro.workloads import PathConfig


def make_config(paper_scale: bool) -> PathConfig:
    """The paper's path, or a scaled-down one preserving the same regime."""
    if paper_scale:
        return PathConfig()  # 100 Mbit/s, 60 ms, txqueuelen 100
    return PathConfig(
        bottleneck_rate_bps=Mbps(20),
        rtt=0.040,
        ifq_capacity_packets=20,
        router_buffer_packets=150,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper", action="store_true",
                        help="use the full-scale ANL-LBNL path from the paper")
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (default: 10, or 25 with --paper)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    config = make_config(args.paper)
    duration = args.duration if args.duration is not None else (25.0 if args.paper else 10.0)

    print(f"path: {format_rate(config.bottleneck_rate_bps)}, "
          f"RTT {config.rtt * 1e3:.0f} ms, IFQ {config.ifq_capacity_packets} packets, "
          f"BDP ~{config.bdp_packets:.0f} packets")
    print(f"running {duration:.0f} s bulk transfers (this is a packet-level "
          f"simulation; please wait)...\n")

    comparison = execute(ComparisonSpec(
        base=RunSpec(config=config, duration=duration, seed=args.seed),
        algorithms=("reno", "restricted")))
    print(comparison_table(comparison, title="standard TCP vs restricted slow-start").render())

    reno = comparison.runs["reno"]
    restricted = comparison.runs["restricted"]
    print()
    print(f"send stalls:      standard={reno.send_stalls}  restricted={restricted.send_stalls}")
    print(f"goodput:          standard={format_rate(reno.goodput_bps)}  "
          f"restricted={format_rate(restricted.goodput_bps)}")
    print(f"improvement:      {comparison.improvement_percent('restricted'):+.1f}% "
          f"(the paper reports ~40% on its testbed)")


if __name__ == "__main__":
    main()
