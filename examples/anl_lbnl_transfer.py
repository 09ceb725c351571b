#!/usr/bin/env python
"""Reproduce the paper's evaluation: Figure 1 and the headline throughput.

Replays the experiment of Section 4 — a 25-second memory-to-memory bulk
transfer over a 100 Mbit/s, 60 ms-RTT path between an "ANL" sender and an
"LBNL" receiver with a stock 100-packet interface queue — once with standard
Linux-style TCP and once with restricted slow-start, then prints

* the cumulative send-stall signal series (the two curves of Figure 1), and
* the throughput comparison the paper summarises as "40% improvement".

Usage::

    python examples/anl_lbnl_transfer.py              # full 25 s runs (~1 min)
    python examples/anl_lbnl_transfer.py --duration 10 --quick
"""

from __future__ import annotations

import argparse

from repro.experiments import render_figure1, render_throughput
from repro.experiments.figure1 import figure1_from_comparison, figure1_spec
from repro.experiments.throughput import throughput_from_comparison, throughput_spec
from repro.spec import execute
from repro.units import Mbps
from repro.workloads import PathConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=25.0,
                        help="transfer duration in simulated seconds (paper: 25)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="run on a 50 Mbit/s path to halve the runtime")
    args = parser.parse_args()

    config = PathConfig()
    if args.quick:
        config = config.replace(bottleneck_rate_bps=Mbps(50))

    print("=== Figure 1: cumulative send-stall signals over time ===")
    figure1 = figure1_from_comparison(
        execute(figure1_spec(duration=args.duration, config=config, seed=args.seed)))
    print(render_figure1(figure1))
    print()

    print("=== Section 4 headline: throughput comparison ===")
    throughput = throughput_from_comparison(
        execute(throughput_spec(duration=args.duration, config=config, seed=args.seed)))
    print(render_throughput(throughput))

    print()
    print("shape check:",
          "OK" if (figure1.shape_holds() and throughput.shape_holds()) else "MISMATCH")


if __name__ == "__main__":
    main()
