#!/usr/bin/env python
"""Compare slow-start strategies on one large bandwidth-delay path.

Runs the same bulk transfer under every congestion-control variant shipped
with this package — standard Reno/NewReno, Limited Slow-Start (RFC 3742),
HyStart, CUBIC and the paper's restricted slow-start — and prints a
comparison table plus a coarse text plot of each algorithm's congestion
window over time, which makes the different slow-start behaviours (overshoot
and collapse vs throttled approach) directly visible.

Usage::

    python examples/slow_start_comparison.py
    python examples/slow_start_comparison.py --paper --duration 20
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis import Table
from repro.spec import RunSpec, execute
from repro.units import Mbps, format_rate
from repro.workloads import PathConfig

ALGORITHMS = ("reno", "newreno", "limited_slow_start", "hystart", "cubic", "restricted")


def sparkline(values: np.ndarray, width: int = 60) -> str:
    """Render a coarse text plot of a series (one char per bucket)."""
    if values.size == 0:
        return ""
    blocks = " .:-=+*#%@"
    stride = max(len(values) // width, 1)
    sampled = values[::stride][:width]
    top = float(sampled.max()) or 1.0
    return "".join(blocks[min(int(v / top * (len(blocks) - 1)), len(blocks) - 1)]
                   for v in sampled)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=12.0)
    parser.add_argument("--paper", action="store_true",
                        help="run on the paper's 100 Mbit/s / 60 ms path")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    config = PathConfig() if args.paper else PathConfig(
        bottleneck_rate_bps=Mbps(30), rtt=0.05, ifq_capacity_packets=50,
        router_buffer_packets=300)

    table = Table(["algorithm", "goodput", "utilization", "send stalls",
                   "cong. signals", "max cwnd (seg)"],
                  title=f"slow-start comparison ({args.duration:.0f} s, "
                        f"{config.bottleneck_rate_bps / 1e6:.0f} Mbit/s, "
                        f"RTT {config.rtt * 1e3:.0f} ms)")
    trajectories: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    for algo in ALGORITHMS:
        result = execute(RunSpec(cc=algo, config=config, duration=args.duration,
                                 seed=args.seed))
        flow = result.flow
        table.add_row(algo, format_rate(flow.goodput_bps),
                      f"{result.link_utilization * 100:.1f}%",
                      flow.send_stalls, flow.congestion_signals,
                      f"{flow.max_cwnd_bytes / config.mss:.0f}")
        trajectories[algo] = (result.cwnd_times, result.cwnd_segments)

    print(table.render())
    print("\ncongestion window over time (text plot, each algorithm normalised "
          "to its own maximum):")
    for algo, (_times, cwnd) in trajectories.items():
        print(f"  {algo:20s} |{sparkline(cwnd)}|")


if __name__ == "__main__":
    main()
