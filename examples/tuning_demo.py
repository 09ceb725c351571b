#!/usr/bin/env python
"""Ziegler–Nichols tuning of the restricted slow-start controller.

The paper obtains its PID gains by raising the proportional gain until the
loop oscillates (the ultimate-gain experiment) and then applying the
modified constants Kp = 0.33·Kc, Ti = 0.5·Tc, Td = 0.33·Tc.  This example
automates that procedure against the simulator:

1. relay-feedback tuning against the fluid interface-queue model (fast);
2. optionally, the full packet-level ultimate-gain sweep (``--packet-level``);
3. a verification run with the tuned gains, reporting stalls, throughput and
   how closely the IFQ tracks the 90% set point.

Usage::

    python examples/tuning_demo.py
    python examples/tuning_demo.py --packet-level --rule zn_classic_pid
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.control import TUNING_RULES
from repro.core import (
    RestrictedSlowStartConfig,
    autotune_gains,
    autotune_gains_fluid,
)
from repro.spec import RunSpec, execute
from repro.units import Mbps, format_rate
from repro.workloads import PathConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rule", default="allcock_modified", choices=sorted(TUNING_RULES),
                        help="tuning rule applied to the measured (Kc, Tc)")
    parser.add_argument("--packet-level", action="store_true",
                        help="also run the packet-level ultimate-gain sweep (slow)")
    parser.add_argument("--duration", type=float, default=12.0,
                        help="verification run duration (simulated seconds)")
    args = parser.parse_args()

    # A moderate path keeps the packet-level option tolerable.
    config = PathConfig(bottleneck_rate_bps=Mbps(50), rtt=0.06,
                        ifq_capacity_packets=100)

    print("== 1. relay-feedback tuning on the fluid IFQ model ==")
    fluid = autotune_gains_fluid(config, rule=args.rule)
    for key, value in fluid.summary().items():
        print(f"  {key:12s} {value}")

    gains = fluid.gains
    if args.packet_level:
        print("\n== 2. packet-level ultimate-gain experiment (this takes a while) ==")
        packet = autotune_gains(config=config, rule=args.rule, duration=5.0,
                                max_iterations=10, refine_steps=2)
        for key, value in packet.summary().items():
            print(f"  {key:12s} {value}")
        gains = packet.gains

    print("\n== 3. verification run with the tuned gains ==")
    rss = RestrictedSlowStartConfig(gains=gains)
    result = execute(RunSpec(cc="restricted", config=config, duration=args.duration,
                             rss_config=rss))
    tail = result.ifq_occupancy[result.ifq_times > args.duration / 2.0]
    setpoint = 0.9 * config.ifq_capacity_packets
    print(f"  goodput          {format_rate(result.goodput_bps)} "
          f"({result.link_utilization * 100:.1f}% of the bottleneck)")
    print(f"  send stalls      {result.send_stalls}")
    print(f"  IFQ set point    {setpoint:.0f} packets")
    print(f"  IFQ tail mean    {float(np.mean(tail)) if tail.size else 0.0:.1f} packets")
    print(f"  IFQ peak         {result.ifq_peak} packets "
          f"(capacity {config.ifq_capacity_packets})")


if __name__ == "__main__":
    main()
