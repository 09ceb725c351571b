"""Command line of the benchmark.

``python -m simbench run [--rounds 5] [--seed 1] [--traced] [-o FILE]``
    every workload, round-robin; prints each end-to-end metric and writes
    one JSON result (medians, quartiles, sample counts, fingerprints).
``python -m simbench check A.json B.json``
    B against A, per workload and end-to-end metric; exits 1 on a
    regression beyond the bound in ``BENCHMARK.json`` or a fingerprint change.
``python -m simbench --workload NAME --seed N --seconds S --trace 0|1``
    one workload for about S seconds; the last line of output is a JSON
    object with ``correct``, ``attempted``, ``failed`` and the end-to-end
    (``--trace 0``) or per-layer (``--trace 1``) metrics named in
    ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness


def _run(argv: list[str]) -> int:
    names = [w["name"] for w in harness.benchmark_spec()["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m simbench run")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true",
                        help="also run a traced child per round and report layers")
    parser.add_argument("-o", "--output", type=Path,
                        default=harness.ROOT / ".simbench" / "result.json")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    harness.require_source()
    result = harness.run_suite(names, args.seed, args.rounds, args.traced)
    failed = False
    for name, summary in result["workloads"].items():
        print("\n".join(harness.render_summary(name, summary)))
        failed |= summary["failed"] > 0
    print(f"total wall {result['total_wall_s']:.1f} s on {result['nproc']} cpus; "
          f"wrote {harness.dump(result, args.output)}")
    return 1 if failed else 0


def _check(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m simbench check")
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.baseline, args.candidate))
    lines, bad = harness.compare(a, b, harness.benchmark_spec())
    print("\n".join(lines))
    return 1 if bad else 0


def _contract(argv: list[str]) -> int:
    spec = harness.benchmark_spec()
    parser = argparse.ArgumentParser(prog="python -m simbench")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.require_source()
    traced = args.trace == 1
    untraced, traced_samples = harness.measure(args.workload, args.seed, args.seconds,
                                               traced)
    summary = harness.summarize(untraced, traced_samples)
    print("\n".join(harness.render_summary(args.workload, summary)))
    print(json.dumps(harness.contract_result(summary, traced, spec)))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = {"run": _run, "check": _check}
    try:
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:])
        return _contract(argv)
    except harness.BenchError as exc:
        print(f"simbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
