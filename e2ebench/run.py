"""The benchmark's command: run one workload, check it, print metrics.

Usage (from the root of a source checkout)::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
the end-to-end ones (``--trace 0``) or the per-layer ones
(``--trace 1``).  Problems found by the checks go to standard error.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="e2ebench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops-file", default=None,
                        help="also write per-op latencies and run facts "
                             "as JSON here (used by steady.py)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.require_source()
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace))
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.ops_file:
        Path(args.ops_file).write_text(json.dumps(outcome.detail))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
