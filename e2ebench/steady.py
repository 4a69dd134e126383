"""Steadiness of one workload: run it N times, each with its own seed.

Usage (from the checkout root)::

    python3 e2ebench/steady.py --workload NAME [--runs 10] [--seed0 1]

Prints, for every end-to-end metric, the median, the quartiles and the
spread (interquartile range over the median) against the metric's
bound in BENCHMARK.json.  Per run it prints the failed share, the host
reference loop and the drift between the first and the last tenth of
the run's ops, which shows growth in the service's store and journal
or in the report cache's telemetry files.  Exits 1 when a spread
exceeds its bound or the failed share differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def drift_pct(op_ms):
    """Median of the last tenth of ops against the first tenth, in %."""
    tenth = len(op_ms) // 10
    if tenth < 1:
        return None
    first = statistics.median(op_ms[:tenth])
    last = statistics.median(op_ms[-tenth:])
    return (last - first) / first * 100.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = set()
    print(f"{'seed':>5} {'ops':>5} {'failed':>7} {'ref_ms':>7} {'drift%':>7} "
          f"{'op_ms_p50':>10} {'cpu_ms/op':>10} {'setup_s':>8}")
    with harness.scratch_dir("steady") as tmp:
        ops_file = tmp / "ops.json"
        for seed in range(args.seed0, args.seed0 + args.runs):
            argv = bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
                "--ops-file", str(ops_file)]
            proc = subprocess.run(argv, cwd=harness.ROOT, text=True,
                                  stdout=subprocess.PIPE, timeout=600)
            if proc.returncode != 0:
                print(f"seed {seed}: exit {proc.returncode}")
                return 1
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads(ops_file.read_text())
            shares.add(Fraction(doc["failed"], doc["attempted"]))
            for name in values:
                values[name].append(doc["metrics"][name]["value"])
            drift = drift_pct(detail["op_ms"])
            print(f"{seed:>5} {doc['attempted']:>5} {doc['failed']:>7} "
                  f"{statistics.median(detail['host_ref_ms']):>7.2f} "
                  f"{'n/a' if drift is None else f'{drift:+.1f}':>7} "
                  f"{doc['metrics']['op_ms_p50']['value']:>10.2f} "
                  f"{doc['metrics']['cpu_ms_per_op']['value']:>10.2f} "
                  f"{doc['metrics']['setup_s']['value']:>8.3f}"
                  f"{'' if doc['correct'] else '  INCORRECT'}")
    ok = len(shares) == 1
    print(f"failed share: {sorted(str(s) for s in shares)}"
          f"{'' if ok else '  DIFFERS'}")
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]["bound"]
        flag = "" if spread <= bound else "  OVER"
        if name != "setup_s":
            ok = ok and spread <= bound
        print(f"{name:<14} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>7.3f} {bound:>6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
