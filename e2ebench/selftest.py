"""Self-test of the benchmark's own checks, without timing.

Usage (from the checkout root)::

    python3 e2ebench/selftest.py

Each check must pass on the program's real output and fail on a
deliberately wrong copy of it: a packet result short by one byte, one
number changed in a warm report, a stream missing one job event, and a
Table 2 row off by 40%.  Also checks that BENCHMARK.json lists exactly
the per-layer metrics the tracer prints.  Exits 1 on any miss.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


class SelfTest:
    def __init__(self) -> None:
        self.misses = 0

    def expect(self, label: str, problems, should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        self.misses += 0 if ok else 1
        verdict = "ok  " if ok else "MISS"
        detail = problems[0] if problems else "no problem found"
        print(f"{verdict} {label}: {detail}")


def _row_off_by_40pct(report: str) -> str:
    """Multiply both thresholds of Table 2's 2.0 Mbps row by 1.4."""
    def scale(match: "re.Match[str]") -> str:
        return (f"| 2.0 | {float(match.group(1)) * 1.4:.3f} "
                f"| {float(match.group(2)) * 1.4:.3f} |")
    wrong, count = re.subn(r"^\| 2\.0 \| ([0-9.]+) \| ([0-9.]+) \|$", scale,
                           report, flags=re.M)
    if count != 1:
        raise harness.BenchError("the report has no Table 2 row for 2.0 Mbps")
    return wrong


def _one_number_changed(report: str) -> str:
    """Change the first energy figure of Figure 5 by 0.1 J."""
    section = report.index("## Figure 5")
    match = re.compile(r"\| ([0-9]+\.[0-9]) \|").search(report, section)
    if match is None:
        raise harness.BenchError("Figure 5 has no energy figure")
    value = f"{float(match.group(1)) + 0.1:.1f}"
    return report[:match.start(1)] + value + report[match.end(1):]


def test_reports(t: SelfTest, tmp: Path) -> None:
    argv = workloads._cli("report", "--cache-dir", str(tmp / "cache"))
    texts, manifests = [], []
    for run in ("cold", "warm"):
        out = tmp / f"{run}.md"
        code, _wall, _rss = harness.run_child(
            argv, stdout_path=out, stderr_path=tmp / f"{run}.err")
        if code != 0:
            raise harness.BenchError(f"{run} report exited {code}")
        texts.append(out.read_text())
        manifests.append(checks.read_manifest(tmp / "cache" / "last-run.jsonl"))
    cold, warm = texts
    t.expect("cold report", checks.check_report(cold), False)
    t.expect("cold manifest", checks.check_cold_manifest(manifests[0]), False)
    t.expect("Table 2 row off by 40%",
             checks.check_report(_row_off_by_40pct(cold)), True)
    t.expect("cold manifest read as warm",
             checks.check_cold_manifest(manifests[1]), True)
    t.expect("warm report", checks.check_warm(cold, warm, manifests[1]), False)
    t.expect("warm report with one number changed",
             checks.check_warm(cold, _one_number_changed(warm), manifests[1]),
             True)


def test_packet(t: SelfTest) -> None:
    harness.import_program()
    from repro.experiments import static_bw
    from repro.runtime.spec import RunSpec
    from repro.units import mib

    size = mib(workloads.PACKET_MIB)
    kwargs = {"good_wifi": True, "download_bytes": size,
              "lte_mbps": static_bw.LAB_LTE_MBPS}
    packet = RunSpec(protocol="emptcp", builder="static", kwargs=kwargs,
                     seed=7, engine="packet").execute()
    fluid = RunSpec(protocol="emptcp", builder="static", kwargs=kwargs,
                    seed=7).execute()

    def check(result):
        return checks.check_packet("emptcp", True, size,
                                   static_bw.GOOD_WIFI_MBPS,
                                   static_bw.LAB_LTE_MBPS, result, fluid)

    t.expect("packet result", check(packet), False)
    short = dataclasses.replace(packet,
                                bytes_received=packet.bytes_received - 1)
    t.expect("packet result short by one byte", check(short), True)


def test_stream(t: SelfTest, tmp: Path) -> None:
    handle = workloads.ServiceHandle(tmp / "service")
    try:
        request = workloads._sweep_request(0, 0, 0)
        jobs = workloads.SweepClient(handle.port).sweep(request)
    finally:
        handle.close()
    problems, short = workloads.check_sweeps([(request, jobs)])
    t.expect("sweep stream", problems + ["short"] * short, False)
    problems, short = workloads.check_sweeps([(request, jobs[1:])])
    t.expect("sweep stream missing one job event",
             problems + ["a job event is missing"] * short, True)


def test_benchmark_json(t: SelfTest) -> None:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    t.expect("BENCHMARK.json per_layer matches the tracer",
             [] if listed == list(layers.PER_LAYER)
             else ["per_layer list differs from layers.PER_LAYER"], False)


def main() -> int:
    harness.require_source()
    t = SelfTest()
    with harness.scratch_dir("selftest") as tmp:
        test_benchmark_json(t)
        test_packet(t)
        test_stream(t, tmp)
        test_reports(t, tmp)
    print(f"{t.misses} miss(es)")
    return 1 if t.misses else 0


if __name__ == "__main__":
    sys.exit(main())
