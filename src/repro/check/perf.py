"""Perf-telemetry invariants (CHK6xx) — the profiler/perf check tier.

Validates the two artefacts :mod:`repro.obs.prof` and
:mod:`repro.runtime.perf` produce — the profile record of a run record
and the perf record of a run-manifest line:

* **CHK601** — the perf record on each executed run-manifest line is
  schema-complete and internally consistent: required keys present,
  counters non-negative, and the claimed throughput matches
  ``events / wall_s`` (the record is computed from one measured run,
  so the identity holds exactly up to float noise).
* **CHK602** — a profile record is a well-formed tree: every non-root
  path has its parent in the export, counts are positive, totals
  non-negative, and depth agrees with the path.
* **CHK603** — conservation: the direct children of a span never
  accumulate more cumulative wall or sim time than the parent itself
  (self time is non-negative).  Wall clocks are noisy, so the wall
  comparison carries a small absolute tolerance; sim time is
  deterministic and gets only a float epsilon.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from repro.check.findings import Report, Severity
from repro.errors import ConfigurationError
from repro.obs.prof import PATH_SEP
from repro.obs.trace import iter_trace_files, read_run_record
from repro.runtime.manifest import RunManifest

#: Required keys of a PerfRecord dict.
PERF_RECORD_KEYS = (
    "spec_hash",
    "engine",
    "wall_s",
    "sim_s",
    "events",
    "events_per_sec",
)

#: Relative slack on the events_per_sec == events / wall_s identity.
EPS_RATIO = 1e-6

#: Absolute wall-clock slack (seconds) for CHK603: timer reads inside
#: the parent but outside any child legitimately cost a few µs each.
WALL_SLACK_S = 5e-3

#: Sim time is deterministic; only float accumulation error is allowed.
SIM_EPS = 1e-9


def check_perf_record(
    record: Mapping[str, Any],
    report: Report,
    where: str = "",
) -> None:
    """CHK601 over one perf record dict."""
    report.checked += 1
    context = where or str(record.get("label") or "")
    missing = [key for key in PERF_RECORD_KEYS if key not in record]
    if missing:
        report.add(
            "CHK601",
            f"perf record missing key(s): {', '.join(missing)}",
            context=context,
        )
        return
    try:
        wall = float(record["wall_s"])
        sim = float(record["sim_s"])
        events = int(record["events"])
        eps = float(record["events_per_sec"])
    except (TypeError, ValueError) as exc:
        report.add(
            "CHK601",
            f"perf record has non-numeric field: {exc}",
            context=context,
        )
        return
    for name, value in (("wall_s", wall), ("sim_s", sim),
                        ("events", events), ("events_per_sec", eps)):
        if value < 0:
            report.add(
                "CHK601",
                f"perf record field {name} is negative ({value})",
                context=context,
            )
    if wall > 0:
        expected = events / wall
        slack = EPS_RATIO * max(expected, 1.0)
        if abs(eps - expected) > slack:
            report.add(
                "CHK601",
                f"events_per_sec inconsistent: recorded {eps:.2f}, but "
                f"events/wall_s = {expected:.2f}",
                context=context,
            )


def check_spans(profile: Mapping[str, Any], where: str = "") -> Report:
    """CHK602/CHK603 over one :meth:`Profiler.to_dict` export."""
    report = Report(tier="perf")
    spans = profile.get("spans", [])
    by_path: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        report.checked += 1
        path = str(span.get("path", ""))
        context = f"{where}:{path}" if where else path
        parts = path.split(PATH_SEP) if path else []
        if not path:
            report.add("CHK602", "span with empty path", context=context)
            continue
        by_path[path] = span
        if int(span.get("depth", 0)) != len(parts):
            report.add(
                "CHK602",
                f"span depth {span.get('depth')} disagrees with path "
                f"({len(parts)} component(s))",
                context=context,
            )
        if int(span.get("count", 0)) < 1:
            report.add(
                "CHK602",
                f"span recorded with count {span.get('count')} (< 1)",
                context=context,
            )
        for field in ("wall_s", "sim_s"):
            if float(span.get(field, 0.0)) < 0:
                report.add(
                    "CHK602",
                    f"span has negative {field} ({span.get(field)})",
                    context=context,
                )
    children: Dict[str, List[Dict[str, Any]]] = {}
    for path, span in by_path.items():
        parts = path.split(PATH_SEP)
        if len(parts) == 1:
            continue
        parent = PATH_SEP.join(parts[:-1])
        if parent not in by_path:
            report.add(
                "CHK602",
                f"orphan span: parent {parent!r} missing from export",
                context=f"{where}:{path}" if where else path,
            )
            continue
        children.setdefault(parent, []).append(span)
    for parent_path, kids in sorted(children.items()):
        parent = by_path[parent_path]
        context = f"{where}:{parent_path}" if where else parent_path
        child_wall = sum(float(k.get("wall_s", 0.0)) for k in kids)
        child_sim = sum(float(k.get("sim_s", 0.0)) for k in kids)
        if child_wall > float(parent.get("wall_s", 0.0)) + WALL_SLACK_S:
            report.add(
                "CHK603",
                f"children's cumulative wall ({child_wall * 1e3:.2f} ms) "
                f"exceeds parent's ({float(parent.get('wall_s', 0.0)) * 1e3:.2f} ms)",
                context=context,
            )
        if child_sim > float(parent.get("sim_s", 0.0)) + SIM_EPS:
            report.add(
                "CHK603",
                f"children's cumulative sim time ({child_sim:.6f} s) "
                f"exceeds parent's ({float(parent.get('sim_s', 0.0)):.6f} s)",
                context=context,
            )
    return report


def check_perf_target(target: Union[str, Path]) -> Report:
    """CLI entry: CHK602/603 over the profile record of a run record
    (or of every one under a directory), CHK601 over a JSONL run
    manifest.  A run captured without ``--profile`` has nothing to
    check."""
    path = Path(target)
    report = Report(tier="perf")
    if path.is_dir():
        for file in iter_trace_files(path):
            sub = check_perf_target(file)
            report.extend(sub.findings)
            report.checked += sub.checked
        if not report.checked and not report.findings:
            report.checked += 1
            report.add(
                "CHK601",
                f"no profiled run record under {path}",
                severity=Severity.WARNING,
            )
        return report
    if not path.name.endswith(".trace.jsonl"):
        return check_manifest_perf(path)
    try:
        profile = read_run_record(path).profile
    except (OSError, ValueError) as exc:
        report.checked += 1
        report.add("CHK601", f"cannot parse {path}: {exc}", path=str(path))
        return report
    if profile is not None:
        sub = check_spans(profile, where=path.name)
        report.extend(sub.findings)
        report.checked += sub.checked
    return report


def check_manifest_perf(path: Union[str, Path]) -> Report:
    """CHK601 over the perf record of every manifest line that has one
    (cached runs carry none)."""
    report = Report(tier="perf")
    try:
        entries = RunManifest.read(path)
    except ConfigurationError as exc:
        report.checked += 1
        report.add("CHK601", f"{path}: {exc}", path=str(path))
        return report
    for entry in entries:
        if entry.perf is not None:
            check_perf_record(entry.perf, report, where=entry.label)
    return report


__all__ = [
    "PERF_RECORD_KEYS",
    "check_manifest_perf",
    "check_perf_record",
    "check_perf_target",
    "check_spans",
]
