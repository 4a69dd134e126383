"""CHK7xx — distributed-trace topology checks.

Validates the lifecycle-span layer (:mod:`repro.obs.dist`) the same
way CHK3xx validates run events: structural invariants that hold for
every correctly-traced batch, checked post-hoc over the exported
JSONL.  Rules:

========  ============================================================
CHK700    a lifecycle file contains no parseable spans (warning — an
          empty or torn file is suspicious but not structural).
CHK701    orphan parent: a span names a ``parent_span_id`` that does
          not exist in its trace, so the span is unreachable from the
          batch root.
CHK702    a trace does not have exactly one root span (``batch``):
          zero roots means the batch span was never closed, several
          mean two batches collided on one trace id.
CHK703    time containment: a child span leaves its parent's
          ``[start_t, end_t]`` window, or a job's queue-wait plus
          execution time exceeds the batch wall time (beyond a small
          scheduling epsilon).
CHK704    a span ends before it starts (negative duration).
CHK705    a stamped run record (``<hash>.trace.jsonl``) references a
          trace or span id that no lifecycle file defines — the
          correlation the layer exists for is broken.
========  ============================================================

A directory with no lifecycle files at all yields an OK report (zero
checked): batch-mode obs dirs produced with tracing off are valid, not
suspicious.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Set, Union

from repro.check.findings import Finding, Report, Severity
from repro.obs.dist import (
    SPAN_BATCH,
    LifecycleSpan,
    iter_lifecycle_files,
    read_lifecycle,
)
from repro.obs.trace import iter_trace_files, read_run_record

TIER = "trace"

#: Scheduling slack allowed before CHK703 fires, seconds.  Spans are
#: recorded from clock reads on either side of async hops; a few tens
#: of milliseconds of skew is bookkeeping, not a broken tree.
EPSILON_S = 0.05


def check_trace_topology(target: Union[str, Path]) -> Report:
    """Run CHK700–CHK705 over every lifecycle file under ``target``."""
    report = Report(tier=TIER)
    target = Path(target)
    files = iter_lifecycle_files(target)
    if not files:
        return report
    known: Dict[str, Set[str]] = {}
    for path in files:
        spans = read_lifecycle(path)
        report.checked += 1
        if not spans:
            report.add(
                "CHK700",
                "lifecycle file contains no parseable spans",
                path=str(path),
                severity=Severity.WARNING,
            )
            continue
        by_id = {span.span_id: span for span in spans}
        trace_id = spans[0].trace_id
        known.setdefault(trace_id, set()).update(by_id)
        _check_trace(report, str(path), trace_id, by_id)
    scan_dir = target if target.is_dir() else target.parent
    _check_references(report, scan_dir, known)
    return report


def _check_trace(
    report: Report,
    path: str,
    trace_id: str,
    by_id: Dict[str, LifecycleSpan],
) -> None:
    roots = [span for span in by_id.values() if not span.parent_span_id]
    if len(roots) != 1:
        names = sorted(span.name for span in roots)
        report.add(
            "CHK702",
            f"trace {trace_id} has {len(roots)} root spans "
            f"(expected exactly 1 batch root): {names or 'none'}",
            path=path,
        )
    for span in by_id.values():
        if span.end_t < span.start_t - EPSILON_S:
            report.add(
                "CHK704",
                f"span {span.name}[{span.span_id}] ends "
                f"{span.start_t - span.end_t:.3f}s before it starts",
                path=path,
            )
        parent = (
            by_id.get(span.parent_span_id) if span.parent_span_id else None
        )
        if span.parent_span_id and parent is None:
            report.add(
                "CHK701",
                f"span {span.name}[{span.span_id}] has unknown parent "
                f"{span.parent_span_id} — unreachable from the batch root",
                path=path,
            )
            continue
        if parent is not None:
            if (
                span.start_t < parent.start_t - EPSILON_S
                or span.end_t > parent.end_t + EPSILON_S
            ):
                report.add(
                    "CHK703",
                    f"span {span.name}[{span.span_id}] "
                    f"[{span.start_t:.3f}, {span.end_t:.3f}] leaves its "
                    f"parent {parent.name} window "
                    f"[{parent.start_t:.3f}, {parent.end_t:.3f}]",
                    path=path,
                )
    _check_budget(report, path, by_id)


def _check_budget(
    report: Report, path: str, by_id: Dict[str, LifecycleSpan]
) -> None:
    """Per job: queue-wait + summed exec durations must fit within the
    batch wall (children run inside the job, jobs inside the batch;
    only genuinely broken clocks or topology can violate this)."""
    root = next(
        (
            span
            for span in by_id.values()
            if span.name == SPAN_BATCH and not span.parent_span_id
        ),
        None,
    )
    if root is None:
        return
    batch_wall_s = root.duration_s + EPSILON_S
    for job in by_id.values():
        if job.name != "job" or job.parent_span_id != root.span_id:
            continue
        child_total_s = 0.0
        for span in by_id.values():
            if span.parent_span_id != job.span_id:
                continue
            if span.name == "queue.wait" or span.name.startswith("job.exec"):
                child_total_s += max(0.0, span.duration_s)
        if child_total_s > batch_wall_s + EPSILON_S:
            report.add(
                "CHK703",
                f"job {job.attrs.get('hash', job.span_id)}: queue-wait + "
                f"exec time {child_total_s:.3f}s exceeds the batch wall "
                f"{root.duration_s:.3f}s",
                path=path,
            )


def _check_references(
    report: Report, scan_dir: Path, known: Dict[str, Set[str]]
) -> None:
    """CHK705 over the stamped run records in the same directory."""
    if not scan_dir.is_dir():
        return
    for path in iter_trace_files(scan_dir):
        try:
            stamp = read_run_record(path).stamp
        except (OSError, ValueError):
            continue  # unreadable: CHK301 reports it
        if stamp is None:
            continue  # unstamped: tracing predates the dist layer
        trace_id, span_id = stamp
        spans = known.get(trace_id)
        if spans is None:
            report.add(
                "CHK705",
                f"run record is stamped with trace {trace_id}, which no "
                "lifecycle file defines",
                path=str(path),
            )
        elif span_id and span_id not in spans:
            # Warning, not error: a fully-cached re-run of an identical
            # batch truncates the lifecycle file (no exec spans — nothing
            # ran) while the prior run's stamped records remain on disk.
            report.add(
                "CHK705",
                f"run record is stamped with span {span_id} of trace "
                f"{trace_id}, but that trace has no such lifecycle span "
                "(stale record from a previous execution?)",
                path=str(path),
                severity=Severity.WARNING,
            )


__all__ = ["EPSILON_S", "TIER", "check_trace_topology"]
