"""Cross-process trace context and lifecycle spans.

PR 2's :class:`~repro.obs.trace.Tracer` and PR 5's
:class:`~repro.obs.prof.Profiler` each stop at the process boundary:
a batch submitted over HTTP fans out through the job queue, scheduler
shards and worker pools, and nothing ties the resulting per-run JSONL
exports back to the batch that caused them.  This module supplies the
missing identity layer:

* :func:`derive_trace_id` / :func:`span_id_for` — **deterministic**
  identifiers derived via SHA-256 from the batch content (spec hashes
  plus an optional salt such as the batch id).  No ``uuid4``, no
  wall-clock, no ambient randomness: the same submission always maps
  to the same ID space, so replayed batches correlate instead of
  fragmenting (and the module passes the REP101/REP202 determinism
  tiers without exemptions).
* :class:`TraceContext` — the ``(trace_id, span_id, parent_span_id)``
  triple that crosses process boundaries as a plain dict.
* :class:`LifecycleSpan` — one timed scheduler/queue event (batch
  root, per-job span, queue wait, execution attempt) serialized as a
  JSON line into ``<trace_id>.lifecycle.jsonl`` next to the existing
  run exports.
* :class:`SpanRecorder` — the thread-safe sink that appends each span
  to its trace's lifecycle file.

The module is deliberately **pure**: it never reads a clock.  Callers
(the scheduler and the runtime's batch) pass timestamps in, sourced from the
replayable :mod:`repro.runtime.clock` seam; keeping the clock out of
this module both satisfies the determinism tiers and avoids an
``obs -> runtime`` import cycle.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

#: File suffix of per-trace lifecycle span exports.
LIFECYCLE_SUFFIX = ".lifecycle.jsonl"

#: Canonical span names, root to leaf.
SPAN_BATCH = "batch"
SPAN_JOB = "job"
SPAN_WAIT = "queue.wait"
SPAN_EXEC = "job.exec"

#: Hex digits kept from the SHA-256 digest (64 bits — collision-safe
#: for any realistic batch count, short enough to read in a tree).
_ID_HEX = 16


def derive_trace_id(spec_hashes: Iterable[str], salt: str = "") -> str:
    """Trace ID for a batch: SHA-256 over its spec hashes and ``salt``.

    The service salts with the batch id so resubmitting the same specs
    in a new batch gets a fresh trace; ``run_many`` leaves the salt
    empty so re-running an identical batch *reuses* its trace (and the
    recorder truncates the old lifecycle file instead of duplicating).
    """
    digest = hashlib.sha256()
    digest.update(b"repro.trace")
    digest.update(salt.encode("utf-8"))
    for spec_hash in spec_hashes:
        digest.update(b"|")
        digest.update(str(spec_hash).encode("utf-8"))
    return digest.hexdigest()[:_ID_HEX]


def span_id_for(trace_id: str, name: str, *qualifiers: Any) -> str:
    """Deterministic span ID: SHA-256 over trace id, name, qualifiers.

    Because IDs are content-derived, any process holding the trace id
    and the span coordinates (e.g. a worker told "job.exec, hash X,
    attempt 2") derives the same ID without coordination.
    """
    digest = hashlib.sha256()
    digest.update(b"repro.span")
    digest.update(trace_id.encode("utf-8"))
    for part in (name,) + qualifiers:
        digest.update(b"|")
        digest.update(str(part).encode("utf-8"))
    return digest.hexdigest()[:_ID_HEX]


@dataclass(frozen=True)
class TraceContext:
    """The propagated triple; crosses pickling boundaries as a dict."""

    trace_id: str
    span_id: str
    parent_span_id: str = ""

    def child(self, name: str, *qualifiers: Any) -> "TraceContext":
        """Context for a child span of this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_id_for(self.trace_id, name, *qualifiers),
            parent_span_id=self.span_id,
        )

    def stamp(self) -> Dict[str, str]:
        """The two fields stamped onto run exports (events, metrics,
        profiler docs) to tie them back to this span."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def to_dict(self) -> Dict[str, str]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(doc.get("trace_id", "")),
            span_id=str(doc.get("span_id", "")),
            parent_span_id=str(doc.get("parent_span_id", "")),
        )


def root_context(spec_hashes: Iterable[str], salt: str = "") -> TraceContext:
    """The batch-root context for a set of spec hashes."""
    trace_id = derive_trace_id(spec_hashes, salt=salt)
    return TraceContext(
        trace_id=trace_id,
        span_id=span_id_for(trace_id, SPAN_BATCH),
        parent_span_id="",
    )


@dataclass(frozen=True)
class LifecycleSpan:
    """One timed queue/scheduler event in a trace."""

    trace_id: str
    span_id: str
    parent_span_id: str
    name: str
    start_t: float
    end_t: float
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_t - self.start_t

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "start_t": self.start_t,
            "end_t": self.end_t,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "LifecycleSpan":
        attrs = doc.get("attrs")
        return cls(
            trace_id=str(doc.get("trace_id", "")),
            span_id=str(doc.get("span_id", "")),
            parent_span_id=str(doc.get("parent_span_id", "")),
            name=str(doc.get("name", "")),
            start_t=float(doc.get("start_t", 0.0)),
            end_t=float(doc.get("end_t", 0.0)),
            status=str(doc.get("status", "ok")),
            attrs=dict(attrs) if isinstance(attrs, dict) else {},
        )


class SpanRecorder:
    """Thread-safe lifecycle-span sink.

    Spans are appended as JSON lines to
    ``<sink_dir>/<trace_id>.lifecycle.jsonl``; the first span of a
    trace *truncates* the file, so re-running an identical batch —
    same deterministic trace id — replaces the old spans instead of
    accumulating duplicates.  Disk errors are counted and swallowed:
    observability must never take the scheduler down.
    """

    def __init__(self, sink_dir: Union[str, Path]):
        self.sink_dir = Path(sink_dir)
        self._lock = threading.Lock()
        #: Trace ids whose lifecycle file this instance already opened
        #: (truncated); later spans of the same trace append.
        self._started: set = set()
        self.recorded = 0
        self.dropped_writes = 0

    def record(self, span: LifecycleSpan) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            self.recorded += 1
            if not span.trace_id:
                return
            mode = "a" if span.trace_id in self._started else "w"
            try:
                self.sink_dir.mkdir(parents=True, exist_ok=True)
                path = self.sink_dir / f"{span.trace_id}{LIFECYCLE_SUFFIX}"
                with open(path, mode) as fh:
                    fh.write(line + "\n")
            except OSError:
                self.dropped_writes += 1
                return
            self._started.add(span.trace_id)


def read_lifecycle(path: Union[str, Path]) -> List[LifecycleSpan]:
    """Spans from one lifecycle file, deduplicated by span id (last
    occurrence wins — a retried write shadows the stale one).
    Malformed lines are skipped, not fatal: a crashed scheduler may
    leave a torn tail."""
    by_id: Dict[str, LifecycleSpan] = {}
    order: List[str] = []
    with open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if not isinstance(doc, dict):
                continue
            span = LifecycleSpan.from_dict(doc)
            if not span.span_id:
                continue
            if span.span_id not in by_id:
                order.append(span.span_id)
            by_id[span.span_id] = span
    return [by_id[span_id] for span_id in order]


def iter_lifecycle_files(target: Union[str, Path]) -> List[Path]:
    """Lifecycle files under ``target`` (a directory, or one file)."""
    target = Path(target)
    if target.is_file():
        return [target]
    if not target.is_dir():
        return []
    return sorted(target.glob(f"*{LIFECYCLE_SUFFIX}"))


def load_spans(
    target: Union[str, Path]
) -> Dict[str, Dict[str, LifecycleSpan]]:
    """``{trace_id: {span_id: span}}`` across every lifecycle file
    under ``target``."""
    out: Dict[str, Dict[str, LifecycleSpan]] = {}
    for path in iter_lifecycle_files(target):
        for span in read_lifecycle(path):
            out.setdefault(span.trace_id, {})[span.span_id] = span
    return out


__all__ = [
    "LIFECYCLE_SUFFIX",
    "LifecycleSpan",
    "SPAN_BATCH",
    "SPAN_EXEC",
    "SPAN_JOB",
    "SPAN_WAIT",
    "SpanRecorder",
    "TraceContext",
    "derive_trace_id",
    "iter_lifecycle_files",
    "load_spans",
    "read_lifecycle",
    "root_context",
    "span_id_for",
]
