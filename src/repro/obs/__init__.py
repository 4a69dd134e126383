"""repro.obs — structured tracing and metrics for simulation runs.

The observability layer has three pieces:

* :class:`~repro.obs.trace.Tracer` — a ring-buffered recorder of typed
  events (JSONL-exportable; schema in :mod:`repro.obs.events`);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters / gauges /
  histograms for cheap aggregates;
* a process-ambient **capture session** that turns both on.

Instrumented components look the session up *once, at construction*::

    self._trace = obs.tracer_or_none()      # None while disabled

and guard every hot emission with a plain identity check, so a run
outside a capture session pays one ``is not None`` per decision point
and nothing else — no call, no allocation, no formatting.

Capturing a run::

    with obs.capture() as session:
        result = run_scenario("emptcp", scenario)
    session.export("run.trace.jsonl")
    obs.read_run_record("run.trace.jsonl").metrics

The execution runtime (:mod:`repro.runtime.scheduler`) wraps every
executed :class:`~repro.runtime.spec.RunSpec` in its own session when
capture is requested (CLI ``--trace`` / ``--metrics`` / ``--profile``)
and files it as one run record, ``<obs-dir>/<spec-hash>.trace.jsonl``.

Sessions are per-process and not thread-safe by design: simulation
runs are single-threaded, and the process pool gives each worker its
own ambient slot.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.prof import Profiler, SpanStats, format_span_table
from repro.obs.trace import (
    DEFAULT_RING_SIZE,
    RunRecord,
    Tracer,
    iter_trace_files,
    read_jsonl,
    read_run_record,
    write_run_record,
)
from repro.obs.events import EVENT_SCHEMA, validate_event, validate_events

__all__ = [
    "Tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Profiler",
    "SpanStats",
    "format_span_table",
    "ObsSession",
    "ObsOptions",
    "capture",
    "current",
    "tracer_or_none",
    "metrics_or_none",
    "profiler_or_none",
    "EVENT_SCHEMA",
    "validate_event",
    "validate_events",
    "read_jsonl",
    "RunRecord",
    "read_run_record",
    "write_run_record",
    "iter_trace_files",
    "DEFAULT_RING_SIZE",
]


@dataclass
class ObsSession:
    """One active capture: a tracer, metrics registry, and/or profiler."""

    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    profiler: Optional[Profiler] = None

    def export(self, path: Union[str, Path]) -> Path:
        """File this capture as one run record at ``path``."""
        return write_run_record(
            path,
            events=self.tracer if self.tracer is not None else (),
            profile=(
                self.profiler.to_dict() if self.profiler is not None else None
            ),
            metrics=(
                self.metrics.to_dict() if self.metrics is not None else None
            ),
        )


@dataclass(frozen=True)
class ObsOptions:
    """How the execution runtime should capture runs.

    ``dir`` is where each run's record lands (``<hash>.trace.jsonl``);
    ``trace``/``metrics``/``profile`` choose what it holds.  The
    dataclass is picklable so it crosses the process boundary to pool
    workers unchanged.
    """

    dir: str
    trace: bool = True
    metrics: bool = False
    profile: bool = False
    ring_size: int = DEFAULT_RING_SIZE

    @property
    def enabled(self) -> bool:
        return self.trace or self.metrics or self.profile

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dir": self.dir,
            "trace": self.trace,
            "metrics": self.metrics,
            "profile": self.profile,
            "ring_size": self.ring_size,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsOptions":
        return cls(
            dir=data["dir"],
            trace=bool(data.get("trace", True)),
            metrics=bool(data.get("metrics", False)),
            profile=bool(data.get("profile", False)),
            ring_size=int(data.get("ring_size", DEFAULT_RING_SIZE)),
        )


#: The process-ambient session; None means observability is off.
_current: Optional[ObsSession] = None


def current() -> Optional[ObsSession]:
    """The active capture session, if any."""
    return _current


def tracer_or_none() -> Optional[Tracer]:
    """The active tracer, or None when disabled.

    Components call this once at construction and keep the result, so
    a run started inside a capture session traces for its whole life
    while disabled runs carry no tracer at all.
    """
    return _current.tracer if _current is not None else None


def metrics_or_none() -> Optional[MetricsRegistry]:
    """The active metrics registry, or None when disabled."""
    return _current.metrics if _current is not None else None


def profiler_or_none() -> Optional[Profiler]:
    """The active span profiler, or None when disabled."""
    return _current.profiler if _current is not None else None


@contextmanager
def capture(
    trace: bool = True,
    metrics: bool = True,
    profile: bool = False,
    ring_size: int = DEFAULT_RING_SIZE,
) -> Iterator[ObsSession]:
    """Activate observability for the dynamic extent of the block.

    Nested captures shadow the outer session (components constructed
    inside see the innermost one) and restore it on exit.
    """
    global _current
    session = ObsSession(
        tracer=Tracer(ring_size) if trace else None,
        metrics=MetricsRegistry() if metrics else None,
        profiler=Profiler() if profile else None,
    )
    previous = _current
    _current = session
    try:
        yield session
    finally:
        _current = previous
