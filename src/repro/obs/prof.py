"""Deterministic hierarchical span profiler (``repro.obs.prof``).

Where the tracer answers "what happened" and the metrics registry
"how much", the profiler answers "where did the time go".  Components
hold a profiler reference obtained once at construction::

    self._prof = obs.profiler_or_none()     # None while disabled

and guard each instrumented region with the same ``is not None``
identity check the tracer uses, so an unprofiled run pays a single
pointer comparison per region and nothing else::

    prof = self._prof
    if prof is not None:
        with prof.span("engine.dispatch"):
            callback(*args)
    else:
        callback(*args)

Spans nest: a span opened while another is active becomes its child,
and statistics are aggregated per *path* (``sim.run/sim.dispatch/
control.decision``), not per instance.  Each node accumulates

* ``count`` — times the span was entered;
* ``wall_s`` — cumulative wall-clock seconds (non-deterministic);
* ``sim_s`` — cumulative *simulated* seconds, read from the clock a
  :class:`~repro.sim.engine.Simulator` binds at construction.  Sim
  time is a pure function of the event schedule, so this column is
  bit-identical across repeated runs — the deterministic half of every
  profile.

Self time is derived at export: a node's cumulative total minus the
sum of its direct children.  ``repro check``'s CHK6xx tier verifies
the resulting tree (children never exceed their parent; see
:mod:`repro.check.perf`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Separator joining span names into a path key.
PATH_SEP = "/"

#: Spans nested deeper than this are still timed but collapse into
#: their ancestor at the limit, bounding the aggregate table for
#: pathological recursion.
MAX_DEPTH = 64


class _SpanContext:
    """Reusable ``with``-block adapter for one span name."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "Profiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_SpanContext":
        self._profiler.begin(self._name)
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self._profiler.end()


class SpanStats:
    """Aggregated statistics for one span path."""

    __slots__ = ("path", "count", "wall_s", "sim_s", "first_sim_t")

    def __init__(self, path: Tuple[str, ...]):
        self.path = path
        self.count = 0
        self.wall_s = 0.0
        self.sim_s = 0.0
        #: Simulated time at which this path was first entered (None
        #: until entered with a bound clock) — lets ``trace timeline``
        #: place spans chronologically among traced events.
        self.first_sim_t: Optional[float] = None

    @property
    def name(self) -> str:
        return self.path[-1] if self.path else ""

    @property
    def depth(self) -> int:
        return len(self.path)


class Profiler:
    """Hierarchical span aggregator with an optional sim-time clock."""

    __slots__ = ("_stack", "_nodes", "clock")

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        #: (name, wall enter, sim enter) for each open span.
        self._stack: List[Tuple[str, float, float]] = []
        self._nodes: Dict[Tuple[str, ...], SpanStats] = {}
        #: Zero-argument callable returning current simulated seconds.
        #: The first :class:`~repro.sim.engine.Simulator` constructed
        #: inside a profiling capture binds itself here.
        self.clock = clock

    # ------------------------------------------------------------------
    # recording

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulation clock (first binding wins)."""
        if self.clock is None:
            self.clock = clock

    def span(self, name: str) -> _SpanContext:
        """A context manager timing one region under ``name``."""
        return _SpanContext(self, name)

    def begin(self, name: str) -> None:
        """Open a span (prefer :meth:`span` unless a ``with`` block
        cannot wrap the region)."""
        clock = self.clock
        sim_t = clock() if clock is not None else 0.0
        self._stack.append((name, time.perf_counter(), sim_t))

    def end(self) -> None:
        """Close the innermost open span."""
        if not self._stack:
            return
        name, wall_enter, sim_enter = self._stack.pop()
        path = tuple(frame[0] for frame in self._stack[:MAX_DEPTH - 1])
        path += (name,)
        node = self._nodes.get(path)
        if node is None:
            node = self._nodes[path] = SpanStats(path)
        node.count += 1
        node.wall_s += time.perf_counter() - wall_enter
        clock = self.clock
        if clock is not None:
            node.sim_s += clock() - sim_enter
            if node.first_sim_t is None:
                node.first_sim_t = sim_enter
        elif node.first_sim_t is None:
            node.first_sim_t = 0.0

    def unwind(self) -> None:
        """Close every span still open (a run that raised mid-span)."""
        while self._stack:
            self.end()

    # ------------------------------------------------------------------
    # queries / export

    @property
    def open_spans(self) -> int:
        """Number of spans currently on the stack."""
        return len(self._stack)

    def records(self) -> List[SpanStats]:
        """All aggregated nodes in tree (depth-first path) order."""
        return [self._nodes[path] for path in sorted(self._nodes)]

    def children_of(self, path: Tuple[str, ...]) -> List[SpanStats]:
        """Direct children of ``path`` (the roots for ``path == ()``)."""
        return [
            node
            for node in self.records()
            if node.depth == len(path) + 1 and node.path[: len(path)] == path
        ]

    def self_times(self, path: Tuple[str, ...]) -> Tuple[float, float]:
        """``(self wall, self sim)`` of a node: cumulative minus the
        direct children's cumulative."""
        node = self._nodes[path]
        child_wall = sum(c.wall_s for c in self.children_of(path))
        child_sim = sum(c.sim_s for c in self.children_of(path))
        return node.wall_s - child_wall, node.sim_s - child_sim

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready export (the ``data`` of a run record's profile record)."""
        self.unwind()
        spans = []
        for node in self.records():
            self_wall, self_sim = self.self_times(node.path)
            spans.append(
                {
                    "path": PATH_SEP.join(node.path),
                    "name": node.name,
                    "depth": node.depth,
                    "count": node.count,
                    "wall_s": node.wall_s,
                    "sim_s": node.sim_s,
                    "self_wall_s": self_wall,
                    "self_sim_s": self_sim,
                    "first_sim_t": node.first_sim_t,
                }
            )
        return {"spans": spans, "clock_bound": self.clock is not None}


def format_span_table(profile: Dict[str, Any]) -> str:
    """Render a :meth:`Profiler.to_dict` export as a self/cumulative
    hot-path table, indented by span depth."""
    spans = profile.get("spans", [])
    if not spans:
        return "no spans recorded (was the profiled region ever entered?)"
    name_width = max(
        len("  " * (s["depth"] - 1) + s["name"]) for s in spans
    )
    name_width = max(name_width, len("span"))
    header = (
        f"{'span':<{name_width}}  {'count':>9}  "
        f"{'self ms':>10}  {'cum ms':>10}  {'self sim s':>10}  {'cum sim s':>10}"
    )
    lines = [header, "-" * len(header)]
    for s in spans:
        label = "  " * (s["depth"] - 1) + s["name"]
        lines.append(
            f"{label:<{name_width}}  {s['count']:>9d}  "
            f"{s['self_wall_s'] * 1e3:>10.2f}  {s['wall_s'] * 1e3:>10.2f}  "
            f"{s['self_sim_s']:>10.3f}  {s['sim_s']:>10.3f}"
        )
    return "\n".join(lines)


__all__ = [
    "MAX_DEPTH",
    "PATH_SEP",
    "Profiler",
    "SpanStats",
    "format_span_table",
]
