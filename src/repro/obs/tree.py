"""Cross-process span-tree assembly for ``trace tree``.

Takes one obs directory — lifecycle spans
(``<trace_id>.lifecycle.jsonl`` from the scheduler/service) and run
records (``<hash>.trace.jsonl``: events plus any trailing profile) —
and reassembles the single logical tree the batch formed at runtime:
batch root → per-job spans → queue-wait and execution attempts, with
each stamped run record attached to the attempt that produced it.

Pure file-reading and formatting; no clock, no runtime imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.dist import (
    LifecycleSpan,
    iter_lifecycle_files,
    read_lifecycle,
)
from repro.obs.trace import iter_trace_files, read_run_record

#: Profiler spans shown per execution node, by cumulative wall time.
TOP_PROFILE_SPANS = 3


@dataclass
class RunAnnotation:
    """What one stamped run record contributes to an exec span."""

    span_id: str
    trace_id: str
    events: int = 0
    trace_file: str = ""
    profile_top: List[Tuple[str, float]] = field(default_factory=list)


@dataclass
class SpanNode:
    """One lifecycle span plus its children and run annotations."""

    span: LifecycleSpan
    children: List["SpanNode"] = field(default_factory=list)
    annotation: Optional[RunAnnotation] = None


@dataclass
class TraceTree:
    """One trace's reassembled forest (normally a single root)."""

    trace_id: str
    roots: List[SpanNode] = field(default_factory=list)
    #: Spans whose parent id is unknown (broken topology — CHK701).
    orphans: List[SpanNode] = field(default_factory=list)
    span_count: int = 0


def _scan_run_annotations(
    target: Path,
) -> Dict[Tuple[str, str], RunAnnotation]:
    """``{(trace_id, span_id): annotation}`` from stamped run records.

    Unstamped records (tracing predates the dist layer) and unreadable
    ones (CHK301 reports those) are skipped.
    """
    out: Dict[Tuple[str, str], RunAnnotation] = {}
    if not target.is_dir():
        return out
    for path in iter_trace_files(target):
        try:
            record = read_run_record(path)
        except (OSError, ValueError):
            continue
        if record.stamp is None or not record.stamp[1]:
            continue
        trace_id, span_id = record.stamp
        timed = sorted(
            (
                (str(s.get("path", "?")), float(s.get("wall_s", 0.0)))
                for s in (record.profile or {}).get("spans", [])
                if isinstance(s, dict)
            ),
            key=lambda pair: -pair[1],
        )
        out[(trace_id, span_id)] = RunAnnotation(
            span_id=span_id,
            trace_id=trace_id,
            events=len(record.events),
            trace_file=path.name,
            profile_top=timed[:TOP_PROFILE_SPANS],
        )
    return out


def load_trace_forest(
    target: Union[str, Path],
    trace_id: Optional[str] = None,
) -> List[TraceTree]:
    """Reassemble every trace under ``target`` (an obs directory or a
    single lifecycle file); ``trace_id`` filters by prefix."""
    target = Path(target)
    scan_dir = target if target.is_dir() else target.parent
    notes = _scan_run_annotations(scan_dir)
    trees: List[TraceTree] = []
    for path in iter_lifecycle_files(target):
        spans = read_lifecycle(path)
        if not spans:
            continue
        tid = spans[0].trace_id
        if trace_id is not None and not tid.startswith(trace_id):
            continue
        nodes = {
            span.span_id: SpanNode(
                span=span, annotation=notes.get((span.trace_id, span.span_id))
            )
            for span in spans
        }
        tree = TraceTree(trace_id=tid, span_count=len(nodes))
        for node in nodes.values():
            parent_id = node.span.parent_span_id
            if not parent_id:
                tree.roots.append(node)
            elif parent_id in nodes:
                nodes[parent_id].children.append(node)
            else:
                tree.orphans.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: (n.span.start_t, n.span.name))
        tree.roots.sort(key=lambda n: (n.span.start_t, n.span.name))
        tree.orphans.sort(key=lambda n: (n.span.start_t, n.span.name))
        trees.append(tree)
    return trees


def _describe(node: SpanNode) -> str:
    span = node.span
    name = span.name
    attrs = span.attrs
    if name == "job.exec" and "attempt" in attrs:
        name = f"job.exec#{attrs['attempt']}"
    parts = [name, f"{span.duration_s:.3f}s"]
    if span.status != "ok":
        parts.append(span.status.upper())
    if name.startswith("job.exec"):
        worker = attrs.get("worker")
        shard = attrs.get("shard")
        if worker:
            parts.append(f"worker={worker}")
        if shard and shard != worker:
            parts.append(f"shard={shard}")
    elif span.name == "job":
        if attrs.get("label"):
            parts.append(str(attrs["label"]))
        if attrs.get("outcome"):
            parts.append(f"outcome={attrs['outcome']}")
        if attrs.get("attempts", 1) not in (1, None):
            parts.append(f"attempts={attrs['attempts']}")
        if attrs.get("worker") == "cache":
            parts.append("cache-hit")
        digest = str(attrs.get("hash", ""))
        if digest:
            parts.append(f"[{digest[:12]}]")
    elif span.name == "batch":
        if attrs.get("batch"):
            parts.append(str(attrs["batch"]))
        if attrs.get("jobs") is not None:
            parts.append(f"jobs={attrs['jobs']}")
    note = node.annotation
    if note is not None:
        if note.events:
            parts.append(f"· {note.events} events")
        for prof_path, wall_s in note.profile_top[:1]:
            parts.append(f"· hot: {prof_path} {wall_s:.3f}s")
    return " ".join(parts)


def _render(node: SpanNode, prefix: str, is_last: bool, out: List[str]) -> None:
    connector = "`-- " if is_last else "|-- "
    out.append(f"{prefix}{connector}{_describe(node)}")
    child_prefix = prefix + ("    " if is_last else "|   ")
    for index, child in enumerate(node.children):
        _render(child, child_prefix, index == len(node.children) - 1, out)


def format_trace_forest(trees: List[TraceTree]) -> str:
    """The ``trace tree`` report for every reassembled trace."""
    if not trees:
        return "no lifecycle traces found"
    out: List[str] = []
    for tree in trees:
        root_note = (
            "" if len(tree.roots) == 1
            else f" ({len(tree.roots)} roots — expected 1)"
        )
        out.append(
            f"trace {tree.trace_id} · {tree.span_count} spans{root_note}"
        )
        for index, root in enumerate(tree.roots):
            _render(root, "", index == len(tree.roots) - 1, out)
        if tree.orphans:
            out.append(f"  orphans ({len(tree.orphans)} spans with unknown "
                       "parents):")
            for orphan in tree.orphans:
                out.append(f"    ? {_describe(orphan)}")
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


__all__ = [
    "RunAnnotation",
    "SpanNode",
    "TOP_PROFILE_SPANS",
    "TraceTree",
    "format_trace_forest",
    "load_trace_forest",
]
