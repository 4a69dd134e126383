"""The structured-event tracer.

A :class:`Tracer` is a ring buffer of timestamped, typed event dicts.
Components emit events only while a capture session is active (see
:mod:`repro.obs`); with no session the per-component tracer reference
is ``None`` and the hot paths pay a single identity check, nothing
more.

Events are plain dicts — ``{"t": <sim time>, "type": <event type>,
...fields}`` — so a trace exports losslessly to JSONL and back.  The
per-type field contracts live in :mod:`repro.obs.events`.

A captured run is filed as one **run record**, ``<hash>.trace.jsonl``:
one line per event, then at most one trailing line per other capture —
``{"record": "profile", "data": <Profiler.to_dict()>}`` and
``{"record": "metrics", "data": <MetricsRegistry.to_dict()>}``.  The
file is named by the run's spec hash, the one identity the manifest
line and the service's stream event also carry.
:func:`write_run_record` writes that file and :func:`read_run_record`
is the one reader every tool uses.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, Union

#: Default ring capacity.  A smoke-scale run emits a few thousand
#: events; paper-scale runs tens of thousands.  The ring bounds memory
#: for pathological cases (an instrumented infinite-duration run)
#: while keeping every event of a normal run.
DEFAULT_RING_SIZE = 200_000


class Tracer:
    """A ring-buffered recorder of structured simulation events."""

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE):
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        self.ring_size = ring_size
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=ring_size)
        #: Total events emitted, including any the ring evicted.
        self.emitted = 0

    def emit(self, type: str, t: float, **fields: Any) -> None:
        """Record one event at simulation time ``t``."""
        event: Dict[str, Any] = {"t": float(t), "type": type}
        event.update(fields)
        self._ring.append(event)
        self.emitted += 1

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring (0 unless the run overflowed it)."""
        return self.emitted - len(self._ring)

    def events(self, type: Optional[str] = None) -> List[Dict[str, Any]]:
        """Buffered events, optionally filtered by event type."""
        if type is None:
            return list(self._ring)
        return [e for e in self._ring if e["type"] == type]

    def clear(self) -> None:
        """Drop every buffered event (the emitted counter is kept)."""
        self._ring.clear()


#: The trailing records a run record may end with, in written order.
TRAILING_RECORDS = ("profile", "metrics")


@dataclass
class RunRecord:
    """One run record read back by :func:`read_run_record`."""

    events: List[Dict[str, Any]] = field(default_factory=list)
    #: The :meth:`Profiler.to_dict` payload (``--profile`` runs).
    profile: Optional[Dict[str, Any]] = None
    #: The :meth:`MetricsRegistry.to_dict` payload (``--metrics`` runs).
    metrics: Optional[Dict[str, Any]] = None


def write_run_record(
    path: Union[str, Path],
    events: Iterable[Dict[str, Any]] = (),
    profile: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one run record: the events, then the trailing profile and
    metrics records."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    trailing = {"profile": profile, "metrics": metrics}
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
        for kind in TRAILING_RECORDS:
            if trailing[kind] is not None:
                doc = {"record": kind, "data": trailing[kind]}
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
    return path


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a trace file back into event dicts.

    Raises ``ValueError`` on a malformed line so callers (the schema
    validator, ``trace summarize``) fail loudly rather than silently
    skipping corrupt data.
    """
    events: List[Dict[str, Any]] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        if not isinstance(event, dict):
            raise ValueError(f"{path}:{lineno}: event is not an object")
        events.append(event)
    return events


def read_run_record(path: Union[str, Path]) -> RunRecord:
    """Read one run record back into its events, profile and metrics.

    Raises ``ValueError`` on a malformed line (as :func:`read_jsonl`),
    on an unknown or repeated trailing record, and on an event after a
    trailing record.
    """
    record = RunRecord()
    seen: List[str] = []
    for doc in read_jsonl(path):
        kind = doc.get("record")
        if kind is None:
            if seen:
                raise ValueError(f"{path}: event after the {seen[-1]} record")
            record.events.append(doc)
            continue
        if kind not in TRAILING_RECORDS or kind in seen:
            raise ValueError(f"{path}: unexpected {kind!r} record")
        data = doc.get("data")
        if not isinstance(data, dict):
            raise ValueError(f"{path}: {kind} record has no data object")
        seen.append(kind)
        setattr(record, kind, data)
    return record


def iter_trace_files(target: Union[str, Path]) -> Iterable[Path]:
    """Trace files under ``target`` (a ``*.trace.jsonl`` file or a dir)."""
    target = Path(target)
    if target.is_dir():
        return sorted(target.glob("*.trace.jsonl"))
    return [target]
