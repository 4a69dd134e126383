"""Batched, append-only segment result store.

The original :class:`~repro.runtime.cache.ResultCache` kept one JSON
blob per run.  At sweep scale that is tens of thousands of tiny files:
``stats`` walks and parses all of them, eviction is per-file unlink
churn, and every lookup pays a filesystem round trip.  This module
replaces the blobs with *segments*:

* ``seg-<stamp>-<pid>[-n].jsonl`` — one append-only file per store
  instance lifetime (per batch, effectively); each appended entry is a
  single JSON line;
* ``index.jsonl`` — an append-only index mapping spec hash to
  ``(segment, byte offset, byte length)`` so a lookup is one ``seek``
  into one long-lived file.

Eviction is segment-granular: :meth:`SegmentStore.evict` drops whole
oldest segments (by mtime) until the size/age budget holds, then
rewrites the index to match — O(segments), not O(entries).  ``stats``
is ``os.stat`` over the handful of segment files plus a newline count
of the index: O(metadata).

Telemetry (hits / misses / appends / evictions) accumulates on
:attr:`SegmentStore.telemetry` and is flushed into the PR-5
:class:`~repro.runtime.perf.PerfStore` by the scheduler at batch end.

Wall-clock reads go through the journaled :mod:`repro.runtime.clock`
seam (segment stamps, age-based eviction); the module is covered by
the REP101/REP202 determinism checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.runtime import clock

#: Segment file-name prefix (``seg-<epoch-ms>-<pid>[-n].jsonl``).
SEGMENT_PREFIX = "seg-"

#: The append-only index file name under the store root.
INDEX_FILE = "index.jsonl"


@dataclass
class StoreTelemetry:
    """Lifetime counters of one :class:`SegmentStore` instance."""

    hits: int = 0
    misses: int = 0
    appends: int = 0
    evictions: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "appends": self.appends,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class _IndexEntry:
    segment: str
    offset: int
    length: int


class SegmentStore:
    """Hash-addressed payload store over append-only segments."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.telemetry = StoreTelemetry()
        self._index: Dict[str, _IndexEntry] = {}
        #: Bytes of index.jsonl already folded into ``_index``; when the
        #: file grows past this (another process appended), only the
        #: tail is re-read.
        self._index_consumed = 0
        self._segment_fh: Optional[Any] = None
        self._segment_name = ""
        self._index_fh: Optional[Any] = None

    # -- paths ------------------------------------------------------

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_FILE

    def segment_paths(self) -> List[Path]:
        """Existing segment files, oldest first (by mtime, then name
        for stability)."""
        if not self.root.is_dir():
            return []
        paths = [
            p
            for p in self.root.iterdir()
            if p.name.startswith(SEGMENT_PREFIX) and p.suffix == ".jsonl"
        ]

        def age_key(path: Path) -> Tuple[float, str]:
            try:
                return (path.stat().st_mtime, path.name)
            except OSError:
                return (0.0, path.name)

        return sorted(paths, key=age_key)

    def _open_segment(self) -> Any:
        if self._segment_fh is None:
            self.root.mkdir(parents=True, exist_ok=True)
            stamp = int(clock.now() * 1000)
            base = f"{SEGMENT_PREFIX}{stamp}-{os.getpid()}"
            name, n = f"{base}.jsonl", 0
            while (self.root / name).exists():
                n += 1
                name = f"{base}-{n}.jsonl"
            self._segment_name = name
            self._segment_fh = open(self.root / name, "a")
        return self._segment_fh

    # -- index ------------------------------------------------------

    def _refresh_index(self) -> None:
        """Fold index lines beyond what we've already consumed."""
        try:
            size = self.index_path.stat().st_size
        except OSError:
            return
        if size <= self._index_consumed:
            return
        with open(self.index_path, "r") as fh:
            fh.seek(self._index_consumed)
            tail = fh.read()
        self._index_consumed += len(tail.encode("utf-8"))
        for line in tail.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn tail from a crash mid-append
            try:
                self._index[str(doc["hash"])] = _IndexEntry(
                    segment=str(doc["seg"]),
                    offset=int(doc["off"]),
                    length=int(doc["len"]),
                )
            except (KeyError, TypeError, ValueError):
                continue

    def _append_index(self, spec_hash: str, entry: _IndexEntry) -> None:
        if self._index_fh is None:
            # Fold any pre-existing lines first so _index_consumed sits
            # at end-of-file; otherwise the offset accounting below
            # desyncs and later refreshes seek into the middle of a
            # line, silently dropping older entries.
            self._refresh_index()
            self.root.mkdir(parents=True, exist_ok=True)
            self._index_fh = open(self.index_path, "a")
        line = json.dumps(
            {
                "hash": spec_hash,
                "seg": entry.segment,
                "off": entry.offset,
                "len": entry.length,
                "t": clock.now(),
            },
            sort_keys=True,
        )
        self._index_fh.write(line + "\n")
        self._index_fh.flush()
        self._index_consumed += len(line.encode("utf-8")) + 1
        self._index[spec_hash] = entry

    # -- read/write -------------------------------------------------

    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The payload stored for ``spec_hash``, or None.  A missing
        segment or a corrupt line is a miss, never an error."""
        self._refresh_index()
        entry = self._index.get(spec_hash)
        if entry is None:
            self.telemetry.misses += 1
            return None
        try:
            with open(self.root / entry.segment, "rb") as fh:
                fh.seek(entry.offset)
                raw = fh.read(entry.length)
            payload = json.loads(raw.decode("utf-8"))
        except (OSError, ValueError):
            self.telemetry.misses += 1
            return None
        if not isinstance(payload, dict):
            self.telemetry.misses += 1
            return None
        self.telemetry.hits += 1
        return payload

    def put(self, spec_hash: str, payload: Dict[str, Any]) -> None:
        """Append ``payload`` to the current segment and index it."""
        fh = self._open_segment()
        raw = json.dumps(payload, sort_keys=True)
        offset = fh.tell()
        fh.write(raw + "\n")
        fh.flush()
        self._append_index(
            spec_hash,
            _IndexEntry(
                segment=self._segment_name,
                offset=offset,
                length=len(raw.encode("utf-8")),
            ),
        )
        self.telemetry.appends += 1

    def __contains__(self, spec_hash: str) -> bool:
        self._refresh_index()
        return spec_hash in self._index

    # -- metadata / maintenance -------------------------------------

    def entry_count(self) -> int:
        """Number of indexed entries — a newline count of the index
        (no JSON parsing), minus later-shadowed duplicates is *not*
        attempted: rewrites of the same hash are rare and the count is
        a capacity signal, not an exact inventory."""
        try:
            with open(self.index_path, "rb") as fh:
                return sum(
                    chunk.count(b"\n")
                    for chunk in iter(lambda: fh.read(1 << 16), b"")
                )
        except OSError:
            return 0

    def total_bytes(self) -> int:
        """``os.stat`` sum over segments + index (no content reads)."""
        total = 0
        for path in self.segment_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        try:
            total += self.index_path.stat().st_size
        except OSError:
            pass
        return total

    def evict(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> int:
        """Drop whole oldest segments until the store fits ``max_bytes``
        and nothing is older than ``max_age_s``; rewrite the index to
        match.  The currently-open segment is never evicted.  Returns
        the number of index entries dropped."""
        segments = self.segment_paths()
        if not segments:
            return 0
        now = clock.now()
        doomed: List[Path] = []
        sizes = {}
        for path in segments:
            try:
                stat = path.stat()
            except OSError:
                continue
            sizes[path] = (stat.st_size, stat.st_mtime)
        total = sum(size for size, _ in sizes.values())
        for path in segments:  # oldest first
            if path.name == self._segment_name:
                continue
            size, mtime = sizes.get(path, (0, now))
            too_old = max_age_s is not None and now - mtime > max_age_s
            too_big = max_bytes is not None and total > max_bytes
            if too_old or too_big:
                doomed.append(path)
                total -= size
        if not doomed:
            return 0
        doomed_names = {path.name for path in doomed}
        for path in doomed:
            try:
                path.unlink()
            except OSError:
                doomed_names.discard(path.name)
        return self._compact_index(drop=doomed_names)

    def _compact_index(self, drop: Any = ()) -> int:
        """Atomically rewrite the index, dropping entries whose segment
        is in ``drop`` or missing on disk.  Returns entries dropped."""
        self._refresh_index()
        if self._index_fh is not None:
            self._index_fh.close()
            self._index_fh = None
        drop = set(drop)
        survivors: Dict[str, _IndexEntry] = {}
        dropped = 0
        for spec_hash, entry in self._index.items():
            if entry.segment in drop or not (
                self.root / entry.segment
            ).exists():
                dropped += 1
                self.telemetry.evictions += 1
            else:
                survivors[spec_hash] = entry
        tmp = self.index_path.with_suffix(".jsonl.tmp")
        with open(tmp, "w") as fh:
            for spec_hash, entry in survivors.items():
                fh.write(
                    json.dumps(
                        {
                            "hash": spec_hash,
                            "seg": entry.segment,
                            "off": entry.offset,
                            "len": entry.length,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        os.replace(tmp, self.index_path)
        self._index = survivors
        self._index_consumed = self.index_path.stat().st_size
        return dropped

    def clear(self) -> int:
        """Remove every segment and the index; returns entries dropped."""
        self._refresh_index()
        removed = len(self._index)
        self.close()
        for path in self.segment_paths():
            try:
                path.unlink()
            except OSError:
                pass
        try:
            self.index_path.unlink()
        except OSError:
            pass
        self._index = {}
        self._index_consumed = 0
        return removed

    def close(self) -> None:
        if self._segment_fh is not None:
            self._segment_fh.close()
            self._segment_fh = None
            self._segment_name = ""
        if self._index_fh is not None:
            self._index_fh.close()
            self._index_fh = None


__all__ = [
    "INDEX_FILE",
    "SEGMENT_PREFIX",
    "SegmentStore",
    "StoreTelemetry",
]
