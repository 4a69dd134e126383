"""Content-addressed on-disk result cache over the segment store.

Every :class:`~repro.runtime.spec.RunSpec` has a stable content hash
(spec payload + code/version salt).  Entries live in the batched
:class:`~repro.runtime.store.SegmentStore` under ``<root>/store/`` —
append-only JSONL segments plus an index, so a sweep's worth of
results is a handful of files instead of one blob per run, lookups are
one seek, and ``stats`` is pure ``os.stat`` metadata.

The hash covers the protocol, the builder name and kwargs, the seed,
any config overrides, and the salt.  Changing any of those — including bumping the package version or
``RUNTIME_SCHEMA_VERSION`` — misses the cache; stale entries are
removed with :meth:`ResultCache.clear` (CLI: ``emptcp-repro cache
clear``) or aged out with :meth:`ResultCache.evict`.

The store's hit/miss/append/eviction counters live only as long as the
process, so at the end of every batch the scheduler appends one
snapshot of them to ``<root>/cache-telemetry.jsonl``
(:meth:`ResultCache.record_telemetry`); ``cache stats`` and the
service's ``/v1/status`` read the log back through
:meth:`ResultCache.telemetry_snapshots`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import obs as _obs
from repro.runtime.spec import RunSpec, code_salt, get_builder
from repro.runtime.store import SegmentStore, StoreTelemetry

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_ROOT = ".repro-cache"

#: The per-batch telemetry log under the cache root, one JSON object
#: per line.
TELEMETRY_LOG = "cache-telemetry.jsonl"


@dataclass(frozen=True)
class CacheStats:
    """What ``emptcp-repro cache stats`` reports.

    Derived entirely from filesystem metadata (``os.stat`` on the
    segments/index) — no entry is read or JSON-parsed, so stats on a
    huge cache stays O(entries) in the index, not O(bytes).
    """

    root: str
    entries: int
    total_bytes: int
    segments: int = 0


class ResultCache:
    """A content-addressed store of run results.

    Segment and index writes are append-plus-flush, and the index is
    rewritten atomically on eviction, so concurrent runs — or a run
    killed mid-write — can never leave a truncated entry that a later
    read would trust; any unreadable entry is simply a miss.
    """

    def __init__(
        self,
        root: Union[str, Path] = DEFAULT_CACHE_ROOT,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ):
        self.root = Path(root)
        self.store = SegmentStore(self.root / "store")
        self.max_bytes = max_bytes
        self.max_age_s = max_age_s

    @property
    def telemetry(self) -> StoreTelemetry:
        """Hit/miss/append/eviction counters (this instance's lifetime)."""
        return self.store.telemetry

    def record_telemetry(self, extra: Dict[str, Any]) -> None:
        """Append one snapshot of :attr:`telemetry` plus ``extra``
        (the batch's queue counters and timestamp) to the log."""
        snapshot = {**self.telemetry.to_dict(), **extra}
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / TELEMETRY_LOG, "a") as fh:
            fh.write(json.dumps(snapshot, sort_keys=True) + "\n")

    def telemetry_snapshots(self) -> List[Dict[str, Any]]:
        """Every recorded batch snapshot, oldest first.  Lines torn by
        a crash mid-append are skipped."""
        try:
            lines = (self.root / TELEMETRY_LOG).read_text().splitlines()
        except OSError:
            return []
        snapshots = []
        for line in lines:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict):
                snapshots.append(doc)
        return snapshots

    def get(self, spec: RunSpec, spec_hash: Optional[str] = None) -> Optional[Any]:
        """The decoded cached result, or None on any kind of miss.
        ``spec_hash`` is ``spec.content_hash()`` when the caller already
        has it; :meth:`put` takes it the same way."""
        prof = _obs.profiler_or_none()
        if prof is not None:
            with prof.span("runtime.cache.get"):
                return self._get_inner(spec, spec_hash)
        return self._get_inner(spec, spec_hash)

    def _get_inner(self, spec: RunSpec, spec_hash: Optional[str]) -> Optional[Any]:
        payload = self.store.get(spec_hash or spec.content_hash())
        if payload is None:
            return None
        if payload.get("salt") != code_salt():
            return None
        try:
            return get_builder(spec.builder).decode(payload["result"])
        except Exception:
            return None

    def put(
        self, spec: RunSpec, result: Any, spec_hash: Optional[str] = None
    ) -> Path:
        """Store one result; returns the segment it was appended to."""
        prof = _obs.profiler_or_none()
        if prof is not None:
            with prof.span("runtime.cache.put"):
                return self._put_inner(spec, result, spec_hash)
        return self._put_inner(spec, result, spec_hash)

    def _put_inner(
        self, spec: RunSpec, result: Any, spec_hash: Optional[str]
    ) -> Path:
        entry = get_builder(spec.builder)
        payload = {
            "salt": code_salt(),
            "spec": spec.to_dict(),
            "result": entry.encode(result),
        }
        self.store.put(spec_hash or spec.content_hash(), payload)
        if self.max_bytes is not None or self.max_age_s is not None:
            self.store.evict(self.max_bytes, self.max_age_s)
        return self.store.root / self.store._segment_name

    def stats(self) -> CacheStats:
        """Entry count and on-disk footprint, from metadata only."""
        return CacheStats(
            root=str(self.root),
            entries=self.store.entry_count(),
            total_bytes=self.store.total_bytes(),
            segments=len(self.store.segment_paths()),
        )

    def evict(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> int:
        """Drop oldest segments past the size/age budget (instance
        defaults unless overridden); returns entries evicted."""
        return self.store.evict(
            self.max_bytes if max_bytes is None else max_bytes,
            self.max_age_s if max_age_s is None else max_age_s,
        )

    def clear(self) -> int:
        """Delete every cached result; returns how many entries were
        removed."""
        return self.store.clear()
