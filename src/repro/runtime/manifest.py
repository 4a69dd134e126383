"""JSONL run manifests — the runtime's flight recorder.

One line per run attempt: the spec (hash + label), the outcome, queue
wait, wall time, and which worker executed it.  The spec hash also
names the run's record (``<hash>.trace.jsonl``) when runs are
captured.  A manifest answers "what actually ran?" after the fact —
e.g. a warm-cache report shows ``executed: 0`` with every run
``cached``.

Outcomes:

* ``executed`` — ran to completion in this invocation;
* ``cached``   — satisfied from the result cache, nothing ran;
* ``deduped``  — coalesced onto another spec with the same content
  hash (queue dedup): one execution, this line's run just waited;
* ``retried``  — one attempt crashed or timed out and was requeued;
* ``failed``   — gave up (after bounded retries, where applicable).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Optional, Union

from repro.errors import ConfigurationError

OUTCOMES = ("executed", "cached", "deduped", "retried", "failed")

#: Outcomes that terminate a run (``retried`` is an intermediate event).
TERMINAL_OUTCOMES = ("executed", "cached", "deduped", "failed")


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest line."""

    spec_hash: str
    label: str
    protocol: str
    builder: str
    seed: int
    outcome: str
    wall_time_s: float
    worker: str
    attempt: int
    timestamp: float
    #: Path of the run's exported trace file ("" when tracing was off;
    #: defaulted so manifests written before the obs layer still parse).
    trace: str = ""
    #: The run's :class:`~repro.runtime.perf.PerfRecord` as a dict
    #: (None for cached/retried/failed lines and for manifests written
    #: before the perf-telemetry layer).
    perf: Optional[Dict[str, Any]] = None
    #: Seconds the job waited in the queue before the scheduler first
    #: picked it up or settled it from the cache.
    wait_s: float = 0.0


class RunManifest:
    """Append-only JSONL writer (plus a reader for post-hoc analysis).

    The file is opened lazily on the first record so that constructing
    a manifest never creates an empty file, and each line is flushed so
    a crash loses at most the in-flight run.
    """

    def __init__(self, path: Union[str, Path], append: bool = False):
        self.path = Path(path)
        self._append = append
        self._fh: Optional[IO[str]] = None

    def record(
        self,
        spec,
        outcome: str,
        wall_time_s: float = 0.0,
        worker: str = "local",
        attempt: int = 1,
        trace: str = "",
        perf: Optional[Dict[str, Any]] = None,
        wait_s: float = 0.0,
        spec_hash: Optional[str] = None,
    ) -> ManifestEntry:
        """Write one line for ``spec`` and return the entry.
        ``spec_hash`` is ``spec.content_hash()`` when the caller already
        has it."""
        if outcome not in OUTCOMES:
            raise ConfigurationError(
                f"unknown outcome {outcome!r}; choose from {OUTCOMES}"
            )
        entry = ManifestEntry(
            spec_hash=spec_hash or spec.content_hash(),
            label=spec.label,
            protocol=spec.protocol,
            builder=spec.builder,
            seed=spec.seed,
            outcome=outcome,
            wall_time_s=wall_time_s,
            worker=worker,
            attempt=attempt,
            timestamp=time.time(),
            trace=trace,
            perf=dict(perf) if perf else None,
            wait_s=wait_s,
        )
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a" if self._append else "w")
        self._fh.write(json.dumps(dataclasses.asdict(entry)) + "\n")
        self._fh.flush()
        return entry

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def read(path: Union[str, Path]) -> List[ManifestEntry]:
        """Parse a manifest file back into entries."""
        entries: List[ManifestEntry] = []
        try:
            lines = Path(path).read_text().splitlines()
        except OSError as exc:
            raise ConfigurationError(f"cannot read manifest: {exc}") from exc
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(ManifestEntry(**json.loads(line)))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed manifest line: {exc}"
                ) from exc
        return entries


def summarize(entries: Iterable[ManifestEntry]) -> Dict[str, int]:
    """Counts per outcome, plus ``total`` terminal runs."""
    counts = {outcome: 0 for outcome in OUTCOMES}
    for entry in entries:
        counts[entry.outcome] = counts.get(entry.outcome, 0) + 1
    counts["total"] = sum(counts[o] for o in TERMINAL_OUTCOMES)
    return counts


def format_summary(counts: Dict[str, int]) -> str:
    """One-line human summary, e.g. ``12 runs: 4 executed, 8 cached``."""
    parts = [
        f"{counts.get(outcome, 0)} {outcome}"
        for outcome in ("executed", "cached", "failed")
    ]
    if counts.get("deduped"):
        parts.append(f"{counts['deduped']} deduped")
    if counts.get("retried"):
        parts.append(f"{counts['retried']} retried")
    return f"{counts.get('total', 0)} runs: " + ", ".join(parts)
