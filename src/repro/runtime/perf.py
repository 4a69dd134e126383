"""Per-run performance telemetry (``repro.runtime.perf``).

Every run the executor completes gets a :class:`PerfRecord` — wall
time, simulated time, events dispatched, dispatch throughput, peak
RSS, engine, and the spec's content hash.  The record rides on the JSONL
run manifest (``ManifestEntry.perf``), so "what ran" and "how fast it
ran" live on the same line, and CHK601 (:mod:`repro.check.perf`)
checks it there.

Collection piggybacks on the engine's unconditional
:class:`~repro.sim.engine.DispatchStats` accumulator, so it works with
observability fully disabled and costs nothing beyond two counter
reads per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.sim.engine import dispatch_stats

#: Bump when the record layout changes incompatibly.
PERF_SCHEMA_VERSION = 1


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 where the
    ``resource`` module is unavailable, e.g. Windows)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    import sys

    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        rss //= 1024
    return int(rss)


@dataclass(frozen=True)
class PerfRecord:
    """One run's performance facts."""

    spec_hash: str
    label: str
    engine: str
    wall_s: float
    sim_s: float
    events: int
    events_per_sec: float
    peak_rss_kb: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PERF_SCHEMA_VERSION,
            "spec_hash": self.spec_hash,
            "label": self.label,
            "engine": self.engine,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "peak_rss_kb": self.peak_rss_kb,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfRecord":
        return cls(
            spec_hash=str(data["spec_hash"]),
            label=str(data.get("label", "")),
            engine=str(data.get("engine", "fluid")),
            wall_s=float(data["wall_s"]),
            sim_s=float(data["sim_s"]),
            events=int(data["events"]),
            events_per_sec=float(data["events_per_sec"]),
            peak_rss_kb=int(data.get("peak_rss_kb", 0)),
        )


class PerfMeter:
    """Measures one run: snapshot the dispatch accumulator, run, diff.

    Usage (what the executor does)::

        meter = PerfMeter(spec)
        result = spec.execute()
        record = meter.finish(wall_s)
    """

    def __init__(self, spec: Any, spec_hash: Optional[str] = None):
        self._spec_hash = spec_hash or spec.content_hash()
        self._label = spec.label
        self._engine = getattr(spec, "engine", "fluid")
        self._events0, self._sim0 = dispatch_stats().snapshot()

    def finish(self, wall_s: float) -> PerfRecord:
        events1, sim1 = dispatch_stats().snapshot()
        events = events1 - self._events0
        sim_s = sim1 - self._sim0
        return PerfRecord(
            spec_hash=self._spec_hash,
            label=self._label,
            engine=self._engine,
            wall_s=wall_s,
            sim_s=sim_s,
            events=events,
            events_per_sec=events / wall_s if wall_s > 0 else 0.0,
            peak_rss_kb=peak_rss_kb(),
        )


__all__ = [
    "PERF_SCHEMA_VERSION",
    "PerfMeter",
    "PerfRecord",
    "peak_rss_kb",
]
