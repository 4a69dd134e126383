"""The runtime's one wall-clock seam.

The queue, scheduler, and store (``repro.runtime.queue`` /
``scheduler`` / ``store``) are covered by the determinism checks
(REP101/REP202): they must not read ``time.*`` directly.  Every
wall-clock observation they make goes through the three functions
here instead.  With exactly one sanctioned entry point, the static
tiers can verify the service layer never grows a second clock
dependency, and every instant the runtime reads is accounted for:
journal timestamps and queue waits (:func:`now`), retry pacing and
deadlines (:func:`monotonic`), and run wall times (:func:`perf`).
None of them feeds a simulation, so results stay a pure function of
(spec, seed).
"""

from __future__ import annotations

import time


def now() -> float:
    """Seconds since the epoch (journal timestamps, queue waits)."""
    return time.time()


def monotonic() -> float:
    """Monotonic seconds (deadline and backoff arithmetic)."""
    return time.monotonic()


def perf() -> float:
    """High-resolution seconds (wall-time measurement)."""
    return time.perf_counter()


__all__ = ["monotonic", "now", "perf"]
