"""The discrete-event simulation engine.

A :class:`Simulator` keeps a priority queue of timestamped callbacks.
Time only advances when :meth:`Simulator.run` pops events; between
events nothing happens, which is what makes piecewise-constant energy
integration (see :mod:`repro.energy.meter`) exact.

Determinism
-----------
Events with equal timestamps fire in scheduling order (a monotonically
increasing sequence number breaks ties), so a simulation driven by
seeded random streams is fully reproducible.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from repro import obs as _obs
from repro.errors import SimulationError

Callback = Callable[..., Any]


class DispatchStats:
    """Process-wide dispatch totals, accumulated by every
    :meth:`Simulator.run` regardless of observability state.

    The perf-telemetry layer (:mod:`repro.runtime.perf`) snapshots the
    totals around a run to attribute events dispatched and simulated
    seconds to that run without requiring a capture session — the
    accumulation cost is two additions per ``run()`` call, not per
    event.
    """

    __slots__ = ("events", "sim_s")

    def __init__(self) -> None:
        self.events = 0
        self.sim_s = 0.0

    def snapshot(self) -> "DispatchSnapshot":
        return (self.events, self.sim_s)


#: ``(events, sim seconds)`` pair returned by :meth:`DispatchStats.snapshot`.
DispatchSnapshot = tuple

_DISPATCH_STATS = DispatchStats()


def dispatch_stats() -> DispatchStats:
    """The process-wide dispatch accumulator."""
    return _DISPATCH_STATS


class EventHandle:
    """A cancellable reference to a scheduled event.

    Handles are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`.  Cancelling is O(1): the event stays
    in the heap but is skipped when popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callback, args: tuple):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callback] = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the event.  Cancelling twice or cancelling an event
        that already fired is a silent no-op (timers race with their own
        expiry all the time)."""
        self.cancelled = True
        self.callback = None
        self.args = ()

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled and self.callback is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """A minimal but complete discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, print, "one second in")
        sim.run(until=10.0)

    The simulator is single-threaded and re-entrant: callbacks may
    schedule and cancel further events freely.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # ``(time, seq, handle)``: tuples order in C, and the unique
        # ``seq`` settles equal times before the handle is compared.
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._running = False
        self._stopped = False
        self.events_processed = 0
        metrics = _obs.metrics_or_none()
        self._dispatch_counter = (
            metrics.counter("sim.events") if metrics is not None else None
        )
        self._prof = _obs.profiler_or_none()
        if self._prof is not None:
            # First simulator in the capture wins; its virtual clock
            # makes the profiler's sim-time column deterministic.
            self._prof.bind_clock(lambda: self._now)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative and finite.
        """
        if not math.isfinite(delay) or delay < 0:
            raise SimulationError(f"invalid event delay: {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"invalid event time: {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        seq = self._seq
        handle = EventHandle(time, seq, callback, args)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        self._drop_cancelled()
        return self._queue[0][0] if self._queue else None

    def _drop_cancelled(self) -> None:
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)

    def step(self) -> bool:
        """Run exactly one event.  Returns False if none was pending."""
        self._drop_cancelled()
        if not self._queue:
            return False
        self._now, _, handle = heapq.heappop(self._queue)
        assert handle.callback is not None
        callback, args = handle.callback, handle.args
        # Mark fired before invoking so a callback cancelling its own
        # handle is harmless.
        handle.callback = None
        handle.args = ()
        prof = self._prof
        if prof is not None:
            with prof.span("sim.dispatch"):
                callback(*args)
        else:
            callback(*args)
        self.events_processed += 1
        if self._dispatch_counter is not None:
            self._dispatch_counter.inc()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order until the queue drains.

        Parameters
        ----------
        until:
            If given, stop once the next event lies strictly beyond this
            time, and advance the clock to exactly ``until``.
        max_events:
            Safety valve for tests; raise :class:`SimulationError` if
            exceeded (it usually means two components ping-pong forever).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        processed = 0
        started_at = self._now
        prof = self._prof
        if prof is not None:
            prof.begin("sim.run")
        try:
            while not self._stopped:
                self._drop_cancelled()
                if not self._queue:
                    break
                if until is not None and self._queue[0][0] > until:
                    break
                self.step()
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
            _DISPATCH_STATS.events += processed
            _DISPATCH_STATS.sim_s += self._now - started_at
            if prof is not None:
                prof.end()

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _, _, h in self._queue if not h.cancelled)
