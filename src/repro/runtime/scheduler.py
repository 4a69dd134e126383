"""The scheduler: one dispatcher loop feeding a worker pool from the job queue.

This module is the execution half of the runtime split (the
:mod:`~repro.runtime.queue` holds *what* to run; the scheduler decides
*where and when*).  The moving parts:

* **strategy objects** — :class:`RetryPolicy` (bounded retries with
  decorrelated-jitter backoff) and :class:`TimeoutPolicy` (pre-emptive
  ``SIGALRM`` deadline with a wall-clock fallback) carry the knobs that
  used to be loose parameters threaded through ``executor.py``;
* **worker pools** — :class:`ProcessWorkerPool` wraps one warm
  ``ProcessPoolExecutor`` (fork-preferring, restartable after a worker
  crash); :class:`InlineWorkerPool` runs each job on the dispatcher's
  own thread and is both the ``jobs=1`` path and the graceful fallback
  when no pool can be created.  Both hand back
  ``concurrent.futures.Future`` objects;
* **the dispatcher** — :meth:`Scheduler._dispatch` is the only loop:
  it fills the pool's free slots from due retries and the queue, waits
  for the first finished attempt (``wait(FIRST_COMPLETED)``), and
  settles it — done, failed, or parked for a retry with a not-before
  time.  :meth:`Scheduler.run_batch` runs it once per batch (what the
  :func:`~repro.runtime.executor.run_many` facade calls);
  :meth:`Scheduler.serve` runs it on the service thread until
  :meth:`Scheduler.stop`, woken at once by :meth:`Scheduler.kick`.

The dispatcher thread does all of the scheduler's bookkeeping — cache
reads and writes, metrics and lifecycle spans — so those structures,
which have no locks of their own, never see two scheduler threads at
once.  The queue is shared with submitting threads, and it locks
internally; its terminal callbacks are how each
:class:`~repro.runtime.batch.Batch` settles its spec indices.

Warm pools are safe only where workers inherit every builder the specs
name: the pools fork from the submitting process, so a *scratch*
builder registered after the pool forked would be missing in the
workers.  ``run_batch`` therefore builds its pool per call, sized to
the cache misses, while the long-lived service — whose specs come in by
name over HTTP and resolve against the default builders — keeps one
warm.

Determinism: the module is covered by REP101/REP202; every wall-clock
read goes through the :mod:`repro.runtime.clock` seam.  The
retry RNG is deliberately unseeded — the jitter exists to decorrelate,
and never touches simulation results.

Observability: when a :class:`~repro.obs.dist.SpanRecorder` is
attached (``scheduler.recorder``), every job emits lifecycle spans —
``queue.wait`` (submit→pop), one ``job.exec`` per attempt (annotated
with pool/worker/status), and a terminal ``job`` span — all under the
batch's deterministic trace id, with each run record stamped
with the executing attempt's ``(trace_id, span_id)``.  A
:class:`~repro.obs.metrics.MetricsRegistry` on the scheduler counts
retries/timeouts/crashes/cache hits for the service's ``/v1/metrics``
plane.  A terminal failure stays visible as the failed ``job`` span
(its exec span says ``error``, ``timeout`` or ``crashed``), the
manifest's ``failed`` line and ``scheduler.jobs_failed``.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import random
import signal
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.obs import dist as _dist
from repro.obs.metrics import MetricsRegistry
from repro.runtime import clock
from repro.runtime.cache import ResultCache
from repro.runtime.perf import PerfMeter
from repro.runtime.queue import PENDING, Job, JobQueue
from repro.runtime.spec import RunSpec, get_builder


def retry_delay_s(
    base_s: float,
    cap_s: float,
    prev_s: float,
    rng: random.Random,
) -> float:
    """One decorrelated-jitter retry delay (uniform in
    ``[base, 3 * prev]``, capped at ``cap_s``).

    A wave of workers killed by the same cause (OOM, a rebooted
    license server) must not retry in lockstep: each delay is drawn
    independently, and feeding the previous delay back in grows the
    spread roughly exponentially while the cap bounds the worst case.
    """
    if base_s <= 0:
        return 0.0
    upper = max(base_s, 3.0 * prev_s)
    return min(cap_s, rng.uniform(base_s, upper))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with decorrelated-jitter backoff."""

    #: Extra attempts after a crash or timeout (not after a
    #: deterministic simulation failure, which would just fail again).
    retries: int = 2
    #: Base backoff between attempts, seconds.
    backoff_s: float = 0.5
    #: Hard ceiling on any single retry delay, seconds.
    max_backoff_s: float = 30.0

    def should_retry(self, attempt: int) -> bool:
        return attempt <= self.retries

    def delay_s(self, prev_s: float, rng: random.Random) -> float:
        return retry_delay_s(self.backoff_s, self.max_backoff_s, prev_s, rng)


def _sigalrm_usable() -> bool:
    """True when a pre-emptive ``SIGALRM`` deadline can be armed here.

    Split out (rather than inlined in :meth:`TimeoutPolicy.deadline`)
    so tests can monkeypatch it to exercise the wall-clock fallback on
    platforms that *do* have ``SIGALRM``.
    """
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@dataclass(frozen=True)
class TimeoutPolicy:
    """Per-run wall-clock budget (None/<=0 = unlimited)."""

    timeout_s: Optional[float] = None

    @contextmanager
    def deadline(self):
        """Raise ``TimeoutError`` if the body outlives the budget.

        Where ``SIGALRM`` is available and we are on the main thread
        (always true for pool workers), the timeout is pre-emptive:
        the run is interrupted mid-flight.  Everywhere else — Windows,
        or a caller driving the runtime from a secondary thread — the
        deadline degrades to a post-hoc wall-clock check: the run
        completes, but if it overshot the budget its result is
        discarded and ``TimeoutError`` is raised so ``--timeout`` is
        honoured on every platform rather than silently becoming a
        no-op.
        """
        seconds = self.timeout_s
        if seconds is None or seconds <= 0:
            yield
            return

        if not _sigalrm_usable():
            start = clock.monotonic()
            yield
            elapsed = clock.monotonic() - start
            if elapsed > seconds:
                raise TimeoutError(
                    f"run exceeded the {seconds}s timeout "
                    f"(finished after {elapsed:.2f}s; SIGALRM unavailable, "
                    f"so the run could not be interrupted mid-flight)"
                )
            return

        def _expired(_signum, _frame):
            raise TimeoutError(f"run exceeded the {seconds}s timeout")

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, float(seconds))
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _ctx_stamp(
    ctx_dict: Optional[Dict[str, Any]]
) -> Optional[Dict[str, str]]:
    """The ``{trace_id, span_id}`` stamp for run exports, from a
    wire-form :class:`~repro.obs.dist.TraceContext` dict (or None)."""
    if not ctx_dict:
        return None
    trace_id = str(ctx_dict.get("trace_id", ""))
    span_id = str(ctx_dict.get("span_id", ""))
    if not trace_id:
        return None
    return {"trace_id": trace_id, "span_id": span_id}


def _execute_observed(
    spec: RunSpec,
    options: Optional[_obs.ObsOptions],
    stamp: Optional[Dict[str, str]] = None,
    spec_hash: Optional[str] = None,
) -> Tuple[Any, str]:
    """Run one spec, inside its own capture session when requested.

    Returns ``(result, trace_path)``: the path of the run's record,
    ``<options.dir>/<hash>.trace.jsonl``, stamped with ``stamp`` (the
    distributed-trace identity), or "" when observability is off.
    """
    if options is None or not options.enabled:
        return spec.execute(), ""
    with _obs.capture(
        trace=options.trace,
        metrics=options.metrics,
        profile=options.profile,
        ring_size=options.ring_size,
    ) as session:
        result = spec.execute()
    path = Path(options.dir) / f"{spec_hash or spec.content_hash()}.trace.jsonl"
    return result, str(session.export(path, stamp=stamp))


def _worker_run(
    spec_dict: Dict[str, Any],
    timeout_s: Optional[float],
    obs_dict: Optional[Dict[str, Any]] = None,
    ctx_dict: Optional[Dict[str, Any]] = None,
    spec_hash: Optional[str] = None,
) -> Tuple[Dict[str, Any], float, str, str, Dict[str, Any]]:
    """Pool-side entry point: rebuild the spec, run it, encode the result.

    Must stay a module-level function so it pickles under every
    multiprocessing start method.  ``ctx_dict`` is the execution
    attempt's trace context; its stamp lands on the run's exports so
    they correlate back to the scheduler's lifecycle spans.
    ``spec_hash`` is the spec's content hash, which the submitter
    already has.
    """
    spec = RunSpec.from_dict(spec_dict)
    entry = get_builder(spec.builder)
    options = (
        _obs.ObsOptions.from_dict(obs_dict) if obs_dict is not None else None
    )
    meter = PerfMeter(spec, spec_hash)
    start = clock.perf()
    with TimeoutPolicy(timeout_s).deadline():
        result, trace = _execute_observed(
            spec, options, stamp=_ctx_stamp(ctx_dict), spec_hash=spec_hash
        )
    wall = clock.perf() - start
    perf = meter.finish(wall).to_dict()
    return entry.encode(result), wall, f"pid-{os.getpid()}", trace, perf


def _make_pool(jobs: int) -> ProcessPoolExecutor:
    """A pool preferring ``fork`` (cheap, inherits the registry) while
    degrading to the platform default start method."""
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:
        mp_context = None
    return ProcessPoolExecutor(max_workers=jobs, mp_context=mp_context)


#: Exceptions meaning "no process pool can exist here" — the scheduler
#: degrades to in-process execution rather than failing the batch.
POOL_UNAVAILABLE = (NotImplementedError, OSError, PermissionError, ValueError)

#: Smoothing weight of the events/sec EWMA exposed on ``/v1/metrics``
#: (weight of the newest finished run).
EWMA_ALPHA = 0.3


class InlineWorkerPool:
    """In-process execution on the dispatcher's thread: the ``jobs=1``
    path and the pool fallback.  On the main thread ``SIGALRM`` still
    pre-empts a run; elsewhere the timeout is the wall-clock check."""

    name = "local"
    capacity = 1
    generation = 0

    def submit(
        self,
        spec: RunSpec,
        timeout: TimeoutPolicy,
        options: Optional[_obs.ObsOptions],
        ctx: Optional[Dict[str, Any]] = None,
        spec_hash: Optional[str] = None,
    ) -> Future:
        """Run ``spec`` now; the returned future is already done."""
        future: Future = Future()
        try:
            future.set_result(self._run(spec, timeout, options, ctx, spec_hash))
        except Exception as exc:
            future.set_exception(exc)
        return future

    @staticmethod
    def _run(
        spec: RunSpec,
        timeout: TimeoutPolicy,
        options: Optional[_obs.ObsOptions],
        ctx: Optional[Dict[str, Any]] = None,
        spec_hash: Optional[str] = None,
    ) -> Tuple[Any, float, str, str, Dict[str, Any]]:
        meter = PerfMeter(spec, spec_hash)
        start = clock.perf()
        with timeout.deadline():
            result, trace = _execute_observed(
                spec, options, stamp=_ctx_stamp(ctx), spec_hash=spec_hash
            )
        wall = clock.perf() - start
        return result, wall, "local", trace, meter.finish(wall).to_dict()

    @staticmethod
    def decode(spec: RunSpec, result: Any) -> Any:
        return result  # never left the process

    def restart(self, generation: int) -> None:  # pragma: no cover
        pass  # nothing to restart in-process

    def close(self) -> None:
        pass


class ProcessWorkerPool:
    """A warm ``ProcessPoolExecutor``.

    ``restart`` is generation-guarded: when a worker crash breaks the
    pool, every attempt in flight on it fails with
    ``BrokenProcessPool``, but only the first one settled (per
    generation) rebuilds the pool.
    """

    name = "pool-0"

    def __init__(self, workers: int):
        self.capacity = workers
        self.generation = 0
        self._pool: Optional[ProcessPoolExecutor] = _make_pool(workers)

    def submit(
        self,
        spec: RunSpec,
        timeout: TimeoutPolicy,
        options: Optional[_obs.ObsOptions],
        ctx: Optional[Dict[str, Any]] = None,
        spec_hash: Optional[str] = None,
    ) -> Future:
        """Hand ``spec`` to a worker; a submission that cannot even be
        made comes back as a failed future, settled like any other."""
        obs_dict = (
            options.to_dict()
            if options is not None and options.enabled
            else None
        )
        try:
            if self._pool is None:
                raise BrokenProcessPool("the process pool could not be rebuilt")
            return self._pool.submit(
                _worker_run, spec.to_dict(), timeout.timeout_s, obs_dict, ctx,
                spec_hash,
            )
        except Exception as exc:
            future: Future = Future()
            future.set_exception(exc)
            return future

    @staticmethod
    def decode(spec: RunSpec, encoded: Any) -> Any:
        return get_builder(spec.builder).decode(encoded)

    def restart(self, generation: int) -> None:
        """Rebuild the pool after a crash (no-op if an attempt of the
        same generation already did)."""
        if generation != self.generation:
            return
        self.generation += 1
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        try:
            self._pool = _make_pool(self.capacity)
        except POOL_UNAVAILABLE:
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def build_pool(jobs: int, pending: int) -> Any:
    """One pool sized to the work.

    ``jobs <= 1`` (or a single pending run) stays in-process; otherwise
    a process pool of ``min(jobs, pending)`` workers.  Pool creation
    failure degrades to in-process execution.
    """
    if jobs <= 1 or pending <= 1:
        return InlineWorkerPool()
    try:
        return ProcessWorkerPool(min(jobs, pending))
    except POOL_UNAVAILABLE:
        return InlineWorkerPool()


@dataclass
class _Attempt:
    """One job's current execution attempt, as the dispatcher holds it."""

    job: Job
    #: The last retry delay; decorrelated jitter feeds it back in.
    delay_s: float
    exec_ctx: Optional[_dist.TraceContext] = None
    span_start: float = 0.0
    start: float = 0.0
    generation: int = 0


class Scheduler:
    """Drains a :class:`~repro.runtime.queue.JobQueue` through worker
    pools; owns the result cache and its telemetry on that path."""

    def __init__(
        self,
        jobs: int = 1,
        retry: RetryPolicy = RetryPolicy(),
        timeout: TimeoutPolicy = TimeoutPolicy(),
        obs: Optional[_obs.ObsOptions] = None,
        cache: Optional[ResultCache] = None,
    ):
        self.jobs = jobs
        self.retry = retry
        self.timeout = timeout
        self.obs = obs
        self.cache = cache
        #: Retry pacing entropy.  Deliberately unseeded — these delays
        #: never touch simulation results, and sharing entropy across
        #: processes is exactly what the jitter exists to avoid.
        self._retry_rng = random.Random()  # repro: noqa[REP102]
        #: Done once :meth:`kick` wakes the dispatcher; replaced by the
        #: dispatcher before it next looks at the queue.
        self._kick: Future = Future()
        self._stopping = False
        self.on_retry: Optional[Callable[[Job, float], None]] = None
        #: Lifecycle-span sink (None = tracing off).  The executor and
        #: the service attach one.
        self.recorder: Optional[_dist.SpanRecorder] = None
        #: Live counters for the service metrics plane.  Pre-registered
        #: so every scrape sees the full series set from the start.
        self.metrics = MetricsRegistry()
        for _name in (
            "scheduler.retries",
            "scheduler.timeouts",
            "scheduler.crashes",
            "scheduler.cache_hits",
            "scheduler.jobs_done",
            "scheduler.jobs_failed",
        ):
            self.metrics.counter(_name)
        #: Jobs currently executing, per pool name.
        self.inflight: Dict[str, int] = {}
        #: Exponentially-weighted events/sec over finished runs.
        self.events_ewma: Optional[float] = None

    # -- lifecycle spans --------------------------------------------
    #
    # The same topology whichever pool ran the job (the parity the
    # CHK7xx tier checks).  All are no-ops when no recorder is attached.

    def _job_ctx(self, job: Job) -> Optional[_dist.TraceContext]:
        if self.recorder is None:
            return None
        ctx = job.ctx
        return ctx if isinstance(ctx, _dist.TraceContext) else None

    def _record_wait(self, job: Job) -> None:
        """The queue-wait span: submission until the scheduler first
        picked the job up (or resolved it from cache)."""
        ctx = self._job_ctx(job)
        if ctx is None:
            return
        end_t = clock.now()
        self.recorder.record(_dist.LifecycleSpan(
            trace_id=ctx.trace_id,
            span_id=_dist.span_id_for(
                ctx.trace_id, _dist.SPAN_WAIT, job.spec_hash
            ),
            parent_span_id=ctx.span_id,
            name=_dist.SPAN_WAIT,
            start_t=job.submitted_at or end_t,
            end_t=end_t,
            attrs={"hash": job.spec_hash, "priority": job.priority},
        ))

    def _exec_ctx(self, job: Job) -> Optional[_dist.TraceContext]:
        """Context for the *current attempt's* execution span.  The ID
        is content-derived, so it is known before dispatch and the
        worker can stamp its exports without a round trip."""
        ctx = self._job_ctx(job)
        if ctx is None:
            return None
        return ctx.child(_dist.SPAN_EXEC, job.spec_hash, job.attempts)

    def _record_exec(
        self,
        job: Job,
        exec_ctx: Optional[_dist.TraceContext],
        start_t: float,
        status: str,
        worker: str,
        shard: str,
    ) -> None:
        if exec_ctx is None or self.recorder is None:
            return
        self.recorder.record(_dist.LifecycleSpan(
            trace_id=exec_ctx.trace_id,
            span_id=exec_ctx.span_id,
            parent_span_id=exec_ctx.parent_span_id,
            name=_dist.SPAN_EXEC,
            start_t=start_t,
            end_t=clock.now(),
            status=status,
            attrs={
                "hash": job.spec_hash,
                "attempt": job.attempts,
                "worker": worker,
                "shard": shard,
            },
        ))

    def _record_job_span(self, job: Job, outcome: str, status: str) -> None:
        """The per-job span, recorded just before the job turns
        terminal (so batch-completion callbacks observe it)."""
        ctx = self._job_ctx(job)
        if ctx is None:
            return
        end_t = clock.now()
        self.recorder.record(_dist.LifecycleSpan(
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_span_id=ctx.parent_span_id,
            name=_dist.SPAN_JOB,
            start_t=job.submitted_at or end_t,
            end_t=end_t,
            status=status,
            attrs={
                "hash": job.spec_hash,
                "label": job.spec.label,
                "outcome": outcome,
                "attempts": job.attempts,
                "worker": job.worker or "local",
            },
        ))

    def _mark_cached(self, job: Job, hit: Any, queue: JobQueue) -> None:
        """Settle a cache hit with the same span topology as an
        executed job (wait + terminal; no exec span — nothing ran)."""
        job.worker = "cache"
        self.metrics.counter("scheduler.cache_hits").inc()
        self._record_wait(job)
        self._record_job_span(job, "cached", "ok")
        queue.mark_done(job, "cached", hit)

    # -- cache ------------------------------------------------------

    def resolve_cached(self, queue: JobQueue) -> int:
        """Settle every untouched pending job with a cache hit before
        any pool exists; returns the number of hits."""
        if self.cache is None:
            return 0
        hits = 0
        for job in queue.jobs():
            if job.state == PENDING and job.attempts == 0:
                hit = self.cache.get(job.spec, job.spec_hash)
                if hit is not None:
                    self._mark_cached(job, hit, queue)
                    hits += 1
        return hits

    def flush_telemetry(self, queue: JobQueue) -> None:
        """Append the result store's lifetime counters (plus queue
        dedup/completion counts) to the cache's telemetry log — one
        snapshot line per batch."""
        if self.cache is None:
            return
        try:
            self.cache.record_telemetry(
                {"queue": queue.stats.to_dict(), "t": clock.now()}
            )
        except OSError:
            pass  # telemetry must never fail the batch it measured

    # -- batch entry points -----------------------------------------

    def run_batch(
        self,
        queue: JobQueue,
        on_retry: Optional[Callable[[Job, float], None]] = None,
    ) -> None:
        """Drive ``queue`` to completion on the calling thread.

        The pool is built per call, sized to the actual cache misses
        (a fully-cached batch never forks a worker), and torn down
        afterwards — see the module docstring for why a warm pool is
        reserved for the service.  ``on_retry(job, wall_s)`` hears of
        every attempt that is retried.
        """
        self.on_retry = on_retry
        try:
            self.resolve_cached(queue)
            misses = queue.open_jobs()
            if misses > 0:
                pool = build_pool(self.jobs, misses)
                try:
                    self._dispatch(queue, pool)
                finally:
                    pool.close()
        finally:
            self.on_retry = None

    def serve(self, queue: JobQueue) -> None:
        """Dispatch on the calling thread until :meth:`stop`, with one
        pool kept warm across batches; each job is re-checked against
        the cache when popped, since an earlier batch may have produced
        its result since it was submitted."""
        pool = build_pool(self.jobs, self.jobs)
        try:
            self._dispatch(queue, pool, serve=True)
        finally:
            pool.close()
            self._stopping = False

    def stop(self) -> None:
        """Ask a serving scheduler to drain and return (threadsafe)."""
        self._stopping = True
        self.kick()

    def kick(self) -> None:
        """Wake the dispatcher from another thread (the service calls
        this after every submit)."""
        try:
            self._kick.set_result(None)
        except InvalidStateError:
            pass  # already awake; it has not looked at the queue yet

    # -- the dispatcher ---------------------------------------------

    def _dispatch(
        self, queue: JobQueue, pool: Any, serve: bool = False
    ) -> None:
        """The one scheduler loop.

        Fills the pool's free slots — due retries first, then the queue
        — and settles attempts as they finish.  A retry waits out its
        backoff as a not-before time, so it never holds a slot or
        stalls the loop.  Returns once nothing is running, due or ready:
        at once in batch mode, and after :meth:`stop` when serving.
        """
        running: Dict[Future, _Attempt] = {}
        backlog: List[Tuple[float, int, _Attempt]] = []
        order = itertools.count()
        while True:
            if self._kick.done():
                self._kick = Future()
            now = clock.monotonic()
            while len(running) < pool.capacity:
                if backlog and backlog[0][0] <= now:
                    attempt = heapq.heappop(backlog)[2]
                else:
                    job = queue.pop()
                    if job is None:
                        break
                    hit = (
                        self.cache.get(job.spec, job.spec_hash)
                        if serve and self.cache is not None
                        else None
                    )
                    if hit is not None:
                        self._mark_cached(job, hit, queue)
                        continue
                    self._record_wait(job)
                    attempt = _Attempt(job, delay_s=self.retry.backoff_s)
                self.inflight[pool.name] = len(running) + 1
                running[self._launch(attempt, pool)] = attempt
            if not running and not backlog and (not serve or self._stopping):
                return
            done, _ = wait(
                [*running, self._kick],
                timeout=(
                    max(0.0, backlog[0][0] - clock.monotonic())
                    if backlog else None
                ),
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                if future is self._kick:
                    continue
                attempt = running.pop(future)
                retry_in = self._settle(attempt, future, pool, queue)
                if retry_in is not None:
                    due = clock.monotonic() + retry_in
                    heapq.heappush(backlog, (due, next(order), attempt))
            self.inflight[pool.name] = len(running)

    def _launch(self, attempt: _Attempt, pool: Any) -> Future:
        """Start the attempt's next execution on ``pool``."""
        job = attempt.job
        attempt.exec_ctx = self._exec_ctx(job)
        attempt.span_start = clock.now()
        attempt.start = clock.perf()
        attempt.generation = pool.generation
        ctx = attempt.exec_ctx
        return pool.submit(
            job.spec, self.timeout, self.obs,
            ctx.to_dict() if ctx is not None else None,
            job.spec_hash,
        )

    def _settle(
        self, attempt: _Attempt, future: Future, pool: Any, queue: JobQueue
    ) -> Optional[float]:
        """Settle one finished execution: the job is done or failed, or
        the return value is the backoff (seconds) before its retry."""
        job = attempt.job
        try:
            encoded, wall, worker, trace, perf = future.result()
            result = pool.decode(job.spec, encoded)
        except (TimeoutError, BrokenProcessPool) as exc:
            # A timeout, or a worker that died (OOM, hard crash; the
            # pool is rebuilt): retry the run within the budget.
            crashed = isinstance(exc, BrokenProcessPool)
            if crashed:
                pool.restart(attempt.generation)
            wall = 0.0 if crashed else clock.perf() - attempt.start
            job.worker = pool.name
            self._record_exec(
                job, attempt.exec_ctx, attempt.span_start,
                "crashed" if crashed else "timeout", pool.name, pool.name,
            )
            self.metrics.counter(
                "scheduler.crashes" if crashed else "scheduler.timeouts"
            ).inc()
            if not self.retry.should_retry(job.attempts):
                if not crashed:
                    job.wall_s = wall
                self._fail_job(job, queue, exc)
                return None
            if self.on_retry is not None:
                self.on_retry(job, wall)
            queue.note_retry(job)
            self.metrics.counter("scheduler.retries").inc()
            attempt.delay_s = self.retry.delay_s(
                attempt.delay_s, self._retry_rng
            )
            return attempt.delay_s
        except Exception as exc:
            # Deterministic simulation failure: retrying would only
            # reproduce it, so fail immediately.
            job.wall_s = clock.perf() - attempt.start
            job.worker = pool.name
            self._record_exec(
                job, attempt.exec_ctx, attempt.span_start, "error",
                pool.name, pool.name,
            )
            self._fail_job(job, queue, exc)
            return None
        self._record_exec(
            job, attempt.exec_ctx, attempt.span_start, "ok", worker, pool.name
        )
        self._finish_job(job, queue, result, wall, worker, trace, perf)
        return None

    def _fail_job(
        self, job: Job, queue: JobQueue, exc: BaseException
    ) -> None:
        self.metrics.counter("scheduler.jobs_failed").inc()
        self._record_job_span(job, "failed", "failed")
        queue.mark_failed(job, exc)

    def _finish_job(
        self,
        job: Job,
        queue: JobQueue,
        result: Any,
        wall: float,
        worker: str,
        trace: str,
        perf: Dict[str, Any],
    ) -> None:
        job.wall_s = wall
        job.worker = worker
        job.trace = trace
        job.perf = perf
        if self.cache is not None:
            self.cache.put(job.spec, result, job.spec_hash)
        events_per_sec = (perf or {}).get("events_per_sec")
        if isinstance(events_per_sec, (int, float)) and events_per_sec > 0:
            self.events_ewma = (
                float(events_per_sec)
                if self.events_ewma is None
                else (1.0 - EWMA_ALPHA) * self.events_ewma
                + EWMA_ALPHA * float(events_per_sec)
            )
        self.metrics.counter("scheduler.jobs_done").inc()
        self._record_job_span(job, "executed", "ok")
        queue.mark_done(job, "executed", result)


__all__ = [
    "POOL_UNAVAILABLE",
    "InlineWorkerPool",
    "ProcessWorkerPool",
    "RetryPolicy",
    "Scheduler",
    "TimeoutPolicy",
    "build_pool",
    "retry_delay_s",
]
