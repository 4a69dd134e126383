"""The runtime facade: ambient context + dispatch into the scheduler.

:func:`run_many` takes a list of picklable
:class:`~repro.runtime.spec.RunSpec`s and returns their results in
order.  Since the runtime split it is deliberately thin: it resolves
the ambient :class:`RuntimeContext`, statically verifies the batch,
submits it as a :class:`~repro.runtime.batch.Batch` into a
:class:`~repro.runtime.queue.JobQueue` (where identical spec hashes
coalesce into one job with many waiters), and hands the queue to a
:class:`~repro.runtime.scheduler.Scheduler`.  Cache lookup, pool
management, timeouts, retries, and the serial fallback all live behind
the scheduler; per-index outcomes and result ordering live in the
batch.  What is left here is what ``run_many`` does
with a settled run: one manifest line and one progress tick.

Experiment modules call :func:`run_specs`, which executes under the
*ambient* :class:`RuntimeContext` — serial and uncached by default, so
library behaviour is unchanged until a caller opts in::

    with use_runtime(jobs=4, cache=ResultCache()):
        results = run_static(True, runs=10)   # 30 parallel, cached runs
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace as _dc_replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro import obs as _obs
from repro.errors import ConfigurationError, ExecutionError
from repro.runtime.batch import Batch, verify_batch
from repro.runtime.cache import ResultCache
from repro.runtime.manifest import RunManifest
from repro.runtime.progress import auto_reporter
from repro.runtime.queue import Job, JobQueue
from repro.runtime.scheduler import (
    RetryPolicy,
    Scheduler,
    TimeoutPolicy,
    retry_delay_s,
)
from repro.runtime.spec import RunSpec

__all__ = [
    "RuntimeContext",
    "current_context",
    "group_results",
    "retry_delay_s",
    "run_many",
    "run_specs",
    "use_runtime",
]

#: Sentinel distinguishing "inherit from the ambient context" from an
#: explicit None (= disable).
_INHERIT: Any = object()


@dataclass
class RuntimeContext:
    """Everything :func:`run_many` needs beyond the specs themselves."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    manifest: Optional[RunManifest] = None
    #: False/None, True (stderr), or a :class:`ProgressReporter`.
    progress: Any = None
    #: Per-run wall-clock budget, seconds (None = unlimited).
    timeout_s: Optional[float] = None
    #: Extra attempts after a crash or timeout (not after a
    #: deterministic simulation failure, which would just fail again).
    retries: int = 2
    #: Base backoff between retry waves, seconds.
    backoff_s: float = 0.5
    #: Hard ceiling on any single retry delay, seconds.
    max_backoff_s: float = 30.0
    #: Per-run trace/metrics capture (None = observability off).
    obs: Optional[_obs.ObsOptions] = None
    #: Statically verify every spec before dispatch (repro.check Tier
    #: 2): unknown builders, bad config overrides, missing input files
    #: fail here instead of inside a pool worker.
    verify: bool = True
    #: Optional JSONL queue-journal path: every batch's submissions and
    #: transitions append here, and a killed run's journal replays via
    #: ``JobQueue.recover``.  None (the default) keeps batches
    #: journal-free; the service always journals under its cache dir.
    journal: Optional[Union[str, Path]] = None


_ambient = RuntimeContext()
_ambient_lock = threading.Lock()


def current_context() -> RuntimeContext:
    """The ambient runtime context (serial/uncached unless configured)."""
    return _ambient


@contextmanager
def use_runtime(**overrides: Any):
    """Temporarily replace fields of the ambient context.

    Accepts any :class:`RuntimeContext` field, e.g.
    ``use_runtime(jobs=4, cache=ResultCache())``.  Nesting composes:
    inner overrides win, everything else is inherited.
    """
    global _ambient
    with _ambient_lock:
        previous = _ambient
        _ambient = _dc_replace(previous, **overrides)
    try:
        yield _ambient
    finally:
        with _ambient_lock:
            _ambient = previous


def run_specs(specs: Sequence[RunSpec], **overrides: Any) -> List[Any]:
    """Run specs under the ambient context (plus keyword overrides)."""
    return run_many(specs, **overrides)


def group_results(
    specs: Sequence[RunSpec],
    results: Sequence[Any],
    key: Callable[[RunSpec], Any] = lambda spec: spec.protocol,
) -> Dict[Any, List[Any]]:
    """Regroup ordered results, by protocol unless told otherwise."""
    grouped: Dict[Any, List[Any]] = {}
    for spec, result in zip(specs, results):
        grouped.setdefault(key(spec), []).append(result)
    return grouped


def run_many(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Any = _INHERIT,
    manifest: Any = _INHERIT,
    progress: Any = _INHERIT,
    timeout_s: Any = _INHERIT,
    retries: Optional[int] = None,
    backoff_s: Optional[float] = None,
    max_backoff_s: Optional[float] = None,
    obs: Any = _INHERIT,
    verify: Optional[bool] = None,
    journal: Any = _INHERIT,
) -> List[Any]:
    """Execute every spec; return results in spec order.

    Raises :class:`~repro.errors.ExecutionError` if any run ultimately
    failed (all successful results up to that point are cached, so a
    re-invocation resumes where it left off), and
    :class:`~repro.errors.ConfigurationError` if pre-dispatch
    verification rejects a spec (disable with ``verify=False``).
    """
    ctx = current_context()
    jobs = ctx.jobs if jobs is None else jobs
    cache = ctx.cache if cache is _INHERIT else cache
    manifest = ctx.manifest if manifest is _INHERIT else manifest
    progress = ctx.progress if progress is _INHERIT else progress
    timeout_s = ctx.timeout_s if timeout_s is _INHERIT else timeout_s
    retries = ctx.retries if retries is None else retries
    backoff_s = ctx.backoff_s if backoff_s is None else backoff_s
    max_backoff_s = ctx.max_backoff_s if max_backoff_s is None else max_backoff_s
    obs = ctx.obs if obs is _INHERIT else obs
    verify = ctx.verify if verify is None else verify
    journal = ctx.journal if journal is _INHERIT else journal
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")

    specs = list(specs)
    if verify:
        verify_batch(specs)

    scheduler = Scheduler(
        jobs=jobs,
        retry=RetryPolicy(
            retries=retries, backoff_s=backoff_s, max_backoff_s=max_backoff_s
        ),
        timeout=TimeoutPolicy(timeout_s),
        obs=obs,
        cache=cache,
    )
    reporter = auto_reporter(progress)

    def settle(index: int, outcome: str, job: Job) -> None:
        if manifest is not None:
            _record(manifest, specs[index], outcome, job)
        if reporter is not None:
            reporter.update(outcome)

    def retried(job: Job, wall_s: float) -> None:
        if manifest is not None:
            _record(manifest, job.spec, "retried", job, wall_s)

    batch = Batch(specs, scheduler, on_settle=settle)
    queue = JobQueue(journal=journal)
    if reporter is not None:
        reporter.start(len(specs))
    try:
        batch.submit(queue)
        scheduler.run_batch(queue, on_retry=retried)
    finally:
        queue.close()
        if reporter is not None:
            reporter.finish()

    if batch.failures:
        failures = sorted(batch.failures, key=lambda pair: pair[0])
        first_index, first_exc = failures[0]
        raise ExecutionError(
            f"{len(failures)} of {len(specs)} runs failed; first: "
            f"{specs[first_index].label}: {first_exc}"
        ) from first_exc
    return batch.results


def _record(
    manifest: RunManifest,
    spec: RunSpec,
    outcome: str,
    job: Job,
    wall_s: float = 0.0,
) -> None:
    """One manifest line for ``spec``, carrying the job's queue wait
    and its spec hash, so the manifest does not hash the spec again."""
    common = {"wait_s": job.wait_s, "spec_hash": job.spec_hash}
    if outcome == "deduped":
        manifest.record(spec, outcome, worker="dedup", **common)
    elif outcome == "retried":
        manifest.record(
            spec, outcome, wall_time_s=wall_s, worker=job.worker or "local",
            attempt=job.attempts, **common,
        )
    else:
        manifest.record(
            spec, outcome, wall_time_s=job.wall_s,
            worker=job.worker or "local", attempt=max(1, job.attempts),
            trace=job.trace, perf=job.perf, **common,
        )
