"""One submitted batch: the bookkeeping both runtime front-ends share.

:func:`~repro.runtime.executor.run_many` (the figure suite) and
:class:`~repro.runtime.service.ExperimentService` (HTTP sweeps) submit
through :class:`Batch`.  It verifies nothing itself — callers run
:func:`verify_batch` first — and owns everything after that:

* submission into the :class:`~repro.runtime.queue.JobQueue`, each
  spec hashed once and submitted under its spec hash;
* each spec index's outcome, result or failure, by one rule (several
  indices may share one queue job through spec-hash dedup, within a
  batch or across batches):

  - ``failed`` when the job failed;
  - the job's own outcome (``executed``/``cached``) for the submission
    that created the job;
  - ``cached`` for a submission that joined a job served from cache;
  - ``deduped`` for a submission that joined a job another one ran;

* closing the batch once, when the last index settles and before the
  batch reports :attr:`Batch.done`: one cache-telemetry snapshot.

Each front-end passes in only what it does with a settled index:
``run_many`` writes a manifest line and ticks progress, the service
encodes a stream event.  Both records are keyed by the job's spec hash,
which also names the run's record (``<hash>.trace.jsonl``) when runs
are captured.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.queue import FAILED, Job, JobQueue
from repro.runtime.scheduler import Scheduler
from repro.runtime.spec import RunSpec

#: What a front-end does with one settled index: ``(index, outcome, job)``.
OnSettle = Callable[[int, str, Job], None]


def verify_batch(specs: Sequence[RunSpec]) -> None:
    """Apply the Tier-2 static verifier to a batch before any run.

    Only error-severity findings refuse the batch; warnings (e.g.
    EMPTCPConfig-shaped overrides on a custom builder) are ignored
    here and surfaced by ``repro check config`` instead.
    """
    from repro.check.config import verify_specs

    report = verify_specs(specs)
    if not report.ok:
        raise ConfigurationError(
            "pre-dispatch verification failed:\n"
            + "\n".join(f.format() for f in report.sorted_findings()
                        if f.severity.value == "error")
        )


class Batch:
    """One batch of specs submitted to a scheduler's queue.

    Callbacks may settle indices from the dispatcher thread and, for a
    job that was already terminal at submission, from the submitting
    thread; the counters lock internally.
    """

    def __init__(
        self,
        specs: Sequence[RunSpec],
        scheduler: Scheduler,
        on_settle: Optional[OnSettle] = None,
        batch_id: str = "",
    ):
        self.specs = list(specs)
        self.batch_id = batch_id
        self.hashes = [spec.content_hash() for spec in self.specs]
        self.results: List[Any] = [None] * len(self.specs)
        self.failures: List[Tuple[int, BaseException]] = []
        #: Settled indices per outcome.
        self.outcomes: Dict[str, int] = {}
        #: Indices whose ``on_settle`` has returned; ``done`` follows it.
        self.finished = 0
        self._counted = 0
        self._scheduler = scheduler
        self._on_settle = on_settle
        self._queue: Optional[JobQueue] = None
        self._lock = threading.Lock()

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def done(self) -> bool:
        return self.finished >= self.total

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "batch": self.batch_id,
                "total": self.total,
                "finished": self.finished,
                "outcomes": dict(self.outcomes),
                "done": self.done,
            }

    def submit(
        self,
        queue: JobQueue,
        priority: int = 0,
        after: Optional[Sequence[Tuple[str, ...]]] = None,
    ) -> int:
        """Submit every spec into ``queue``; returns how many created a
        new job (the rest coalesced onto an existing one)."""
        self._queue = queue
        fresh_count = 0
        for index, spec in enumerate(self.specs):
            job, fresh = queue.submit(
                spec,
                priority=priority,
                after=after[index] if after is not None else (),
                spec_hash=self.hashes[index],
            )
            fresh_count += 1 if fresh else 0
            settle = functools.partial(self._settle, index, fresh)
            if not queue.subscribe(job, settle):
                settle(job)  # already terminal: settle now
        if not self.specs:
            self._close()
        return fresh_count

    def _settle(self, index: int, fresh: bool, job: Job) -> None:
        """Settle one index by the module docstring's rule; ``fresh`` is
        True for the submission that created ``job``."""
        if job.state == FAILED:
            outcome = "failed"
        elif fresh or job.outcome == "cached":
            outcome = job.outcome
        else:
            outcome = "deduped"
        with self._lock:
            if outcome == "failed":
                self.failures.append((index, job.error or RuntimeError(
                    f"{job.spec.label} failed"
                )))
            else:
                self.results[index] = job.result
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            self._counted += 1
            last = self._counted == self.total
        if last:
            self._close()
        if self._on_settle is not None:
            self._on_settle(index, outcome, job)
        with self._lock:
            self.finished += 1

    def _close(self) -> None:
        """Record one cache-telemetry snapshot for the batch."""
        if self._queue is not None:
            self._scheduler.flush_telemetry(self._queue)


__all__ = ["Batch", "OnSettle", "verify_batch"]
