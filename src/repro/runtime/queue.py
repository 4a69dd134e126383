"""Persistent, crash-recoverable job queue with dedup and priorities.

One :class:`JobQueue` holds the not-yet-finished work of a batch (or,
in the service, of the whole process lifetime).  Three properties make
it more than a list of specs:

* **spec-hash dedup** — submitting a :class:`~repro.runtime.spec.RunSpec`
  whose ``content_hash()`` is already queued does *not* create a second
  job; the existing job gains a waiter and every waiter observes the
  one execution's outcome.  This is what turns a thousand-run sweep
  with shared warm-up prefixes into the small set of distinct runs.
* **priorities and dependencies** — jobs carry an integer priority
  (higher pops first, FIFO within a priority) and an optional ``after``
  set of spec hashes; a job is *ready* only once every dependency is
  terminal.  The sweep planner lowers shared warm-up runs into plain
  dependency edges here.
* **a JSONL journal** — when constructed with a journal path (the
  service puts it under the cache dir), every transition appends one
  line.  :meth:`JobQueue.recover` replays a journal — including one
  truncated mid-line by a crash — and reconstructs the pending work, so
  a killed run resumes instead of restarting.

The queue is a plain thread-safe structure (``threading.Lock``); the
scheduler's dispatcher loop drives it, and the HTTP service submits
into it from request threads.  All wall-clock reads go through
the :mod:`repro.runtime.clock` seam.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.runtime import clock
from repro.runtime.spec import RunSpec

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States from which a job will never run again.
TERMINAL_STATES = (DONE, FAILED)


@dataclass
class Job:
    """One distinct execution the queue owes its waiters."""

    spec: RunSpec
    spec_hash: str
    priority: int = 0
    after: Tuple[str, ...] = ()
    state: str = PENDING
    #: How many submissions coalesced into this job (>= 1).
    waiters: int = 1
    #: Execution attempts started so far (retries increment it).
    attempts: int = 0
    submitted_at: float = 0.0
    #: Terminal facts, filled by mark_done/mark_failed.
    outcome: str = ""
    result: Any = None
    error: Optional[BaseException] = None
    #: Execution details the scheduler fills for waiters/manifests.
    wall_s: float = 0.0
    worker: str = ""
    trace: str = ""
    perf: Optional[Dict[str, Any]] = None
    #: Seconds from submission until the scheduler first picked the job
    #: up or settled it from the cache.
    wait_s: float = 0.0
    #: Callbacks fired (outside the queue lock) when the job reaches a
    #: terminal state; :meth:`JobQueue.subscribe` refuses a job that
    #: already is, and its caller fires the callback itself.
    callbacks: List[Callable[["Job"], None]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


@dataclass(frozen=True)
class QueueStats:
    """Counters over the queue's lifetime (not just current contents)."""

    submitted: int = 0
    deduped: int = 0
    started: int = 0
    completed: int = 0
    failed: int = 0
    recovered: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "started": self.started,
            "completed": self.completed,
            "failed": self.failed,
            "recovered": self.recovered,
        }


class JobQueue:
    """Priority queue of distinct (by spec hash) jobs, optionally
    journalled to ``<journal>`` as JSONL."""

    def __init__(self, journal: Optional[Union[str, Path]] = None):
        self.journal_path = Path(journal) if journal is not None else None
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        #: Ready-heap entries: (-priority, seq, hash).  Stale entries
        #: (job no longer pending) are skipped on pop.
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0
        #: dep hash -> hashes blocked on it.
        self._dependents: Dict[str, Set[str]] = {}
        self._journal_fh: Optional[Any] = None
        self._stats = {
            "submitted": 0,
            "deduped": 0,
            "started": 0,
            "completed": 0,
            "failed": 0,
            "recovered": 0,
        }

    # -- journal ----------------------------------------------------

    def _journal(self, event: str, job: Job, **extra: Any) -> None:
        if self.journal_path is None:
            return
        line: Dict[str, Any] = {
            "event": event,
            "hash": job.spec_hash,
            "t": clock.now(),
        }
        if event == "submit":
            line["spec"] = job.spec.to_dict()
            line["priority"] = job.priority
            if job.after:
                line["after"] = list(job.after)
        line.update(extra)
        if self._journal_fh is None:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal_fh = open(self.journal_path, "a")
        self._journal_fh.write(json.dumps(line, sort_keys=True) + "\n")
        self._journal_fh.flush()
        os.fsync(self._journal_fh.fileno())

    # -- submission -------------------------------------------------

    def submit(
        self,
        spec: RunSpec,
        priority: int = 0,
        after: Iterable[str] = (),
        spec_hash: Optional[str] = None,
    ) -> Tuple[Job, bool]:
        """Enqueue ``spec`` (or join the existing job for its hash).

        Returns ``(job, fresh)`` — ``fresh`` is False when the spec
        coalesced into an already-queued (or already-finished) job;
        :meth:`subscribe` to hear of its terminal transition.
        ``spec_hash`` is ``spec.content_hash()`` when the caller already
        has it.
        """
        spec_hash = spec_hash or spec.content_hash()
        with self._lock:
            job = self._jobs.get(spec_hash)
            if job is not None:
                job.waiters += 1
                self._stats["deduped"] += 1
                self._journal("dedup", job)
                return job, False
            job = Job(
                spec=spec,
                spec_hash=spec_hash,
                priority=priority,
                after=tuple(dict.fromkeys(after)),
                submitted_at=clock.now(),
            )
            self._jobs[spec_hash] = job
            self._stats["submitted"] += 1
            self._journal("submit", job)
            self._index_ready_locked(job)
            return job, True

    def _index_ready_locked(self, job: Job) -> None:
        """Heap-push ``job`` if every dependency is terminal; otherwise
        park it under each open dependency.  A hash the queue has never
        seen counts as satisfied — you cannot wait on work nobody
        submitted, and the sweep planner submits warm-ups first."""
        open_deps = [
            dep
            for dep in job.after
            if dep in self._jobs and not self._jobs[dep].terminal
        ]
        if not open_deps:
            self._seq += 1
            heapq.heappush(
                self._heap, (-job.priority, self._seq, job.spec_hash)
            )
            return
        for dep in open_deps:
            self._dependents.setdefault(dep, set()).add(job.spec_hash)

    # -- consumption ------------------------------------------------

    def pop(self) -> Optional[Job]:
        """The highest-priority ready job, or None.  The job stays
        RUNNING-bound to the caller; pair with mark_* to finish it."""
        with self._lock:
            while self._heap:
                _, _, spec_hash = heapq.heappop(self._heap)
                job = self._jobs.get(spec_hash)
                if job is None or job.state != PENDING:
                    continue  # stale heap entry
                job.state = RUNNING
                job.attempts += 1
                self._stats["started"] += 1
                self._journal("start", job, attempt=job.attempts)
                return job
        return None

    def subscribe(self, job: Job, callback: Callable[[Job], None]) -> bool:
        """Register ``callback`` for ``job``'s terminal transition.

        Returns False when the job is already terminal — the caller
        fires the callback itself (outside our lock)."""
        with self._lock:
            if job.terminal:
                return False
            job.callbacks.append(callback)
            return True

    def note_retry(self, job: Job) -> None:
        """Journal another attempt of a job the caller keeps holding
        (the scheduler retries in place rather than re-popping)."""
        with self._lock:
            job.attempts += 1
            self._journal("retry", job, attempt=job.attempts)

    def mark_done(self, job: Job, outcome: str, result: Any = None) -> None:
        """Terminal success: record the outcome ("executed"/"cached"),
        release dependents, notify waiters."""
        with self._lock:
            job.state = DONE
            job.outcome = outcome
            job.result = result
            self._stats["completed"] += 1
            self._journal("done", job, outcome=outcome)
            callbacks = self._release_locked(job)
        for callback in callbacks:
            callback(job)

    def mark_failed(self, job: Job, error: BaseException) -> None:
        """Terminal failure.  Dependency edges are *scheduling* edges
        (warm-up ordering), not data edges, so dependents of a failed
        job are released to run rather than cascaded."""
        with self._lock:
            job.state = FAILED
            job.outcome = "failed"
            job.error = error
            self._stats["failed"] += 1
            self._journal("fail", job, error=str(error))
            callbacks = self._release_locked(job)
        for callback in callbacks:
            callback(job)

    def _release_locked(self, job: Job) -> List[Callable[[Job], None]]:
        """Unblock dependents of a now-terminal job; return (and clear)
        its waiter callbacks for firing outside the lock."""
        for dep_hash in self._dependents.pop(job.spec_hash, ()):
            dependent = self._jobs.get(dep_hash)
            if dependent is not None and dependent.state == PENDING:
                self._index_ready_locked(dependent)
        callbacks, job.callbacks = job.callbacks, []
        return callbacks

    # -- introspection ----------------------------------------------

    def get(self, spec_hash: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(spec_hash)

    def open_jobs(self) -> int:
        """Jobs not yet terminal (pending, blocked, or running)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values() if not job.terminal
            )

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    @property
    def stats(self) -> QueueStats:
        with self._lock:
            return QueueStats(**self._stats)

    def close(self) -> None:
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None

    # -- recovery ---------------------------------------------------

    @staticmethod
    def read_journal(path: Union[str, Path]) -> List[Dict[str, Any]]:
        """Parse a journal, tolerating a torn final line (crash while
        appending) and blank lines."""
        events: List[Dict[str, Any]] = []
        try:
            lines = Path(path).read_text().splitlines()
        except OSError:
            return events
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue  # torn tail from a crash mid-append
            if isinstance(doc, dict) and "event" in doc:
                events.append(doc)
        return events

    @classmethod
    def recover(cls, journal: Union[str, Path]) -> "JobQueue":
        """Rebuild a queue from a journal: every submitted-but-not-
        terminal job comes back PENDING (a job that had ``start`` but no
        ``done``/``fail`` was in flight when the run died and runs
        again).  The recovered queue appends to the same journal."""
        queue = cls(journal=journal)
        specs: Dict[str, Dict[str, Any]] = {}
        waiters: Dict[str, int] = {}
        terminal: Set[str] = set()
        for event in cls.read_journal(journal):
            spec_hash = str(event.get("hash", ""))
            kind = event.get("event")
            if kind == "submit":
                specs[spec_hash] = event
                waiters[spec_hash] = waiters.get(spec_hash, 0) + 1
            elif kind == "dedup":
                waiters[spec_hash] = waiters.get(spec_hash, 0) + 1
            elif kind in ("done", "fail"):
                terminal.add(spec_hash)
        with queue._lock:
            for spec_hash, event in specs.items():
                if spec_hash in terminal:
                    continue
                try:
                    spec = RunSpec.from_dict(event["spec"])
                except (KeyError, TypeError, ValueError):
                    continue
                job = Job(
                    spec=spec,
                    spec_hash=spec_hash,
                    priority=int(event.get("priority", 0)),
                    after=tuple(event.get("after", ())),
                    waiters=max(1, waiters.get(spec_hash, 1)),
                    submitted_at=float(event.get("t", 0.0)),
                )
                queue._jobs[spec_hash] = job
                queue._stats["recovered"] += 1
            # Index readiness only once every surviving job is known:
            # a dependency that is absent (journalled terminal, or never
            # submitted) no longer blocks.
            for job in queue._jobs.values():
                job.after = tuple(
                    dep for dep in job.after if dep in queue._jobs
                )
                queue._index_ready_locked(job)
        return queue


__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "RUNNING",
    "TERMINAL_STATES",
    "Job",
    "JobQueue",
    "QueueStats",
]
