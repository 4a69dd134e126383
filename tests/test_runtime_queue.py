"""The dedup job queue: coalescing, priorities, dependency edges, and
journal crash recovery (repro.runtime.queue).

Everything runs at tiny download sizes; the queue semantics under test
(one execution per spec hash, scheduling-edge release, byte-identical
replay) do not depend on scale.
"""

import json
import sys
import threading

import pytest

from repro.runtime import RunManifest, RunSpec, run_many, summarize
from repro.runtime.queue import JobQueue
from repro.runtime.batch import Batch
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import dispatch_stats
from repro.units import mib

pytestmark = pytest.mark.runtime

SMALL = mib(1)


def small_spec(seed=0, **overrides):
    kwargs = {"good_wifi": True, "download_bytes": SMALL, "lte_mbps": 10.0}
    kwargs.update(overrides)
    return RunSpec(protocol="emptcp", builder="static", kwargs=kwargs, seed=seed)


class TestDedup:
    def test_identical_hashes_coalesce_into_one_job(self):
        queue = JobQueue()
        job0, fresh0 = queue.submit(small_spec())
        job1, fresh1 = queue.submit(small_spec())
        assert job0 is job1
        assert fresh0 and not fresh1
        assert job0.waiters == 2
        stats = queue.stats
        assert stats.submitted == 1 and stats.deduped == 1
        assert queue.open_jobs() == 1  # one distinct execution owed

    def test_callback_fires_once_per_subscription_even_when_terminal(self):
        queue = JobQueue()
        job, _ = queue.submit(small_spec())
        seen = []
        assert queue.subscribe(job, seen.append)
        assert queue.subscribe(job, seen.append)
        assert queue.pop() is job and job.attempts == 1
        queue.mark_done(job, "executed", 42)
        assert seen == [job, job]  # once per subscription
        _, fresh = queue.submit(small_spec())
        assert not fresh
        # subscribe() refuses terminal jobs so the caller fires itself.
        assert not queue.subscribe(job, seen.append)
        assert seen == [job, job]

    def test_n_waiters_observe_exactly_one_execution(self, tmp_path):
        """ISSUE acceptance: N submissions of one spec hash -> one
        engine dispatch, asserted via DispatchStats and the manifest."""
        specs = [small_spec(seed=7) for _ in range(5)]
        single = small_spec(seed=7)
        events_single0, _ = dispatch_stats().snapshot()
        expected = single.execute()
        events_single1, _ = dispatch_stats().snapshot()
        per_run = events_single1 - events_single0
        assert per_run > 0

        manifest_path = tmp_path / "run.jsonl"
        events0, _ = dispatch_stats().snapshot()
        with RunManifest(manifest_path) as manifest:
            results = run_many(specs, manifest=manifest)
        events1, _ = dispatch_stats().snapshot()
        assert events1 - events0 == per_run  # exactly one execution
        counts = summarize(RunManifest.read(manifest_path))
        assert counts["executed"] == 1
        assert counts["deduped"] == 4
        # Every waiter gets the one result.
        for result in results:
            assert result.to_dict() == expected.to_dict()


class TestBatchSettling:
    def test_concurrent_settles_lose_no_count_and_close_once(self):
        """Indices settle from several threads at once (the service's
        dispatcher and submitters): every one is counted and the batch
        closes exactly once (one cache-telemetry flush)."""
        scheduler = Scheduler(jobs=1)
        closes = []
        scheduler.flush_telemetry = closes.append
        specs = [small_spec(seed=s % 48) for s in range(64)]
        queue = JobQueue()
        batch = Batch(specs, scheduler)
        assert batch.submit(queue) == 48
        jobs = queue.jobs()

        def settle(chunk):
            for job in chunk:
                queue.mark_done(job, "executed", job.spec_hash)

        threads = [
            threading.Thread(target=settle, args=(jobs[i::8],))
            for i in range(8)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert batch.done and batch.finished == 64
        assert batch.outcomes == {"executed": 48, "deduped": 16}
        assert batch.results == [spec.content_hash() for spec in specs]
        assert closes == [queue]


class TestPriorityAndDependencies:
    def test_higher_priority_pops_first_fifo_within(self):
        queue = JobQueue()
        low1, _ = queue.submit(small_spec(seed=1), priority=0)
        high, _ = queue.submit(small_spec(seed=2), priority=5)
        low2, _ = queue.submit(small_spec(seed=3), priority=0)
        assert queue.pop() is high
        assert queue.pop() is low1
        assert queue.pop() is low2
        assert queue.pop() is None

    def test_dependent_ready_only_after_dependency_terminal(self):
        queue = JobQueue()
        warm, _ = queue.submit(small_spec(seed=0))
        variant, _ = queue.submit(
            small_spec(seed=1), after=(warm.spec_hash,)
        )
        assert queue.pop() is warm
        assert queue.pop() is None  # variant still blocked
        queue.mark_done(warm, "executed")
        assert queue.pop() is variant

    def test_failed_dependency_releases_dependents(self):
        """``after`` edges are scheduling edges (warm-up ordering), not
        data edges: a failed warm-up must not cascade."""
        queue = JobQueue()
        warm, _ = queue.submit(small_spec(seed=0))
        variant, _ = queue.submit(
            small_spec(seed=1), after=(warm.spec_hash,)
        )
        assert queue.pop() is warm
        queue.mark_failed(warm, RuntimeError("warm-up exploded"))
        assert queue.pop() is variant

    def test_unknown_dependency_counts_as_satisfied(self):
        queue = JobQueue()
        job, _ = queue.submit(small_spec(), after=("never-submitted",))
        assert queue.pop() is job


class TestJournalRecovery:
    def test_killed_run_replays_to_completion_byte_identical(self, tmp_path):
        """ISSUE acceptance: a journal written by a killed run replays
        to completion with byte-identical results."""
        journal = tmp_path / "journal.jsonl"
        specs = [small_spec(seed=s) for s in range(3)]
        queue = JobQueue(journal=journal)
        for spec in specs:
            queue.submit(spec)
        finished = queue.pop()
        queue.mark_done(finished, "executed", finished.spec.execute())
        in_flight = queue.pop()  # started, never finished: killed here
        assert in_flight is not None
        del queue  # no close(): the journal is fsynced line by line

        recovered = JobQueue.recover(journal)
        assert recovered.stats.recovered == 2
        hashes = {job.spec_hash for job in recovered.jobs()}
        assert in_flight.spec_hash in hashes  # in-flight work runs again
        assert finished.spec_hash not in hashes

        remaining = [job.spec for job in recovered.jobs()]
        scheduler = Scheduler(jobs=1)
        batch = Batch(remaining, scheduler)
        assert batch.submit(recovered) == 0  # joins the recovered jobs
        scheduler.run_batch(recovered)
        assert batch.done and not batch.failures
        for spec, result in zip(remaining, batch.results):
            assert (
                json.dumps(result.to_dict(), sort_keys=True)
                == json.dumps(spec.execute().to_dict(), sort_keys=True)
            )

    def test_torn_tail_and_blank_lines_tolerated(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal=journal)
        queue.submit(small_spec())
        queue.close()
        with open(journal, "a") as fh:
            fh.write('\n{"event": "done", "hash": "torn-mid-app')
        recovered = JobQueue.recover(journal)
        assert recovered.stats.recovered == 1
        assert recovered.open_jobs() == 1

    def test_run_many_journal_records_full_lifecycle(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        specs = [small_spec(seed=s) for s in range(2)]
        run_many(specs, journal=journal)
        kinds = [e["event"] for e in JobQueue.read_journal(journal)]
        assert kinds.count("submit") == 2
        assert kinds.count("done") == 2
        # Everything terminal: recovery finds no pending work.
        assert JobQueue.recover(journal).open_jobs() == 0
