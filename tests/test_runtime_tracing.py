"""Run correlation through the execution runtime: a captured run's
record is named by its spec hash, the manifest line carries the same
hash plus the job's queue wait, the in-process pool (jobs=1) reports
the same per-job facts and writes the same records as the process
pool, and the scheduler's metrics plane populates.
"""

import json

import pytest

from repro.check import check_traces
from repro.obs import ObsOptions, capture, read_run_record
from repro.runtime import (
    ResultCache,
    RunManifest,
    RunSpec,
    register_builder,
    run_many,
)
from repro.runtime import spec as spec_mod
from repro.runtime.batch import Batch
from repro.runtime.manifest import ManifestEntry
from repro.runtime.queue import JobQueue
from repro.runtime.scheduler import RetryPolicy, Scheduler, TimeoutPolicy
from repro.units import mib

pytestmark = pytest.mark.runtime

SMALL = mib(1)


def small_spec(seed=0, **overrides):
    kwargs = {"good_wifi": True, "download_bytes": SMALL, "lte_mbps": 10.0}
    kwargs.update(overrides)
    return RunSpec(protocol="emptcp", builder="static", kwargs=kwargs,
                   seed=seed)


@pytest.fixture
def scratch_builder():
    names = []

    def _register(name, execute, **kw):
        names.append(name)
        return register_builder(name, execute, **kw)

    yield _register
    for name in names:
        spec_mod._REGISTRY.pop(name, None)


class TestRunManyTracing:
    def test_batch_correlates_by_spec_hash(self, tmp_path):
        obs_dir = tmp_path / "obs"
        specs = [small_spec(seed=s) for s in range(2)]
        manifest_path = tmp_path / "run.jsonl"
        with RunManifest(manifest_path) as manifest:
            run_many(specs, manifest=manifest,
                     obs=ObsOptions(dir=str(obs_dir)))

        # One run record per spec, named by its hash, and nothing else.
        hashes = sorted(spec.content_hash() for spec in specs)
        assert sorted(p.name for p in obs_dir.iterdir()) == [
            f"{h}.trace.jsonl" for h in hashes]
        # The manifest line names the same hash and the same record.
        entries = RunManifest.read(manifest_path)
        assert sorted(e.spec_hash for e in entries) == hashes
        for entry in entries:
            assert entry.outcome == "executed"
            assert entry.trace == str(obs_dir / f"{entry.spec_hash}.trace.jsonl")
            assert entry.wait_s >= 0.0
        # A record holds the run's own events and nothing merged in.
        with capture(trace=True, metrics=False) as session:
            specs[0].execute()
        assert read_run_record(
            obs_dir / f"{specs[0].content_hash()}.trace.jsonl"
        ).events == json.loads(json.dumps(list(session.tracer)))
        report = check_traces(obs_dir)
        assert report.ok and report.checked == 2, report.format()

    def test_rerun_replaces_rather_than_duplicates(self, tmp_path):
        obs_dir = tmp_path / "obs"
        specs = [small_spec()]
        texts = []
        for _ in range(2):
            run_many(specs, obs=ObsOptions(dir=str(obs_dir)))
            files = list(obs_dir.iterdir())
            assert [p.name for p in files] == [
                f"{specs[0].content_hash()}.trace.jsonl"]
            texts.append(files[0].read_text())
        assert texts[0] == texts[1]  # event lines are deterministic

    def test_tracing_off_writes_no_run_records(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_many([small_spec()], cache=cache)
        assert not (tmp_path / "cache" / "obs").exists()

    def test_manifest_entry_defaults_stay_compatible(self):
        entry = ManifestEntry(
            spec_hash="x", label="l", protocol="p", builder="b", seed=0,
            outcome="executed", wall_time_s=0.0, worker="w", attempt=1,
            timestamp=0.0,
        )
        assert entry.trace == "" and entry.perf is None
        assert entry.wait_s == 0.0


def _drive_batch(tmp_path, name, jobs, specs, obs=False):
    """One batch through Scheduler.run_batch, one manifest line per
    settled index; ``obs`` also captures each run into a record."""
    obs_dir = tmp_path / name / "obs"
    manifest_path = tmp_path / name / "run.jsonl"
    scheduler = Scheduler(
        jobs=jobs,
        retry=RetryPolicy(retries=0),
        timeout=TimeoutPolicy(None),
        obs=ObsOptions(dir=str(obs_dir)) if obs else None,
    )
    with RunManifest(manifest_path) as manifest:
        def settle(index, outcome, job):
            manifest.record(
                specs[index], outcome, wall_time_s=job.wall_s,
                worker=job.worker or "local", attempt=max(1, job.attempts),
                trace=job.trace, wait_s=job.wait_s, spec_hash=job.spec_hash,
            )

        queue = JobQueue()
        Batch(specs, scheduler, on_settle=settle).submit(queue)
        scheduler.run_batch(queue)
        queue.close()
    return scheduler, obs_dir, manifest_path


class TestInlineAsyncParity:
    """A batch run on the in-process pool (jobs=1) must report the same
    per-job facts and write the same run records as one run on the
    process pool (jobs=2)."""

    def test_manifest_outcomes_are_identical(self, tmp_path):
        specs = [small_spec(seed=s) for s in range(2)]
        _, _, inline_manifest = _drive_batch(tmp_path, "inline", 1, specs)
        _, _, pool_manifest = _drive_batch(tmp_path, "pool", 2, specs)

        inline_entries = RunManifest.read(inline_manifest)
        pool_entries = RunManifest.read(pool_manifest)
        assert {e.worker for e in inline_entries} == {"local"}
        assert all(e.worker.startswith("pid-") for e in pool_entries)
        assert all(e.wait_s >= 0.0 for e in inline_entries + pool_entries)
        assert (
            sorted((e.spec_hash, e.outcome, e.attempt)
                   for e in inline_entries)
            == sorted((e.spec_hash, e.outcome, e.attempt)
                      for e in pool_entries)
        )

    def test_both_paths_write_the_same_run_records(self, tmp_path):
        specs = [small_spec(seed=s) for s in range(2)]
        records = {}
        for name, jobs in (("inline", 1), ("pool", 2)):
            _, obs_dir, manifest_path = _drive_batch(
                tmp_path, name, jobs, specs, obs=True)
            report = check_traces(obs_dir)
            assert report.ok and report.checked == 2, report.format()
            records[name] = {
                entry.spec_hash: read_run_record(entry.trace).events
                for entry in RunManifest.read(manifest_path)
            }
        assert sorted(records["inline"]) == sorted(
            spec.content_hash() for spec in specs)
        assert records["inline"] == records["pool"]

    def test_both_paths_count_metrics(self, tmp_path):
        specs = [small_spec(seed=s) for s in (9, 10)]
        for name, jobs in (("inline2", 1), ("pool2", 2)):
            scheduler, _, _ = _drive_batch(tmp_path, name, jobs, specs)
            counters = scheduler.metrics.to_dict()["counters"]
            assert counters["scheduler.jobs_done"] == 2
            assert counters["scheduler.jobs_failed"] == 0
            assert scheduler.inflight == {} or all(
                v == 0 for v in scheduler.inflight.values())


class TestFailurePlane:
    def test_failed_job_records_manifest_line_and_counter(
        self, tmp_path, scratch_builder
    ):
        def boom(spec):
            raise RuntimeError("deliberate failure")

        scratch_builder("trace-boom", boom)
        specs = [RunSpec("emptcp", "trace-boom")]
        scheduler, _, manifest_path = _drive_batch(
            tmp_path, "fail", 1, specs)

        # A deterministic failure is not retried: one attempt, one line.
        entries = RunManifest.read(manifest_path)
        assert [(e.outcome, e.attempt) for e in entries] == [("failed", 1)]
        assert entries[0].spec_hash == specs[0].content_hash()
        assert entries[0].worker == "local" and entries[0].wait_s >= 0.0

        assert scheduler.metrics.to_dict()["counters"][
            "scheduler.jobs_failed"] == 1

    def test_ewma_tracks_events_per_sec(self, tmp_path):
        scheduler, _, _ = _drive_batch(
            tmp_path, "ewma", 1, [small_spec()])
        assert scheduler.events_ewma is None or scheduler.events_ewma > 0
