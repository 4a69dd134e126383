"""End-to-end distributed tracing through the execution runtime:
run_many batches emit one reassemblable span tree, run exports are
stamped, manifests carry the trace identity, the in-process pool
(jobs=1) emits the same topology as the process pool, and the
scheduler's metrics plane populates.
"""

import json

import pytest

from repro.check.disttrace import check_trace_topology
from repro.obs import ObsOptions, dist
from repro.obs.tree import load_trace_forest
from repro.runtime import (
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


def _span_names(obs_dir):
    spans = []
    for trace in dist.load_spans(obs_dir).values():
        spans.extend(trace.values())
    return sorted(span.name for span in spans)


class TestRunManyTracing:
    def test_batch_yields_one_stamped_correlated_tree(self, tmp_path):
        obs_dir = tmp_path / "obs"
        specs = [small_spec(seed=s) for s in range(2)]
        manifest_path = tmp_path / "run.jsonl"
        with RunManifest(manifest_path) as manifest:
            run_many(specs, manifest=manifest,
                     obs=ObsOptions(dir=str(obs_dir)))

        trees = load_trace_forest(obs_dir)
        assert len(trees) == 1
        tree = trees[0]
        assert len(tree.roots) == 1 and not tree.orphans
        root = tree.roots[0]
        assert root.span.name == "batch"
        assert root.span.attrs["jobs"] == 2
        assert [n.span.name for n in root.children] == ["job", "job"]
        for job in root.children:
            kinds = sorted(n.span.name for n in job.children)
            assert kinds == ["job.exec", "queue.wait"]

        # Every run export carries the batch's trace id.
        trace_files = sorted(obs_dir.glob("*.trace.jsonl"))
        assert len(trace_files) == 2
        for path in trace_files:
            for line in path.read_text().splitlines():
                doc = json.loads(line)
                assert doc["trace_id"] == tree.trace_id

        # Manifest lines tie back to the same trace.
        entries = RunManifest.read(manifest_path)
        assert all(e.trace_id == tree.trace_id for e in entries)
        assert all(e.span_id for e in entries)

        report = check_trace_topology(obs_dir)
        assert report.ok, report.format()

    def test_rerun_replaces_rather_than_duplicates(self, tmp_path):
        obs_dir = tmp_path / "obs"
        specs = [small_spec()]
        for _ in range(2):
            run_many(specs, obs=ObsOptions(dir=str(obs_dir)))
        files = dist.iter_lifecycle_files(obs_dir)
        assert len(files) == 1  # deterministic id -> same file
        tree = load_trace_forest(obs_dir)[0]
        assert len(tree.roots) == 1
        assert check_trace_topology(obs_dir).ok

    def test_tracing_off_writes_no_lifecycle_files(self, tmp_path):
        run_many([small_spec()])
        assert dist.iter_lifecycle_files(tmp_path) == []

    def test_manifest_entry_defaults_stay_compatible(self):
        # Pre-tracing manifests must still parse.
        entry = ManifestEntry(
            spec_hash="x", label="l", protocol="p", builder="b", seed=0,
            outcome="executed", wall_time_s=0.0, worker="w", attempt=1,
            timestamp=0.0,
        )
        assert entry.trace_id == "" and entry.span_id == ""


def _drive_batch(tmp_path, name, jobs, specs):
    """One batch through Scheduler.run_batch with tracing attached."""
    obs_dir = tmp_path / name / "obs"
    manifest_path = tmp_path / name / "run.jsonl"
    scheduler = Scheduler(
        jobs=jobs,
        retry=RetryPolicy(retries=0),
        timeout=TimeoutPolicy(None),
    )
    scheduler.recorder = dist.SpanRecorder(obs_dir)
    with RunManifest(manifest_path) as manifest:
        def settle(index, outcome, job):
            manifest.record(
                specs[index], outcome, wall_time_s=job.wall_s,
                worker=job.worker or "local", attempt=max(1, job.attempts),
                trace_id=job.ctx.trace_id, span_id=job.ctx.span_id,
            )

        queue = JobQueue()
        Batch(specs, scheduler, on_settle=settle).submit(queue)
        scheduler.run_batch(queue)
        queue.close()
    return scheduler, obs_dir, manifest_path


class TestInlineAsyncParity:
    """A batch run on the in-process pool (jobs=1) must emit the same
    lifecycle spans and manifest trace fields as one run on the process
    pool (jobs=2)."""

    def test_span_topology_is_identical(self, tmp_path):
        specs = [small_spec(seed=s) for s in range(2)]
        _, inline_dir, inline_manifest = _drive_batch(
            tmp_path, "inline", 1, specs)
        _, pool_dir, pool_manifest = _drive_batch(
            tmp_path, "pool", 2, specs)

        inline_spans = dist.load_spans(inline_dir)
        pool_spans = dist.load_spans(pool_dir)
        # Deterministic IDs: same specs -> same trace, same span ids,
        # regardless of which pool executed them.
        assert set(inline_spans) == set(pool_spans)
        for trace_id in inline_spans:
            inline_trace = inline_spans[trace_id]
            pool_trace = pool_spans[trace_id]
            assert set(inline_trace) == set(pool_trace)
            for span_id, span in inline_trace.items():
                other = pool_trace[span_id]
                assert span.name == other.name
                assert span.parent_span_id == other.parent_span_id
                assert span.status == other.status

        inline_entries = RunManifest.read(inline_manifest)
        pool_entries = RunManifest.read(pool_manifest)
        assert {e.worker for e in inline_entries} == {"local"}
        assert all(e.worker.startswith("pid-") for e in pool_entries)
        assert (
            sorted((e.spec_hash, e.trace_id, e.span_id, e.outcome)
                   for e in inline_entries)
            == sorted((e.spec_hash, e.trace_id, e.span_id, e.outcome)
                      for e in pool_entries)
        )

    def test_both_paths_pass_chk7xx(self, tmp_path):
        specs = [small_spec(seed=s) for s in range(2)]
        for name, jobs in (("inline", 1), ("pool", 2)):
            _, obs_dir, _ = _drive_batch(tmp_path, name, jobs, specs)
            report = check_trace_topology(obs_dir)
            assert report.ok, f"{name}: {report.format()}"

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
    def test_failed_job_records_span_and_counter(
        self, tmp_path, scratch_builder
    ):
        def boom(spec):
            raise RuntimeError("deliberate failure")

        scratch_builder("trace-boom", boom)
        specs = [RunSpec("emptcp", "trace-boom")]
        scheduler, obs_dir, _ = _drive_batch(tmp_path, "fail", 1, specs)

        trace = next(iter(dist.load_spans(obs_dir).values()))
        job_spans = [s for s in trace.values() if s.name == "job"]
        assert len(job_spans) == 1
        assert job_spans[0].status == "failed"
        assert job_spans[0].attrs["outcome"] == "failed"
        exec_spans = [s for s in trace.values() if s.name == "job.exec"]
        assert exec_spans and all(s.status == "error" for s in exec_spans)

        assert scheduler.metrics.to_dict()["counters"][
            "scheduler.jobs_failed"] == 1

    def test_ewma_tracks_events_per_sec(self, tmp_path):
        scheduler, _, _ = _drive_batch(
            tmp_path, "ewma", 1, [small_spec()])
        assert scheduler.events_ewma is None or scheduler.events_ewma > 0
