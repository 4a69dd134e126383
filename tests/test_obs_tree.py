"""Cross-process span-tree reassembly (repro.obs.tree): lifecycle
spans and stamped run records (events plus a trailing profile record)
from one obs directory merge into a single batch tree.
"""

import json

import pytest

from repro.obs import dist
from repro.obs.tree import format_trace_forest, load_trace_forest

pytestmark = pytest.mark.runtime


def _write_batch(obs_dir, trace_id="t1", with_exports=True):
    """One 2-job batch: root -> job -> (queue.wait, job.exec#1)."""
    recorder = dist.SpanRecorder(sink_dir=obs_dir)
    root = dist.span_id_for(trace_id, "batch")
    for index, spec_hash in enumerate(["aaa111", "bbb222"]):
        job = dist.span_id_for(trace_id, "job", spec_hash)
        wait = dist.span_id_for(trace_id, "queue.wait", spec_hash)
        execute = dist.span_id_for(trace_id, "job.exec", spec_hash, 1)
        t0 = 1.0 + index
        recorder.record(dist.LifecycleSpan(
            trace_id, wait, job, "queue.wait", t0, t0 + 0.1,
            attrs={"hash": spec_hash}))
        recorder.record(dist.LifecycleSpan(
            trace_id, execute, job, "job.exec", t0 + 0.1, t0 + 0.9,
            attrs={"hash": spec_hash, "attempt": 1, "worker": "pid-1",
                   "shard": "pool-0"}))
        recorder.record(dist.LifecycleSpan(
            trace_id, job, root, "job", t0, t0 + 0.9,
            attrs={"hash": spec_hash, "label": f"run-{index}",
                   "outcome": "executed"}))
        if with_exports:
            stamp = {"trace_id": trace_id, "span_id": execute}
            with open(obs_dir / f"{spec_hash}.trace.jsonl", "w") as fh:
                for t in (0.0, 1.0, 2.0):
                    fh.write(json.dumps(
                        {"type": "tick", "t": t, **stamp}) + "\n")
                fh.write(json.dumps({
                    "record": "profile",
                    "data": {"spans": [
                        {"path": "engine/step", "wall_s": 0.7},
                        {"path": "engine/export", "wall_s": 0.1},
                    ]},
                    **stamp,
                }) + "\n")
    recorder.record(dist.LifecycleSpan(
        trace_id, root, "", "batch", 1.0, 3.0,
        attrs={"batch": "b1", "jobs": 2}))
    return trace_id


class TestLoadForest:
    def test_reassembles_one_root_tree(self, tmp_path):
        _write_batch(tmp_path)
        trees = load_trace_forest(tmp_path)
        assert len(trees) == 1
        tree = trees[0]
        assert tree.span_count == 7 and not tree.orphans
        assert [n.span.name for n in tree.roots] == ["batch"]
        jobs = tree.roots[0].children
        assert [n.span.name for n in jobs] == ["job", "job"]
        # Children are start-time ordered: wait before exec.
        assert [n.span.name for n in jobs[0].children] == [
            "queue.wait", "job.exec"]

    def test_run_exports_attach_to_their_exec_span(self, tmp_path):
        _write_batch(tmp_path)
        tree = load_trace_forest(tmp_path)[0]
        execute = tree.roots[0].children[0].children[1]
        note = execute.annotation
        assert note is not None
        assert note.events == 3
        assert note.profile_top[0] == ("engine/step", 0.7)

    def test_trace_id_prefix_filter(self, tmp_path):
        _write_batch(tmp_path, trace_id="aa11", with_exports=False)
        _write_batch(tmp_path, trace_id="bb22", with_exports=False)
        assert len(load_trace_forest(tmp_path)) == 2
        only = load_trace_forest(tmp_path, trace_id="bb")
        assert [t.trace_id for t in only] == ["bb22"]

    def test_orphans_are_collected_not_dropped(self, tmp_path):
        recorder = dist.SpanRecorder(sink_dir=tmp_path)
        recorder.record(dist.LifecycleSpan("t1", "root", "", "batch", 0, 1))
        recorder.record(dist.LifecycleSpan(
            "t1", "lost", "no-such-parent", "job", 0, 1))
        tree = load_trace_forest(tmp_path)[0]
        assert [n.span.span_id for n in tree.orphans] == ["lost"]


class TestFormat:
    def test_tree_rendering(self, tmp_path):
        _write_batch(tmp_path)
        text = format_trace_forest(load_trace_forest(tmp_path))
        assert text.startswith("trace t1 · 7 spans")
        assert "`-- batch 2.000s b1 jobs=2" in text
        assert "job.exec#1" in text and "worker=pid-1" in text
        assert "· 3 events" in text
        assert "· hot: engine/step 0.700s" in text

    def test_empty_directory(self, tmp_path):
        assert "no lifecycle traces" in format_trace_forest(
            load_trace_forest(tmp_path))
