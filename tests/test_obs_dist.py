"""The distributed-trace identity layer (repro.obs.dist): deterministic
ID derivation, context propagation, and the lifecycle-span recorder
with its truncate-on-rerun semantics.
"""

import json

import pytest

from repro.obs import dist

pytestmark = pytest.mark.runtime

HASHES = ["aaa111", "bbb222", "ccc333"]


def _span(trace_id, span_id, parent="", name="job", start=0.0, end=1.0,
          **attrs):
    return dist.LifecycleSpan(
        trace_id=trace_id, span_id=span_id, parent_span_id=parent,
        name=name, start_t=start, end_t=end, attrs=attrs,
    )


class TestIdentifiers:
    def test_trace_id_is_deterministic_and_salted(self):
        assert dist.derive_trace_id(HASHES) == dist.derive_trace_id(HASHES)
        assert dist.derive_trace_id(HASHES) != dist.derive_trace_id(
            HASHES, salt="b00001"
        )
        # Order matters: a reordered batch is a different batch.
        assert dist.derive_trace_id(HASHES) != dist.derive_trace_id(
            list(reversed(HASHES))
        )
        assert len(dist.derive_trace_id(HASHES)) == 16
        int(dist.derive_trace_id(HASHES), 16)  # hex

    def test_span_ids_depend_on_coordinates(self):
        tid = dist.derive_trace_id(HASHES)
        a = dist.span_id_for(tid, dist.SPAN_EXEC, HASHES[0], 1)
        assert a == dist.span_id_for(tid, dist.SPAN_EXEC, HASHES[0], 1)
        assert a != dist.span_id_for(tid, dist.SPAN_EXEC, HASHES[0], 2)
        assert a != dist.span_id_for(tid, dist.SPAN_EXEC, HASHES[1], 1)
        assert a != dist.span_id_for("other", dist.SPAN_EXEC, HASHES[0], 1)

    def test_root_context_and_children(self):
        root = dist.root_context(HASHES)
        assert root.parent_span_id == ""
        assert root.span_id == dist.span_id_for(root.trace_id, dist.SPAN_BATCH)
        job = root.child(dist.SPAN_JOB, HASHES[0])
        assert job.trace_id == root.trace_id
        assert job.parent_span_id == root.span_id
        execute = job.child(dist.SPAN_EXEC, HASHES[0], 1)
        assert execute.parent_span_id == job.span_id

    def test_context_survives_the_wire(self):
        ctx = dist.root_context(HASHES).child(dist.SPAN_JOB, HASHES[0])
        assert dist.TraceContext.from_dict(ctx.to_dict()) == ctx
        stamp = ctx.stamp()
        assert set(stamp) == {"trace_id", "span_id"}
        assert stamp["span_id"] == ctx.span_id


class TestLifecycleSpan:
    def test_roundtrip_and_duration(self):
        span = _span("t1", "s1", name="queue.wait", start=2.0, end=3.5,
                     hash="aaa111")
        assert span.duration_s == pytest.approx(1.5)
        again = dist.LifecycleSpan.from_dict(span.to_dict())
        assert again == span

    def test_from_dict_tolerates_junk(self):
        span = dist.LifecycleSpan.from_dict({"span_id": "x", "attrs": "nope"})
        assert span.attrs == {}
        assert span.status == "ok"


class TestSpanRecorder:
    def test_rerun_truncates_instead_of_accumulating(self, tmp_path):
        path = tmp_path / "t1.lifecycle.jsonl"
        first = dist.SpanRecorder(sink_dir=tmp_path)
        first.record(_span("t1", "s1"))
        first.record(_span("t1", "s2", parent="s1"))
        assert len(dist.read_lifecycle(path)) == 2
        # A new recorder instance (a re-run of the same deterministic
        # batch) replaces the file rather than appending duplicates.
        second = dist.SpanRecorder(sink_dir=tmp_path)
        second.record(_span("t1", "s1"))
        assert len(dist.read_lifecycle(path)) == 1
        assert second.recorded == 1

    def test_traces_get_separate_files(self, tmp_path):
        recorder = dist.SpanRecorder(sink_dir=tmp_path)
        recorder.record(_span("t1", "s1"))
        recorder.record(_span("t2", "s1"))
        assert sorted(p.name for p in dist.iter_lifecycle_files(tmp_path)) == [
            "t1.lifecycle.jsonl", "t2.lifecycle.jsonl",
        ]
        spans = dist.load_spans(tmp_path)
        assert set(spans) == {"t1", "t2"}

    def test_disk_errors_are_counted_not_raised(self, tmp_path):
        blocker = tmp_path / "obs"
        blocker.write_text("not a directory")
        recorder = dist.SpanRecorder(sink_dir=blocker)
        recorder.record(_span("t1", "s1"))
        assert recorder.dropped_writes == 1
        assert recorder.recorded == 1


class TestReadLifecycle:
    def test_dedupes_by_span_id_last_wins(self, tmp_path):
        path = tmp_path / "t1.lifecycle.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(_span("t1", "s1", end=1.0).to_dict()) + "\n")
            fh.write("this line is torn{{{\n")
            fh.write(json.dumps(_span("t1", "s1", end=9.0).to_dict()) + "\n")
        spans = dist.read_lifecycle(path)
        assert len(spans) == 1
        assert spans[0].end_t == 9.0

    def test_iter_handles_files_and_missing_dirs(self, tmp_path):
        path = tmp_path / "t1.lifecycle.jsonl"
        path.write_text("")
        assert dist.iter_lifecycle_files(path) == [path]
        assert dist.iter_lifecycle_files(tmp_path / "nope") == []
