"""The CHK7xx distributed-trace topology tier (repro.check.disttrace):
root-count, reachability, time-containment, and stamped-export
reference invariants over lifecycle JSONL exports.
"""

import json

import pytest

from repro.check.disttrace import check_trace_topology
from repro.obs import dist

pytestmark = pytest.mark.runtime


def _record(obs_dir, spans):
    recorder = dist.SpanRecorder(sink_dir=obs_dir)
    for span in spans:
        recorder.record(span)


def _healthy(trace_id="t1"):
    root = dist.span_id_for(trace_id, "batch")
    job = dist.span_id_for(trace_id, "job", "aaa111")
    return [
        dist.LifecycleSpan(trace_id, dist.span_id_for(trace_id, "queue.wait",
                                                      "aaa111"),
                           job, "queue.wait", 1.0, 1.1),
        dist.LifecycleSpan(trace_id, dist.span_id_for(trace_id, "job.exec",
                                                      "aaa111", 1),
                           job, "job.exec", 1.1, 1.9,
                           attrs={"attempt": 1}),
        dist.LifecycleSpan(trace_id, job, root, "job", 1.0, 1.9,
                           attrs={"hash": "aaa111"}),
        dist.LifecycleSpan(trace_id, root, "", "batch", 0.9, 2.0),
    ]


def _rules(report):
    return sorted({f.rule for f in report.findings})


class TestTopology:
    def test_healthy_trace_is_clean(self, tmp_path):
        _record(tmp_path, _healthy())
        report = check_trace_topology(tmp_path)
        assert report.ok and not report.findings
        assert report.checked == 1

    def test_no_lifecycle_files_is_ok_not_suspicious(self, tmp_path):
        report = check_trace_topology(tmp_path)
        assert report.ok and report.checked == 0

    def test_chk700_empty_file_warns(self, tmp_path):
        (tmp_path / "t1.lifecycle.jsonl").write_text("torn{{{\n")
        report = check_trace_topology(tmp_path)
        assert _rules(report) == ["CHK700"]
        assert report.ok  # warning severity

    def test_chk701_orphan_parent(self, tmp_path):
        spans = _healthy()
        spans[0] = dist.LifecycleSpan(
            "t1", spans[0].span_id, "no-such-span", "queue.wait", 1.0, 1.1)
        _record(tmp_path, spans)
        report = check_trace_topology(tmp_path)
        assert "CHK701" in _rules(report)
        assert not report.ok

    def test_chk702_root_count(self, tmp_path):
        spans = _healthy()
        spans.append(dist.LifecycleSpan("t1", "extra-root", "", "batch",
                                        0.0, 5.0))
        _record(tmp_path, spans)
        assert "CHK702" in _rules(check_trace_topology(tmp_path))

    def test_chk703_child_escapes_parent_window(self, tmp_path):
        spans = _healthy()
        job = spans[2].span_id
        spans[1] = dist.LifecycleSpan("t1", spans[1].span_id, job,
                                      "job.exec", 1.1, 9.0)
        _record(tmp_path, spans)
        assert "CHK703" in _rules(check_trace_topology(tmp_path))

    def test_chk703_wait_plus_exec_exceeds_batch_wall(self, tmp_path):
        trace_id = "t1"
        root = dist.span_id_for(trace_id, "batch")
        job = dist.span_id_for(trace_id, "job", "aaa111")
        # Every span nests correctly, but the job's children sum to
        # more time than the batch wall — a broken-clock signature the
        # per-window check alone cannot see.
        _record(tmp_path, [
            dist.LifecycleSpan(trace_id,
                               dist.span_id_for(trace_id, "queue.wait",
                                                "aaa111"),
                               job, "queue.wait", 1.0, 1.9),
            dist.LifecycleSpan(trace_id,
                               dist.span_id_for(trace_id, "job.exec",
                                                "aaa111", 1),
                               job, "job.exec", 1.0, 1.9),
            dist.LifecycleSpan(trace_id, job, root, "job", 1.0, 1.9),
            dist.LifecycleSpan(trace_id, root, "", "batch", 1.0, 2.0),
        ])
        assert "CHK703" in _rules(check_trace_topology(tmp_path))

    def test_chk704_negative_duration(self, tmp_path):
        spans = _healthy()
        spans[1] = dist.LifecycleSpan("t1", spans[1].span_id,
                                      spans[2].span_id, "job.exec", 5.0, 1.0)
        _record(tmp_path, spans)
        assert "CHK704" in _rules(check_trace_topology(tmp_path))


class TestStampedReferences:
    def test_chk705_unknown_trace_is_an_error(self, tmp_path):
        _record(tmp_path, _healthy())
        with open(tmp_path / "aaa111.trace.jsonl", "w") as fh:
            fh.write(json.dumps({"type": "tick", "t": 0.0,
                                 "trace_id": "ffff000011112222",
                                 "span_id": "s1"}) + "\n")
        report = check_trace_topology(tmp_path)
        assert "CHK705" in _rules(report)
        assert not report.ok

    def test_chk705_stale_span_is_a_warning(self, tmp_path):
        _record(tmp_path, _healthy())
        # A profile-only run record: its stamp lives on the trailing
        # profile record, there being no event lines.
        (tmp_path / "aaa111.trace.jsonl").write_text(json.dumps({
            "record": "profile", "data": {"spans": []},
            "trace_id": "t1", "span_id": "gone-span"}) + "\n")
        report = check_trace_topology(tmp_path)
        assert "CHK705" in _rules(report)
        assert report.ok  # stale exports survive cached re-runs

    def test_unstamped_exports_are_ignored(self, tmp_path):
        _record(tmp_path, _healthy())
        with open(tmp_path / "aaa111.trace.jsonl", "w") as fh:
            fh.write(json.dumps({"type": "tick", "t": 0.0}) + "\n")
        assert check_trace_topology(tmp_path).ok
