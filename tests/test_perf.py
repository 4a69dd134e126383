"""Per-run perf telemetry, the CHK6xx tier, and the ``repro perf`` /
``trace timeline`` CLI surface."""

import json

import pytest

from repro.check.perf import (
    check_perf_record,
    check_perf_target,
    check_spans,
)
from repro.check.findings import Report
from repro.cli import main
from repro.obs.trace import read_run_record, write_run_record
from repro.runtime import PerfMeter, PerfRecord, RunSpec
from repro.runtime.manifest import RunManifest
from repro.units import mib


def tiny_spec(engine="fluid", seed=0):
    return RunSpec(
        protocol="emptcp",
        builder="static",
        kwargs={"good_wifi": True, "download_bytes": mib(1)},
        seed=seed,
        engine=engine,
    )


def make_record(**overrides):
    base = dict(
        spec_hash="a" * 64,
        label="static/emptcp#s0",
        engine="fluid",
        wall_s=2.0,
        sim_s=10.0,
        events=100,
        events_per_sec=50.0,
        peak_rss_kb=1024,
    )
    base.update(overrides)
    return PerfRecord(**base)


def write_manifest(path, record):
    """One executed line carrying ``record``, one cached line without."""
    with RunManifest(path) as manifest:
        manifest.record(tiny_spec(), "executed", perf=record.to_dict())
        manifest.record(tiny_spec(), "cached")


class TestPerfRecord:
    def test_dict_roundtrip(self):
        record = make_record()
        assert PerfRecord.from_dict(record.to_dict()) == record
        assert record.to_dict()["schema"] == 1

    def test_meter_measures_a_real_run(self):
        spec = tiny_spec()
        meter = PerfMeter(spec)
        spec.execute()
        record = meter.finish(0.5)
        assert record.spec_hash == spec.content_hash()
        assert record.engine == "fluid"
        assert record.events > 0
        assert record.sim_s > 0
        assert record.events_per_sec == pytest.approx(record.events / 0.5)
        assert record.peak_rss_kb > 0

    def test_meter_diffs_only_its_own_run(self):
        spec = tiny_spec()
        spec.execute()  # advance the process-wide accumulator
        meter = PerfMeter(spec)
        record = meter.finish(1.0)
        assert record.events == 0
        assert record.sim_s == pytest.approx(0.0)


class TestManifestPerf:
    def test_perf_roundtrips_with_trace(self, tmp_path):
        spec = tiny_spec()
        record = make_record(spec_hash=spec.content_hash())
        path = tmp_path / "manifest.jsonl"
        with RunManifest(path) as manifest:
            manifest.record(spec, "executed", wall_time_s=0.5,
                            trace="a.trace.jsonl", perf=record.to_dict())
            manifest.record(spec, "cached")
        first, second = RunManifest.read(path)
        assert first.trace == "a.trace.jsonl"
        assert PerfRecord.from_dict(first.perf) == record
        assert second.perf is None

    def test_old_schema_manifest_without_perf_key_parses(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "manifest.jsonl"
        with RunManifest(path) as manifest:
            entry = manifest.record(spec, "executed", wall_time_s=0.5)
        # Strip the perf (and trace) keys to simulate a pre-perf file.
        line = json.loads(path.read_text())
        del line["perf"]
        del line["trace"]
        path.write_text(json.dumps(line) + "\n")
        (parsed,) = RunManifest.read(path)
        assert parsed.perf is None and parsed.trace == ""
        assert parsed.spec_hash == entry.spec_hash


class TestChk6xx:
    def test_chk601_clean_record(self):
        report = Report(tier="perf")
        check_perf_record(make_record().to_dict(), report)
        assert report.ok and report.checked == 1

    def test_chk601_missing_key(self):
        report = Report(tier="perf")
        data = make_record().to_dict()
        del data["events"]
        check_perf_record(data, report)
        assert [f.rule for f in report.findings] == ["CHK601"]

    def test_chk601_inconsistent_throughput(self):
        report = Report(tier="perf")
        check_perf_record(make_record(events_per_sec=999.0).to_dict(), report)
        assert any("inconsistent" in f.message for f in report.findings)

    def test_chk602_orphan_and_bad_depth(self):
        profile = {"spans": [
            {"path": "root", "name": "root", "depth": 1, "count": 1,
             "wall_s": 1.0, "sim_s": 1.0},
            {"path": "ghost/child", "name": "child", "depth": 2, "count": 1,
             "wall_s": 0.1, "sim_s": 0.1},
            {"path": "root/kid", "name": "kid", "depth": 5, "count": 0,
             "wall_s": 0.1, "sim_s": 0.1},
        ]}
        report = check_spans(profile)
        rules = sorted(f.rule for f in report.findings)
        assert "CHK602" in rules
        messages = " ".join(f.message for f in report.findings)
        assert "orphan" in messages and "count" in messages and "depth" in messages

    def test_chk603_children_exceed_parent(self):
        profile = {"spans": [
            {"path": "root", "name": "root", "depth": 1, "count": 1,
             "wall_s": 0.001, "sim_s": 1.0},
            {"path": "root/a", "name": "a", "depth": 2, "count": 1,
             "wall_s": 0.0005, "sim_s": 0.8},
            {"path": "root/b", "name": "b", "depth": 2, "count": 1,
             "wall_s": 0.0005, "sim_s": 0.8},
        ]}
        report = check_spans(profile)
        assert [f.rule for f in report.findings] == ["CHK603"]
        assert "sim" in report.findings[0].message

    def test_chk603_real_profile_is_clean(self):
        import repro.obs as obs

        with obs.capture(trace=False, metrics=False, profile=True) as session:
            tiny_spec().execute()
        report = check_spans(session.profiler.to_dict())
        assert report.ok and report.checked >= 3

    def test_check_perf_target_on_files(self, tmp_path):
        write_run_record(tmp_path / "run.trace.jsonl", profile={"spans": [
            {"path": "root", "name": "root", "depth": 1, "count": 1,
             "wall_s": 1.0, "sim_s": 1.0}]})
        # A record captured without --profile has nothing to check.
        write_run_record(tmp_path / "unprofiled.trace.jsonl", events=[
            {"type": "tcp.loss", "t": 0.1, "conn": "c", "interface": "wifi"}])
        report = check_perf_target(tmp_path)
        assert report.ok and report.checked == 1
        # A run manifest: CHK601 over every line that carries a record.
        manifest = tmp_path / "last-run.jsonl"
        write_manifest(manifest, make_record())
        report = check_perf_target(manifest)
        assert report.ok and report.checked == 1
        write_manifest(manifest, make_record(events_per_sec=999.0))
        assert [f.rule for f in check_perf_target(manifest).findings] == [
            "CHK601"]
        manifest.write_text("{")
        assert not check_perf_target(manifest).ok
        broken = tmp_path / "broken.trace.jsonl"
        broken.write_text("{")
        assert not check_perf_target(broken).ok


class TestTimeline:
    def test_timeline_merges_events_and_spans(self, tmp_path):
        trace = write_run_record(
            tmp_path / "run.trace.jsonl",
            events=[{"type": "tcp.loss", "t": 1.5, "conn": "c",
                     "interface": "wifi"}],
            profile={"spans": [
                {"path": "sim.run", "count": 2, "wall_s": 0.001,
                 "sim_s": 9.0, "first_sim_t": 0.0}]},
        )
        from repro.obs.summarize import build_timeline, format_timeline

        entries = build_timeline(trace)
        assert [e["kind"] for e in entries] == ["span", "event"]
        text = format_timeline(entries)
        assert "tcp.loss" in text and "sim.run" in text
        assert "1 event(s), 1 span path(s)" in text

    def test_timeline_without_spans_file(self, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text(json.dumps({"type": "tcp.loss", "t": 0.1,
                                     "conn": "c", "interface": "wifi"}) + "\n")
        from repro.obs.summarize import build_timeline

        assert [e["kind"] for e in build_timeline(trace)] == ["event"]

    def test_summarize_skips_empty_trace_file(self, tmp_path):
        from repro.obs.summarize import format_trace_summary, summarize_target

        good = tmp_path / "good.trace.jsonl"
        good.write_text(json.dumps({"type": "tcp.loss", "t": 0.1,
                                    "conn": "c", "interface": "wifi"}) + "\n")
        (tmp_path / "empty.trace.jsonl").write_text("")
        summary = summarize_target(tmp_path)
        assert summary["events"] == 1
        assert summary["skipped"] == ["empty.trace.jsonl"]
        assert "skipped empty trace file" in format_trace_summary(summary)


class TestPerfCli:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_perf_profile_prints_span_table(self, capsys):
        code, out, _err = self.run_cli(
            capsys, "perf", "profile", "emptcp", "good", "--size-mb", "1")
        assert code == 0
        assert "sim.run" in out and "sim.dispatch" in out
        assert "perf: OK" in out

    def test_perf_profile_rejects_unknown_protocol(self, capsys):
        code, _out, err = self.run_cli(capsys, "perf", "profile", "nope")
        assert code == 2 and "unknown protocol" in err

    def test_unknown_perf_subcommand(self, capsys):
        code, _out, err = self.run_cli(capsys, "perf", "bogus")
        assert code == 2 and "choose profile" in err

    def test_check_perf_subcommand(self, capsys, tmp_path):
        # The default sweep reads the last report's manifest (CHK601).
        write_manifest(tmp_path / "last-run.jsonl", make_record())
        code, out, _err = self.run_cli(
            capsys, "check", "perf", "--cache-dir", str(tmp_path))
        assert code == 0 and "perf: OK" in out

    def test_check_perf_without_artifacts_errors(self, capsys, tmp_path):
        code, _out, err = self.run_cli(
            capsys, "check", "perf", "--cache-dir", str(tmp_path / "cache"))
        assert code == 2 and "no last-run.jsonl" in err

    def test_trace_typo_lists_subcommands_before_path_check(self, capsys,
                                                            tmp_path):
        code, _out, err = self.run_cli(
            capsys, "trace", "summarise",
            "--cache-dir", str(tmp_path / "nonexistent"))
        assert code == 2
        assert "choose summarize or timeline" in err

    def test_trace_timeline_cli(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text(json.dumps({"type": "tcp.loss", "t": 0.3,
                                     "conn": "c", "interface": "wifi"}) + "\n")
        code, out, _err = self.run_cli(capsys, "trace", "timeline", str(trace))
        assert code == 0 and "tcp.loss" in out

    def test_run_with_profile_exports_spans(self, capsys, tmp_path):
        code, _out, _err = self.run_cli(
            capsys, "run", "emptcp", "good", "--size-mb", "1", "--runs", "1",
            "--trace", "--profile", "--cache-dir", str(tmp_path))
        assert code == 0
        records = list((tmp_path / "obs").glob("*.trace.jsonl"))
        assert len(records) == 1
        profile = read_run_record(records[0]).profile
        assert profile is not None and check_spans(profile).ok

    def test_executed_runs_carry_perf_in_manifest(self, capsys, tmp_path):
        manifest_path = tmp_path / "m.jsonl"
        code, _out, _err = self.run_cli(
            capsys, "run", "emptcp", "good", "--size-mb", "1", "--runs", "1",
            "--manifest", str(manifest_path),
            "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
        entries = RunManifest.read(manifest_path)
        executed = [e for e in entries if e.outcome == "executed"]
        assert executed and all(e.perf is not None for e in executed)
        for entry in executed:
            record = PerfRecord.from_dict(entry.perf)
            assert record.events > 0
            report = Report(tier="perf")
            check_perf_record(entry.perf, report)
            assert report.ok
