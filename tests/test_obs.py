"""The observability layer: tracer, metrics, capture sessions, schema,
summaries, and the runtime/CLI integration."""

import json

import pytest

import repro.obs as obs
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.net.bandwidth import ConstantCapacity
from repro.net.interface import InterfaceKind
from repro.obs.events import validate_event, validate_events
from repro.obs.summarize import (
    format_trace_summary,
    summarize_events,
    summarize_target,
)
from repro.runtime import RunManifest, RunSpec, run_many
from repro.units import mbps_to_bytes_per_sec, mib


def moderate_scenario(download=mib(8)):
    """Moderate WiFi vs. slow LTE: slow enough that κ establishes the
    cellular subflow, fast enough that the controller then suspends it
    — exercises every instrumented decision point in one run."""
    return Scenario(
        name="static-moderate-wifi",
        wifi_capacity=lambda _rng: ConstantCapacity(mbps_to_bytes_per_sec(2.0)),
        cell_capacity=lambda _rng: ConstantCapacity(mbps_to_bytes_per_sec(2.0)),
        download_bytes=download,
    )


class TestTracer:
    def test_emit_and_filter(self):
        tracer = obs.Tracer()
        tracer.emit("tcp.loss", t=1.0, conn="c", interface="wifi")
        tracer.emit("energy.checkpoint", t=2.0, total_j=1.0, power_w=0.5)
        assert len(tracer) == 2
        assert tracer.emitted == 2
        assert [e["type"] for e in tracer.events("tcp.loss")] == ["tcp.loss"]
        assert tracer.events("tcp.loss")[0]["t"] == 1.0

    def test_ring_bounds_memory(self):
        tracer = obs.Tracer(ring_size=10)
        for i in range(25):
            tracer.emit("tcp.loss", t=float(i), conn="c", interface="wifi")
        assert len(tracer) == 10
        assert tracer.emitted == 25
        assert tracer.dropped == 15
        assert tracer.events()[0]["t"] == 15.0  # oldest kept

    def test_ring_size_validated(self):
        with pytest.raises(ValueError):
            obs.Tracer(ring_size=0)

    def test_clear_keeps_emitted_counter(self):
        tracer = obs.Tracer()
        tracer.emit("tcp.loss", t=0.0, conn="c", interface="wifi")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emitted == 1

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = obs.Tracer()
        tracer.emit("tcp.loss", t=1.5, conn="c", interface="lte")
        path = obs.write_run_record(tmp_path / "t.trace.jsonl", tracer)
        assert obs.read_jsonl(path) == tracer.events()

    def test_read_jsonl_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.trace.jsonl"
        path.write_text('{"t": 1.0, "type": "tcp.loss"}\nnot-json\n')
        with pytest.raises(ValueError, match="bad.trace.jsonl:2"):
            obs.read_jsonl(path)


class TestRunRecord:
    EVENT = {"t": 1.5, "type": "tcp.loss", "conn": "c", "interface": "lte"}

    def test_roundtrip_with_trailing_records(self, tmp_path):
        path = obs.write_run_record(
            tmp_path / "r.trace.jsonl", events=[self.EVENT],
            profile={"spans": []}, metrics={"counters": {"x": 1.0}},
        )
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == self.EVENT
        assert [json.loads(line) for line in lines[1:]] == [
            {"record": "profile", "data": {"spans": []}},
            {"record": "metrics", "data": {"counters": {"x": 1.0}}},
        ]
        record = obs.read_run_record(path)
        assert record.events == [self.EVENT]
        assert record.profile == {"spans": []}
        assert record.metrics == {"counters": {"x": 1.0}}

    def test_unstamped_events_only(self, tmp_path):
        path = obs.write_run_record(tmp_path / "r.trace.jsonl", [self.EVENT])
        assert path.read_text() == json.dumps(self.EVENT, sort_keys=True) + "\n"
        record = obs.read_run_record(path)
        assert record.events == [self.EVENT]
        assert record.profile is None and record.metrics is None

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.trace.jsonl"
        path.write_text(json.dumps(self.EVENT) + "\nnot-json\n")
        with pytest.raises(ValueError, match="bad.trace.jsonl:2"):
            obs.read_run_record(path)

    @pytest.mark.parametrize("lines", [
        # an event after a trailing record
        [{"record": "profile", "data": {}}, EVENT],
        # a repeated trailing record
        [{"record": "metrics", "data": {}}, {"record": "metrics", "data": {}}],
        # an unknown trailing record
        [{"record": "spans", "data": {}}],
        # a trailing record without a data object
        [{"record": "profile"}],
    ])
    def test_misplaced_or_unknown_records_raise(self, tmp_path, lines):
        path = tmp_path / "bad.trace.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        with pytest.raises(ValueError, match="bad.trace.jsonl"):
            obs.read_run_record(path)


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7.0)
        for v in (1.0, 3.0):
            reg.histogram("h").observe(v)
        data = reg.to_dict()
        assert data["counters"]["c"] == 3.5
        assert data["gauges"]["g"] == 7.0
        assert data["histograms"]["h"]["count"] == 2
        assert data["histograms"]["h"]["mean"] == 2.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            obs.MetricsRegistry().counter("c").inc(-1.0)

    def test_name_cannot_change_kind(self):
        reg = obs.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")


class TestCaptureSession:
    def test_ambient_lookup(self):
        assert obs.current() is None
        assert obs.tracer_or_none() is None
        assert obs.metrics_or_none() is None
        with obs.capture() as session:
            assert obs.current() is session
            assert obs.tracer_or_none() is session.tracer
            assert obs.metrics_or_none() is session.metrics
        assert obs.current() is None

    def test_nested_capture_shadows(self):
        with obs.capture() as outer:
            with obs.capture() as inner:
                assert obs.tracer_or_none() is inner.tracer
            assert obs.tracer_or_none() is outer.tracer

    def test_trace_only_session(self):
        with obs.capture(metrics=False) as session:
            assert session.metrics is None
            assert obs.metrics_or_none() is None
            assert obs.tracer_or_none() is not None

    def test_components_outside_capture_carry_no_tracer(self):
        """The zero-overhead contract: a run constructed with no
        session active holds None references and emits nothing, even
        if a capture starts later."""
        from repro.core.predictor import BandwidthPredictor
        from repro.sim.engine import Simulator

        predictor = BandwidthPredictor(Simulator())
        assert predictor._trace is None
        with obs.capture() as session:
            predictor.observe(InterfaceKind.WIFI, 1e6)
        assert session.tracer.emitted == 0

    def test_options_roundtrip(self):
        options = obs.ObsOptions(dir="/tmp/x", trace=True, metrics=True)
        assert obs.ObsOptions.from_dict(options.to_dict()) == options
        assert options.enabled
        assert not obs.ObsOptions(dir="x", trace=False, metrics=False).enabled


class TestEventSchema:
    def test_valid_event(self):
        event = {"t": 1.0, "type": "tcp.loss", "conn": "c", "interface": "w"}
        assert validate_event(event) == []

    def test_unknown_type_rejected(self):
        assert validate_event({"t": 1.0, "type": "nope"}) != []

    def test_missing_field_rejected(self):
        problems = validate_event({"t": 1.0, "type": "tcp.loss", "conn": "c"})
        assert any("interface" in p for p in problems)

    def test_wrong_field_type_rejected(self):
        problems = validate_event(
            {"t": 1.0, "type": "mptcp.mp_prio", "subflow": "s", "low": "yes"}
        )
        assert any("low" in p for p in problems)

    def test_extra_fields_allowed(self):
        event = {
            "t": 1.0, "type": "tcp.loss", "conn": "c", "interface": "w",
            "extra": 99,
        }
        assert validate_event(event) == []

    def test_non_numeric_t_rejected(self):
        assert validate_event({"t": "soon", "type": "tcp.loss",
                               "conn": "c", "interface": "w"}) != []


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def traced_run(self):
        with obs.capture() as session:
            result = run_scenario("emptcp", moderate_scenario())
        return session, result

    def test_expected_event_types_emitted(self, traced_run):
        session, _ = traced_run
        types = {e["type"] for e in session.tracer.events()}
        assert {
            "controller.decision",
            "predictor.sample",
            "delay.trigger",
            "mptcp.mp_prio",
            "subflow.suspend",
            "rrc.transition",
            "energy.checkpoint",
        } <= types

    def test_every_event_validates(self, traced_run):
        session, _ = traced_run
        assert validate_events(session.tracer.events()) == []

    def test_controller_events_carry_both_thresholds(self, traced_run):
        session, _ = traced_run
        decision = session.tracer.events("controller.decision")[0]
        assert decision["safety_factor"] == pytest.approx(0.10)
        assert decision["cell_only_thr_mbps"] < decision["wifi_only_thr_mbps"]

    def test_energy_checkpoint_matches_result(self, traced_run):
        session, result = traced_run
        last = session.tracer.events("energy.checkpoint")[-1]
        assert last["total_j"] == pytest.approx(result.energy_j)

    def test_metrics_aggregates(self, traced_run):
        session, _ = traced_run
        data = session.metrics.to_dict()
        assert data["counters"]["sim.events"] > 0
        assert data["counters"]["mptcp.mp_prio"] >= 1
        assert data["counters"]["controller.decisions"] > 0
        assert data["histograms"]["predictor.sample_mbps.wifi"]["count"] > 0

    def test_summary_aggregates(self, traced_run):
        session, _ = traced_run
        summary = summarize_events(session.tracer.events())
        assert summary["events"] == len(session.tracer)
        assert summary["controller"]["decisions"]
        assert summary["mp_prio"]["suspend"] >= 1
        assert "wifi" in summary["predictor"]
        assert summary["rrc"]["transitions"] > 0
        assert summary["final_energy_j"] is not None
        text = format_trace_summary(summary)
        assert "controller:" in text and "MP_PRIO" in text


class TestRuntimeIntegration:
    def test_run_many_exports_per_spec_files(self, tmp_path):
        spec = RunSpec(
            protocol="emptcp",
            builder="static",
            kwargs={"good_wifi": False, "download_bytes": mib(1),
                    "lte_mbps": 10.0},
        )
        options = obs.ObsOptions(dir=str(tmp_path / "obs"), metrics=True)
        manifest_path = tmp_path / "run.jsonl"
        with RunManifest(manifest_path) as manifest:
            run_many([spec], manifest=manifest, obs=options)

        stem = spec.content_hash()
        trace_path = tmp_path / "obs" / f"{stem}.trace.jsonl"
        assert trace_path.is_file()
        record = obs.read_run_record(trace_path)
        events = record.events
        assert events and validate_events(events) == []
        assert "counters" in record.metrics

        entries = RunManifest.read(manifest_path)
        assert entries[0].outcome == "executed"
        assert entries[0].trace == str(trace_path)

        summary = summarize_target(tmp_path / "obs")
        assert summary["files"] == {trace_path.name: len(events)}

    def test_full_capture_leaves_one_file_per_run(self, tmp_path):
        specs = [
            RunSpec(
                protocol=protocol,
                builder="static",
                kwargs={"good_wifi": False, "download_bytes": mib(1),
                        "lte_mbps": 10.0},
            )
            for protocol in ("emptcp", "mptcp")
        ]
        options = obs.ObsOptions(dir=str(tmp_path / "obs"), trace=True,
                                 metrics=True, profile=True)
        run_many(specs, obs=options)
        # Only the run records, each named by its spec hash: no
        # per-batch file sits beside them.
        files = sorted(p.name for p in (tmp_path / "obs").iterdir())
        assert files == sorted(
            f"{spec.content_hash()}.trace.jsonl" for spec in specs)
        for spec in specs:
            record = obs.read_run_record(
                tmp_path / "obs" / f"{spec.content_hash()}.trace.jsonl")
            assert record.events and validate_events(record.events) == []
            assert record.profile["spans"] and "counters" in record.metrics

    @pytest.mark.parametrize("capture", [
        {"trace": False, "metrics": True},
        {"trace": False, "profile": True},
    ])
    def test_manifest_names_the_record_in_every_capture_mode(
        self, tmp_path, capture
    ):
        spec = RunSpec(
            protocol="tcp-wifi",
            builder="static",
            kwargs={"good_wifi": True, "download_bytes": mib(1)},
        )
        options = obs.ObsOptions(dir=str(tmp_path / "obs"), **capture)
        manifest_path = tmp_path / "run.jsonl"
        with RunManifest(manifest_path) as manifest:
            run_many([spec], manifest=manifest, obs=options)
        entry = RunManifest.read(manifest_path)[0]
        expected = tmp_path / "obs" / f"{spec.content_hash()}.trace.jsonl"
        assert entry.trace == str(expected)
        record = obs.read_run_record(expected)
        assert record.events == []
        assert (record.metrics is not None) == capture.get("metrics", False)
        assert (record.profile is not None) == capture.get("profile", False)

    def test_run_many_pool_workers_export(self, tmp_path):
        specs = [
            RunSpec(
                protocol=protocol,
                builder="static",
                kwargs={"good_wifi": False, "download_bytes": mib(1),
                        "lte_mbps": 10.0},
            )
            for protocol in ("emptcp", "mptcp")
        ]
        options = obs.ObsOptions(dir=str(tmp_path / "obs"))
        run_many(specs, jobs=2, obs=options)
        exported = sorted((tmp_path / "obs").glob("*.trace.jsonl"))
        assert len(exported) == 2

    def test_manifest_without_trace_field_still_parses(self, tmp_path):
        """Manifests written before the obs layer lack the ``trace``
        key; reading them must not break."""
        line = {
            "spec_hash": "x", "label": "l", "protocol": "p", "builder": "b",
            "seed": 0, "outcome": "executed", "wall_time_s": 0.1,
            "worker": "local", "attempt": 1, "timestamp": 0.0,
        }
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(line) + "\n")
        entries = RunManifest.read(path)
        assert entries[0].trace == ""
