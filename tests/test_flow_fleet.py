"""Population-scale fleet runs: specs, contention, obs sampling."""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.flow.fleet import (
    DEFAULT_MIX,
    FleetScenario,
    FleetSpec,
    build_fleet,
    run_fleet,
    sweep_fleet,
)
from repro.obs.events import validate_events


def _small_spec(**kw):
    defaults = dict(sessions=80, duration_s=20.0, seed=7)
    defaults.update(kw)
    return FleetSpec(**defaults)


class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(sessions=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            FleetSpec(device="no-such-phone")
        with pytest.raises(ConfigurationError):
            FleetSpec(cell_kind="wifi")
        with pytest.raises(ConfigurationError):
            FleetScenario("x", protocol="mdp")

    def test_content_hash_tracks_spec(self):
        a, b = _small_spec(), _small_spec()
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != _small_spec(seed=8).content_hash()
        assert (
            a.content_hash()
            != _small_spec(cell_capacity_mbps=10.0).content_hash()
        )

    def test_build_is_deterministic(self):
        s1, _e1, a1 = build_fleet(_small_spec())
        s2, _e2, a2 = build_fleet(_small_spec())
        assert (a1 == a2).all()
        assert (s1.start_s == s2.start_s).all()
        assert (s1.cell_id == s2.cell_id).all()


class TestFleetRun:
    def test_run_covers_every_stratum(self):
        result = run_fleet(_small_spec())
        assert result.completed == result.sessions == 80
        assert set(result.per_stratum) == {s.name for s in DEFAULT_MIX}
        assert result.session_steps > 0
        assert result.energy_total_j > 0
        doc = result.to_dict()
        assert doc["schema"] == 1 and doc["spec_hash"] == result.spec_hash

    def test_run_is_deterministic(self):
        a = run_fleet(_small_spec())
        b = run_fleet(_small_spec())
        assert a.to_dict() == b.to_dict()

    def test_contention_slows_shared_cells(self):
        # All-cellular-heavy mix: one overloaded cell must deliver less
        # than contention-free private cells in the same window.
        mix = (FleetScenario("cell-heavy", "mptcp", wifi_mbps=0.4,
                             cell_mbps=30.0, download_mb=None),)
        crowded = run_fleet(_small_spec(
            mix=mix, cells=1, cell_capacity_mbps=40.0, duration_s=10.0
        ))
        private = run_fleet(_small_spec(
            mix=mix, cells=0, duration_s=10.0
        ))
        assert crowded.bytes_total < 0.5 * private.bytes_total

    def test_sweep_scales_population(self):
        results = sweep_fleet(_small_spec(duration_s=10.0), [20, 60])
        assert [r.sessions for r in results] == [20, 60]
        assert results[0].spec_hash != results[1].spec_hash
        with pytest.raises(ConfigurationError):
            sweep_fleet(_small_spec(), [])

    def test_open_ended_sessions_never_complete(self):
        mix = (FleetScenario("stream", "tcp-wifi", download_mb=None),)
        result = run_fleet(_small_spec(mix=mix, duration_s=10.0))
        assert result.completed == 0
        assert result.bytes_total > 0


class TestFleetObs:
    def test_events_sampled_and_schema_valid(self):
        spec = _small_spec()
        with obs.capture(trace=True, metrics=False, profile=False) as ses:
            run_fleet(spec)
            events = list(ses.tracer)
        epochs = [e for e in events if e["type"] == "fleet.epoch"]
        sessions = [e for e in events if e["type"] == "fleet.session"]
        assert epochs, "no fleet.epoch heartbeat emitted"
        assert sessions, "no fleet.session completions emitted"
        # Bounded sampling: per-session events capped, epoch events
        # strided — a 10^5 fleet must not emit 10^5 records per epoch.
        assert len(sessions) <= 32
        assert len(epochs) <= 1 + int(
            spec.duration_s / (0.25 * 4)
        )
        assert validate_events(events) == []

    def test_no_tracer_no_events(self):
        # Must run clean (and fast) with observability disabled.
        result = run_fleet(_small_spec(duration_s=10.0))
        assert result.epochs > 0

    def test_trace_timeline_merges_sampled_fleet_events(self, tmp_path):
        # `repro trace timeline` over an exported fleet trace: sampled
        # fleet.epoch heartbeats and fleet.session completions land in
        # one sim-time-ordered timeline (with spans, when profiled).
        from repro.obs.summarize import build_timeline, format_timeline

        spec = _small_spec()
        with obs.capture(trace=True, metrics=False, profile=False) as ses:
            result = run_fleet(spec)
        path = ses.export(tmp_path / f"fleet-{result.spec_hash}.trace.jsonl")
        entries = build_timeline(path)
        assert entries, "fleet trace produced an empty timeline"
        labels = {entry["label"] for entry in entries}
        assert "fleet.epoch" in labels
        assert "fleet.session" in labels
        times = [entry["t"] for entry in entries]
        assert times == sorted(times)
        assert all(entry["kind"] == "event" for entry in entries)
        text = format_timeline(entries)
        assert "fleet.epoch" in text and "fleet.session" in text

    def test_fleet_run_captures_every_requested_record(self, tmp_path):
        from repro.cli import main
        from repro.obs import read_run_record

        code = main([
            "fleet", "run", "--sessions", "50", "--duration-s", "10",
            "--trace", "--metrics", "--profile",
            "--obs-dir", str(tmp_path / "obs"),
            "--cache-dir", str(tmp_path / "cache"), "--no-progress",
        ])
        assert code == 0
        [path] = (tmp_path / "obs").glob("fleet-*.trace.jsonl")
        record = read_run_record(path)
        assert record.events
        assert record.metrics is not None
        assert record.profile is not None
