"""The parallel execution runtime: specs, cache, manifest, executor.

Everything here runs at tiny download sizes so the suite stays
CI-sized; the runtime semantics (hash stability, cache equivalence,
retry/failure bookkeeping) do not depend on scale.
"""

import io
import json
import os
import signal
import time

import pytest

from repro.errors import ConfigurationError, ExecutionError, SimulationError
from repro.experiments.runner import run_scenario
from repro.experiments.sensitivity import sweep_config
from repro.experiments.static_bw import static_scenario
from repro.runtime import (
    ProgressReporter,
    ResultCache,
    RunManifest,
    RunSpec,
    ScenarioRef,
    build_scenario,
    current_context,
    format_summary,
    group_results,
    register_builder,
    registered_builders,
    run_many,
    run_specs,
    summarize,
    use_runtime,
)
from repro.runtime import spec as spec_mod
from repro.units import mib

pytestmark = pytest.mark.runtime

SMALL = mib(1)


def small_spec(protocol="emptcp", seed=0, **overrides):
    kwargs = {"good_wifi": True, "download_bytes": SMALL, "lte_mbps": 10.0}
    kwargs.update(overrides)
    return RunSpec(protocol=protocol, builder="static", kwargs=kwargs, seed=seed)


@pytest.fixture
def scratch_builder():
    """Register throwaway builders; unregister them afterwards."""
    names = []

    def _register(name, execute, **kw):
        names.append(name)
        return register_builder(name, execute, **kw)

    yield _register
    for name in names:
        spec_mod._REGISTRY.pop(name, None)


class TestRunSpec:
    def test_content_hash_is_stable_and_kwarg_order_insensitive(self):
        a = RunSpec("emptcp", "static", {"good_wifi": True, "lte_mbps": 10.0})
        b = RunSpec("emptcp", "static", {"lte_mbps": 10.0, "good_wifi": True})
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() == a.content_hash()

    def test_content_hash_sees_every_field(self):
        base = small_spec()
        assert small_spec(protocol="mptcp").content_hash() != base.content_hash()
        assert small_spec(seed=1).content_hash() != base.content_hash()
        assert small_spec(lte_mbps=9.0).content_hash() != base.content_hash()
        cfg = RunSpec(
            "emptcp", "static", dict(base.kwargs), config={"tau_seconds": 6.0}
        )
        assert cfg.content_hash() != base.content_hash()

    def test_non_json_kwargs_are_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            RunSpec("emptcp", "static", {"capacity": object()})
        with pytest.raises(ConfigurationError):
            RunSpec("emptcp", "static", {}, config={"fn": lambda: None})

    def test_round_trip_through_dict(self):
        spec = small_spec(seed=3)
        again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_default_registry_covers_every_experiment_family(self):
        names = set(registered_builders())
        assert {
            "static", "random-bw", "background", "mobility", "upload",
            "wild", "web",
        } <= names

    def test_unknown_builder_raises_with_suggestions(self):
        spec = RunSpec("emptcp", "no-such-builder")
        with pytest.raises(ConfigurationError, match="static"):
            spec.execute()

    def test_scenario_ref_builds_the_same_scenario(self):
        ref = ScenarioRef("static", {"good_wifi": True, "download_bytes": SMALL})
        scenario = ref.build()
        assert scenario.name == static_scenario(True, SMALL).name
        assert scenario.download_bytes == SMALL
        spec = ref.spec("emptcp", seed=2, config={"tau_seconds": 6.0})
        assert spec.builder == "static"
        assert spec.seed == 2
        assert spec.config == {"tau_seconds": 6.0}

    def test_build_scenario_rejects_non_scenario_builders(self):
        with pytest.raises(ConfigurationError):
            build_scenario("web")


class TestResultCache:
    def test_round_trip_preserves_every_field(self, tmp_path):
        """Satellite: a cached result equals a fresh one field-for-field."""
        cache = ResultCache(tmp_path / "cache")
        spec = small_spec()
        fresh = spec.execute()
        cache.put(spec, fresh)
        cached = cache.get(spec)
        assert cached is not None
        assert cached.to_dict() == fresh.to_dict()
        assert cached.energy_j == fresh.energy_j
        assert cached.download_time == fresh.download_time
        assert cached.bytes_received == fresh.bytes_received
        assert cached.diagnostics == fresh.diagnostics
        assert cached.energy_series == fresh.energy_series

    def test_miss_on_unknown_spec_and_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = small_spec()
        assert cache.get(spec) is None
        cache.put(spec, spec.execute())
        # Scribble over the segment holding the entry: an unreadable
        # entry is a miss, never an error.
        for segment in cache.store.segment_paths():
            segment.write_text("{not json\n")
        assert cache.get(spec) is None

    def test_salt_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = small_spec()
        cache.put(spec, spec.execute())
        payload = cache.store.get(spec.content_hash())
        payload["salt"] = "repro-0.0.0/runtime-0"
        cache.store.put(spec.content_hash(), payload)  # newest entry wins
        assert cache.get(spec) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.stats().entries == 0
        result = small_spec().execute()
        cache.put(small_spec(), result)
        cache.put(small_spec(seed=1), result)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert cache.clear() == 2
        assert cache.stats().entries == 0


class TestManifest:
    def test_write_read_summarize(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunManifest(path) as manifest:
            manifest.record(small_spec(), "executed", wall_time_s=1.5)
            manifest.record(small_spec(seed=1), "cached", worker="cache")
            manifest.record(small_spec(seed=2), "retried", attempt=1)
            manifest.record(small_spec(seed=2), "failed", attempt=2)
        entries = RunManifest.read(path)
        assert [e.outcome for e in entries] == [
            "executed", "cached", "retried", "failed",
        ]
        assert entries[0].wall_time_s == 1.5
        assert entries[0].spec_hash == small_spec().content_hash()
        counts = summarize(entries)
        assert counts["total"] == 3  # retried is not terminal
        assert "1 executed, 1 cached, 1 failed" in format_summary(counts)

    def test_rejects_unknown_outcomes(self, tmp_path):
        manifest = RunManifest(tmp_path / "run.jsonl")
        with pytest.raises(ConfigurationError):
            manifest.record(small_spec(), "exploded")
        # Nothing recorded: the file is never created.
        assert not (tmp_path / "run.jsonl").exists()


class TestProgressReporter:
    def test_counters_rate_and_eta_with_fake_clock(self):
        now = [100.0]
        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, min_interval_s=0.0, clock=lambda: now[0]
        )
        reporter.start(4)
        now[0] += 2.0
        reporter.update("executed")
        reporter.update("cached")
        reporter.update("retried")  # intermediate: not counted
        snap = reporter.snapshot()
        assert (snap.done, snap.executed, snap.cached, snap.failed) == (2, 1, 1, 0)
        assert snap.remaining == 2
        assert snap.runs_per_sec == pytest.approx(1.0)
        assert snap.eta_s == pytest.approx(2.0)
        reporter.update("failed")
        reporter.update("executed")
        final = reporter.finish()
        assert final.done == 4
        assert final.eta_s == 0.0
        assert "runs 4/4" in stream.getvalue()


class TestRunMany:
    def test_serial_matches_direct_run_scenario(self):
        spec = small_spec(seed=7)
        [via_runtime] = run_many([spec])
        direct = run_scenario(
            "emptcp", static_scenario(True, download_bytes=SMALL), seed=7
        )
        assert via_runtime.to_dict() == direct.to_dict()

    def test_second_invocation_is_all_cached(self, tmp_path):
        """The acceptance property at unit scale: warm cache, 0 executed."""
        cache = ResultCache(tmp_path / "cache")
        specs = [small_spec(protocol=p, seed=s)
                 for p in ("emptcp", "tcp-wifi") for s in range(2)]
        m1, m2 = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        with RunManifest(m1) as manifest:
            cold = run_many(specs, cache=cache, manifest=manifest)
        with RunManifest(m2) as manifest:
            warm = run_many(specs, cache=cache, manifest=manifest)
        cold_counts = summarize(RunManifest.read(m1))
        warm_counts = summarize(RunManifest.read(m2))
        assert cold_counts["executed"] == len(specs)
        assert warm_counts["executed"] == 0
        assert warm_counts["cached"] == len(specs)
        for a, b in zip(cold, warm):
            assert a.to_dict() == b.to_dict()

    def test_group_results_preserves_order_within_protocol(self):
        specs = [small_spec(protocol=p, seed=s)
                 for p in ("emptcp", "tcp-wifi") for s in range(2)]
        grouped = group_results(specs, list(range(len(specs))))
        assert grouped == {"emptcp": [0, 1], "tcp-wifi": [2, 3]}

    def test_run_specs_inherits_ambient_context(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert current_context().cache is None
        with use_runtime(cache=cache, jobs=1):
            assert current_context().cache is cache
            run_specs([small_spec()])
        assert current_context().cache is None
        assert cache.stats().entries == 1

    def test_failure_raises_execution_error_and_is_recorded(
        self, tmp_path, scratch_builder
    ):
        def boom(spec):
            raise SimulationError("deliberate failure")

        scratch_builder("boom-test", boom)
        specs = [small_spec(), RunSpec("emptcp", "boom-test")]
        manifest_path = tmp_path / "run.jsonl"
        with RunManifest(manifest_path) as manifest:
            with pytest.raises(ExecutionError, match="deliberate failure"):
                run_many(specs, manifest=manifest)
        counts = summarize(RunManifest.read(manifest_path))
        # The healthy run still executed (and would be cached for resume).
        assert counts["executed"] == 1
        assert counts["failed"] == 1
        assert counts["retried"] == 0  # deterministic errors never retry

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM timeouts"
    )
    def test_timeout_is_retried_then_failed(self, tmp_path, scratch_builder):
        def sleepy(spec):
            time.sleep(5.0)

        scratch_builder("sleepy-test", sleepy)
        manifest_path = tmp_path / "run.jsonl"
        with RunManifest(manifest_path) as manifest:
            with pytest.raises(ExecutionError, match="timeout"):
                run_many(
                    [RunSpec("emptcp", "sleepy-test")],
                    manifest=manifest,
                    timeout_s=0.05,
                    retries=1,
                    backoff_s=0.0,
                )
        outcomes = [e.outcome for e in RunManifest.read(manifest_path)]
        assert outcomes == ["retried", "failed"]

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM timeouts"
    )
    def test_pool_timeout_is_retried_then_failed(
        self, tmp_path, scratch_builder
    ):
        def sleepy(spec):
            time.sleep(5.0)

        scratch_builder("sleepy-pool-test", sleepy)
        specs = [RunSpec("emptcp", "sleepy-pool-test", seed=s) for s in (0, 1)]
        manifest_path = tmp_path / "run.jsonl"
        with RunManifest(manifest_path) as manifest:
            with pytest.raises(ExecutionError, match="timeout"):
                run_many(specs, jobs=2, manifest=manifest, timeout_s=0.05,
                         retries=1, backoff_s=0.0)
        entries = RunManifest.read(manifest_path)
        for spec in specs:
            outcomes = [e.outcome for e in entries
                        if e.spec_hash == spec.content_hash()]
            assert outcomes == ["retried", "failed"]
        assert {e.worker for e in entries} == {"pool-0"}

    def test_worker_crash_is_retried_on_a_rebuilt_pool(
        self, tmp_path, scratch_builder
    ):
        def crash_once(spec):
            marker = spec.kwargs.get("marker")
            if marker and not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)  # kill the pool worker mid-job
            return spec.seed

        scratch_builder("crash-once-test", crash_once,
                        encode=lambda value: {"value": value},
                        decode=lambda doc: doc["value"])
        crashing = RunSpec("emptcp", "crash-once-test",
                           {"marker": str(tmp_path / "crashed")}, seed=0)
        healthy = RunSpec("emptcp", "crash-once-test", seed=1)
        manifest_path = tmp_path / "run.jsonl"
        with RunManifest(manifest_path) as manifest:
            results = run_many([crashing, healthy], jobs=2,
                               manifest=manifest, retries=2, backoff_s=0.0)
        assert results == [0, 1]
        entries = RunManifest.read(manifest_path)
        outcomes = [e.outcome for e in entries
                    if e.spec_hash == crashing.content_hash()]
        assert outcomes == ["retried", "executed"]
        assert all(e.worker.startswith("pid-")
                   for e in entries if e.outcome == "executed")

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_many([small_spec()], jobs=0)


class TestWallClockTimeoutFallback:
    """``--timeout`` must hold even where ``SIGALRM`` cannot be armed
    (Windows, or a caller driving the runtime from a worker thread).
    There the deadline degrades to a post-hoc wall-clock check: the
    run completes but an overshoot is still reported as a timeout."""

    def test_timeout_enforced_without_sigalrm(
        self, tmp_path, scratch_builder, monkeypatch
    ):
        from repro.runtime import scheduler as scheduler_mod

        monkeypatch.setattr(scheduler_mod, "_sigalrm_usable", lambda: False)

        def sleepy(spec):
            time.sleep(0.2)

        scratch_builder("sleepy-wall-test", sleepy)
        manifest_path = tmp_path / "run.jsonl"
        with RunManifest(manifest_path) as manifest:
            with pytest.raises(ExecutionError, match="timeout"):
                run_many(
                    [RunSpec("emptcp", "sleepy-wall-test")],
                    manifest=manifest,
                    timeout_s=0.05,
                    retries=1,
                    backoff_s=0.0,
                )
        outcomes = [e.outcome for e in RunManifest.read(manifest_path)]
        assert outcomes == ["retried", "failed"]

    def test_timeout_enforced_off_main_thread(self, scratch_builder):
        import threading

        def sleepy(spec):
            time.sleep(0.2)

        scratch_builder("sleepy-thread-test", sleepy)
        caught = []

        def body():
            try:
                run_many(
                    [RunSpec("emptcp", "sleepy-thread-test")],
                    timeout_s=0.05,
                    retries=0,
                    backoff_s=0.0,
                )
            except ExecutionError as exc:
                caught.append(exc)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert caught and "timeout" in str(caught[0])

    def test_fast_run_passes_wallclock_check(
        self, scratch_builder, monkeypatch
    ):
        from repro.runtime import scheduler as scheduler_mod

        monkeypatch.setattr(scheduler_mod, "_sigalrm_usable", lambda: False)
        scratch_builder("quick-wall-test", lambda spec: 42)
        results = run_many(
            [RunSpec("emptcp", "quick-wall-test")], timeout_s=30.0
        )
        assert results == [42]


class TestSweepThroughRuntime:
    def test_scenario_ref_sweep_matches_legacy_scenario_sweep(self):
        values = (3.0, 6.0)
        legacy = sweep_config(
            "tau_seconds", values,
            static_scenario(True, download_bytes=SMALL), runs=1,
        )
        via_ref = sweep_config(
            "tau_seconds", values,
            ScenarioRef("static", {"good_wifi": True, "download_bytes": SMALL}),
            runs=1,
        )
        assert [(p.value, p.energy_j, p.download_time) for p in legacy] == [
            (p.value, p.energy_j, p.download_time) for p in via_ref
        ]


class TestRetryBackoff:
    """Decorrelated-jitter retry delays (repro.runtime.scheduler;
    re-exported through the executor facade)."""

    def _rng(self, seed=7):
        import random

        return random.Random(seed)

    def test_delay_stays_within_base_and_cap(self):
        from repro.runtime.executor import retry_delay_s

        rng = self._rng()
        prev = 0.5
        for _ in range(200):
            delay = retry_delay_s(0.5, 30.0, prev, rng)
            assert 0.5 <= delay <= 30.0
            prev = delay

    def test_single_step_growth_bounded_by_3x_previous(self):
        from repro.runtime.executor import retry_delay_s

        rng = self._rng(9)
        for _ in range(100):
            delay = retry_delay_s(1.0, 100.0, 4.0, rng)
            assert 1.0 <= delay <= 12.0

    def test_cap_binds(self):
        from repro.runtime.executor import retry_delay_s

        assert retry_delay_s(5.0, 2.0, 100.0, self._rng()) == 2.0

    def test_zero_base_means_no_sleep(self):
        from repro.runtime.executor import retry_delay_s

        assert retry_delay_s(0.0, 30.0, 10.0, self._rng()) == 0.0

    def test_delays_are_jittered_not_lockstep(self):
        from repro.runtime.executor import retry_delay_s

        rng = self._rng(3)
        delays = [retry_delay_s(0.5, 30.0, 5.0, rng) for _ in range(50)]
        assert len(set(delays)) > 10

    def test_retry_policy_chains_delays_and_bounds_attempts(self):
        from repro.runtime.scheduler import RetryPolicy

        policy = RetryPolicy(retries=2, backoff_s=0.5, max_backoff_s=4.0)
        rng = self._rng(11)
        prev = 0.0
        for _ in range(20):
            prev = policy.delay_s(prev, rng)
            assert 0.5 <= prev <= 4.0
        # A job's first retry starts fresh from the base.
        assert 0.5 <= policy.delay_s(0.0, rng) <= 1.5
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_context_exposes_max_backoff(self):
        assert current_context().max_backoff_s == 30.0


class TestFacadeEquivalence:
    def test_run_many_byte_identical_to_direct_execution(self, tmp_path):
        """The facade promise: routing the fig5/fig6 suite through the
        queue + scheduler + store pipeline changes nothing about the
        results — byte-identical to calling ``spec.execute()``."""
        from repro.runtime.bench import bench_specs

        specs = [
            spec for _, spec in bench_specs(size_mb=0.5, engines=("fluid",))
        ]
        direct = [
            json.dumps(spec.execute().to_dict(), sort_keys=True)
            for spec in specs
        ]
        via_facade = run_many(
            specs, jobs=2, cache=ResultCache(tmp_path / "cache")
        )
        assert [
            json.dumps(result.to_dict(), sort_keys=True)
            for result in via_facade
        ] == direct
        # And a warm re-run (all cache hits) is byte-identical too.
        warm = run_many(specs, cache=ResultCache(tmp_path / "cache"))
        assert [
            json.dumps(result.to_dict(), sort_keys=True) for result in warm
        ] == direct
