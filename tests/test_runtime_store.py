"""The batched segment store and the result cache over it
(repro.runtime.store, repro.runtime.cache).

Covers eviction leaving the index consistent, cache byte/age budgets,
and per-batch store telemetry.
"""

import pytest

from repro.cli import main
from repro.runtime import ExperimentService, ResultCache, RunSpec, run_many
from repro.runtime.store import SegmentStore
from repro.units import mib

pytestmark = pytest.mark.runtime

SMALL = mib(1)


def small_spec(seed=0, **overrides):
    kwargs = {"good_wifi": True, "download_bytes": SMALL, "lte_mbps": 10.0}
    kwargs.update(overrides)
    return RunSpec(protocol="emptcp", builder="static", kwargs=kwargs, seed=seed)


class TestSegmentStore:
    def test_round_trip_contains_and_telemetry(self, tmp_path):
        store = SegmentStore(tmp_path / "store")
        assert store.get("h1") is None
        store.put("h1", {"value": 1})
        store.put("h2", {"value": 2})
        assert store.get("h1") == {"value": 1}
        assert "h2" in store and "h3" not in store
        assert store.entry_count() == 2
        assert store.total_bytes() > 0
        assert len(store.segment_paths()) == 1  # batched, not per-entry
        assert store.telemetry.hits == 1
        assert store.telemetry.misses == 1
        assert store.telemetry.appends == 2

    def test_rewriting_a_hash_newest_entry_wins(self, tmp_path):
        store = SegmentStore(tmp_path / "store")
        store.put("h", {"v": 1})
        store.put("h", {"v": 2})
        assert store.get("h") == {"v": 2}

    def test_second_instance_reads_the_same_index(self, tmp_path):
        store = SegmentStore(tmp_path / "store")
        store.put("h", {"v": 1})
        store.close()
        assert SegmentStore(tmp_path / "store").get("h") == {"v": 1}

    def test_eviction_drops_oldest_segment_and_keeps_index_consistent(
        self, tmp_path
    ):
        old = SegmentStore(tmp_path / "store")
        old.put("h1", {"blob": "x" * 1000})
        old.close()
        store = SegmentStore(tmp_path / "store")
        store.put("h2", {"blob": "y" * 1000})
        assert len(store.segment_paths()) == 2
        evicted = store.evict(max_bytes=1100, max_age_s=None)
        assert evicted == 1
        assert store.get("h1") is None
        assert store.get("h2") == {"blob": "y" * 1000}
        assert store.telemetry.evictions == 1
        # The compacted index is what a fresh instance sees too.
        fresh = SegmentStore(tmp_path / "store")
        assert fresh.entry_count() == 1
        assert fresh.get("h2") == {"blob": "y" * 1000}

    def test_current_open_segment_is_never_evicted(self, tmp_path):
        store = SegmentStore(tmp_path / "store")
        store.put("h", {"blob": "x" * 1000})
        assert store.evict(max_bytes=0, max_age_s=None) == 0
        assert store.get("h") == {"blob": "x" * 1000}


class TestCacheBudgets:
    def test_put_auto_evicts_when_budgeted(self, tmp_path):
        spec = small_spec()
        result = spec.execute()
        old = ResultCache(tmp_path / "cache")
        old.put(spec, result)
        old.store.close()
        # A byte budget far below one entry: the old segment goes as
        # soon as a new one opens.
        cache = ResultCache(tmp_path / "cache", max_bytes=64)
        cache.put(small_spec(seed=1), result)
        assert cache.get(spec) is None
        assert cache.get(small_spec(seed=1)) is not None


def spec_named_files(root):
    """Files named after a spec hash (64 hex digits), as a per-run
    store would write them."""
    return [
        p for p in root.rglob("*")
        if len(p.stem) == 64 and set(p.stem) <= set("0123456789abcdef")
    ]


class TestTelemetryFlow:
    def test_batches_flush_cache_telemetry_into_cache_log(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = [small_spec(seed=s) for s in range(2)]
        run_many(specs, cache=cache)
        run_many(specs, cache=cache)
        lines = cache.telemetry_snapshots()
        assert len(lines) == 2  # one snapshot per batch
        assert lines[0]["misses"] == 2 and lines[0]["appends"] == 2
        assert lines[1]["hits"] == 2  # warm batch
        assert lines[1]["queue"]["submitted"] == 2
        # The log outlives the process's counters: a fresh instance
        # over the same root reads the same snapshots.
        assert ResultCache(tmp_path / "cache").telemetry_snapshots() == lines

    def test_torn_telemetry_lines_are_skipped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.telemetry_snapshots() == []
        cache.record_telemetry({"t": 1.0})
        log = next((tmp_path / "cache").glob("*.jsonl"))
        log.write_text(log.read_text() + '{"hits": \n')
        assert [line["t"] for line in cache.telemetry_snapshots()] == [1.0]

    def test_runs_write_no_per_spec_files_and_snapshots_stay_visible(
        self, tmp_path, capsys
    ):
        """Executed runs leave their results in the store and one
        telemetry line per batch, and no file per spec; ``cache stats``
        and ``/v1/status`` both read the latest snapshot."""
        cache_dir = tmp_path / "cache"
        assert main([
            "run", "emptcp", "good", "--size-mb", "1", "--runs", "1",
            "--cache", "--cache-dir", str(cache_dir), "--no-progress",
        ]) == 0
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:  1 batch snapshot(s); latest: 0 hit(s) / " \
            "1 miss(es)" in out
        assert spec_named_files(cache_dir) == []

        with ExperimentService(cache_dir, jobs=1) as svc:
            summary = svc.submit_batch([small_spec(seed=3).to_dict()])
            list(svc.stream_batch(summary["batch"]))
            status = svc.status()
        assert status["cache_telemetry"]["snapshots"] == 2
        assert status["cache_telemetry"]["last"]["appends"] == 1
        assert spec_named_files(cache_dir) == []
