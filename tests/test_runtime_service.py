"""The experiment service: sweep planner DAG, batch streaming, dedup
across concurrent batches, and the stdlib HTTP/JSONL front-end
(repro.runtime.service).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.runtime import RunSpec
from repro.runtime.service import ExperimentService, plan_sweep, serve_http
from repro.units import mib

pytestmark = pytest.mark.runtime

SMALL = mib(1)


def small_spec(seed=0, **overrides):
    kwargs = {"good_wifi": True, "download_bytes": SMALL, "lte_mbps": 10.0}
    kwargs.update(overrides)
    return RunSpec(protocol="emptcp", builder="static", kwargs=kwargs, seed=seed)


def fetch(method, url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read().decode())


def stream(url):
    events = []
    with urllib.request.urlopen(url, timeout=120) as resp:
        for raw in resp:
            raw = raw.strip()
            if raw:
                events.append(json.loads(raw.decode()))
    return events


@pytest.fixture
def service(tmp_path):
    with ExperimentService(tmp_path / "cache", jobs=1) as svc:
        yield svc


class TestSweepPlanner:
    def test_plan_shares_one_warmup_per_seed(self):
        plan = plan_sweep({
            "builder": "static",
            "parameter": "tau_seconds",
            "values": [3.0, 6.0],
            "kwargs": {"good_wifi": True, "download_bytes": SMALL},
            "runs": 2,
        })
        assert plan.warmups == 2 and plan.variants == 4
        warm_hashes = {
            job.spec.content_hash()
            for job in plan.jobs
            if job.role == "warmup"
        }
        assert len(warm_hashes) == 2  # one distinct warm-up per seed
        for job in plan.jobs:
            if job.role == "variant":
                assert len(job.after) == 1
                assert set(job.after) <= warm_hashes
                assert job.spec.config["tau_seconds"] in (3.0, 6.0)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_sweep({"builder": "static"})


class TestServiceInProcess:
    def test_within_batch_dedup_executes_once(self, service):
        spec = small_spec().to_dict()
        summary = service.submit_batch([spec, spec, spec])
        assert summary["submitted"] == 3 and summary["fresh"] == 1
        tail = list(service.stream_batch(summary["batch"]))[-1]
        assert tail["event"] == "summary" and tail["done"]
        assert tail["outcomes"] == {"executed": 1, "deduped": 2}
        assert service.queue.stats.submitted == 1

    def test_concurrent_batches_execute_shared_spec_once(self, service):
        """ISSUE acceptance: the same spec hash submitted from
        concurrent batches executes exactly once."""
        spec = small_spec(seed=9).to_dict()
        summaries = []
        lock = threading.Lock()

        def submit():
            summary = service.submit_batch([spec])
            with lock:
                summaries.append(summary)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tails = [
            list(service.stream_batch(s["batch"]))[-1] for s in summaries
        ]
        executed = sum(t["outcomes"].get("executed", 0) for t in tails)
        settled = sum(sum(t["outcomes"].values()) for t in tails)
        assert executed == 1
        assert settled == 4  # every batch's waiter observed the outcome
        assert service.queue.stats.submitted == 1
        assert service.queue.stats.deduped == 3


class TestStreamCompleteness:
    def test_stream_ends_only_after_the_last_job_event(
        self, service, monkeypatch
    ):
        """The batch turns done in the same step that queues its last
        job event, so one read of the stream carries every event even
        when the root span and telemetry flush before it are slow."""
        flush = service.scheduler.flush_telemetry

        def slow_flush(queue):
            time.sleep(0.3)
            flush(queue)

        monkeypatch.setattr(service.scheduler, "flush_telemetry", slow_flush)
        summary = service.submit_batch(
            [small_spec(seed=s).to_dict() for s in range(2)]
        )
        events = list(service.stream_batch(summary["batch"]))
        jobs = [e for e in events if e["event"] == "job"]
        assert events[-1]["event"] == "summary"
        assert len(jobs) == events[-1]["total"] == 2


class TestHTTPService:
    def test_submit_stream_status_sweep_shutdown(self, tmp_path):
        with ExperimentService(tmp_path / "cache", jobs=1) as svc:
            server = serve_http(svc)
            base = f"http://127.0.0.1:{server.server_address[1]}"
            specs = [small_spec(seed=s).to_dict() for s in range(2)]

            summary = fetch("POST", f"{base}/v1/submit", {"specs": specs})
            assert summary["submitted"] == 2 and summary["fresh"] == 2
            events = stream(f"{base}/v1/stream/{summary['batch']}")
            assert [e["event"] for e in events] == ["job", "job", "summary"]
            assert events[-1]["done"]
            assert all(e["result"] for e in events[:-1])

            # Resubmitting the same batch must be all cache/dedup hits.
            again = fetch("POST", f"{base}/v1/submit", {"specs": specs})
            tail = stream(f"{base}/v1/stream/{again['batch']}")[-1]
            assert tail["outcomes"].get("executed", 0) == 0
            assert sum(tail["outcomes"].values()) == 2

            status = fetch("GET", f"{base}/v1/status")
            assert status["open_jobs"] == 0
            assert status["queue"]["submitted"] == 2
            assert status["cache"]["entries"] == 2

            # A sweep lowers into a DAG: shared warm-up plus variants.
            sweep = fetch("POST", f"{base}/v1/sweep", {
                "builder": "static",
                "parameter": "tau_seconds",
                "values": [3.0, 6.0],
                "kwargs": {"good_wifi": True, "download_bytes": SMALL},
            })
            assert sweep["plan"] == {"warmups": 1, "variants": 2}
            tail = stream(f"{base}/v1/stream/{sweep['batch']}")[-1]
            assert tail["done"] and sum(tail["outcomes"].values()) == 3

            # Verification gates submission: bad parameter -> 400.
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch("POST", f"{base}/v1/sweep", {
                    "builder": "static",
                    "parameter": "not_a_config_field",
                    "values": [1.0],
                })
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch("GET", f"{base}/v1/no-such-route")
            assert err.value.code == 404

            fetch("POST", f"{base}/v1/shutdown")
            server.serve_thread.join(timeout=30)
            assert not server.serve_thread.is_alive()

    def test_journal_lands_under_the_cache_dir(self, tmp_path):
        with ExperimentService(tmp_path / "cache", jobs=1) as svc:
            svc.submit_batch([small_spec().to_dict()])
            batch = svc.status()["batches"]
            assert batch  # bookkeeping exists
        journal = tmp_path / "cache" / "queue" / "journal.jsonl"
        assert journal.exists()
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        assert any(e["event"] == "submit" for e in events)
        assert any(e["event"] == "done" for e in events)


class TestObservabilityPlane:
    """The live metrics plane and trace propagation across the service
    boundary: /v1/metrics Prometheus output, /v1/status telemetry, and
    batch-salted lifecycle traces reassembling into one tree."""

    def _scrape(self, base):
        with urllib.request.urlopen(f"{base}/v1/metrics", timeout=60) as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            return resp.read().decode()

    def test_metrics_series_change_across_a_batch(self, tmp_path):
        from repro.obs.prom import parse_prometheus

        with ExperimentService(tmp_path / "cache", jobs=1) as svc:
            server = serve_http(svc)
            base = f"http://127.0.0.1:{server.server_address[1]}"
            cold = parse_prometheus(self._scrape(base))
            # Pre-registered series exist before any work arrives.
            for name in ("repro_queue_submitted_total",
                         "repro_scheduler_jobs_done_total",
                         "repro_scheduler_retries_total",
                         "repro_scheduler_cache_hits_total",
                         "repro_queue_open_jobs",
                         "repro_store_entries"):
                assert name in cold, f"missing series {name}"
            assert cold["repro_queue_submitted_total"][0][1] == 0.0

            summary = fetch("POST", f"{base}/v1/submit",
                            {"specs": [small_spec(seed=s).to_dict()
                                       for s in range(2)]})
            stream(f"{base}/v1/stream/{summary['batch']}")
            warm = parse_prometheus(self._scrape(base))
            assert warm["repro_queue_submitted_total"][0][1] == 2.0
            assert warm["repro_scheduler_jobs_done_total"][0][1] == 2.0
            assert warm["repro_batches_total"][0][1] == 1.0
            assert warm["repro_spans_recorded_total"][0][1] > 0.0
            assert warm["repro_store_entries"][0][1] == 2.0

            # A same-process resubmission coalesces in the queue, not
            # the store: the dedup counter moves, cache hits don't.
            again = fetch("POST", f"{base}/v1/submit",
                          {"specs": [small_spec(seed=s).to_dict()
                                     for s in range(2)]})
            stream(f"{base}/v1/stream/{again['batch']}")
            final = parse_prometheus(self._scrape(base))
            assert final["repro_queue_deduped_total"][0][1] == 2.0
            assert final["repro_batches_total"][0][1] == 2.0
            fetch("POST", f"{base}/v1/shutdown")
            server.serve_thread.join(timeout=30)

    def test_cache_hits_count_on_a_fresh_queue(self, tmp_path):
        from repro.obs.prom import parse_prometheus

        specs = [small_spec(seed=s).to_dict() for s in range(2)]
        with ExperimentService(tmp_path / "cache", jobs=1) as svc:
            list(svc.stream_batch(svc.submit_batch(specs)["batch"]))
        # A new service over the warm store (fresh queue, no journal
        # replay): the scheduler satisfies every job from the cache.
        with ExperimentService(tmp_path / "cache", jobs=1,
                               journal=False) as svc:
            server = serve_http(svc)
            base = f"http://127.0.0.1:{server.server_address[1]}"
            summary = fetch("POST", f"{base}/v1/submit", {"specs": specs})
            tail = stream(f"{base}/v1/stream/{summary['batch']}")[-1]
            assert tail["outcomes"] == {"cached": 2}
            doc = parse_prometheus(self._scrape(base))
            assert doc["repro_scheduler_cache_hits_total"][0][1] == 2.0
            assert doc["repro_cache_hit_ratio"][0][1] > 0.0
            fetch("POST", f"{base}/v1/shutdown")
            server.serve_thread.join(timeout=30)

    def test_status_surfaces_telemetry_and_trace_ids(self, tmp_path):
        with ExperimentService(tmp_path / "cache", jobs=1) as svc:
            summary = svc.submit_batch([small_spec().to_dict()])
            list(svc.stream_batch(summary["batch"]))
            status = svc.status()
            assert status["spans_recorded"] > 0
            assert "inflight" in status and "scheduler" in status
            assert status["scheduler"]["scheduler.jobs_done"] == 1
            # One durable cache-telemetry snapshot per finished batch.
            assert status["cache_telemetry"]["snapshots"] == 1
            assert status["cache_telemetry"]["last"]["appends"] == 1
            batch_doc = status["batches"][summary["batch"]]
            assert batch_doc["trace_id"] == summary["trace_id"]
            assert len(batch_doc["trace_id"]) == 16

    def test_batch_salting_gives_fresh_traces_per_submission(self, tmp_path):
        from repro.check.disttrace import check_trace_topology
        from repro.obs.tree import load_trace_forest

        with ExperimentService(tmp_path / "cache", jobs=1) as svc:
            first = svc.submit_batch([small_spec().to_dict()])
            list(svc.stream_batch(first["batch"]))
            second = svc.submit_batch([small_spec().to_dict()])
            list(svc.stream_batch(second["batch"]))
            assert first["trace_id"] != second["trace_id"]
        obs_dir = tmp_path / "cache" / "obs"
        trees = {t.trace_id: t for t in load_trace_forest(obs_dir)}
        assert set(trees) == {first["trace_id"], second["trace_id"]}
        for tree in trees.values():
            assert len(tree.roots) == 1 and not tree.orphans
            assert tree.roots[0].span.name == "batch"
        report = check_trace_topology(obs_dir)
        assert report.ok, report.format()
