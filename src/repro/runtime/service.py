"""The experiment service: batch submission over HTTP, JSONL streaming.

:class:`ExperimentService` wraps the runtime's long-lived half: one
journalled :class:`~repro.runtime.queue.JobQueue`, one
:class:`~repro.runtime.scheduler.Scheduler` dispatching on a background
thread with a warm pool, and one segment-backed
:class:`~repro.runtime.cache.ResultCache` — all rooted under the cache
dir.  Batches submitted from any thread coalesce by spec hash (both
within and *across* batches: two clients submitting the same spec get
one execution and two streamed results).

:func:`serve_http` exposes it over a thin stdlib HTTP API:

* ``POST /v1/submit``  — ``{"specs": [spec-dict, ...], "priority": 0}``
  → batch summary (id, dedup/cached counts);
* ``POST /v1/sweep``   — a sweep request (see :func:`plan_sweep`)
  lowered into a warm-up DAG before submission;
* ``GET /v1/stream/<batch-id>`` — one JSONL line per finished run
  (spec hash, outcome, queue wait, wall time, worker, attempts and the
  result payload), then a summary line; the response is
  connection-close delimited, so ``curl -N`` tails it live;
* ``GET /v1/status``   — queue/cache/scheduler counters;
* ``GET /v1/metrics``  — the live metrics plane: Prometheus text
  exposition (queue depth, per-pool in-flight, retry/timeout/crash
  counters, cache hit ratio, events/sec EWMA, store gauges);
* ``POST /v1/shutdown`` — drain and stop.

Each submission is a :class:`~repro.runtime.batch.Batch`, the same
type :func:`~repro.runtime.executor.run_many` submits through; the
service adds only what a settled index becomes here, one JSONL stream
event.  That event is the job's one record: it is keyed by the spec
hash, which also names the run's record (``<hash>.trace.jsonl``) when
the service captures runs — see docs/OBSERVABILITY.md.

The sweep planner turns a ``sweep_config``-style request into a DAG:
per seed, one *warm-up* run of the unmodified scenario, then every
parameter variant ordered ``after`` it.  Because dependency edges are
spec hashes, two sweeps sharing a scenario share warm-up executions
through ordinary queue dedup — the "shared warm-up prefix executes
once" property is an emergent feature of hashing, not special-cased.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from queue import Empty, Queue as _EventQueue
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs import ObsOptions
from repro.obs.prom import MetricFamily, registry_families, render_prometheus
from repro.runtime import clock
from repro.runtime.batch import Batch, verify_batch
from repro.runtime.cache import DEFAULT_CACHE_ROOT, ResultCache
from repro.runtime.queue import Job, JobQueue
from repro.runtime.scheduler import RetryPolicy, Scheduler, TimeoutPolicy
from repro.runtime.spec import RunSpec, ScenarioRef, get_builder

#: Where the service journals its queue, relative to the cache dir.
JOURNAL_NAME = "queue/journal.jsonl"


@dataclass(frozen=True)
class PlannedJob:
    """One node of a lowered sweep DAG."""

    spec: RunSpec
    #: Spec hashes this run is ordered after (warm-up edges).
    after: Tuple[str, ...] = ()
    role: str = "variant"


@dataclass(frozen=True)
class SweepPlan:
    """A sweep request lowered into dependency-ordered jobs."""

    jobs: Tuple[PlannedJob, ...]

    @property
    def warmups(self) -> int:
        return sum(1 for job in self.jobs if job.role == "warmup")

    @property
    def variants(self) -> int:
        return sum(1 for job in self.jobs if job.role == "variant")


def plan_sweep(request: Dict[str, Any]) -> SweepPlan:
    """Lower a ``sweep_config``-style request into a warm-up DAG.

    Request keys: ``builder`` (scenario builder name), ``parameter``
    (EMPTCPConfig field), ``values`` (list), plus optional ``kwargs``
    (builder arguments), ``protocol`` ("emptcp"), ``runs`` (seeds,
    default 1), and ``engine`` ("fluid").

    Per seed the plan holds one warm-up run of the unmodified scenario
    and one variant per value ordered after it, so a scheduler can
    overlap nothing that would cold-start the same scenario twice.
    """
    try:
        builder = str(request["builder"])
        parameter = str(request["parameter"])
        values = list(request["values"])
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"sweep request needs builder/parameter/values: {exc}"
        ) from exc
    if not values:
        raise ConfigurationError("sweep request has an empty values list")
    scenario = ScenarioRef(
        builder=builder, kwargs=dict(request.get("kwargs", {}))
    )
    protocol = str(request.get("protocol", "emptcp"))
    engine = str(request.get("engine", "fluid"))
    runs = int(request.get("runs", 1))
    if runs < 1:
        raise ConfigurationError(f"sweep runs must be >= 1, got {runs}")
    jobs: List[PlannedJob] = []
    for seed in range(runs):
        warmup = scenario.spec(protocol, seed=seed, engine=engine)
        jobs.append(PlannedJob(spec=warmup, role="warmup"))
        warmup_hash = warmup.content_hash()
        for value in values:
            jobs.append(
                PlannedJob(
                    spec=scenario.spec(
                        protocol,
                        seed=seed,
                        config={parameter: value},
                        engine=engine,
                    ),
                    after=(warmup_hash,),
                )
            )
    return SweepPlan(jobs=tuple(jobs))


class ExperimentService:
    """The long-lived runtime: journalled queue + warm scheduler.

    Thread model: HTTP handler threads call :meth:`submit_batch` /
    :meth:`stream_batch` / :meth:`status`; the scheduler's dispatcher
    loop runs on a background thread; the queue and each batch mediate
    (they are the structures both sides touch, and each locks
    internally).
    """

    def __init__(
        self,
        cache_dir: Union[str, Path] = DEFAULT_CACHE_ROOT,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 2,
        verify: bool = True,
        journal: bool = True,
        obs: Optional[ObsOptions] = None,
    ):
        self.cache_dir = Path(cache_dir)
        self.verify = verify
        self.cache = ResultCache(self.cache_dir)
        self.queue = JobQueue(
            journal=self.cache_dir / JOURNAL_NAME if journal else None
        )
        self.obs = obs
        self.scheduler = Scheduler(
            jobs=jobs,
            retry=RetryPolicy(retries=retries),
            timeout=TimeoutPolicy(timeout_s),
            obs=obs,
            cache=self.cache,
        )
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._batches: Dict[str, Batch] = {}
        #: Each batch's job events, drained by :meth:`stream_batch`.
        self._events: Dict[str, "_EventQueue[Dict[str, Any]]"] = {}
        self._batch_seq = 0
        self._started_t = 0.0

    # -- lifecycle --------------------------------------------------

    def start(self) -> "ExperimentService":
        """Start the scheduler's dispatcher thread; returns self."""
        if self._thread is not None:
            return self
        self._started_t = clock.now()
        self._thread = threading.Thread(
            target=self.scheduler.serve, args=(self.queue,),
            name="repro-service", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain outstanding work, stop the scheduler, close the queue."""
        if self._thread is None:
            return
        self.scheduler.stop()
        self._thread.join(timeout=60.0)
        self._thread = None
        self.queue.close()
        self.cache.store.close()

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- submission -------------------------------------------------

    def _submit(
        self,
        specs: List[RunSpec],
        priority: int = 0,
        after: Optional[List[Tuple[str, ...]]] = None,
    ) -> Dict[str, Any]:
        events: "_EventQueue[Dict[str, Any]]" = _EventQueue()

        def emit(index: int, outcome: str, job: Job) -> None:
            events.put(_job_event(batch, index, outcome, job))

        with self._lock:
            self._batch_seq += 1
            batch_id = f"b{self._batch_seq:05d}"
            batch = Batch(
                specs, self.scheduler, on_settle=emit, batch_id=batch_id
            )
            self._batches[batch_id] = batch
            self._events[batch_id] = events
        fresh = batch.submit(self.queue, priority=priority, after=after)
        self.scheduler.kick()
        summary = batch.describe()
        summary.update({"submitted": len(specs), "fresh": fresh,
                        "coalesced": len(specs) - fresh})
        return summary

    def submit_batch(
        self, spec_dicts: List[Dict[str, Any]], priority: int = 0
    ) -> Dict[str, Any]:
        """Validate, verify, and enqueue a batch of spec dicts."""
        specs = [RunSpec.from_dict(doc) for doc in spec_dicts]
        if not specs:
            raise ConfigurationError("batch has no specs")
        if self.verify:
            verify_batch(specs)
        return self._submit(specs, priority=priority)

    def submit_sweep(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Lower a sweep request into its DAG and enqueue it."""
        plan = plan_sweep(request)
        specs = [job.spec for job in plan.jobs]
        if self.verify:
            verify_batch(specs)
        summary = self._submit(
            specs,
            priority=int(request.get("priority", 0)),
            after=[job.after for job in plan.jobs],
        )
        summary["plan"] = {
            "warmups": plan.warmups,
            "variants": plan.variants,
        }
        return summary

    # -- consumption ------------------------------------------------

    def get_batch(self, batch_id: str) -> Batch:
        with self._lock:
            try:
                return self._batches[batch_id]
            except KeyError:
                raise ConfigurationError(
                    f"unknown batch {batch_id!r}"
                ) from None

    def stream_batch(
        self, batch_id: str, timeout_s: float = 300.0
    ) -> Iterator[Dict[str, Any]]:
        """Yield one event dict per finished run, then a summary.

        Events already drained by a previous stream of the same batch
        are not replayed; the summary always is.
        """
        batch = self.get_batch(batch_id)
        events = self._events[batch_id]
        deadline = clock.monotonic() + timeout_s
        yielded = 0
        # ``done`` turns true only after the last event is queued, so
        # reading it before the queue size never ends a stream early.
        while not (batch.done and events.qsize() == 0):
            try:
                yield events.get(timeout=0.2)
                yielded += 1
            except Empty:
                if clock.monotonic() > deadline:
                    yield {
                        "event": "timeout",
                        "batch": batch_id,
                        "after_events": yielded,
                    }
                    return
        summary = batch.describe()
        summary["event"] = "summary"
        yield summary

    def status(self) -> Dict[str, Any]:
        """Queue/cache/scheduler counters for ``GET /v1/status``."""
        stats = self.cache.stats()
        with self._lock:
            batches = {
                batch_id: batch.describe()
                for batch_id, batch in self._batches.items()
            }
        snapshots = self.cache.telemetry_snapshots()
        return {
            "uptime_s": max(0.0, clock.now() - self._started_t),
            "jobs": self.scheduler.jobs,
            "queue": self.queue.stats.to_dict(),
            "open_jobs": self.queue.open_jobs(),
            "inflight": dict(self.scheduler.inflight),
            "cache": {
                "root": stats.root,
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
                "segments": stats.segments,
                **self.cache.telemetry.to_dict(),
            },
            "cache_telemetry": {
                "snapshots": len(snapshots),
                "last": snapshots[-1] if snapshots else None,
            },
            "scheduler": self.scheduler.metrics.to_dict()["counters"],
            "events_per_sec_ewma": self.scheduler.events_ewma,
            "batches": batches,
        }

    # -- metrics plane ----------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition document for ``GET /v1/metrics``.

        Series: queue lifetime counters and depth, per-pool in-flight
        gauges, the scheduler's retry/timeout/crash/cache counters,
        result-store telemetry with a derived hit ratio, store size
        gauges, the events/sec EWMA, the batch total and uptime.
        """
        families: List[MetricFamily] = []
        for key, value in self.queue.stats.to_dict().items():
            families.append(
                MetricFamily(
                    f"repro_queue_{key}_total",
                    "counter",
                    f"queue jobs {key} since start",
                ).add(float(value))
            )
        families.append(
            MetricFamily(
                "repro_queue_open_jobs", "gauge", "jobs not yet terminal"
            ).add(float(self.queue.open_jobs()))
        )
        inflight = MetricFamily(
            "repro_jobs_in_flight", "gauge", "jobs executing per shard"
        )
        for shard, count in sorted(self.scheduler.inflight.items()):
            inflight.add(float(count), shard=shard)
        families.append(inflight)
        families.extend(registry_families(self.scheduler.metrics))
        telemetry = self.cache.telemetry.to_dict()
        for key, value in telemetry.items():
            families.append(
                MetricFamily(
                    f"repro_store_{key}_total",
                    "counter",
                    f"result store {key} since start",
                ).add(float(value))
            )
        lookups = telemetry.get("hits", 0) + telemetry.get("misses", 0)
        families.append(
            MetricFamily(
                "repro_cache_hit_ratio",
                "gauge",
                "store hits / lookups since start",
            ).add(telemetry.get("hits", 0) / lookups if lookups else 0.0)
        )
        stats = self.cache.stats()
        families.append(
            MetricFamily(
                "repro_store_entries", "gauge", "indexed store entries"
            ).add(float(stats.entries))
        )
        families.append(
            MetricFamily(
                "repro_store_bytes", "gauge", "store size on disk"
            ).add(float(stats.total_bytes))
        )
        families.append(
            MetricFamily(
                "repro_store_segments", "gauge", "store segment files"
            ).add(float(stats.segments))
        )
        if self.scheduler.events_ewma is not None:
            families.append(
                MetricFamily(
                    "repro_events_per_sec_ewma",
                    "gauge",
                    "EWMA of per-run simulated events per second",
                ).add(self.scheduler.events_ewma)
            )
        with self._lock:
            batch_count = len(self._batches)
        families.append(
            MetricFamily(
                "repro_batches_total", "counter", "batches submitted"
            ).add(float(batch_count))
        )
        families.append(
            MetricFamily(
                "repro_uptime_seconds", "gauge", "service uptime"
            ).add(max(0.0, clock.now() - self._started_t))
        )
        return render_prometheus(families)


def _job_event(
    batch: Batch, index: int, outcome: str, job: Job
) -> Dict[str, Any]:
    """The stream event for one settled index of ``batch``."""
    event: Dict[str, Any] = {
        "event": "job",
        "batch": batch.batch_id,
        "index": index,
        "label": batch.specs[index].label,
        "hash": job.spec_hash,
        "outcome": outcome,
        "wait_s": job.wait_s,
        "wall_s": job.wall_s,
        "attempts": job.attempts,
        "worker": job.worker,
    }
    if job.state == "failed":
        event["error"] = str(job.error)
    elif job.result is not None:
        try:
            event["result"] = get_builder(job.spec.builder).encode(job.result)
        except Exception:
            event["result"] = None
    return event


# -- HTTP layer -----------------------------------------------------


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes the /v1 API onto an :class:`ExperimentService`."""

    service: ExperimentService  # bound by serve_http
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, *_args: Any) -> None:  # pragma: no cover
        pass  # the CLI decides what to print, not every request

    def _send_json(self, code: int, doc: Dict[str, Any]) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", "0") or "0")
        raw = self.rfile.read(length) if length else b"{}"
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ConfigurationError("request body must be a JSON object")
        return doc

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/v1/submit":
                body = self._read_body()
                summary = self.service.submit_batch(
                    body.get("specs", []),
                    priority=int(body.get("priority", 0)),
                )
                self._send_json(200, summary)
            elif self.path == "/v1/sweep":
                summary = self.service.submit_sweep(self._read_body())
                self._send_json(200, summary)
            elif self.path == "/v1/shutdown":
                self._send_json(200, {"ok": True})
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
            else:
                self._send_json(404, {"error": f"no such route {self.path}"})
        except (ConfigurationError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/v1/status":
                self._send_json(200, self.service.status())
            elif self.path == "/v1/metrics":
                body = self.service.metrics_text().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif self.path.startswith("/v1/stream/"):
                self._stream(self.path[len("/v1/stream/"):])
            else:
                self._send_json(404, {"error": f"no such route {self.path}"})
        except (ConfigurationError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})

    def _stream(self, batch_id: str) -> None:
        events = self.service.stream_batch(batch_id)  # may raise -> 400
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        # JSONL streams are delimited by connection close, not length.
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for event in events:
                self.wfile.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                )
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client hung up mid-stream
        self.close_connection = True


def serve_http(
    service: ExperimentService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """Start the HTTP front-end on ``host:port`` (0 = ephemeral).

    Returns the running server; ``server.server_address[1]`` is the
    bound port, and ``server.shutdown()`` stops the serving thread.
    """
    handler = type(
        "_BoundServiceHandler", (_ServiceHandler,), {"service": service}
    )
    server = ThreadingHTTPServer((host, port), handler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    # Joinable handle so callers can block until /v1/shutdown lands.
    server.serve_thread = thread  # type: ignore[attr-defined]
    return server


__all__ = [
    "JOURNAL_NAME",
    "ExperimentService",
    "PlannedJob",
    "SweepPlan",
    "plan_sweep",
    "serve_http",
]
