"""The experiment service: batch submission over HTTP, JSONL streaming.

:class:`ExperimentService` wraps the runtime's long-lived half: one
journalled :class:`~repro.runtime.queue.JobQueue`, one
:class:`~repro.runtime.scheduler.Scheduler` dispatching on a background
thread with a warm pool, one segment-backed
:class:`~repro.runtime.cache.ResultCache`, and one
:class:`~repro.runtime.perf.PerfStore` — all rooted under the cache
dir.  Batches submitted from any thread coalesce by spec hash (both
within and *across* batches: two clients submitting the same spec get
one execution and two streamed results).

:func:`serve_http` exposes it over a thin stdlib HTTP API:

* ``POST /v1/submit``  — ``{"specs": [spec-dict, ...], "priority": 0}``
  → batch summary (id, dedup/cached counts);
* ``POST /v1/sweep``   — a sweep request (see :func:`plan_sweep`)
  lowered into a warm-up DAG before submission;
* ``GET /v1/stream/<batch-id>`` — one JSONL line per finished run
  (result payload included), then a summary line; the response is
  connection-close delimited, so ``curl -N`` tails it live;
* ``GET /v1/status``   — queue/cache/scheduler counters;
* ``GET /v1/metrics``  — the live metrics plane: Prometheus text
  exposition (queue depth, per-pool in-flight, retry/timeout/crash
  counters, cache hit ratio, events/sec EWMA, store gauges);
* ``POST /v1/shutdown`` — drain and stop.

Every batch gets a deterministic distributed-trace id (salted with the
batch id); job/queue-wait/exec lifecycle spans land as
``<trace_id>.lifecycle.jsonl`` under the obs dir, reassembled by
``emptcp-repro trace tree`` — see docs/OBSERVABILITY.md.

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
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from queue import Empty, Queue as _EventQueue
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs import ObsOptions
from repro.obs import dist as _dist
from repro.obs.prom import MetricFamily, registry_families, render_prometheus
from repro.runtime import clock
from repro.runtime.cache import DEFAULT_CACHE_ROOT, ResultCache
from repro.runtime.perf import PerfStore
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


@dataclass
class _Batch:
    """Server-side bookkeeping for one submitted batch."""

    batch_id: str
    labels: List[str]
    hashes: List[str]
    created_t: float
    trace_id: str = ""
    events: "_EventQueue[Dict[str, Any]]" = field(
        default_factory=_EventQueue
    )
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: Job events counted into ``outcomes`` (the callback that counts
    #: the last one closes the batch-root lifecycle span).
    counted: int = 0
    #: Job events enqueued on ``events``; ``done`` turns true under the
    #: service lock together with the last enqueue.
    finished: int = 0

    @property
    def total(self) -> int:
        return len(self.labels)

    @property
    def done(self) -> bool:
        return self.finished >= self.total

    def describe(self) -> Dict[str, Any]:
        return {
            "batch": self.batch_id,
            "total": self.total,
            "finished": self.finished,
            "outcomes": dict(self.outcomes),
            "done": self.done,
            "trace_id": self.trace_id,
        }


class ExperimentService:
    """The long-lived runtime: journalled queue + warm scheduler.

    Thread model: HTTP handler threads call :meth:`submit_batch` /
    :meth:`stream_batch` / :meth:`status`; the scheduler's dispatcher
    loop runs on a background thread; the queue mediates (it is the
    only structure both sides touch, and it locks internally).  The
    result cache is touched only from the scheduler side.
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
        self.perf_store = PerfStore(self.cache_dir / "perf")
        self.queue = JobQueue(
            journal=self.cache_dir / JOURNAL_NAME if journal else None
        )
        self.obs = obs
        #: Lifecycle spans are always on for the service (they are per
        #: job, not per event — cheap); run-level obs capture follows
        #: ``obs``.  Both land under the obs dir so ``trace tree`` sees
        #: one correlated directory.
        self.obs_dir = (
            Path(obs.dir) if obs is not None else self.cache_dir / "obs"
        )
        self.recorder = _dist.SpanRecorder(sink_dir=self.obs_dir)
        self.scheduler = Scheduler(
            jobs=jobs,
            retry=RetryPolicy(retries=retries),
            timeout=TimeoutPolicy(timeout_s),
            obs=obs,
            cache=self.cache,
            perf_store=self.perf_store,
        )
        self.scheduler.recorder = self.recorder
        self.scheduler.flight_dir = self.cache_dir / "flight"
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._batches: Dict[str, _Batch] = {}
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

    def _parse_specs(self, spec_dicts: List[Dict[str, Any]]) -> List[RunSpec]:
        specs = [RunSpec.from_dict(doc) for doc in spec_dicts]
        if not specs:
            raise ConfigurationError("batch has no specs")
        if self.verify:
            from repro.check.config import verify_specs

            report = verify_specs(specs)
            if not report.ok:
                raise ConfigurationError(
                    "batch rejected by pre-dispatch verification:\n"
                    + "\n".join(
                        f.format()
                        for f in report.sorted_findings()
                        if f.severity.value == "error"
                    )
                )
        return specs

    def _submit(
        self,
        specs: List[RunSpec],
        priority: int = 0,
        after: Optional[List[Tuple[str, ...]]] = None,
    ) -> Dict[str, Any]:
        with self._lock:
            self._batch_seq += 1
            batch_id = f"b{self._batch_seq:05d}"
            hashes = [spec.content_hash() for spec in specs]
            # Salted with the batch id: resubmitting the same specs in
            # a later batch gets its own trace (cross-batch dedup means
            # the later trace may have no exec spans — the first batch
            # owns the execution).
            root_ctx = _dist.root_context(hashes, salt=batch_id)
            batch = _Batch(
                batch_id=batch_id,
                labels=[spec.label for spec in specs],
                hashes=hashes,
                created_t=clock.now(),
                trace_id=root_ctx.trace_id,
            )
            self._batches[batch.batch_id] = batch
        fresh_count = 0
        for index, spec in enumerate(specs):
            deps = after[index] if after is not None else ()
            job, fresh = self.queue.submit(
                spec, priority=priority, after=deps,
                ctx=root_ctx.child(_dist.SPAN_JOB, batch.hashes[index]),
            )
            fresh_count += 1 if fresh else 0
            callback = self._make_callback(batch, index, fresh)
            if not self.queue.subscribe(job, callback):
                callback(job)  # already terminal: emit immediately
        self.scheduler.kick()
        summary = batch.describe()
        summary.update({"submitted": len(specs), "fresh": fresh_count,
                        "coalesced": len(specs) - fresh_count})
        return summary

    def _make_callback(self, batch: _Batch, index: int, fresh: bool) -> Any:
        def _on_done(job: Job) -> None:
            if job.state == "failed":
                outcome = "failed"
            elif fresh:
                outcome = job.outcome  # "executed" | "cached"
            else:
                # This submission coalesced onto someone else's job (or
                # onto an already-finished one): it never executed.
                outcome = "cached" if job.outcome == "cached" else "deduped"
            event: Dict[str, Any] = {
                "event": "job",
                "batch": batch.batch_id,
                "index": index,
                "label": batch.labels[index],
                "hash": job.spec_hash,
                "outcome": outcome,
                "wall_s": job.wall_s,
                "attempts": job.attempts,
                "worker": job.worker,
            }
            if job.state == "failed":
                event["error"] = str(job.error)
            elif job.result is not None:
                try:
                    event["result"] = get_builder(job.spec.builder).encode(
                        job.result
                    )
                except Exception:
                    event["result"] = None
            with self._lock:
                batch.outcomes[outcome] = batch.outcomes.get(outcome, 0) + 1
                batch.counted += 1
                record_root = batch.counted == batch.total
            # Close the root span and flush telemetry *before* the
            # batch turns done, so a status()/scrape racing the last
            # callback sees them.
            if record_root:
                self._record_batch_root(batch)
                # One durable store-telemetry snapshot per batch, same
                # as the batch runtime's run_batch() path.
                self.scheduler.flush_telemetry(self.queue)
            # Enqueue and count in one critical section: a stream that
            # sees ``done`` under the lock also sees every event queued.
            with self._lock:
                batch.events.put(event)
                batch.finished += 1

        return _on_done

    def _record_batch_root(self, batch: _Batch) -> None:
        """Close the batch's root lifecycle span (submission → last
        job terminal).  Job spans are recorded before their jobs turn
        terminal, so the root always ends last."""
        failed = batch.outcomes.get("failed", 0)
        self.recorder.record(_dist.LifecycleSpan(
            trace_id=batch.trace_id,
            span_id=_dist.span_id_for(batch.trace_id, _dist.SPAN_BATCH),
            parent_span_id="",
            name=_dist.SPAN_BATCH,
            start_t=batch.created_t,
            end_t=clock.now(),
            status="failed" if failed else "ok",
            attrs={
                "batch": batch.batch_id,
                "jobs": batch.total,
                "outcomes": dict(batch.outcomes),
            },
        ))

    def submit_batch(
        self, spec_dicts: List[Dict[str, Any]], priority: int = 0
    ) -> Dict[str, Any]:
        """Validate, verify, and enqueue a batch of spec dicts."""
        return self._submit(self._parse_specs(spec_dicts), priority=priority)

    def submit_sweep(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Lower a sweep request into its DAG and enqueue it."""
        plan = plan_sweep(request)
        specs = [job.spec for job in plan.jobs]
        if self.verify:
            self._parse_specs([spec.to_dict() for spec in specs])
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

    def get_batch(self, batch_id: str) -> _Batch:
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
        deadline = clock.monotonic() + timeout_s
        yielded = 0
        while True:
            with self._lock:
                drained = batch.done and batch.events.qsize() == 0
            if drained:
                break
            try:
                yield batch.events.get(timeout=0.2)
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

    def batch_status(self, batch_id: str) -> Dict[str, Any]:
        return self.get_batch(batch_id).describe()

    def status(self) -> Dict[str, Any]:
        """Queue/cache/scheduler counters for ``GET /v1/status``."""
        stats = self.cache.stats()
        with self._lock:
            batches = {
                batch_id: batch.describe()
                for batch_id, batch in self._batches.items()
            }
        try:
            snapshots = self.perf_store.cache_telemetry()
        except (OSError, ValueError):
            snapshots = []
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
            "spans_recorded": self.recorder.recorded,
            "events_per_sec_ewma": self.scheduler.events_ewma,
            "batches": batches,
        }

    # -- metrics plane ----------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition document for ``GET /v1/metrics``.

        Series: queue lifetime counters and depth, per-pool in-flight
        gauges, the scheduler's retry/timeout/crash/cache counters,
        result-store telemetry with a derived hit ratio, store size
        gauges, the events/sec EWMA, and recorder/batch totals.
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
                "repro_spans_recorded_total",
                "counter",
                "lifecycle spans recorded",
            ).add(float(self.recorder.recorded))
        )
        families.append(
            MetricFamily(
                "repro_uptime_seconds", "gauge", "service uptime"
            ).add(max(0.0, clock.now() - self._started_t))
        )
        return render_prometheus(families)


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
