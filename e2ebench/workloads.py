"""The benchmark's four workloads.

Each is driven by one closed-loop client (the next op starts when the
previous one has finished) and returns a :class:`Outcome`.  Set-up is
measured in fresh processes; see README.md for what each op is and
why each workload was chosen.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import checks
import harness
import layers
from harness import TimedLoop

#: Fresh-process set-up samples per run; set-up_s is their median.
SETUP_SAMPLES = 5

#: Download size of every packet-engine op (the Fig 5/6 scenarios at
#: a size that keeps one op near 0.1-0.3 s).
PACKET_MIB = 2
PACKET_PROTOCOLS = ("emptcp", "mptcp", "tcp-wifi")

#: The service sweeps: one parameter per op, cycling in this order,
#: two seeds x (one warm-up + nine variants) = 20 jobs per op.
SWEEP_VALUES: Dict[str, List[float]] = {
    "kappa_bytes": [100_000.0 * (k + 1) for k in range(9)],
    "tau_seconds": [0.5 * (k + 1) for k in range(9)],
    "safety_factor": [0.02 * (k + 1) for k in range(9)],
}
SWEEP_PARAMS = tuple(SWEEP_VALUES)
SWEEP_SEEDS = 2
SWEEP_BASE_BYTES = 256 * 1024
SERVICE_JOBS = 2
#: The service keeps every batch it has seen, so its memory grows with
#: the ops a run manages; peak RSS is read once this many ops are done.
SERVICE_RSS_AT_OPS = 100


@dataclass
class Outcome:
    """What a workload run produced, before it is printed."""

    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, Tuple[float, str]]
    #: Per-op latencies and run facts for the steadiness command.
    detail: Dict[str, Any] = field(default_factory=dict)


def _median_setup(sample: Callable[[], float], samples: int) -> float:
    return statistics.median(sample() for _ in range(samples))


def _split(seconds: float, trace: bool) -> Tuple[float, float]:
    """(untraced, traced) seconds of a run's timed phase."""
    return (seconds / 2, seconds / 2) if trace else (seconds, 0.0)


def _overhead_pct(plain: TimedLoop, traced: TimedLoop) -> float:
    base = plain.cpu_s / plain.ops
    return ((traced.cpu_s / traced.ops) - base) / base * 100.0


def _host_ref_ms(*loops: TimedLoop) -> float:
    return statistics.median(ms for loop in loops for ms in loop.ref_ms)


def _detail(loop: TimedLoop, **extra: Any) -> Dict[str, Any]:
    return {"op_ms": loop.op_ms, "host_ref_ms": loop.ref_ms, **extra}


# -- report-cold / report-warm ----------------------------------------


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _traced_cli(trace_out: Path, *args: str) -> List[str]:
    return [sys.executable, str(harness.BENCH_DIR / "traced_cli.py"),
            str(trace_out), *args]


def _list_start_s(scratch: Path) -> float:
    code, wall, _rss = harness.run_child(
        _cli("list"), stdout_path=scratch / "list.out",
        stderr_path=scratch / "list.err")
    if code != 0:
        raise harness.BenchError(f"`list` exited {code}")
    return wall


class _ReportClient:
    """Runs ``report`` processes and keeps what the checks need."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.count = 0
        self.reports: List[str] = []
        self.manifests: List[List[Dict[str, Any]]] = []
        self.rss_mb = 0.0
        self.traced: Dict[str, Any] = {}
        self.traced_wall_ms: List[float] = []
        self.errors: List[str] = []

    def run(self, cache_dir: Path, traced: bool) -> bool:
        self.count += 1
        out = self.scratch / f"report-{self.count}.md"
        err = self.scratch / f"report-{self.count}.err"
        trace_out = self.scratch / f"trace-{self.count}.json"
        args = ("report", "--cache-dir", str(cache_dir))
        argv = _traced_cli(trace_out, *args) if traced else _cli(*args)
        code, wall, rss = harness.run_child(
            argv, stdout_path=out, stderr_path=err)
        self.rss_mb = max(self.rss_mb, rss)
        if code != 0:
            self.errors.append(f"report exited {code}: "
                               f"{err.read_text()[-500:]}")
            return False
        self.reports.append(out.read_text())
        self.manifests.append(
            checks.read_manifest(cache_dir / "last-run.jsonl"))
        if traced:
            layers.merge(self.traced, json.loads(trace_out.read_text()))
            self.traced_wall_ms.append(wall * 1e3)
        return True


def _report_workload(seconds: float, trace: bool, warm: bool) -> Outcome:
    plain_s, traced_s = _split(seconds, trace)
    with harness.scratch_dir("report-warm" if warm else "report-cold") as tmp:
        _list_start_s(tmp)  # untimed: byte-compiles the sources once
        setup_s = 0.0 if trace else _median_setup(
            lambda: _list_start_s(tmp), SETUP_SAMPLES)
        client = _ReportClient(tmp)
        cold_text = ""
        if warm:
            cache = tmp / "cache"
            if not client.run(cache, traced=False):
                raise harness.BenchError("; ".join(client.errors))
            cold_text = client.reports.pop()
            problems = checks.check_cold_manifest(client.manifests.pop())
            if problems:
                raise harness.BenchError("warm-up report: " + problems[0])
            client.rss_mb = 0.0

        def rounds(traced: bool):
            def op() -> bool:
                cache_dir = (tmp / "cache" if warm
                             else tmp / f"cache-{client.count + 1}")
                return client.run(cache_dir, traced)
            return lambda _i: [op]

        plain = TimedLoop(plain_s)
        plain.run(rounds(False))
        traced_loop = None
        if trace:
            traced_loop = TimedLoop(traced_s)
            traced_loop.run(rounds(True))

        problems = list(client.errors)
        for text, manifest in zip(client.reports, client.manifests):
            if warm:
                problems += checks.check_warm(cold_text, text, manifest)
            else:
                problems += checks.check_report(text)
                problems += checks.check_cold_manifest(manifest)
        loops = [plain] + ([traced_loop] if traced_loop else [])
        attempted = sum(loop.ops for loop in loops)
        failed = sum(loop.failed for loop in loops)
        if traced_loop is not None:
            ops = len(client.traced_wall_ms)
            op_ms = statistics.mean(client.traced_wall_ms)
            self_sum = sum(client.traced.get("self_ms", {}).values()) / ops
            metrics = layers.per_layer_metrics(client.traced, ops, {
                "trace.op_ms": op_ms,
                "trace.self_sum_pct": self_sum / op_ms * 100.0,
                "trace.overhead_pct": _overhead_pct(plain, traced_loop),
                "host.ref_ms": _host_ref_ms(plain, traced_loop),
            })
        else:
            metrics = harness.end_to_end(plain, setup_s, client.rss_mb)
        return Outcome(attempted, failed, problems, metrics, _detail(plain))


def report_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    return _report_workload(seconds, trace, warm=False)


def report_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    return _report_workload(seconds, trace, warm=True)


# -- packet-static ----------------------------------------------------


def packet_setup() -> None:
    """Imports plus one small run per protocol and WiFi quality, so
    every lazy table (EIB, registry, builders) exists before op one."""
    harness.import_program()
    from repro.runtime.spec import RunSpec

    for good in (True, False):
        for protocol in PACKET_PROTOCOLS:
            RunSpec(protocol=protocol, builder="static", engine="packet",
                    kwargs={"good_wifi": good, "download_bytes": 65536.0,
                            "lte_mbps": 10.0}).execute()


def _packet_round(seed: int, index: int) -> List[Tuple[bool, str, int]]:
    rng = random.Random(f"packet-static:{seed}:{index}")
    cases = [(good, protocol, rng.randrange(1_000_000))
             for good in (True, False) for protocol in PACKET_PROTOCOLS]
    rng.shuffle(cases)
    return cases


def packet_static(seed: int, seconds: float, trace: bool) -> Outcome:
    plain_s, traced_s = _split(seconds, trace)
    setup_s = 0.0 if trace else _median_setup(
        lambda: harness.probe_ready_s(
            [sys.executable, str(harness.BENCH_DIR / "probe.py"),
             "packet-static"]), SETUP_SAMPLES)
    packet_setup()
    from repro.experiments import static_bw
    from repro.runtime.spec import RunSpec
    from repro.units import mib

    size = mib(PACKET_MIB)
    done: List[Tuple[RunSpec, Any]] = []

    def spec_for(good: bool, protocol: str, run_seed: int,
                 engine: str) -> RunSpec:
        return RunSpec(protocol=protocol, builder="static", seed=run_seed,
                       engine=engine,
                       kwargs={"good_wifi": good, "download_bytes": size,
                               "lte_mbps": static_bw.LAB_LTE_MBPS})

    def rounds(index: int) -> List[Callable[[], bool]]:
        def make(case: Tuple[bool, str, int]) -> Callable[[], bool]:
            def op() -> bool:
                spec = spec_for(*case, engine="packet")
                done.append((spec, spec.execute()))
                return True
            return op
        return [make(case) for case in _packet_round(seed, index)]

    plain = TimedLoop(plain_s)
    plain.run(rounds)
    traced_loop, traced = None, {}
    if trace:
        traced_loop = TimedLoop(traced_s)
        tracer = layers.Tracer(harness.SRC)
        tracer.start()
        try:
            traced_loop.run(rounds)
        finally:
            tracer.stop()
        traced = tracer.snapshot()

    problems: List[str] = []
    for spec, result in done:
        good = spec.kwargs["good_wifi"]
        fluid = spec_for(good, spec.protocol, spec.seed, "fluid").execute()
        problems += checks.check_packet(
            spec.protocol, good, size,
            static_bw.GOOD_WIFI_MBPS if good else static_bw.BAD_WIFI_MBPS,
            static_bw.LAB_LTE_MBPS, result, fluid)
    loops = [plain] + ([traced_loop] if traced_loop else [])
    if traced_loop is not None:
        ops = traced_loop.ops
        op_ms = statistics.mean(traced_loop.op_ms)
        self_sum = sum(traced["self_ms"].values()) / ops
        metrics = layers.per_layer_metrics(traced, ops, {
            "trace.op_ms": op_ms,
            "trace.self_sum_pct": self_sum / op_ms * 100.0,
            "trace.overhead_pct": _overhead_pct(plain, traced_loop),
            "host.ref_ms": _host_ref_ms(plain, traced_loop),
        })
    else:
        metrics = harness.end_to_end(plain, setup_s,
                                     harness.peak_rss_mb(False))
    return Outcome(sum(loop.ops for loop in loops),
                   sum(loop.failed for loop in loops), problems, metrics,
                   _detail(plain))


# -- service-sweep ----------------------------------------------------


class ServiceHandle:
    """A live ExperimentService behind ``serve_http`` in this process."""

    def __init__(self, cache_dir: Path):
        harness.import_program()
        from repro.runtime.service import ExperimentService, serve_http

        self.service = ExperimentService(cache_dir=cache_dir,
                                         jobs=SERVICE_JOBS).start()
        self.server = serve_http(self.service)
        self.port = self.server.server_address[1]
        # Pool warm-up: both workers fork, import and build their
        # tables on a sweep no timed op uses.
        client = SweepClient(self.port)
        client.sweep(_sweep_request(0, -1, 0))

    def metrics(self) -> Dict[str, float]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/v1/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        out = {}
        for line in text.splitlines():
            if line.startswith("repro_scheduler_") and " " in line:
                name, value = line.rsplit(" ", 1)
                out[name] = float(value)
        return out

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.stop()


def _sweep_request(seed: int, index: int, offset: int) -> Dict[str, Any]:
    """Op ``index``'s sweep; its download size is used by no other op
    (index -1 is the set-up warm-up)."""
    rng = random.Random(f"service-sweep:{seed}:{index}")
    param = SWEEP_PARAMS[index % len(SWEEP_PARAMS)]
    return {
        "builder": "static",
        "parameter": param,
        "values": SWEEP_VALUES[param],
        "runs": SWEEP_SEEDS,
        "protocol": "emptcp",
        "kwargs": {"good_wifi": rng.random() < 0.5,
                   "download_bytes": float(SWEEP_BASE_BYTES
                                           + 64 * (offset + index + 1)),
                   "lte_mbps": 10.0},
    }


class SweepClient:
    """One client: POST /v1/sweep, then read /v1/stream/<batch>."""

    #: Re-reads of a stream that ended short of its summary's count.
    RECOVER_TRIES = 100

    def __init__(self, port: int):
        self.port = port
        self.submit_ms: List[float] = []
        self.first_event_ms: List[float] = []
        self.stream_ms: List[float] = []
        self.lost_events = 0

    def _get_stream(self, batch: str) -> Tuple[List[Dict[str, Any]], float]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            start = time.perf_counter()
            conn.request("GET", f"/v1/stream/{batch}")
            resp = conn.getresponse()
            events, first = [], 0.0
            for line in resp:
                if not events:
                    first = time.perf_counter() - start
                events.append(json.loads(line))
        finally:
            conn.close()
        return events, first

    def sweep(self, request: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Run one sweep; returns its job events."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            start = time.perf_counter()
            conn.request("POST", "/v1/sweep", json.dumps(request),
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            summary = json.loads(resp.read())
            submitted = time.perf_counter()
        finally:
            conn.close()
        if resp.status != 200:
            raise harness.BenchError(f"sweep refused: {summary}")
        events, first = self._get_stream(summary["batch"])
        jobs = [e for e in events if e.get("event") == "job"]
        total = events[-1].get("total", 0) if events else 0
        if len(jobs) < total:
            # The stream ended before a job event it counted in its
            # summary was queued (README, "Known fault"); the event
            # arrives on a later read of the same stream.
            self.lost_events += total - len(jobs)
            for _ in range(self.RECOVER_TRIES):
                time.sleep(0.01)
                more, _first = self._get_stream(summary["batch"])
                jobs += [e for e in more if e.get("event") == "job"]
                if len(jobs) >= total:
                    break
        end = time.perf_counter()
        self.submit_ms.append((submitted - start) * 1e3)
        self.first_event_ms.append(first * 1e3)
        self.stream_ms.append((end - submitted) * 1e3)
        return jobs


def _expected_specs(request: Dict[str, Any]) -> List[Any]:
    """The runs a sweep request asks for, built by the benchmark."""
    from repro.runtime.spec import RunSpec

    specs = []
    for run_seed in range(request["runs"]):
        base = dict(protocol=request["protocol"], builder=request["builder"],
                    kwargs=dict(request["kwargs"]), seed=run_seed)
        specs.append(RunSpec(**base))
        specs += [RunSpec(**base, config={request["parameter"]: value})
                  for value in request["values"]]
    return specs


def check_sweeps(done: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]]
                 ) -> Tuple[List[str], int]:
    """Recompute every run of every sweep in-process and compare.

    Returns (problems, ops whose stream lacked a job event).
    """
    from repro.runtime.spec import get_builder

    problems: List[str] = []
    short = 0
    for request, jobs in done:
        expected = {}
        for spec in _expected_specs(request):
            result = get_builder(spec.builder).encode(spec.execute())
            expected[spec.content_hash()] = checks.canonical(result)
        found = checks.check_stream(expected, jobs)
        if any("missing from the stream" in p for p in found):
            short += 1
        problems += [p for p in found if "missing from the stream" not in p]
    return problems, short


def attribute_workers(done: List[Tuple[Dict[str, Any],
                                        List[Dict[str, Any]]]]
                      ) -> Dict[str, Any]:
    """Trace data standing for the pool workers of the traced ops.

    The workers fork from the traced service's scheduler thread and so
    run under its profiler, but their profiles stay in their processes.
    Every run of those ops is therefore replayed in-process through the
    entry point a pool worker calls, under the same seams and the same
    (CPU-time) profiler.
    """
    from repro.runtime.scheduler import _worker_run

    specs = [spec for request, _jobs in done
             for spec in _expected_specs(request)]
    tracer = layers.Tracer(harness.SRC, time.thread_time)
    tracer.start()
    try:
        for spec in specs:
            _worker_run(spec.to_dict(), None)
    finally:
        tracer.stop()
    return tracer.snapshot()


def service_sweep(seed: int, seconds: float, trace: bool) -> Outcome:
    plain_s, traced_s = _split(seconds, trace)
    setup_s = 0.0 if trace else _median_setup(
        lambda: harness.probe_ready_s(
            [sys.executable, str(harness.BENCH_DIR / "probe.py"),
             "service-sweep"]), SETUP_SAMPLES)
    offset = random.Random(f"service-sweep:{seed}").randrange(4096)
    with harness.scratch_dir("service-sweep") as tmp:
        handle = ServiceHandle(tmp / "cache")
        client = SweepClient(handle.port)
        plain_done: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]] = []
        traced_done: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]] = []
        next_index = [0]
        rss_mb = [0.0]

        def rounds(sink):
            def make(index: int) -> Callable[[], bool]:
                def op() -> bool:
                    request = _sweep_request(seed, index, offset)
                    sink.append((request, client.sweep(request)))
                    if index + 1 == SERVICE_RSS_AT_OPS:
                        rss_mb[0] = harness.peak_rss_mb()
                    return True
                return op

            def one_round(_i: int) -> List[Callable[[], bool]]:
                first = next_index[0]
                next_index[0] += len(SWEEP_PARAMS)
                return [make(first + k) for k in range(len(SWEEP_PARAMS))]
            return one_round

        try:
            plain = TimedLoop(plain_s)
            plain.run(rounds(plain_done))
            if not rss_mb[0]:
                rss_mb[0] = harness.peak_rss_mb()
        finally:
            handle.close()
        traced_loop, traced, sched = None, {}, {}
        if trace:
            # A second service, started under tracing: the profiler only
            # reaches threads started after it, and the service's
            # scheduler thread starts with the service.
            tracer = layers.Tracer(harness.SRC, time.thread_time)
            tracer.start()
            try:
                handle = ServiceHandle(tmp / "cache-traced")
                try:
                    tracer.reset()
                    client.port = handle.port
                    client.submit_ms, client.first_event_ms = [], []
                    client.stream_ms = []
                    before = handle.metrics()
                    traced_loop = TimedLoop(traced_s)
                    traced_loop.run(rounds(traced_done))
                    after = handle.metrics()
                    # Before close(): shutting down is not an op's work.
                    traced = tracer.snapshot()
                finally:
                    handle.close()
            finally:
                tracer.stop()
            sched = {k: after[k] - before.get(k, 0.0) for k in after}

        problems, short = check_sweeps(plain_done + traced_done)
        if trace:
            layers.merge(traced, attribute_workers(traced_done))
    loops = [plain] + ([traced_loop] if traced_loop else [])
    if traced_loop is not None:
        ops = traced_loop.ops
        op_cpu_ms = traced_loop.cpu_s * 1e3 / ops
        self_sum = sum(traced["self_ms"].values()) / ops

        def per_op(name: str) -> float:
            return sched.get(f"repro_scheduler_{name}_total", 0.0) / ops

        metrics = layers.per_layer_metrics(traced, ops, {
            "service.submit_ms": statistics.mean(client.submit_ms),
            "service.first_event_ms": statistics.mean(client.first_event_ms),
            "service.stream_ms": statistics.mean(client.stream_ms),
            "service.lost_events": float(client.lost_events),
            "scheduler.jobs_done": per_op("jobs_done"),
            "scheduler.jobs_failed": per_op("jobs_failed"),
            "scheduler.retries": per_op("retries"),
            "trace.op_ms": op_cpu_ms,
            "trace.self_sum_pct": self_sum / op_cpu_ms * 100.0,
            "trace.overhead_pct": _overhead_pct(plain, traced_loop),
            "host.ref_ms": _host_ref_ms(plain, traced_loop),
        })
    else:
        metrics = harness.end_to_end(plain, setup_s, rss_mb[0])
    return Outcome(sum(loop.ops for loop in loops), short, problems, metrics,
                   _detail(plain, lost_events=client.lost_events))


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "report-cold": report_cold,
    "report-warm": report_warm,
    "packet-static": packet_static,
    "service-sweep": service_sweep,
}
