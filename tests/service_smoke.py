"""End-to-end checks of a live experiment service over real HTTP.

Two modes, driven by the ``service-smoke`` and ``obs-smoke`` Makefile
targets::

    PYTHONPATH=src python tests/service_smoke.py smoke \\
        --cache-dir .service-smoke --size-mb 1 --jobs 2
    PYTHONPATH=src python tests/service_smoke.py obs \\
        --cache-dir .obs-smoke --size-mb 2 --jobs 2

``smoke`` submits the same 3-spec batch twice: the cold batch must
stream every result, and the warm resubmit must be satisfied entirely
from the cache or queue dedup (zero executions), with a clean shutdown.

``obs`` serves with run capture on, scrapes ``/v1/metrics`` cold,
drives a multi-job sweep through ``/v1/sweep``, then asserts the
queue/scheduler/batch series moved, every stream job event carries its
queue wait (``wait_s``), and each executed job's run record is found
by its spec hash under the obs dir.

Each mode prints what it saw and exits 1 with one ``FAIL`` line per
broken expectation.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import ObsOptions
from repro.obs.prom import parse_prometheus
from repro.runtime.service import ExperimentService, serve_http
from repro.runtime.spec import RunSpec
from repro.units import mib


def fetch(method: str, url: str, payload=None) -> dict:
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read().decode())


def stream(url: str) -> list:
    events = []
    with urllib.request.urlopen(url, timeout=120) as resp:
        for raw in resp:
            raw = raw.strip()
            if raw:
                events.append(json.loads(raw.decode()))
    return events


def scrape(url: str) -> Dict[str, list]:
    with urllib.request.urlopen(url, timeout=60) as resp:
        return parse_prometheus(resp.read().decode())


def series_value(series: Dict[str, list], name: str) -> float:
    """The first sample of one Prometheus series (0.0 when absent)."""
    samples = series.get(name, [])
    return samples[0][1] if samples else 0.0


def service_smoke(args) -> List[str]:
    specs = [
        RunSpec(
            protocol="emptcp",
            builder="static",
            kwargs={"good_wifi": True, "download_bytes": mib(args.size_mb)},
            seed=seed,
            engine="fluid",
        ).to_dict()
        for seed in range(3)
    ]
    failures: List[str] = []
    with ExperimentService(
        Path(args.cache_dir), jobs=args.jobs, timeout_s=args.timeout
    ) as service:
        server = serve_http(service)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        for phase in ("cold", "warm"):
            summary = fetch("POST", f"{base}/v1/submit", {"specs": specs})
            events = stream(f"{base}/v1/stream/{summary['batch']}")
            jobs = [e for e in events if e.get("event") == "job"]
            tail = events[-1] if events else {}
            outcomes = tail.get("outcomes", {})
            print(f"{phase}: batch {summary['batch']} outcomes {outcomes}")
            if len(jobs) != len(specs):
                failures.append(
                    f"{phase}: streamed {len(jobs)} job events, "
                    f"expected {len(specs)}"
                )
            if tail.get("event") != "summary" or not tail.get("done"):
                failures.append(
                    f"{phase}: stream did not end in a finished summary"
                )
            if any(e.get("result") is None for e in jobs):
                failures.append(f"{phase}: a job event carried no result")
            if phase == "warm":
                executed = outcomes.get("executed", 0)
                hits = outcomes.get("cached", 0) + outcomes.get("deduped", 0)
                if executed:
                    failures.append(
                        f"warm resubmit executed {executed} run(s); "
                        f"expected every run cache/dedup-satisfied"
                    )
                if hits != len(specs):
                    failures.append(
                        f"warm resubmit had {hits} cache/dedup hits, "
                        f"expected {len(specs)}"
                    )
        status = fetch("GET", f"{base}/v1/status")
        if status.get("open_jobs") != 0:
            failures.append(
                f"{status.get('open_jobs')} job(s) still open after "
                f"both batches drained"
            )
        fetch("POST", f"{base}/v1/shutdown")
        server.serve_thread.join(timeout=30)
        if server.serve_thread.is_alive():
            failures.append("HTTP thread still alive after /v1/shutdown")
    if not failures:
        print("service smoke OK: cold batch executed, warm batch fully "
              "cache/dedup-satisfied, stream and shutdown clean")
    return failures


def obs_smoke(args) -> List[str]:
    failures: List[str] = []
    obs_dir = Path(args.obs_dir or Path(args.cache_dir) / "obs")
    obs = ObsOptions(dir=str(obs_dir), trace=True, metrics=False,
                     profile=args.profile)
    with ExperimentService(
        Path(args.cache_dir), jobs=args.jobs, timeout_s=args.timeout, obs=obs,
    ) as service:
        server = serve_http(service)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        cold = scrape(f"{base}/v1/metrics")
        sweep = fetch("POST", f"{base}/v1/sweep", {
            "builder": "static",
            "parameter": "tau_seconds",
            "values": [3.0, 6.0],
            "kwargs": {"good_wifi": True,
                       "download_bytes": mib(args.size_mb)},
        })
        events = stream(f"{base}/v1/stream/{sweep['batch']}")
        jobs = [e for e in events if e.get("event") == "job"]
        tail = events[-1] if events else {}
        if not tail.get("done"):
            failures.append("stream did not end in a finished summary")
        warm = scrape(f"{base}/v1/metrics")
        for name in ("repro_queue_submitted_total",
                     "repro_scheduler_jobs_done_total",
                     "repro_batches_total"):
            before, after = series_value(cold, name), series_value(warm, name)
            if not after > before:
                failures.append(
                    f"{name} did not increase across the batch "
                    f"({before} -> {after})"
                )
        fetch("POST", f"{base}/v1/shutdown")
        server.serve_thread.join(timeout=30)

    if len(jobs) != tail.get("total"):
        failures.append(f"streamed {len(jobs)} job events, summary counts "
                        f"{tail.get('total')}")
    for job in jobs:
        wait_s = job.get("wait_s")
        if not isinstance(wait_s, float) or wait_s < 0.0:
            failures.append(f"job {job.get('hash')}: wait_s {wait_s!r}")
            continue
        record = obs_dir / f"{job.get('hash')}.trace.jsonl"
        if job.get("outcome") == "executed" and not record.is_file():
            failures.append(f"job {job.get('hash')}: no run record {record}")
        print(f"{job.get('hash')} {job.get('outcome')}: "
              f"wait {wait_s:.3f}s, wall {job.get('wall_s', 0.0):.3f}s")
    if not failures:
        print("obs smoke OK: metrics moved across the batch, every job "
              "event carries its queue wait, run records found by hash")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("smoke", "obs"))
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--obs-dir", default=None,
                        help="obs mode: export dir (default <cache-dir>/obs)")
    parser.add_argument("--size-mb", type=float, default=1.0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--profile", action="store_true", default=False)
    args = parser.parse_args(argv)
    smoke, label = {
        "smoke": (service_smoke, "service smoke"),
        "obs": (obs_smoke, "obs smoke"),
    }[args.mode]
    failures = smoke(args)
    for failure in failures:
        print(f"{label} FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
