"""Command-line entry point: regenerate any of the paper's experiments.

Usage::

    emptcp-repro list
    emptcp-repro table2
    emptcp-repro fig5 --runs 3 --size-mb 64
    emptcp-repro fig17 --runs 3

Every command prints the same rows/series the corresponding figure or
table in the paper reports.  Sizes and run counts default to scaled-down
values so the CLI stays interactive; pass paper-scale values to match
§4/§5 exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.report import format_table, print_protocol_summary, relative_to
from repro.analysis.stats import mean
from repro.errors import ConfigurationError, ExecutionError
from repro.experiments import background as bg
from repro.experiments import comparisons, mobility, random_bw, regions, static_bw
from repro.experiments import overheads as ovh
from repro.experiments import handover as handover_exp
from repro.experiments import streaming as stream_exp
from repro.experiments import upload as upload_exp
from repro.experiments import web as web_exp
from repro.experiments import wild as wild_exp
from repro.obs import ObsOptions, iter_trace_files
from repro.obs.summarize import (
    build_timeline,
    format_timeline,
    format_trace_summary,
    summarize_target,
)
from repro.runtime.cache import ResultCache
from repro.runtime.executor import use_runtime
from repro.runtime.manifest import RunManifest, format_summary, summarize
from repro.runtime.progress import auto_reporter
from repro.units import mib


def _cmd_list(_args) -> int:
    for name, doc in sorted(_COMMANDS.items()):
        print(f"{name:10s} {doc[1]}")
    return 0


def _cmd_table1(_args) -> int:
    rows = ovh.table1_rows()
    headers = list(rows[0].keys())
    print(format_table(headers, [[r[h] for h in headers] for r in rows]))
    return 0


def _cmd_table2(_args) -> int:
    rows = regions.table2_rows()
    print(
        format_table(
            ["LTE Mbps", "LTE-only below (ours)", "WiFi-only above (ours)",
             "LTE-only (paper)", "WiFi-only (paper)"],
            [
                [
                    f"{e.cell_mbps:.1f}",
                    f"{e.cellular_only_below:.3f}",
                    f"{e.wifi_only_above:.3f}",
                    f"{regions.TABLE2_PAPER[e.cell_mbps][0]:.3f}",
                    f"{regions.TABLE2_PAPER[e.cell_mbps][1]:.3f}",
                ]
                for e in rows
            ],
        )
    )
    return 0


def _cmd_fig1(_args) -> int:
    print(
        format_table(
            ["device", "interface", "fixed overhead (J)", "paper (J)"],
            [
                [dev, iface, f"{joules:.2f}",
                 f"{ovh.FIGURE1_PAPER.get((dev, iface), float('nan')):.2f}"]
                for dev, iface, joules in ovh.fixed_overheads()
            ],
        )
    )
    return 0


def _cmd_fig3(_args) -> int:
    wifi, lte, grid = regions.figure3_heatmap(step=1.0)
    header = ["LTE\\WiFi"] + [f"{w:.0f}" for w in wifi]
    rows = [
        [f"{lte[i]:.0f}"] + [f"{grid[i][j]:.2f}" for j in range(len(wifi))]
        for i in range(len(lte))
    ]
    print("Per-byte energy of MPTCP / best single path (values < 1: MPTCP wins)")
    print(format_table(header, rows))
    return 0


def _cmd_fig4(_args) -> int:
    for label, bounds in regions.figure4_regions().items():
        print(f"-- {label}: LTE Mbps -> [WiFi lo, WiFi hi] where MPTCP wins")
        for lte_rate, (lo, hi) in sorted(bounds.items()):
            print(f"   {lte_rate:5.2f} -> [{lo:.2f}, {hi:.2f}]")
    return 0


def _run_static(args, good: bool, fig: str) -> int:
    results = static_bw.run_static(
        good, runs=args.runs, download_bytes=mib(args.size_mb),
        engine=args.engine,
    )
    print(print_protocol_summary(f"Figure {fig} ({'good' if good else 'bad'} WiFi, "
                                 f"{args.size_mb} MiB x {args.runs} runs)", results))
    return 0


def _cmd_run(args) -> int:
    """One protocol on the §4.2 static scenario, on any engine."""
    from repro.engines import get_engine
    from repro.runtime.executor import group_results, run_specs

    protocol = args.subcommand or "emptcp"
    wifi = args.target or "good"
    if wifi not in ("good", "bad"):
        print(f"unknown WiFi quality {wifi!r}; choose good or bad",
              file=sys.stderr)
        return 2
    known = get_engine(args.engine).protocols
    if protocol not in known:
        print(f"unknown protocol {protocol!r} for engine {args.engine!r}; "
              f"choose one of {', '.join(known)}", file=sys.stderr)
        return 2
    specs = static_bw.static_specs(
        wifi == "good",
        runs=args.runs,
        download_bytes=mib(args.size_mb),
        protocols=(protocol,),
        engine=args.engine,
    )
    results = group_results(specs, run_specs(specs))
    print(print_protocol_summary(
        f"{protocol} on {wifi} WiFi ({args.engine} engine, "
        f"{args.size_mb} MiB x {args.runs} runs)", results))
    return 0


def _cmd_fig5(args) -> int:
    return _run_static(args, good=True, fig="5")


def _cmd_fig6(args) -> int:
    return _run_static(args, good=False, fig="6")


def _cmd_fig7(args) -> int:
    traces = random_bw.example_trace(download_bytes=mib(args.size_mb))
    for protocol, result in traces.items():
        last = result.energy_series.last
        print(
            f"{protocol:10s} completed t={result.download_time:7.1f}s  "
            f"energy={result.energy_j:7.1f}J  final series point={last}"
        )
    return 0


def _cmd_fig8(args) -> int:
    results = random_bw.run_random_bw(runs=args.runs, download_bytes=mib(args.size_mb))
    print(print_protocol_summary(
        f"Figure 8 (random WiFi bandwidth, {args.size_mb} MiB x {args.runs})", results))
    rel_e = relative_to(results, "mptcp", "energy_j")
    print("relative energy vs MPTCP: "
          + ", ".join(f"{p}={v:.2f}" for p, v in rel_e.items()))
    return 0


def _cmd_fig9(args) -> int:
    traces = bg.example_traces(download_bytes=mib(args.size_mb))
    for protocol, result in traces.items():
        wifi_mb = result.diagnostics.get("wifi_bytes", 0.0) / 1e6
        lte_mb = result.diagnostics.get("lte_bytes", 0.0) / 1e6
        print(f"{protocol:8s} wifi={wifi_mb:7.1f}MB lte={lte_mb:7.1f}MB "
              f"time={result.download_time:6.1f}s energy={result.energy_j:6.1f}J")
    return 0


def _cmd_fig10(args) -> int:
    results = bg.run_background(runs=args.runs, download_bytes=mib(args.size_mb))
    rows = bg.normalize_to_mptcp(results)
    print(format_table(
        ["lambda_off", "n", "protocol", "energy %MPTCP", "time %MPTCP"],
        [[r.lambda_off, r.n, r.protocol, f"{r.energy_pct:6.1f}%", f"{r.time_pct:6.1f}%"]
         for r in rows],
    ))
    return 0


def _cmd_fig12(_args) -> int:
    traces = mobility.example_traces()
    for protocol, result in traces.items():
        print(f"{protocol:10s} energy={result.energy_j:7.1f}J "
              f"downloaded={result.bytes_received / 1e6:7.1f}MB in 250s")
    return 0


def _cmd_fig13(args) -> int:
    results = mobility.run_mobility(runs=args.runs)
    rows = []
    for protocol, runs in results.items():
        jpb = mean([r.joules_per_bit for r in runs]) * 1e6
        data = mean([r.bytes_received for r in runs]) / 1e6
        rows.append([protocol, f"{jpb:8.3f} uJ/bit", f"{data:8.1f} MB"])
    print(format_table(["protocol", "energy per bit", "downloaded (250s)"], rows))
    return 0


def _cmd_fig14(args) -> int:
    traces = wild_exp.collect_traces(
        wild_exp.LARGE_BYTES, n_environments=args.envs
    )
    counts: Dict[str, int] = {}
    for point in wild_exp.scatter_points(traces):
        counts[point["category"]] = counts.get(point["category"], 0) + 1
    print(format_table(["category", "traces"], sorted(counts.items())))
    return 0


def _run_wild(args, size: float, fig: str) -> int:
    traces = wild_exp.collect_traces(size, n_environments=args.envs)
    for metric, unit in (("energy_j", "J"), ("download_time", "s")):
        print(f"Figure {fig} — {metric}")
        summaries = wild_exp.whiskers_by_category(traces, metric)
        rows = []
        for category, by_proto in summaries.items():
            for protocol, w in by_proto.items():
                rows.append([
                    category.value, protocol,
                    f"{w.q1:8.2f}", f"{w.median:8.2f}", f"{w.q3:8.2f}",
                    len(w.outliers),
                ])
        print(format_table(
            ["category", "protocol", f"Q1 ({unit})", f"median ({unit})",
             f"Q3 ({unit})", "outliers"], rows))
    return 0


def _cmd_fig15(args) -> int:
    return _run_wild(args, wild_exp.SMALL_BYTES, "15")


def _cmd_fig16(args) -> int:
    return _run_wild(args, wild_exp.LARGE_BYTES, "16")


def _cmd_fig17(args) -> int:
    results = web_exp.run_web_comparison(runs=args.runs)
    rows = []
    for protocol, web_runs in results.items():
        rows.append([
            protocol,
            f"{mean([r.energy_j for r in web_runs]):7.2f} J",
            f"{mean([r.latency for r in web_runs]):7.2f} s",
            f"{mean([r.lte_bytes for r in web_runs]) / 1e3:8.1f} KB over LTE",
        ])
    print(format_table(["protocol", "energy", "latency", "LTE usage"], rows))
    return 0


def _cmd_sec46(args) -> int:
    print("MDP policy actions chosen:",
          [a.value for a in comparisons.mdp_policy_actions()])
    results = comparisons.run_mobility_comparison(runs=args.runs)
    rows = []
    for protocol, runs in results.items():
        rows.append([
            protocol,
            f"{mean([r.energy_j for r in runs]):7.1f} J",
            f"{mean([r.bytes_received for r in runs]) / 1e6:7.1f} MB",
        ])
    print(format_table(["protocol", "energy (250s walk)", "downloaded"], rows))
    return 0


def _cmd_upload(args) -> int:
    rows = upload_exp.upload_eib_rows()
    print("Upload-direction EIB thresholds (Galaxy S3, LTE):")
    for entry in rows:
        print(f"  LTE {entry.cell_mbps:4.1f}: LTE-only < {entry.cellular_only_below:.3f}, "
              f"WiFi-only >= {entry.wifi_only_above:.3f} Mbps")
    for good, label in ((True, "good"), (False, "bad")):
        results = upload_exp.run_upload(
            good, runs=args.runs, upload_bytes=mib(args.size_mb)
        )
        print(print_protocol_summary(
            f"Upload, {label} WiFi ({args.size_mb} MiB x {args.runs})", results))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report_all import generate_report

    text = generate_report(args.scale)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    sub = args.subcommand or "stats"
    if sub == "stats":
        stats = cache.stats()
        print(f"cache root: {stats.root}")
        print(f"entries:    {stats.entries}")
        print(f"size:       {stats.total_bytes / 1e6:.2f} MB")
        print(f"segments:   {stats.segments}")
        # Durable per-batch store telemetry (one snapshot per batch,
        # appended by the scheduler); the live counters die with each
        # process, so this is the only place cache behaviour over time
        # is visible.
        snapshots = cache.telemetry_snapshots()
        if snapshots:
            last = snapshots[-1]
            hits = int(last.get("hits", 0))
            misses = int(last.get("misses", 0))
            lookups = hits + misses
            ratio = hits / lookups if lookups else 0.0
            print(f"telemetry:  {len(snapshots)} batch snapshot(s); latest: "
                  f"{hits} hit(s) / {misses} miss(es) "
                  f"(ratio {ratio:.2f}), "
                  f"{int(last.get('appends', 0))} append(s), "
                  f"{int(last.get('evictions', 0))} eviction(s)")
        else:
            print("telemetry:  no batch snapshots yet "
                  "(each cached batch appends one)")
        return 0
    if sub == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    print(f"unknown cache subcommand {sub!r}; choose stats or clear",
          file=sys.stderr)
    return 2


def _cmd_service(args) -> int:
    sub = args.subcommand or "serve"
    if sub == "serve":
        return _service_serve(args)
    if sub == "top":
        return _service_top(args)
    print(f"unknown service subcommand {sub!r}; choose serve or top",
          file=sys.stderr)
    return 2


def _obs_options(args) -> Optional[ObsOptions]:
    """Per-run obs capture from the shared ``--trace``/``--metrics``/
    ``--profile`` flags (None when none is set).

    For the service, ``/v1/metrics`` and the stream's per-job events
    are always on; this only governs whether each executed run
    additionally writes a run record into the obs dir."""
    if not (args.trace or args.metrics or args.profile):
        return None
    return ObsOptions(dir=args.obs_dir, trace=args.trace,
                      metrics=args.metrics, profile=args.profile)


def _service_serve(args) -> int:
    from repro.runtime.service import ExperimentService, serve_http

    port = int(args.target) if args.target else 0
    with ExperimentService(
        Path(args.cache_dir), jobs=args.jobs, timeout_s=args.timeout,
        obs=_obs_options(args),
    ) as service:
        server = serve_http(service, port=port)
        host, bound = server.server_address[0], server.server_address[1]
        print(f"experiment service on http://{host}:{bound} "
              f"(jobs={args.jobs}, cache {args.cache_dir})")
        print("routes: POST /v1/submit, /v1/sweep, /v1/shutdown; "
              "GET /v1/status, /v1/metrics, /v1/stream/<batch>")
        try:
            server.serve_thread.join()
        except KeyboardInterrupt:
            print("\nshutting down", file=sys.stderr)
            server.shutdown()
    return 0


def _format_top(status: dict) -> str:
    """One refresh of the ``service top`` dashboard, from one
    ``/v1/status`` document."""
    lines = [
        f"-- experiment service · up {status.get('uptime_s', 0.0):.1f}s · "
        f"{len(status.get('batches', {}))} batch(es) --"
    ]
    queue = status.get("queue", {})
    lines.append(
        f"queue: open {status.get('open_jobs', 0)}  "
        f"submitted {queue.get('submitted', 0)}  "
        f"done {queue.get('completed', 0)}  "
        f"failed {queue.get('failed', 0)}  "
        f"deduped {queue.get('deduped', 0)}"
    )
    inflight = status.get("inflight", {})
    busy = {k: v for k, v in sorted(inflight.items()) if v}
    shard_bits = " ".join(f"{k}={v}" for k, v in busy.items()) or "idle"
    lines.append(f"shards: {shard_bits} ({sum(inflight.values())} in flight)")
    sched = status.get("scheduler", {})
    lines.append(
        "sched: " + "  ".join(
            f"{key.split('.', 1)[-1]} {int(sched.get(key, 0))}"
            for key in ("scheduler.jobs_done", "scheduler.jobs_failed",
                        "scheduler.retries",
                        "scheduler.timeouts", "scheduler.cache_hits")
        )
    )
    cache = status.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    ratio = cache.get("hits", 0) / lookups if lookups else 0.0
    size_mb = cache.get("total_bytes", 0) / 1e6
    lines.append(f"cache: hit ratio {ratio:.2f} · store "
                 f"{cache.get('entries', 0)} entries / {size_mb:.2f} MB")
    ewma = status.get("events_per_sec_ewma")
    if ewma:
        lines.append(f"events/sec EWMA: {ewma:,.0f}")
    return "\n".join(lines)


def _service_top(args) -> int:
    """``service top <host:port|port>`` — poll ``/v1/status`` of a
    running service, ``--runs`` refreshes."""
    import time as _time
    import urllib.request

    if not args.target:
        print("usage: emptcp-repro service top <host:port | port> [--runs N]",
              file=sys.stderr)
        return 2
    where = args.target if ":" in args.target else f"127.0.0.1:{args.target}"
    base = f"http://{where}"
    for cycle in range(max(1, args.runs)):
        if cycle:
            _time.sleep(1.0)
        try:
            with urllib.request.urlopen(f"{base}/v1/status",
                                        timeout=10) as resp:
                status = json.loads(resp.read().decode())
        except OSError as exc:
            print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
            return 2
        print(_format_top(status))
    return 0


def _cmd_trace(args) -> int:
    # Validate the subcommand before touching the filesystem: a typo
    # like `trace summarise` must list the choices, not complain about
    # (or create state under) the default trace directory.
    sub = args.subcommand or "summarize"
    if sub not in ("summarize", "timeline"):
        print(f"unknown trace subcommand {sub!r}; choose summarize "
              f"or timeline", file=sys.stderr)
        return 2
    target = Path(args.target) if args.target else Path(args.cache_dir) / "obs"
    if not target.exists():
        print(f"error: no traces at {target} (run with --trace first, or pass "
              f"a trace file/directory)", file=sys.stderr)
        return 2
    if sub == "summarize":
        try:
            summary = summarize_target(target)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_trace_summary(summary))
        return 0
    if target.is_dir():
        files = list(iter_trace_files(target))
        if len(files) != 1:
            print(f"error: trace timeline needs one trace file; {target} "
                  f"holds {len(files)} (pass the file explicitly)",
                  file=sys.stderr)
            return 2
        target = files[0]
    try:
        entries = build_timeline(target)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_timeline(entries))
    return 0


def _perf_size_mb(args) -> float:
    """Profiles default to a small transfer; the CLI-wide 32 MiB
    default is sized for figure regeneration."""
    return args.size_mb if args.size_mb != 32.0 else 4.0


def _perf_profile(args) -> int:
    """``repro perf profile <protocol> <scenario>`` — run one static
    download under the span profiler and print the hot-path table."""
    from repro import obs
    from repro.check.perf import check_spans
    from repro.engines import get_engine
    from repro.obs import format_span_table
    from repro.runtime.spec import RunSpec

    protocol = args.target or "emptcp"
    wifi = args.extra[0] if args.extra else "good"
    if wifi not in ("good", "bad"):
        print(f"unknown WiFi quality {wifi!r}; choose good or bad",
              file=sys.stderr)
        return 2
    known = get_engine(args.engine).protocols
    if protocol not in known:
        print(f"unknown protocol {protocol!r} for engine {args.engine!r}; "
              f"choose one of {', '.join(known)}", file=sys.stderr)
        return 2
    spec = RunSpec(
        protocol=protocol,
        builder="static",
        kwargs={"good_wifi": wifi == "good",
                "download_bytes": mib(_perf_size_mb(args))},
        seed=0,
        engine=args.engine,
    )
    with obs.capture(trace=False, metrics=False, profile=True) as session:
        spec.execute()
    profile = session.profiler.to_dict()
    print(f"{spec.label} ({_perf_size_mb(args):g} MiB)")
    print(format_span_table(profile))
    report = check_spans(profile, where=spec.label)
    if not report.ok:
        print(report.format(), file=sys.stderr)
        return 1
    print(f"perf: OK ({report.checked} span path(s) verified)")
    return 0


def _cmd_perf(args) -> int:
    sub = args.subcommand or "profile"
    if sub != "profile":
        print(f"unknown perf subcommand {sub!r}; choose profile",
              file=sys.stderr)
        return 2
    return _perf_profile(args)


def _check_cache(args, tier: str):
    """The static-analysis findings cache for one tier.

    Unlike the result cache (off unless ``report``-ing), the check
    cache defaults *on*: re-linting an unchanged tree should cost file
    hashing only.  ``--no-cache`` bypasses it.
    """
    from repro.check.cache import CheckCache

    return CheckCache(
        tier,
        root=Path(args.cache_dir) / "check",
        enabled=args.cache is not False,
    )


def _baseline_workflow(args, report, tier: str, default_baseline: str) -> int:
    """The shared new/stale/update baseline protocol for a static tier."""
    from repro.check import baseline as bl

    baseline_path = args.baseline or default_baseline
    if args.update_baseline:
        entries = bl.write_baseline(baseline_path, report.findings)
        print(f"baseline {baseline_path}: recorded {entries} fingerprint(s) "
              f"covering {len(report.findings)} finding(s)")
        return 0
    if args.no_baseline:
        print(report.format())
        return 0 if report.ok else 1
    baseline = bl.load_baseline(baseline_path)
    new, stale = bl.new_findings(report.sorted_findings(), baseline)
    for finding in new:
        print(finding.format())
    if stale:
        print(f"note: {len(stale)} baselined violation(s) no longer occur; "
              f"run `repro check {tier} --update-baseline` to shrink "
              f"{baseline_path}", file=sys.stderr)
    failing = [f for f in new if f.severity.value == "error"]
    if failing:
        print(f"{tier}: {len(failing)} new error(s) not in baseline "
              f"({len(report.findings)} total, "
              f"{len(report.findings) - len(new)} baselined)")
        return 1
    print(f"{tier}: OK ({report.checked} files checked, "
          f"{len(report.findings)} baselined finding(s))")
    return 0


def _check_lint(args) -> int:
    """``repro check lint`` — Tier 1 with the baseline workflow."""
    from repro.check import baseline as bl
    from repro.check.lint import lint_paths

    target = args.target or "src/repro"
    report = lint_paths([target], cache=_check_cache(args, "lint"))
    return _baseline_workflow(args, report, "lint", bl.DEFAULT_BASELINE)


def _check_dataflow(args) -> int:
    """``repro check dataflow`` — the interprocedural REP2xx tier."""
    from repro.check.dataflow import DEFAULT_DATAFLOW_BASELINE, analyze_paths

    target = args.target or "src/repro"
    report = analyze_paths([target], cache=_check_cache(args, "dataflow"))
    return _baseline_workflow(
        args, report, "dataflow", DEFAULT_DATAFLOW_BASELINE
    )


def _check_determinism_spec(args):
    from repro.runtime.spec import RunSpec

    # The detector replays the run, so default to a small transfer
    # (the CLI-wide 32 MiB default is sized for figure regeneration).
    size_mb = args.size_mb if args.size_mb != 32.0 else 2.0
    return RunSpec(
        protocol="emptcp",
        builder="static",
        kwargs={"good_wifi": True, "download_bytes": mib(size_mb)},
        seed=0,
    )


def _cmd_check(args) -> int:
    from repro import check as chk

    sub = args.subcommand or "all"
    if sub not in ("lint", "dataflow", "config", "trace", "determinism",
                   "perf", "all"):
        print(f"unknown check subcommand {sub!r}; choose lint, dataflow, "
              f"config, trace, determinism, perf, or all", file=sys.stderr)
        return 2
    status = 0
    if sub in ("lint", "all"):
        status = max(status, _check_lint(args))
    if sub in ("dataflow", "all"):
        status = max(status, _check_dataflow(args))
    if sub in ("config", "all"):
        report = chk.check_defaults()
        print(report.format())
        status = max(status, 0 if report.ok else 1)
    if sub in ("trace", "all"):
        target = Path(args.target) if args.target else Path(args.cache_dir) / "obs"
        if not target.exists():
            if sub == "trace":
                print(f"error: no traces at {target} (run with --trace first, "
                      f"or pass a trace file/directory)", file=sys.stderr)
                return 2
        else:
            report = chk.check_traces(target)
            print(report.format())
            status = max(status, 0 if report.ok else 1)
    if sub == "determinism":
        report = chk.check_determinism(_check_determinism_spec(args))
        print(report.format())
        status = max(status, 0 if report.ok else 1)
    if sub in ("perf", "all"):
        if args.target and sub == "perf":
            targets = [Path(args.target)]
        else:
            # Default sweep: the last report's manifest plus the run
            # records under the obs dir (skipped silently in `all`
            # when neither exists yet).
            cache_dir = Path(args.cache_dir)
            manifest = cache_dir / "last-run.jsonl"
            targets = [manifest] if manifest.is_file() else []
            obs_dir = cache_dir / "obs"
            if obs_dir.is_dir():
                targets += iter_trace_files(obs_dir)
        if not targets and sub == "perf":
            print("error: no last-run.jsonl and no *.trace.jsonl under the "
                  "cache dir; run with --profile or pass a file/directory",
                  file=sys.stderr)
            return 2
        if targets:
            from repro.check.findings import merge_reports

            report = merge_reports(
                "perf", [chk.check_perf_target(t) for t in targets]
            )
            print(report.format())
            status = max(status, 0 if report.ok else 1)
    return status


def _cmd_validate(args) -> int:
    if args.engine == "flow":
        return _validate_flow(args)
    from repro.check import packet as pv

    report, comparisons = pv.run_engine_agreement(size_bytes=mib(args.size_mb))
    rows = []
    for c in comparisons:
        rows.append([c.label, f"{c.fluid_time:7.2f} s", f"{c.packet_time:7.2f} s",
                     f"{c.ratio:5.2f}"])
    print(format_table(["scenario", "fluid", "packet", "ratio"], rows))
    alone, together = pv.hol_goodput_collapse()
    print(f"HoL pathology: fast alone {alone:.2f} s vs MPTCP+slow path "
          f"{together:.2f} s (64 KB receive buffer)")
    report.checked += 1
    if together <= alone:
        report.add(
            "CHK503",
            f"head-of-line collapse not reproduced: MPTCP with a bad second "
            f"path finished in {together:.2f}s, faster than the fast path "
            f"alone ({alone:.2f}s)",
            context="hol-collapse",
        )
    print(report.format())
    return 0 if report.ok else 1


def _validate_flow(args) -> int:
    """``repro validate --engine flow`` — fluid-vs-flow agreement."""
    from repro.check import flow as fv

    report, comparisons = fv.run_flow_agreement(size_bytes=mib(args.size_mb))
    rows = []
    for c in comparisons:
        rows.append([
            c.label,
            f"{c.fluid_time:7.2f} s", f"{c.flow_time:7.2f} s",
            f"{c.time_ratio:5.2f}",
            f"{c.fluid_energy_j:7.2f} J", f"{c.flow_energy_j:7.2f} J",
            f"{c.energy_ratio:5.2f}",
        ])
    print(format_table(
        ["scenario", "fluid t", "flow t", "t ratio",
         "fluid E", "flow E", "E ratio"], rows))
    print(report.format())
    return 0 if report.ok else 1


def _fleet_spec(args, sessions=None):
    from repro.flow.fleet import FleetSpec

    return FleetSpec(
        sessions=int(sessions if sessions is not None else args.sessions),
        duration_s=args.duration_s,
        cells=args.cells,
        cell_capacity_mbps=args.cell_capacity_mbps,
        device=args.device,
        seed=args.seed,
    )


def _print_fleet_result(result, wall_s: float) -> None:
    rate = result.session_steps / wall_s if wall_s > 0 else float("inf")
    print(f"fleet {result.spec_hash}: {result.sessions} sessions, "
          f"sim {result.sim_t_end_s:.1f}s in {result.epochs} epochs")
    print(f"  completed: {result.completed}/{result.sessions}  "
          f"goodput {result.goodput_mbps:.1f} Mbps  "
          f"energy {result.energy_total_j:.0f} J")
    print(f"  wall: {wall_s:.2f}s  "
          f"{result.session_steps} session-steps  "
          f"{rate:,.0f} sessions-stepped/s")
    if result.per_stratum:
        rows = []
        for name, s in sorted(result.per_stratum.items()):
            dt = s["download_time_mean_s"]
            rows.append([
                name, int(s["sessions"]), int(s["completed"]),
                f"{s['bytes_mean'] / 1e6:6.1f} MB",
                f"{s['energy_j_mean']:7.1f} J",
                "-" if dt != dt else f"{dt:6.1f} s",
                f"{s['cell_established_frac'] * 100:5.1f}%",
            ])
        print(format_table(
            ["stratum", "n", "done", "bytes", "energy",
             "time", "cell est."], rows))


def _cmd_fleet(args) -> int:
    """Population-scale runs on the analytic flow tier."""
    import time as _time

    from repro import obs
    from repro.flow.fleet import run_fleet, sweep_fleet

    sub = args.subcommand or "run"
    if sub not in ("run", "sweep"):
        print(f"unknown fleet subcommand {sub!r}; choose run or sweep",
              file=sys.stderr)
        return 2
    if sub == "run":
        spec = _fleet_spec(args)
        options = _obs_options(args)
        with obs.capture(trace=args.trace, metrics=args.metrics,
                         profile=args.profile) as session:
            t0 = _time.perf_counter()
            result = run_fleet(spec)
            wall = _time.perf_counter() - t0
        if options is not None:
            path = session.export(
                Path(options.dir) / f"fleet-{result.spec_hash}.trace.jsonl"
            )
            print(f"run record written to {path}", file=sys.stderr)
        _print_fleet_result(result, wall)
        return 0
    counts = [int(c) for c in ([args.target] if args.target else []) + args.extra]
    counts = counts or [100, 1_000, 10_000]
    spec = _fleet_spec(args, sessions=counts[0])
    t0 = _time.perf_counter()
    results = sweep_fleet(spec, counts)
    wall = _time.perf_counter() - t0
    rows = []
    for result in results:
        rows.append([
            result.sessions, result.completed,
            f"{result.goodput_mbps:8.1f}",
            f"{result.energy_total_j:10.0f}",
            result.session_steps,
        ])
    print(format_table(
        ["sessions", "done", "goodput Mbps", "energy J", "session-steps"],
        rows))
    steps = sum(r.session_steps for r in results)
    print(f"sweep wall: {wall:.2f}s, "
          f"{steps / wall if wall > 0 else float('inf'):,.0f} "
          f"sessions-stepped/s")
    return 0


def _cmd_handover(args) -> int:
    results = handover_exp.run_handover_comparison(
        download_bytes=mib(args.size_mb)
    )
    rows = []
    for protocol, r in results.items():
        rows.append([
            protocol,
            f"{r.download_time:7.1f} s",
            f"{r.energy_j:7.1f} J",
            f"{r.lte_bytes / 1e6:6.1f} MB",
            r.subflows,
        ])
    print(format_table(
        ["protocol", "time", "energy", "LTE traffic", "subflows"], rows))
    return 0


def _cmd_streaming(args) -> int:
    results = stream_exp.run_streaming_comparison(runs=args.runs)
    rows = []
    for protocol, runs in results.items():
        rows.append([
            protocol,
            f"{mean([r.energy_j for r in runs]):7.1f} J",
            f"{mean([float(r.rebuffer_events) for r in runs]):5.1f}",
            f"{mean([r.rebuffer_time for r in runs]):6.1f} s",
            f"{mean([r.startup_delay for r in runs]):5.2f} s",
        ])
    print(format_table(
        ["protocol", "energy", "stalls", "stall time", "startup"], rows))
    return 0


_COMMANDS = {
    "list": (_cmd_list, "list available experiments"),
    "cache": (_cmd_cache, "inspect (stats) or empty (clear) the result cache"),
    "trace": (_cmd_trace, "summarize or timeline exported run records"),
    "check": (_cmd_check, "static lint / config / trace / perf-invariant checks"),
    "perf": (_cmd_perf, "profile one run's hot paths (perf profile)"),
    "run": (_cmd_run, "run one protocol on good|bad WiFi (--engine fluid|packet|flow)"),
    "service": (_cmd_service, "HTTP experiment service "
                              "(serve [port] | top)"),
    "fleet": (_cmd_fleet, "population-scale flow-tier runs (fleet run|sweep)"),
    "upload": (_cmd_upload, "Extension: bulk uploads (direction-aware EIB)"),
    "streaming": (_cmd_streaming, "Extension: 2.5 Mbps video streaming"),
    "handover": (_cmd_handover, "Extension: WiFi-dissociation handover"),
    "validate": (_cmd_validate, "Extension: cross-engine model validation "
                                "(--engine packet|flow)"),
    "report": (_cmd_report, "run the full evaluation; render a markdown report"),
    "table1": (_cmd_table1, "Table 1: device specifications"),
    "table2": (_cmd_table2, "Table 2: EIB thresholds vs paper"),
    "fig1": (_cmd_fig1, "Figure 1: fixed energy overheads"),
    "fig3": (_cmd_fig3, "Figure 3: per-byte efficiency heat map"),
    "fig4": (_cmd_fig4, "Figure 4: MPTCP-best operating regions"),
    "fig5": (_cmd_fig5, "Figure 5: static good WiFi"),
    "fig6": (_cmd_fig6, "Figure 6: static bad WiFi"),
    "fig7": (_cmd_fig7, "Figure 7: random-bandwidth energy trace"),
    "fig8": (_cmd_fig8, "Figure 8: random WiFi bandwidth changes"),
    "fig9": (_cmd_fig9, "Figure 9: background-traffic throughput trace"),
    "fig10": (_cmd_fig10, "Figure 10: background-traffic sweep"),
    "fig12": (_cmd_fig12, "Figure 12: mobility energy traces"),
    "fig13": (_cmd_fig13, "Figure 13: mobility per-byte energy"),
    "fig14": (_cmd_fig14, "Figure 14: wild trace categorisation"),
    "fig15": (_cmd_fig15, "Figure 15: wild small transfers"),
    "fig16": (_cmd_fig16, "Figure 16: wild large transfers"),
    "fig17": (_cmd_fig17, "Figure 17: web browsing"),
    "sec46": (_cmd_sec46, "§4.6: WiFi-First and MDP comparisons"),
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="emptcp-repro",
        description="Regenerate tables/figures of the eMPTCP paper (CoNEXT'15).",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="experiment id")
    parser.add_argument(
        "subcommand", nargs="?", default=None,
        help="cache subcommand: stats (default) or clear; "
             "trace subcommand: summarize (default) or timeline; "
             "check subcommand: lint, dataflow, config, trace, determinism, perf, "
             "or all (default); perf subcommand: profile (default); "
             "service subcommand: serve (default) or "
             "top; run: the protocol (default emptcp)",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="trace file or directory (trace/check commands; "
             "default: <cache-dir>/obs), the path to lint "
             "(check lint; default: src/repro), the WiFi quality "
             "good|bad (run command; default good), the protocol "
             "(perf profile; default emptcp), the TCP port (service "
             "serve; default: ephemeral), or the host:port to poll "
             "(service top)",
    )
    parser.add_argument(
        "extra", nargs="*", default=[],
        help="remaining positionals: the WiFi quality good|bad "
             "(perf profile)",
    )
    parser.add_argument(
        "--engine", default="fluid",
        help="transport engine for experiment runs (run/fig5/fig6/validate); "
             "one of the registered engines (fluid, packet, flow)",
    )
    parser.add_argument("--runs", type=int, default=3, help="repetitions per point")
    parser.add_argument(
        "--size-mb", type=float, default=32.0, help="download size in MiB"
    )
    parser.add_argument(
        "--envs", type=int, default=24, help="wild environments to sample"
    )
    parser.add_argument(
        "--scale", choices=("smoke", "default", "paper"), default="default",
        help="report scale (report command)",
    )
    parser.add_argument(
        "--output", default="", help="write the report to a file (report command)"
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for experiment runs (1 = in-process serial)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache", dest="cache", action="store_true", default=None,
        help="reuse/store results in the on-disk cache "
             "(default: on for report, off elsewhere)",
    )
    cache_group.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="always execute; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=f"result cache location (default: {ResultCache().root})",
    )
    parser.add_argument(
        "--manifest", default=None,
        help="write a JSONL run manifest to this path "
             "(default for report: <cache-dir>/last-run.jsonl)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-run wall-clock limit in seconds (parallel runs)",
    )
    parser.add_argument(
        "--trace", action="store_true", default=False,
        help="capture a structured event trace per executed run "
             "(exported as <obs-dir>/<spec-hash>.trace.jsonl)",
    )
    parser.add_argument(
        "--metrics", action="store_true", default=False,
        help="capture counters/gauges/histograms per executed run "
             "(a trailing metrics record in <obs-dir>/<spec-hash>.trace.jsonl)",
    )
    parser.add_argument(
        "--profile", action="store_true", default=False,
        help="capture a hierarchical span profile per executed run "
             "(a trailing profile record in <obs-dir>/<spec-hash>.trace.jsonl)",
    )
    parser.add_argument(
        "--obs-dir", default=None,
        help="where per-run records (<spec-hash>.trace.jsonl) land "
             "(default: <cache-dir>/obs)",
    )
    baseline_group = parser.add_mutually_exclusive_group()
    baseline_group.add_argument(
        "--baseline", default=None,
        help="static-tier baseline file (check lint/dataflow; defaults: "
             ".repro-check-baseline.json / .repro-dataflow-baseline.json)",
    )
    baseline_group.add_argument(
        "--no-baseline", action="store_true", default=False,
        help="report every lint/dataflow finding, ignoring the baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true", default=False,
        help="re-record the current lint/dataflow findings as the baseline",
    )
    progress_group = parser.add_mutually_exclusive_group()
    progress_group.add_argument(
        "--progress", dest="progress", action="store_true", default=None,
        help="live run counters on stderr (default: on for interactive report)",
    )
    progress_group.add_argument(
        "--no-progress", dest="progress", action="store_false",
        help="suppress the live progress line",
    )
    parser.add_argument(
        "--sessions", type=int, default=1_000,
        help="fleet population size (fleet command)",
    )
    parser.add_argument(
        "--duration-s", type=float, default=60.0,
        help="fleet measurement window in simulated seconds (fleet command)",
    )
    parser.add_argument(
        "--cells", type=int, default=25,
        help="shared LTE cells the fleet is spread over; 0 disables "
             "contention (fleet command)",
    )
    parser.add_argument(
        "--cell-capacity-mbps", type=float, default=150.0,
        help="per-cell shared LTE capacity in Mbps (fleet command)",
    )
    parser.add_argument(
        "--device", default="galaxy-s3",
        help="device power profile (fleet command)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="population seed (fleet command)",
    )
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command][0]

    # Validate --engine here, once, against the live registry: a typo
    # must exit with the list of engines, not fail deep inside a runner.
    from repro.engines import engine_names

    if args.engine not in engine_names():
        print(f"error: unknown engine {args.engine!r}; choose one of "
              f"{', '.join(engine_names())}", file=sys.stderr)
        return 2

    cache_dir = args.cache_dir or str(ResultCache().root)
    args.cache_dir = cache_dir
    use_cache = args.cache if args.cache is not None else args.command == "report"
    cache = ResultCache(cache_dir) if use_cache else None
    manifest_path = args.manifest
    if manifest_path is None and args.command == "report":
        manifest_path = str(Path(cache_dir) / "last-run.jsonl")
    show_progress = args.progress
    if show_progress is None:
        show_progress = args.command == "report" and sys.stderr.isatty()

    args.obs_dir = args.obs_dir or str(Path(cache_dir) / "obs")

    manifest = RunManifest(manifest_path) if manifest_path else None
    try:
        with use_runtime(
            jobs=args.jobs,
            cache=cache,
            manifest=manifest,
            progress=auto_reporter(show_progress),
            timeout_s=args.timeout,
            obs=_obs_options(args),
        ):
            status = handler(args)
    except BrokenPipeError:  # piped into `head` etc.
        return 0
    except (ConfigurationError, ExecutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if manifest is not None:
            manifest.close()
    if manifest_path and args.command == "report":
        try:
            entries = RunManifest.read(manifest_path)
        except ConfigurationError:  # e.g. the report needed no runs
            entries = []
        if entries:
            print(format_summary(summarize(entries)), file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
