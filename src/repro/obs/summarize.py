"""Post-hoc aggregation of exported traces (CLI: ``trace summarize``).

Reads one ``*.trace.jsonl`` file or every one under a directory and
reduces the event stream to the quantities §4 of the paper reasons
about: how often the controller decided what (and how often it
switched), what the predictor saw versus what it forecast, when the
delayed-establishment triggers fired, how the MP_PRIO suspensions
landed, and how long the cellular radio dwelt in each RRC state.

Also home to the ``trace timeline`` view, which merges a run's trace
events with the spans of its profile record (when the run was captured
with ``--profile``) into one chronological, sim-time-ordered listing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Union

from repro.obs.trace import iter_trace_files, read_run_record


def summarize_events(events: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Reduce an event stream to a JSON-ready aggregate dict."""
    by_type: Dict[str, int] = {}
    decisions: Dict[str, int] = {}
    switches = 0
    samples: Dict[str, Dict[str, float]] = {}
    mp_prio = {"suspend": 0, "resume": 0}
    rrc_dwell: Dict[str, float] = {}
    rrc_transitions = 0
    triggers: Dict[str, int] = {}
    last_energy_j = None
    span = [None, None]

    for event in events:
        etype = event.get("type", "?")
        by_type[etype] = by_type.get(etype, 0) + 1
        t = event.get("t")
        if isinstance(t, (int, float)):
            span[0] = t if span[0] is None else min(span[0], t)
            span[1] = t if span[1] is None else max(span[1], t)
        if etype == "controller.decision":
            decisions[event["decision"]] = decisions.get(event["decision"], 0) + 1
            if event.get("switched"):
                switches += 1
        elif etype == "predictor.sample":
            stats = samples.setdefault(
                event["interface"],
                {"count": 0, "sample_sum": 0.0, "forecast_sum": 0.0,
                 "last_forecast_mbps": 0.0},
            )
            stats["count"] += 1
            stats["sample_sum"] += event["sample_mbps"]
            stats["forecast_sum"] += event["forecast_mbps"]
            stats["last_forecast_mbps"] = event["forecast_mbps"]
        elif etype == "mptcp.mp_prio":
            mp_prio["suspend" if event["low"] else "resume"] += 1
        elif etype == "rrc.transition":
            rrc_transitions += 1
            state = event["from"]
            rrc_dwell[state] = rrc_dwell.get(state, 0.0) + event["dwell_s"]
        elif etype == "delay.trigger":
            key = f"{event['trigger']}/{event['action']}"
            triggers[key] = triggers.get(key, 0) + 1
        elif etype == "energy.checkpoint":
            last_energy_j = event["total_j"]

    predictor = {
        iface: {
            "samples": int(s["count"]),
            "mean_sample_mbps": s["sample_sum"] / s["count"],
            "mean_forecast_mbps": s["forecast_sum"] / s["count"],
            "last_forecast_mbps": s["last_forecast_mbps"],
        }
        for iface, s in samples.items()
        if s["count"]
    }
    return {
        "events": sum(by_type.values()),
        "by_type": dict(sorted(by_type.items())),
        "span_s": (span[1] - span[0]) if span[0] is not None else 0.0,
        "controller": {"decisions": decisions, "switches": switches},
        "predictor": predictor,
        "mp_prio": mp_prio,
        "delay_triggers": dict(sorted(triggers.items())),
        "rrc": {
            "transitions": rrc_transitions,
            "dwell_s": dict(sorted(rrc_dwell.items())),
        },
        "final_energy_j": last_energy_j,
    }


def summarize_target(target: Union[str, Path]) -> Dict[str, Any]:
    """Aggregate every trace file under ``target`` (file or directory).

    Returns the combined summary plus a per-file event count so a
    multi-run directory stays attributable.
    """
    files = list(iter_trace_files(target))
    all_events: List[Mapping[str, Any]] = []
    per_file: Dict[str, int] = {}
    skipped: List[str] = []
    for path in files:
        # A zero-byte trace means the exporting run died before its
        # first flush; skip it with a warning instead of folding an
        # empty stream (or, worse, crashing) into the aggregate.
        try:
            if path.stat().st_size == 0:
                skipped.append(path.name)
                continue
        except OSError:
            skipped.append(path.name)
            continue
        events = read_run_record(path).events
        per_file[path.name] = len(events)
        all_events.extend(events)
    summary = summarize_events(all_events)
    summary["files"] = per_file
    summary["skipped"] = skipped
    return summary


def format_trace_summary(summary: Mapping[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize_target` output."""
    lines: List[str] = []
    nfiles = len(summary.get("files", {}))
    lines.append(
        f"{summary['events']} events"
        + (f" across {nfiles} trace file(s)" if nfiles else "")
        + f", spanning {summary['span_s']:.1f}s of simulated time"
    )
    for name in summary.get("skipped", []):
        lines.append(f"warning: skipped empty trace file {name}")
    if summary["by_type"]:
        lines.append("event counts:")
        for etype, count in summary["by_type"].items():
            lines.append(f"  {etype:22s} {count}")
    ctrl = summary["controller"]
    if ctrl["decisions"]:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(ctrl["decisions"].items()))
        lines.append(f"controller: {parts}; {ctrl['switches']} switch(es)")
    for iface, stats in sorted(summary["predictor"].items()):
        lines.append(
            f"predictor[{iface}]: {stats['samples']} samples, "
            f"mean {stats['mean_sample_mbps']:.2f} Mbps, "
            f"forecast mean {stats['mean_forecast_mbps']:.2f} / "
            f"last {stats['last_forecast_mbps']:.2f} Mbps"
        )
    prio = summary["mp_prio"]
    if prio["suspend"] or prio["resume"]:
        lines.append(
            f"MP_PRIO: {prio['suspend']} suspend(s), {prio['resume']} resume(s)"
        )
    if summary["delay_triggers"]:
        parts = ", ".join(
            f"{k}={v}" for k, v in summary["delay_triggers"].items()
        )
        lines.append(f"delayed establishment: {parts}")
    rrc = summary["rrc"]
    if rrc["transitions"]:
        dwell = ", ".join(
            f"{state}={secs:.2f}s" for state, secs in rrc["dwell_s"].items()
        )
        lines.append(f"RRC: {rrc['transitions']} transition(s); dwell {dwell}")
    if summary.get("final_energy_j") is not None:
        lines.append(f"final energy checkpoint: {summary['final_energy_j']:.2f} J")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trace timeline: events + spans, chronologically


def build_timeline(trace_path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Merge one run record's events with its profile spans, ordered
    by simulated time.

    Each entry is ``{"t", "kind", "label", "detail"}`` where ``kind``
    is ``"event"`` or ``"span"``.  A span is placed at the sim time it
    was *first* entered and its detail carries the aggregate (count,
    cumulative wall/sim).  Runs captured without ``--profile`` simply
    yield an events-only timeline.
    """
    record = read_run_record(trace_path)
    entries: List[Dict[str, Any]] = []
    for event in record.events:
        t = event.get("t")
        detail = ", ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in ("t", "type")
        )
        entries.append(
            {
                "t": float(t) if isinstance(t, (int, float)) else 0.0,
                "kind": "event",
                "label": str(event.get("type", "?")),
                "detail": detail,
            }
        )
    for span in (record.profile or {}).get("spans", []):
        entries.append(
            {
                "t": float(span.get("first_sim_t") or 0.0),
                "kind": "span",
                "label": str(span.get("path", "?")),
                "detail": (
                    f"count={span.get('count', 0)}, "
                    f"cum wall={span.get('wall_s', 0.0) * 1e3:.2f}ms, "
                    f"cum sim={span.get('sim_s', 0.0):.3f}s"
                ),
            }
        )
    # Stable sort: ties keep events before the spans they triggered
    # only by insertion order, which already lists events first.
    entries.sort(key=lambda entry: entry["t"])
    return entries


def format_timeline(entries: List[Dict[str, Any]]) -> str:
    """Human-readable rendering of :func:`build_timeline` output."""
    if not entries:
        return "empty timeline (no events, no spans)"
    label_width = min(40, max(len(e["label"]) for e in entries))
    lines = []
    for entry in entries:
        lines.append(
            f"t={entry['t']:>10.3f}s  {entry['kind']:<5}  "
            f"{entry['label']:<{label_width}}  {entry['detail']}"
        )
    n_spans = sum(1 for e in entries if e["kind"] == "span")
    lines.append(
        f"{len(entries) - n_spans} event(s), {n_spans} span path(s)"
    )
    return "\n".join(lines)
