"""Tier 3: invariant analysis over exported JSONL traces.

``repro.obs`` records what the simulation *did*; this module checks
that what it did was physically and protocol-legal.  The invariants
come straight from the paper's mechanisms:

* energy is cumulative, so checkpoints never decrease and power is
  never negative (CHK303);
* the RRC machine (§2.3) only moves along the edges of its state
  graph, and consecutive transitions chain (CHK304);
* MP_PRIO suspension (§3.4) is a toggle — a subflow cannot be
  suspended twice without an intervening resume (CHK305);
* a subflow cannot deliver more bytes than its connection, and the
  per-subflow deliveries must add up to the connection total
  (CHK306);
* the hysteresis safety factor (§3.4) exists precisely so the
  controller never *switches* while the WiFi prediction sits strictly
  inside the widened band around a threshold (CHK307);
* simulation time, as seen by any single event source, only moves
  forward (CHK302); and every event matches the declared schema
  (CHK301).

Each finding carries the trace file as its path and the 1-based line
of the offending event, so output is greppable back to the raw trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.check.findings import Report, Severity
from repro.obs.events import validate_event
from repro.obs.trace import iter_trace_files, read_run_record

#: Relative tolerance for byte-conservation comparisons — the fluid
#: model accumulates floats over thousands of rounds.
_BYTES_REL_TOL = 1e-6
#: Absolute slack (bytes) for the same comparisons near zero.
_BYTES_ABS_TOL = 1.0
#: Strictness margin for the hysteresis-band check: a prediction this
#: close to the band edge is treated as *on* the edge, not inside.
_BAND_EDGE_TOL = 1e-9

#: Legal RRC edges, mirroring :class:`repro.energy.rrc.RrcMachine`.
LEGAL_RRC_TRANSITIONS = frozenset(
    {
        ("idle", "promoting"),
        ("promoting", "active"),
        ("active", "tail"),
        ("tail", "active"),
        ("tail", "idle"),
    }
)


def _source_key(event: Mapping[str, Any]) -> Tuple[str, str]:
    """The identity whose clock must be monotone.

    Events from one emitter (a subflow, an interface's predictor, a
    connection) are time-ordered; events from *different* emitters
    interleave at equal timestamps, so monotonicity is only meaningful
    per source.
    """
    etype = str(event.get("type"))
    for field in ("subflow", "interface", "conn"):
        value = event.get(field)
        if isinstance(value, str):
            return (etype, value)
    return (etype, "")


def check_events(
    events: Sequence[Mapping[str, Any]], path: str = "<events>"
) -> Report:
    """Run every trace invariant over one event sequence.

    ``path`` labels findings (the trace file for exported traces, a
    logical name for in-memory event lists from the determinism
    detector).  Event indices are reported 1-based to match JSONL line
    numbers.
    """
    report = Report(tier="trace")
    last_t: Dict[Tuple[str, str], float] = {}
    last_energy: Optional[float] = None
    rrc_state: Optional[str] = None
    # Subflow suspension: name -> True (suspended) / False (active);
    # absent = unknown, so the first suspend or resume is always legal.
    suspended: Dict[str, bool] = {}
    # t -> [(subflow, delivered, conn_bytes, line)] for conservation.
    checkpoints: Dict[float, List[Tuple[str, float, float, int]]] = {}
    # The controller's last decision, needed to know which threshold a
    # switch crossed (None until the first decision event).
    last_decision: Optional[str] = None

    for i, event in enumerate(events):
        line = i + 1
        problems = validate_event(event)
        for problem in problems:
            report.add("CHK301", problem, path=path, line=line)
        if problems:
            continue
        etype = event["type"]
        t = float(event["t"])

        source = _source_key(event)
        previous_t = last_t.get(source)
        if previous_t is not None and t < previous_t:
            report.add(
                "CHK302",
                f"time went backwards for {etype}"
                f"{f'/{source[1]}' if source[1] else ''}: "
                f"{previous_t:g} -> {t:g}",
                path=path,
                line=line,
                context=f"{source[0]}:{source[1]}",
            )
        last_t[source] = t

        if etype == "energy.checkpoint":
            total = float(event["total_j"])
            power = float(event["power_w"])
            if power < 0:
                report.add(
                    "CHK303",
                    f"negative power {power:g} W at checkpoint",
                    path=path,
                    line=line,
                    context="power_w",
                )
            if total < 0:
                report.add(
                    "CHK303",
                    f"negative cumulative energy {total:g} J",
                    path=path,
                    line=line,
                    context="total_j",
                )
            if last_energy is not None and total < last_energy:
                report.add(
                    "CHK303",
                    f"cumulative energy decreased: {last_energy:g} J -> "
                    f"{total:g} J",
                    path=path,
                    line=line,
                    context="total_j",
                )
            last_energy = total

        elif etype == "rrc.transition":
            frm, to = str(event["from"]), str(event["to"])
            if (frm, to) not in LEGAL_RRC_TRANSITIONS:
                report.add(
                    "CHK304",
                    f"illegal RRC transition {frm} -> {to}",
                    path=path,
                    line=line,
                    context=f"{frm}->{to}",
                )
            if rrc_state is not None and frm != rrc_state:
                report.add(
                    "CHK304",
                    f"RRC transition chain broken: left {frm!r} but the "
                    f"previous transition entered {rrc_state!r}",
                    path=path,
                    line=line,
                    context="chain",
                )
            if float(event["dwell_s"]) < 0:
                report.add(
                    "CHK304",
                    f"negative RRC dwell time {event['dwell_s']:g} s",
                    path=path,
                    line=line,
                    context="dwell",
                )
            rrc_state = to

        elif etype in ("subflow.suspend", "subflow.resume"):
            name = str(event["subflow"])
            now_suspended = etype == "subflow.suspend"
            # A resume of an active subflow is legal (it re-opens a
            # paused connection); a suspend of a suspended one is not —
            # Subflow.suspend() is a no-op then, so the event cannot
            # legally exist.
            if now_suspended and suspended.get(name) is True:
                report.add(
                    "CHK305",
                    f"subflow {name!r} suspended twice without an "
                    f"intervening resume",
                    path=path,
                    line=line,
                    context=name,
                )
            suspended[name] = now_suspended

        elif etype == "subflow.checkpoint":
            name = str(event["subflow"])
            delivered = float(event["delivered_bytes"])
            conn_bytes = float(event["conn_bytes"])
            slack = _BYTES_ABS_TOL + _BYTES_REL_TOL * abs(conn_bytes)
            if delivered < 0:
                report.add(
                    "CHK306",
                    f"subflow {name!r} delivered negative bytes "
                    f"({delivered:g})",
                    path=path,
                    line=line,
                    context=name,
                )
            if delivered > conn_bytes + slack:
                report.add(
                    "CHK306",
                    f"subflow {name!r} delivered {delivered:g} B, more than "
                    f"the connection total {conn_bytes:g} B",
                    path=path,
                    line=line,
                    context=name,
                )
            checkpoints.setdefault(t, []).append(
                (name, delivered, conn_bytes, line)
            )

        elif etype == "controller.decision":
            _check_decision(report, event, last_decision, path, line)
            last_decision = str(event["decision"])

    _check_byte_conservation(report, checkpoints, path)
    report.checked = len(events)
    return report


def _check_decision(
    report: Report,
    event: Mapping[str, Any],
    previous: Optional[str],
    path: str,
    line: int,
) -> None:
    """CHK307: a *switch* with the WiFi prediction strictly inside the
    hysteresis band around the threshold it crossed is exactly the
    oscillation the safety factor forbids."""
    if not event["switched"] or previous is None:
        return
    sf = float(event["safety_factor"])
    if sf <= 0:
        return  # hysteresis disabled: the band is empty.
    wifi = float(event["wifi_mbps"])
    decision, raw = str(event["decision"]), str(event["raw"])
    if decision == "both" and raw == "wifi-only":
        # The required-samples guard demoting a wifi-only verdict —
        # hysteresis was not what moved the decision, so no band to
        # check.
        return
    # Which threshold did the switch cross?  WIFI_ONLY is always
    # separated from the rest by the wifi-only threshold; CELLULAR_ONLY
    # by the cellular-only threshold.  A switch *to* BOTH crossed
    # whichever threshold separated it from the previous state (the
    # cellular-only one when the veto produced it, since the prediction
    # then sits below both bands).
    if decision == "wifi-only":
        thr = float(event["wifi_only_thr_mbps"])
    elif decision == "cellular-only":
        thr = float(event["cell_only_thr_mbps"])
    elif raw == "cellular-only" or previous == "cellular-only":
        thr = float(event["cell_only_thr_mbps"])
    elif previous == "wifi-only":
        thr = float(event["wifi_only_thr_mbps"])
    else:
        return
    lo, hi = thr * (1 - sf), thr * (1 + sf)
    if lo + _BAND_EDGE_TOL < wifi < hi - _BAND_EDGE_TOL:
        report.add(
            "CHK307",
            f"controller switched to {decision!r} with predicted WiFi "
            f"{wifi:.4f} Mbps strictly inside the hysteresis band "
            f"({lo:.4f}, {hi:.4f}) around {thr:.4f} Mbps",
            path=path,
            line=line,
            context=decision,
        )


def _check_byte_conservation(
    report: Report,
    checkpoints: Dict[float, List[Tuple[str, float, float, int]]],
    path: str,
) -> None:
    """Per checkpoint instant, the subflow deliveries must sum to the
    connection total they each reported."""
    for t, rows in checkpoints.items():
        conn_bytes = rows[0][2]
        total = sum(delivered for _, delivered, _, _ in rows)
        slack = _BYTES_ABS_TOL + _BYTES_REL_TOL * abs(conn_bytes)
        if abs(total - conn_bytes) > slack:
            report.add(
                "CHK306",
                f"subflow deliveries at t={t:g} sum to {total:g} B but the "
                f"connection reports {conn_bytes:g} B",
                path=path,
                line=rows[-1][3],
                context=f"sum@{t:g}",
            )


def check_trace_file(path: Union[str, Path]) -> Report:
    """Analyze the events of one run record (``*.trace.jsonl``)."""
    path = Path(path)
    try:
        events = read_run_record(path).events
    except (OSError, ValueError) as exc:
        report = Report(tier="trace")
        report.add("CHK301", str(exc), path=str(path))
        report.checked = 1
        return report
    return check_events(events, path=str(path))


def check_traces(target: Union[str, Path]) -> Report:
    """Analyze every trace under ``target`` (file or directory).

    The per-file event counts are folded into one report;
    ``checked`` counts *files*, not events, so "trace: OK (3 checked)"
    reads as three clean trace files.
    """
    report = Report(tier="trace")
    files = list(iter_trace_files(target))
    if not files:
        report.add(
            "CHK300",
            f"no trace files found under {target}",
            severity=Severity.WARNING,
            context=str(target),
        )
        return report
    for trace_path in files:
        file_report = check_trace_file(trace_path)
        report.extend(file_report.findings)
        report.checked += 1
    return report
