"""The event schema: one entry per instrumented decision point.

Every event carries ``t`` (simulation time, seconds) and ``type``; the
table below lists the required per-type fields and their JSON types.
Extra fields are allowed (components may attach context), unknown
event types are not — ``make trace-smoke`` validates every exported
trace line against this table, so the schema is the compatibility
contract between the emitters and ``trace summarize``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

_NUM = (int, float)
_STR = (str,)
_BOOL = (bool,)

#: type name -> {field: allowed python types}.  ``t``/``type`` are
#: implicit on every event.
EVENT_SCHEMA: Dict[str, Dict[str, Tuple[type, ...]]] = {
    # core.controller — one per path-usage evaluation: the EIB verdict
    # before hysteresis, the post-hysteresis decision, and both raw
    # thresholds the safety factor widened.
    "controller.decision": {
        "wifi_mbps": _NUM,
        "cell_mbps": _NUM,
        "raw": _STR,
        "decision": _STR,
        "cell_only_thr_mbps": _NUM,
        "wifi_only_thr_mbps": _NUM,
        "safety_factor": _NUM,
        "switched": _BOOL,
    },
    # core.predictor — one per throughput sample: the measurement and
    # the forecast it produced.
    "predictor.sample": {
        "interface": _STR,
        "sample_mbps": _NUM,
        "forecast_mbps": _NUM,
    },
    # control.delay — each κ/τ trigger evaluation and its outcome.
    "delay.trigger": {
        "trigger": _STR,     # "kappa" | "tau"
        "action": _STR,      # "established" | "postponed"
        "wifi_bytes": _NUM,
    },
    # mptcp.connection — every MP_PRIO option sent.
    "mptcp.mp_prio": {
        "subflow": _STR,
        "low": _BOOL,
    },
    # mptcp.subflow — effective suspension state changes.
    "subflow.suspend": {"subflow": _STR, "interface": _STR},
    "subflow.resume": {"subflow": _STR, "interface": _STR},
    # tcp.connection — a lost round (buffer overrun or random loss).
    "tcp.loss": {"conn": _STR, "interface": _STR},
    # energy.rrc — state-machine transitions with the time spent in
    # the state being left.
    "rrc.transition": {
        "from": _STR,
        "to": _STR,
        "dwell_s": _NUM,
    },
    # energy.meter — explicit checkpoints (run completion, one-shots).
    "energy.checkpoint": {
        "total_j": _NUM,
        "power_w": _NUM,
    },
    # experiments.runner — per-subflow byte accounting at transfer
    # completion; lets the trace analyzer check byte conservation
    # (each subflow <= the connection total, and the subflows sum to
    # it).
    "subflow.checkpoint": {
        "subflow": _STR,
        "interface": _STR,
        "delivered_bytes": _NUM,
        "conn_bytes": _NUM,
    },
    # flow.engine — sampled fleet-wide aggregates, one per obs epoch
    # (large fleets cannot afford per-session events; this is the
    # population-level heartbeat).
    "fleet.epoch": {
        "sessions": _NUM,
        "active": _NUM,
        "completed": _NUM,
        "energy_j": _NUM,
        "goodput_mbps": _NUM,
    },
    # flow.engine — per-session completion records for the first few
    # sessions (a bounded sample; `conn` keys the trace source).
    "fleet.session": {
        "conn": _STR,
        "protocol": _STR,
        "bytes": _NUM,
        "energy_j": _NUM,
        "completed": _BOOL,
    },
}


def validate_event(event: Mapping[str, Any]) -> List[str]:
    """Schema problems with one event (empty list = valid)."""
    problems: List[str] = []
    etype = event.get("type")
    if not isinstance(etype, str):
        return [f"missing or non-string 'type': {etype!r}"]
    if not isinstance(event.get("t"), _NUM) or isinstance(event.get("t"), bool):
        problems.append(f"{etype}: missing or non-numeric 't'")
    fields = EVENT_SCHEMA.get(etype)
    if fields is None:
        return problems + [f"unknown event type {etype!r}"]
    for name, allowed in fields.items():
        value = event.get(name)
        if value is None and None.__class__ not in allowed:
            problems.append(f"{etype}: missing field {name!r}")
        elif not isinstance(value, allowed) or (
            bool not in allowed and isinstance(value, bool)
        ):
            problems.append(
                f"{etype}: field {name!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in allowed)}"
            )
    return problems


def validate_events(events: Iterable[Mapping[str, Any]]) -> List[str]:
    """Schema problems across a sequence of events."""
    problems: List[str] = []
    for i, event in enumerate(events):
        for problem in validate_event(event):
            problems.append(f"event {i}: {problem}")
    return problems
