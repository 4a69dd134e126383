"""Delayed subflow establishment (§3.5), engine-agnostic.

Small transfers should never pay the cellular promotion and tail.  The
cellular subflow is therefore *not* joined at connection setup.  It is
established when either trigger fires, both gated by an
energy-efficiency veto:

* **κ bytes** have arrived over WiFi (default 1 MB — below that MPTCP
  is rarely more efficient than single-path TCP, Figure 4); or
* the **τ timer** expires (default 3 s), which catches WiFi paths so
  slow that κ might never be reached.

The veto: establishment is postponed while the predicted WiFi
throughput makes WiFi-only more energy-efficient than both interfaces
(per the EIB), and while the connection is idle (no packets for one
estimated RTT) — some applications hold connections open after the
transfer (HTTP persistent connections), and promoting LTE for an idle
connection would be pure waste.

Equation (1) gives the lower bound on τ: the timer must allow the WiFi
subflow to exit slow start and produce φ throughput samples —
:func:`minimum_tau` implements it.

All triggers and queries go through a
:class:`~repro.control.port.DelayPort`, so the same class serves the
fluid and packet engines.
"""

from __future__ import annotations

import math
from typing import Optional

from repro import obs as _obs
from repro.control.port import DelayPort, SubflowLike
from repro.core.config import EMPTCPConfig
from repro.core.controller import PathUsageController
from repro.core.predictor import BandwidthPredictor
from repro.errors import ConfigurationError
from repro.net.interface import InterfaceKind
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.tcp.congestion import DEFAULT_INIT_CWND_SEGMENTS, DEFAULT_MSS


def minimum_tau(
    wifi_bandwidth_bytes_per_sec: float,
    wifi_rtt: float,
    required_samples: int,
    initial_window_bytes: float = DEFAULT_INIT_CWND_SEGMENTS * DEFAULT_MSS,
) -> float:
    """Equation (1): the smallest admissible τ.

    τ >= R_W x ( log2( (B_W x R_W + W_init) / W_init ) + φ )

    — the slow-start time to reach the path bandwidth plus φ sampling
    intervals of one RTT each.
    """
    if wifi_bandwidth_bytes_per_sec <= 0 or wifi_rtt <= 0:
        raise ConfigurationError("bandwidth and RTT must be positive")
    if required_samples < 1:
        raise ConfigurationError("required_samples must be >= 1")
    if initial_window_bytes <= 0:
        raise ConfigurationError("initial_window_bytes must be positive")
    bdp = wifi_bandwidth_bytes_per_sec * wifi_rtt
    slow_start_rounds = math.log2((bdp + initial_window_bytes) / initial_window_bytes)
    return wifi_rtt * (slow_start_rounds + required_samples)


class DelayedEstablishment:
    """Manages when (and whether) the cellular subflow is joined."""

    def __init__(
        self,
        sim: Simulator,
        port: DelayPort,
        config: EMPTCPConfig,
        predictor: BandwidthPredictor,
        controller: PathUsageController,
        cell_kind: InterfaceKind = InterfaceKind.LTE,
    ):
        self.sim = sim
        self.port = port
        self.config = config
        self.predictor = predictor
        self.controller = controller
        self.cell_kind = cell_kind
        self.established_subflow: Optional[SubflowLike] = None
        self.wifi_bytes = 0.0
        self.timer_expirations = 0
        self.postponements = 0
        self.established_at: Optional[float] = None
        self.trigger: Optional[str] = None
        self._timer = Timer(sim, self._timer_expired)
        self._trace = _obs.tracer_or_none()
        self._prof = _obs.profiler_or_none()

    def start(self) -> None:
        """Arm the τ timer and begin watching WiFi deliveries."""
        self.port.on_delivery(self._on_delivery)
        self._timer.start(self.config.tau_seconds)

    def stop(self) -> None:
        """Disarm the timer (connection closing / transfer complete)."""
        self._timer.cancel()

    @property
    def done(self) -> bool:
        """True once the cellular subflow has been established."""
        return self.established_subflow is not None

    # ------------------------------------------------------------------
    # triggers

    def _on_delivery(self, kind: InterfaceKind, delivered: float) -> None:
        if kind.is_wifi:
            self.wifi_bytes += delivered
        if self.done:
            return
        if self.port.source_exhausted:
            # The transfer drained before τ: there is nothing for a
            # cellular subflow to speed up.  Re-arm the timer so τ
            # measures a *continuous* busy period — this is what keeps
            # eMPTCP off LTE across a whole multi-object page load
            # (§5.4) while still catching the slow-WiFi case the timer
            # exists for (§3.5).
            self._timer.start(self.config.tau_seconds)
            return
        if self.wifi_bytes >= self.config.kappa_bytes:
            self._evaluate(trigger="kappa")

    def _timer_expired(self) -> None:
        if self.done:
            return
        self.timer_expirations += 1
        if self.port.is_idle:
            # §3.5: never promote cellular for an idle connection; check
            # again after another τ.
            self.postponements += 1
            self._timer.start(self.config.tau_seconds)
            return
        self._evaluate(trigger="tau")

    def _evaluate(self, trigger: str) -> None:
        """Common gate: establish unless WiFi-only is predicted to be
        more energy-efficient than using both interfaces."""
        prof = self._prof
        if prof is not None:
            with prof.span("control.delay.evaluate"):
                self._evaluate_inner(trigger)
        else:
            self._evaluate_inner(trigger)

    def _evaluate_inner(self, trigger: str) -> None:
        if self.done:
            return
        if self.predictor.sample_count(InterfaceKind.WIFI) < max(
            1, self.config.required_samples // 2
        ):
            # Equation (1): estimates are only meaningful after enough
            # samples.  Establishing LTE costs an irreversible
            # promotion + tail, so an under-sampled (slow-start-biased)
            # WiFi estimate postpones rather than commits.
            self._postpone(trigger)
            return
        if self._wifi_only_preferred():
            self._postpone(trigger)
            return
        self.trigger = trigger
        self._timer.cancel()
        self.established_at = self.sim.now
        if self._trace is not None:
            self._trace.emit(
                "delay.trigger",
                t=self.sim.now,
                trigger=trigger,
                action="established",
                wifi_bytes=self.wifi_bytes,
            )
        self.established_subflow = self.port.join_cellular()

    def _postpone(self, trigger: str) -> None:
        self.postponements += 1
        if self._trace is not None:
            self._trace.emit(
                "delay.trigger",
                t=self.sim.now,
                trigger=trigger,
                action="postponed",
                wifi_bytes=self.wifi_bytes,
            )
        if trigger == "tau":
            self._timer.start(self.config.tau_seconds)

    def _wifi_only_preferred(self) -> bool:
        wifi = self.predictor.predict_mbps(InterfaceKind.WIFI)
        cell = self.predictor.predict_mbps(self.cell_kind)
        _cell_only, wifi_only_thr = self.controller.eib.thresholds(cell)
        return wifi >= wifi_only_thr


__all__ = ["DelayedEstablishment", "minimum_tau"]
