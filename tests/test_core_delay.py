"""Tests for delayed subflow establishment (§3.5, equation (1))."""

import pytest

from tests.helpers import make_path, rng
from repro.control.delay import DelayedEstablishment, minimum_tau
from repro.core.config import EMPTCPConfig
from repro.core.controller import PathUsageController
from repro.core.eib import cached_eib
from repro.core.predictor import BandwidthPredictor
from repro.energy.device import GALAXY_S3
from repro.errors import ConfigurationError
from repro.mptcp.connection import MPTCPConnection
from repro.net.interface import InterfaceKind
from repro.sim.engine import Simulator
from repro.tcp.connection import FiniteSource
from repro.units import mbps_to_bytes_per_sec


class TestMinimumTau:
    def test_equation_one(self):
        """τ >= R x (log2((B R + W)/W) + φ)."""
        bw = mbps_to_bytes_per_sec(8.0)
        rtt = 0.1
        winit = 10 * 1448.0
        tau = minimum_tau(bw, rtt, required_samples=10, initial_window_bytes=winit)
        import math

        expected = rtt * (math.log2((bw * rtt + winit) / winit) + 10)
        assert tau == pytest.approx(expected)

    def test_larger_bandwidth_needs_larger_tau(self):
        lo = minimum_tau(mbps_to_bytes_per_sec(1.0), 0.1, 10)
        hi = minimum_tau(mbps_to_bytes_per_sec(100.0), 0.1, 10)
        assert hi > lo

    def test_paper_setting_is_below_three_seconds(self):
        """§4.1: their estimated bound was ~2.67 s with τ = 3 s."""
        tau = minimum_tau(mbps_to_bytes_per_sec(10.0), 0.2, 10)
        assert tau < 3.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            minimum_tau(0.0, 0.1, 10)
        with pytest.raises(ConfigurationError):
            minimum_tau(1.0, 0.1, 0)
        with pytest.raises(ConfigurationError):
            minimum_tau(1.0, 0.1, 10, initial_window_bytes=0.0)


class MptcpDelayPort:
    """The :class:`~repro.control.port.DelayPort` slice over a plain
    MPTCP connection whose LTE subflow ``establish`` joins."""

    def __init__(self, conn, establish):
        self.conn = conn
        self.join_cellular = establish

    def on_delivery(self, listener):
        self.conn.on_delivery(
            lambda subflow, delivered: listener(subflow.interface_kind, delivered)
        )

    @property
    def is_idle(self):
        return self.conn.is_idle

    @property
    def source_exhausted(self):
        return self.conn.source.exhausted

    @property
    def completed(self):
        return self.conn.completed_at is not None


def build(sim, wifi_mbps=2.0, size=50_000_000.0, **config_kwargs):
    """An MPTCP connection with a delayed-establishment module wired the
    way EMPTCPConnection does it."""
    config = EMPTCPConfig(**config_kwargs)
    wifi = make_path(sim, InterfaceKind.WIFI, mbps=wifi_mbps, rtt=0.05)
    lte = make_path(sim, InterfaceKind.LTE, mbps=10.0, rtt=0.07)
    source = FiniteSource(size)
    conn = MPTCPConnection(
        sim, wifi, source, secondary_paths=[lte], rng=rng(), auto_join=False
    )
    predictor = BandwidthPredictor(sim, config)
    controller = PathUsageController(
        config, cached_eib(GALAXY_S3), predictor, InterfaceKind.LTE
    )
    conn.on_subflow_established(predictor.attach_subflow)
    port = MptcpDelayPort(conn, establish=lambda: conn.add_subflow(lte))
    delayed = DelayedEstablishment(sim, port, config, predictor, controller)
    conn.open()
    delayed.start()
    return conn, delayed, source


class TestKappaTrigger:
    def test_establishes_after_kappa_bytes_on_slowish_wifi(self):
        sim = Simulator()
        conn, delayed, _ = build(sim, wifi_mbps=2.0, kappa_bytes=200_000.0,
                                 tau_seconds=300.0)
        sim.run(until=10.0)
        assert delayed.done
        assert delayed.trigger == "kappa"
        assert delayed.wifi_bytes >= 200_000.0
        assert conn.subflow_for(InterfaceKind.LTE) is not None

    def test_no_establishment_below_kappa(self):
        sim = Simulator()
        # 100 KB transfer, kappa 1 MB, long tau: LTE never needed.
        conn, delayed, source = build(
            sim, wifi_mbps=8.0, size=100_000.0, tau_seconds=300.0
        )
        sim.run(until=30.0)
        assert source.exhausted
        assert not delayed.done
        assert conn.subflow_for(InterfaceKind.LTE) is None

    def test_kappa_veto_when_wifi_fast(self):
        """κ reached but WiFi-only is more efficient -> postponed."""
        sim = Simulator()
        conn, delayed, _ = build(
            sim, wifi_mbps=12.0, kappa_bytes=500_000.0, tau_seconds=300.0
        )
        sim.run(until=20.0)
        assert delayed.wifi_bytes > 500_000.0
        assert not delayed.done
        assert delayed.postponements > 0


class TestTauTrigger:
    def test_tau_fires_on_slow_wifi(self):
        """WiFi so slow κ is never reached: the timer establishes LTE."""
        sim = Simulator()
        conn, delayed, _ = build(sim, wifi_mbps=0.5, tau_seconds=3.0)
        sim.run(until=5.0)
        assert delayed.done
        assert delayed.trigger == "tau"
        assert delayed.established_at == pytest.approx(3.0, abs=0.5)

    def test_tau_postponed_when_wifi_fast(self):
        sim = Simulator()
        conn, delayed, _ = build(sim, wifi_mbps=12.0, tau_seconds=1.0)
        sim.run(until=10.0)
        assert not delayed.done
        assert delayed.timer_expirations >= 2  # re-armed and re-checked

    def test_tau_postponed_while_idle(self):
        """An idle connection must not trigger cellular establishment
        (HTTP keeps connections open after the transfer)."""
        sim = Simulator()
        # Transfer finishes quickly; connection then idles with slow wifi
        # predictions in place.
        conn, delayed, source = build(
            sim, wifi_mbps=2.0, size=150_000.0, tau_seconds=3.0,
            kappa_bytes=1_000_000.0,
        )
        sim.run(until=30.0)
        assert source.exhausted
        assert not delayed.done
        assert delayed.postponements > 0


class TestEstablishOnce:
    def test_only_one_cellular_subflow(self):
        sim = Simulator()
        conn, delayed, _ = build(sim, wifi_mbps=0.5, tau_seconds=1.0)
        sim.run(until=30.0)
        lte_subflows = [
            sf for sf in conn.subflows if sf.interface_kind is InterfaceKind.LTE
        ]
        assert len(lte_subflows) == 1
