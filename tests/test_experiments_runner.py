"""Tests for scenarios, the protocol factory, and the runner."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.protocols import PROTOCOLS, build_protocol, mdp_policy_for
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import RunResult, Scenario, summarize_runs
from repro.energy.device import GALAXY_S3, NEXUS_5
from repro.net.bandwidth import ConstantCapacity
from repro.net.interface import InterfaceKind
from repro.units import mbps_to_bytes_per_sec, mib


def simple_scenario(wifi=8.0, lte=10.0, size=mib(2), **kwargs):
    return Scenario(
        name="test",
        wifi_capacity=lambda _rng: ConstantCapacity(mbps_to_bytes_per_sec(wifi)),
        cell_capacity=lambda _rng: ConstantCapacity(mbps_to_bytes_per_sec(lte)),
        download_bytes=size,
        **kwargs,
    )


class TestScenario:
    def test_requires_exactly_one_of_size_or_duration(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                name="x",
                wifi_capacity=lambda r: ConstantCapacity(1.0),
                cell_capacity=lambda r: ConstantCapacity(1.0),
            )
        with pytest.raises(ConfigurationError):
            Scenario(
                name="x",
                wifi_capacity=lambda r: ConstantCapacity(1.0),
                cell_capacity=lambda r: ConstantCapacity(1.0),
                download_bytes=1.0,
                duration=1.0,
            )

    def test_cell_kind_must_be_cellular(self):
        with pytest.raises(ConfigurationError):
            simple_scenario(cell_kind=InterfaceKind.WIFI)

    def test_summarize_runs(self):
        r = run_scenario("tcp-wifi", simple_scenario(size=mib(1)))
        summary = summarize_runs([r, r])
        assert summary["n"] == 2
        assert summary["energy_j"] == pytest.approx(r.energy_j)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize_runs([])


class TestRunScenario:
    def test_all_protocols_complete(self):
        scenario = simple_scenario()
        for protocol in PROTOCOLS:
            result = run_scenario(protocol, scenario, seed=1)
            assert result.download_time is not None
            assert result.bytes_received == pytest.approx(mib(2))
            assert result.energy_j > 0
            assert result.protocol == protocol

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario("carrier-pigeon", simple_scenario())

    def test_deterministic_given_seed(self):
        scenario = simple_scenario()
        a = run_scenario("emptcp", scenario, seed=3)
        b = run_scenario("emptcp", scenario, seed=3)
        assert a.energy_j == b.energy_j
        assert a.download_time == b.download_time

    def test_different_seeds_can_differ(self):
        # On a lossy path the loss draws differ by seed.
        scenario = simple_scenario(wifi_loss=0.01, size=mib(4))
        a = run_scenario("tcp-wifi", scenario, seed=1)
        b = run_scenario("tcp-wifi", scenario, seed=2)
        assert a.download_time != b.download_time

    def test_energy_total_exceeds_energy_at_completion_when_lte_used(self):
        """The drained tail is charged after completion for MPTCP."""
        result = run_scenario("mptcp", simple_scenario(size=mib(2)))
        assert result.energy_j > result.energy_at_completion_j

    def test_energy_series_monotone(self):
        result = run_scenario("mptcp", simple_scenario())
        values = result.energy_series.values
        assert values == sorted(values)

    def test_measured_throughputs_reflect_capacities(self):
        result = run_scenario("mptcp", simple_scenario(wifi=8.0, lte=10.0))
        assert result.measured_wifi_mbps == pytest.approx(8.0, rel=0.05)
        assert result.measured_cell_mbps == pytest.approx(10.0, rel=0.05)

    def test_duration_mode_reports_no_download_time(self):
        scenario = Scenario(
            name="window",
            wifi_capacity=lambda _r: ConstantCapacity(mbps_to_bytes_per_sec(8.0)),
            cell_capacity=lambda _r: ConstantCapacity(mbps_to_bytes_per_sec(8.0)),
            duration=20.0,
        )
        result = run_scenario("mptcp", scenario)
        assert result.download_time is None
        assert result.bytes_received > 0

    def test_timeout_raises(self):
        scenario = simple_scenario(wifi=0.1, lte=0.1, size=mib(64))
        scenario.max_sim_time = 5.0
        with pytest.raises(SimulationError):
            run_scenario("tcp-wifi", scenario)

    def test_nexus5_profile_supported(self):
        result = run_scenario(
            "emptcp", simple_scenario(profile=NEXUS_5, size=mib(1))
        )
        assert result.energy_j > 0

    def test_threeg_scenario_supported(self):
        result = run_scenario(
            "mptcp", simple_scenario(cell_kind=InterfaceKind.THREEG, size=mib(1))
        )
        assert result.energy_j > 0

    def test_per_byte_metrics(self):
        result = run_scenario("tcp-wifi", simple_scenario(size=mib(1)))
        assert result.joules_per_byte == pytest.approx(
            result.energy_j / result.bytes_received
        )
        assert result.joules_per_bit == pytest.approx(result.joules_per_byte / 8)


class TestProtocolFactory:
    def test_mdp_policy_cached(self):
        a = mdp_policy_for(GALAXY_S3, InterfaceKind.LTE)
        b = mdp_policy_for(GALAXY_S3, InterfaceKind.LTE)
        assert a is b

    def test_mdp_policy_cache_keys_on_profile_content(self):
        from repro.energy import profile_from_dict, profile_to_dict

        doc = profile_to_dict(GALAXY_S3)
        doc["interfaces"]["lte"]["base_w"] *= 2
        custom = profile_from_dict(doc)
        assert custom.name == GALAXY_S3.name
        assert (mdp_policy_for(custom, InterfaceKind.LTE)
                is not mdp_policy_for(GALAXY_S3, InterfaceKind.LTE))
        # An equal profile rebuilt from its dict shares the table.
        assert (mdp_policy_for(profile_from_dict(profile_to_dict(GALAXY_S3)),
                               InterfaceKind.LTE)
                is mdp_policy_for(GALAXY_S3, InterfaceKind.LTE))

    def test_build_protocol_rejects_unknown(self):
        from repro.sim.engine import Simulator
        from tests.helpers import make_path
        from repro.tcp.connection import FiniteSource

        sim = Simulator()
        wifi = make_path(sim, InterfaceKind.WIFI)
        lte = make_path(sim, InterfaceKind.LTE)
        with pytest.raises(ConfigurationError):
            build_protocol(
                "nope", sim, wifi, lte, FiniteSource(1.0), profile=GALAXY_S3
            )
