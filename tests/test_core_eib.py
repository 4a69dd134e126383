"""Tests for the Energy Information Base (Table 2)."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.eib import EnergyInformationBase, cached_eib
from repro.energy.device import GALAXY_S3, NEXUS_5
from repro.energy.efficiency import Strategy, per_byte_energy
from repro.errors import EnergyModelError
from repro.net.interface import InterfaceKind


@pytest.fixture(scope="module")
def eib():
    return cached_eib(GALAXY_S3, InterfaceKind.LTE)


class TestThresholds:
    def test_ordering_cellular_below_wifi_threshold(self, eib):
        for cell in (0.5, 1.0, 2.0, 5.0, 10.0):
            cell_only, wifi_only = eib.thresholds(cell)
            assert 0 < cell_only < wifi_only

    def test_table2_rows_match_paper_within_30pct(self, eib):
        """Calibration target: the published Table 2 rows."""
        paper = {
            0.5: (0.043, 0.234),
            1.0: (0.134, 0.502),
            1.5: (0.209, 0.803),
            2.0: (0.304, 1.070),
        }
        for cell, (paper_cell_only, paper_wifi_only) in paper.items():
            cell_only, wifi_only = eib.thresholds(cell)
            assert wifi_only == pytest.approx(paper_wifi_only, rel=0.30)
            # The 0.5 row's tiny cellular-only threshold gets a looser
            # absolute tolerance.
            assert cell_only == pytest.approx(paper_cell_only, rel=0.30, abs=0.03)

    def test_thresholds_consistent_with_raw_energy_model(self, eib):
        """At the WiFi-only threshold the two per-byte costs cross."""
        cell = 1.0
        _cell_only, wifi_only = eib.thresholds(cell)
        below = per_byte_energy(GALAXY_S3, Strategy.WIFI_ONLY, wifi_only * 0.9, cell)
        both_below = per_byte_energy(GALAXY_S3, Strategy.BOTH, wifi_only * 0.9, cell)
        assert both_below < below
        above = per_byte_energy(GALAXY_S3, Strategy.WIFI_ONLY, wifi_only * 1.1, cell)
        both_above = per_byte_energy(GALAXY_S3, Strategy.BOTH, wifi_only * 1.1, cell)
        assert above < both_above

    def test_interpolation_between_grid_rows(self, eib):
        lo = eib.thresholds(1.0)
        hi = eib.thresholds(1.1)
        mid = eib.thresholds(1.05)
        assert min(lo[1], hi[1]) <= mid[1] <= max(lo[1], hi[1])

    def test_clamping_at_grid_edges(self, eib):
        tiny = eib.thresholds(0.001)
        assert tiny == eib.thresholds(0.1)
        huge = eib.thresholds(1e6)
        assert huge == eib.thresholds(30.0)

    def test_negative_rate_rejected(self, eib):
        with pytest.raises(EnergyModelError):
            eib.thresholds(-1.0)

    @given(st.floats(min_value=0.1, max_value=29.9))
    def test_property_thresholds_monotone_in_cell_rate(self, cell):
        eib = cached_eib(GALAXY_S3, InterfaceKind.LTE)
        lo = eib.thresholds(cell)
        hi = eib.thresholds(cell + 0.1)
        # Faster LTE raises both transition points (WiFi must be better
        # to justify WiFi-only; LTE-only region widens).
        assert hi[0] >= lo[0] - 1e-9
        assert hi[1] >= lo[1] - 1e-9


class TestDecide:
    def test_three_regions(self, eib):
        cell = 2.0
        cell_only, wifi_only = eib.thresholds(cell)
        assert eib.decide(cell_only * 0.5, cell) is Strategy.CELLULAR_ONLY
        assert eib.decide((cell_only + wifi_only) / 2, cell) is Strategy.BOTH
        assert eib.decide(wifi_only * 1.5, cell) is Strategy.WIFI_ONLY

    def test_decide_agrees_with_best_strategy_away_from_boundaries(self, eib):
        from repro.energy.efficiency import best_strategy

        for wifi, cell in [(0.05, 4.0), (0.6, 2.0), (9.0, 2.0), (3.0, 8.0)]:
            assert eib.decide(wifi, cell) is best_strategy(GALAXY_S3, wifi, cell)


class TestConstruction:
    def test_non_cellular_kind_rejected(self):
        with pytest.raises(EnergyModelError):
            EnergyInformationBase(GALAXY_S3, InterfaceKind.WIFI)

    def test_empty_grid_rejected(self):
        with pytest.raises(EnergyModelError):
            EnergyInformationBase(GALAXY_S3, cell_grid_mbps=[])

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(EnergyModelError):
            EnergyInformationBase(GALAXY_S3, cell_grid_mbps=[0.0, 1.0])

    def test_cache_returns_same_object(self):
        a = cached_eib(GALAXY_S3)
        b = cached_eib(GALAXY_S3)
        assert a is b
        c = cached_eib(NEXUS_5)
        assert c is not a

    def test_cache_keys_on_profile_content_not_name(self):
        lte = GALAXY_S3.interfaces[InterfaceKind.LTE]
        custom = dataclasses.replace(GALAXY_S3, interfaces={
            **GALAXY_S3.interfaces,
            InterfaceKind.LTE: dataclasses.replace(lte, base_w=2 * lte.base_w),
        })
        assert custom.name == GALAXY_S3.name
        stock = cached_eib(GALAXY_S3)
        assert cached_eib(GALAXY_S3) is stock
        assert cached_eib(custom) is not stock
        assert cached_eib(custom).thresholds(1.0) != stock.thresholds(1.0)

    def test_threeg_eib_buildable(self):
        eib = EnergyInformationBase(
            GALAXY_S3, InterfaceKind.THREEG, cell_grid_mbps=[0.5, 1.0, 2.0]
        )
        cell_only, wifi_only = eib.thresholds(1.0)
        assert 0 < cell_only < wifi_only

    def test_table_rows(self, eib):
        rows = eib.table_rows([0.5, 1.0, 1.5, 2.0])
        assert [r.cell_mbps for r in rows] == [0.5, 1.0, 1.5, 2.0]
        for row in rows:
            assert row.cellular_only_below < row.wifi_only_above
