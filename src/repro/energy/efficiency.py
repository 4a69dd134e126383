"""Per-byte energy-efficiency math (Figures 3 and 4, Table 2 inputs).

This module answers the offline questions the paper's Energy
Information Base is built from: given steady WiFi and cellular
throughputs, which interface set downloads a byte most cheaply?  And
for a transfer of a given size, where is MPTCP (both interfaces) more
efficient than the best single path once fixed activation overheads are
charged?
"""

from __future__ import annotations

import enum
import math
from typing import Dict, List, Sequence, Tuple

from repro.energy.device import DeviceProfile
from repro.energy.power import Direction
from repro.errors import EnergyModelError
from repro.net.interface import InterfaceKind
from repro.units import mbps_to_bytes_per_sec


class Strategy(enum.Enum):
    """Which interfaces carry the transfer."""

    WIFI_ONLY = "wifi-only"
    CELLULAR_ONLY = "cellular-only"
    BOTH = "both"


def strategy_power(
    profile: DeviceProfile,
    strategy: Strategy,
    wifi_mbps: float,
    cell_mbps: float,
    cell_kind: InterfaceKind = InterfaceKind.LTE,
    direction: Direction = Direction.DOWN,
) -> float:
    """Steady-state device power for a strategy, watts.

    Throughputs are the rates the strategy would *use*: WiFi-only
    ignores ``cell_mbps`` and vice versa.
    """
    if wifi_mbps < 0 or cell_mbps < 0:
        raise EnergyModelError("throughputs must be non-negative")
    return _power(profile, strategy, wifi_mbps, cell_mbps, cell_kind, direction)


def _power(
    profile: DeviceProfile,
    strategy: Strategy,
    wifi_mbps,
    cell_mbps,
    cell_kind: InterfaceKind,
    direction: Direction,
):
    """:func:`strategy_power`'s arithmetic, unchecked; rates may be
    floats or numpy arrays."""
    wifi = profile.interfaces[InterfaceKind.WIFI]
    cell = profile.interfaces[cell_kind]
    if strategy is Strategy.WIFI_ONLY:
        return wifi.base_w + wifi.slope(direction) * wifi_mbps
    if strategy is Strategy.CELLULAR_ONLY:
        return cell.base_w + cell.slope(direction) * cell_mbps
    total = (wifi.base_w + wifi.slope(direction) * wifi_mbps) + (
        cell.base_w + cell.slope(direction) * cell_mbps
    )
    return total - profile.overlap_saving_w


def strategy_rate_mbps(strategy: Strategy, wifi_mbps: float, cell_mbps: float) -> float:
    """Aggregate download rate of a strategy, Mbps."""
    if strategy is Strategy.WIFI_ONLY:
        return wifi_mbps
    if strategy is Strategy.CELLULAR_ONLY:
        return cell_mbps
    return wifi_mbps + cell_mbps


def per_byte_energy(
    profile: DeviceProfile,
    strategy: Strategy,
    wifi_mbps: float,
    cell_mbps: float,
    cell_kind: InterfaceKind = InterfaceKind.LTE,
    direction: Direction = Direction.DOWN,
) -> float:
    """Steady-state energy per downloaded byte, joules/byte.

    This is the large-transfer limit the EIB is built from (§3.3: the
    amount of data remaining is unknown, so eMPTCP assumes a large
    transfer); fixed activation overheads amortise to zero here.
    Returns ``inf`` when the strategy has zero rate.
    """
    rate = strategy_rate_mbps(strategy, wifi_mbps, cell_mbps)
    if rate <= 0:
        return math.inf
    if wifi_mbps < 0 or cell_mbps < 0:
        raise EnergyModelError("throughputs must be non-negative")
    return per_byte_cost(profile, strategy, wifi_mbps, cell_mbps, cell_kind, direction)


def per_byte_cost(
    profile: DeviceProfile,
    strategy: Strategy,
    wifi_mbps,
    cell_mbps,
    cell_kind: InterfaceKind,
    direction: Direction,
):
    """:func:`per_byte_energy`'s arithmetic, unchecked: the rates may be
    floats or numpy arrays (the EIB bisects whole grids at once) and
    must give the strategy a positive rate.  One formula, so a scalar
    and an array caller get bit-identical results."""
    rate = strategy_rate_mbps(strategy, wifi_mbps, cell_mbps)
    power = _power(profile, strategy, wifi_mbps, cell_mbps, cell_kind, direction)
    return power / mbps_to_bytes_per_sec(rate)


def best_strategy(
    profile: DeviceProfile,
    wifi_mbps: float,
    cell_mbps: float,
    cell_kind: InterfaceKind = InterfaceKind.LTE,
    direction: Direction = Direction.DOWN,
) -> Strategy:
    """The per-byte-cheapest strategy at the given throughputs."""
    costs = {
        strategy: per_byte_energy(
            profile, strategy, wifi_mbps, cell_mbps, cell_kind, direction
        )
        for strategy in Strategy
    }
    return min(costs, key=lambda s: costs[s])


def download_energy(
    profile: DeviceProfile,
    strategy: Strategy,
    size_bytes: float,
    wifi_mbps: float,
    cell_mbps: float,
    cell_kind: InterfaceKind = InterfaceKind.LTE,
    include_fixed: bool = True,
) -> float:
    """Total energy to download ``size_bytes``, joules (Figure 4 math).

    Charges each used interface's fixed activation overhead (WiFi
    association burst; cellular promotion + tail) when
    ``include_fixed`` — the term that makes small transfers favour
    WiFi-only and motivates delayed subflow establishment.
    """
    if size_bytes <= 0:
        raise EnergyModelError("size_bytes must be positive")
    rate = strategy_rate_mbps(strategy, wifi_mbps, cell_mbps)
    if rate <= 0:
        return math.inf
    power = strategy_power(profile, strategy, wifi_mbps, cell_mbps, cell_kind)
    duration = size_bytes / mbps_to_bytes_per_sec(rate)
    energy = power * duration
    if include_fixed:
        if strategy in (Strategy.WIFI_ONLY, Strategy.BOTH):
            energy += profile.fixed_overhead(InterfaceKind.WIFI)
        if strategy in (Strategy.CELLULAR_ONLY, Strategy.BOTH):
            energy += profile.fixed_overhead(cell_kind)
    return energy


def efficiency_heatmap(
    profile: DeviceProfile,
    wifi_grid_mbps: Sequence[float],
    cell_grid_mbps: Sequence[float],
    cell_kind: InterfaceKind = InterfaceKind.LTE,
) -> List[List[float]]:
    """Figure 3: per-byte energy of MPTCP (both interfaces) normalised
    by the best single interface, over a (WiFi x cellular) grid.

    Returns rows indexed by cellular throughput, columns by WiFi
    throughput.  Values < 1 mean MPTCP is the most efficient (the dark
    "V" of the paper's grey-scale heat map).
    """
    rows: List[List[float]] = []
    for cell in cell_grid_mbps:
        row: List[float] = []
        for wifi in wifi_grid_mbps:
            both = per_byte_energy(profile, Strategy.BOTH, wifi, cell, cell_kind)
            single = min(
                per_byte_energy(profile, Strategy.WIFI_ONLY, wifi, cell, cell_kind),
                per_byte_energy(profile, Strategy.CELLULAR_ONLY, wifi, cell, cell_kind),
            )
            if math.isinf(single):
                row.append(math.inf)
            else:
                row.append(both / single)
        rows.append(row)
    return rows


def operating_region(
    profile: DeviceProfile,
    size_bytes: float,
    wifi_grid_mbps: Sequence[float],
    cell_grid_mbps: Sequence[float],
    cell_kind: InterfaceKind = InterfaceKind.LTE,
) -> List[Tuple[float, float]]:
    """Figure 4: grid points where MPTCP (both) is strictly the most
    energy-efficient way to complete a ``size_bytes`` transfer,
    including fixed overheads.

    Returns the (wifi_mbps, cell_mbps) points inside the region.
    """
    points: List[Tuple[float, float]] = []
    for cell in cell_grid_mbps:
        for wifi in wifi_grid_mbps:
            costs: Dict[Strategy, float] = {
                s: download_energy(
                    profile, s, size_bytes, wifi, cell, cell_kind, include_fixed=True
                )
                for s in Strategy
            }
            if costs[Strategy.BOTH] < costs[Strategy.WIFI_ONLY] and costs[
                Strategy.BOTH
            ] < costs[Strategy.CELLULAR_ONLY]:
                points.append((wifi, cell))
    return points


def region_boundaries(
    profile: DeviceProfile,
    size_bytes: float,
    wifi_grid_mbps: Sequence[float],
    cell_grid_mbps: Sequence[float],
    cell_kind: InterfaceKind = InterfaceKind.LTE,
) -> Dict[float, Tuple[float, float]]:
    """For each cellular throughput, the (min, max) WiFi throughput of
    the MPTCP-best region — the curves plotted in Figure 4.  Rows with
    no region point are omitted."""
    region = operating_region(
        profile, size_bytes, wifi_grid_mbps, cell_grid_mbps, cell_kind
    )
    by_cell: Dict[float, List[float]] = {}
    for wifi, cell in region:
        by_cell.setdefault(cell, []).append(wifi)
    return {cell: (min(ws), max(ws)) for cell, ws in sorted(by_cell.items())}
