"""The Energy Information Base (§3.3, Table 2).

The EIB is computed *offline* from the device's parameterised energy
model (any model can populate it — the paper cites [33, 34]) and holds,
for each cellular throughput, the pair of WiFi-throughput transition
points:

* below the **cellular-only threshold**, TCP over cellular alone is the
  most energy-efficient per byte;
* at or above the **WiFi-only threshold**, TCP over WiFi alone is;
* in between, using both interfaces (MPTCP) wins — the "V" of Figure 3.

Per the paper, efficiency is defined in the large-transfer limit
(per-byte steady-state energy; the remaining transfer size is unknown,
so fixed overheads are not amortised into the EIB itself).

Thresholds are found by bisection on the continuous per-byte-energy
difference, which is monotone in the WiFi rate for any power model
that is affine-or-concave in throughput, then cached on a cellular-rate
grid and linearly interpolated at lookup time.  The bisection runs on
every grid row at once as numpy arrays, through the same per-byte
formula as :func:`~repro.energy.efficiency.per_byte_energy`; each row
sees the IEEE operations a scalar bisection would, in the same order,
so every threshold equals the scalar one bit for bit
(``tests/data/offline_tables.golden.json`` pins them).  A 300-row table
builds in a few milliseconds.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.energy.device import DeviceProfile
from repro.energy.efficiency import Strategy, per_byte_cost
from repro.energy.power import Direction
from repro.energy.serialization import profile_key
from repro.errors import EnergyModelError
from repro.net.interface import InterfaceKind

#: Upper bound for threshold searches, Mbps.  Beyond this we call the
#: threshold infinite (WiFi-only never wins at that cellular rate).
_MAX_WIFI_MBPS = 1_000.0


def _bisect_rows(rows: int, diff) -> List[float]:
    """Per row, the smallest WiFi rate where ``diff(w) <= 0``.

    ``diff`` maps an array of WiFi rates (one per row) to the rows'
    differences, positive while the single-path strategy is worse than
    BOTH and decreasing in the WiFi rate.  Every row takes 80 halvings
    from ``(1e-6, _MAX_WIFI_MBPS)``; a row already ``<= 0`` at ``1e-6``
    gets ``1e-6`` and one still positive at the top gets ``inf``.  The
    rows share arrays, but each sees the IEEE operations a scalar
    bisection would, in the same order, so each root is bit-identical
    to the scalar one.
    """
    import numpy as np

    lo = np.full(rows, 1e-6)
    hi = np.full(rows, _MAX_WIFI_MBPS)
    at_floor = diff(lo) <= 0
    past_top = diff(hi) > 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        worse = diff(mid) > 0
        lo = np.where(worse, mid, lo)
        hi = np.where(worse, hi, mid)
    root = np.where(past_top, math.inf, 0.5 * (lo + hi))
    return np.where(at_floor, 1e-6, root).tolist()


@dataclass(frozen=True)
class EibEntry:
    """One EIB row (a row of Table 2).

    ``cellular_only_below``: use cellular only when the observed WiFi
    throughput is below this, Mbps.
    ``wifi_only_above``: use WiFi only when at or above this, Mbps.
    In between, use both.
    """

    cell_mbps: float
    cellular_only_below: float
    wifi_only_above: float


class EnergyInformationBase:
    """Offline-computed transition thresholds, indexed by cellular rate."""

    def __init__(
        self,
        profile: DeviceProfile,
        cell_kind: InterfaceKind = InterfaceKind.LTE,
        cell_grid_mbps: Optional[Sequence[float]] = None,
        direction: Direction = Direction.DOWN,
    ):
        if not cell_kind.is_cellular:
            raise EnergyModelError(f"{cell_kind} is not a cellular interface")
        self.profile = profile
        self.cell_kind = cell_kind
        self.direction = direction
        if cell_grid_mbps is None:
            cell_grid_mbps = [0.1 * i for i in range(1, 301)]  # 0.1 .. 30 Mbps
        grid = sorted(set(float(c) for c in cell_grid_mbps))
        if not grid or grid[0] <= 0:
            raise EnergyModelError("cellular grid must be positive")
        self._grid = grid
        self._entries: List[EibEntry] = self._build(grid)

    # ------------------------------------------------------------------
    # construction

    def _build(self, grid: List[float]) -> List[EibEntry]:
        """Every grid row's two thresholds, each bisected for all rows
        at once.

        ``WIFI_ONLY - BOTH`` turns ``<= 0`` at the WiFi-only threshold.
        Below the cellular-only threshold BOTH is *worse* than cellular
        alone (the WiFi radio's base power buys almost no rate), so that
        threshold is where ``BOTH - CELLULAR_ONLY`` turns ``<= 0``.
        """
        import numpy as np

        cell = np.array(grid)

        def cost(strategy: Strategy, wifi):
            return per_byte_cost(
                self.profile, strategy, wifi, cell, self.cell_kind, self.direction
            )

        wifi_only = _bisect_rows(
            len(grid), lambda w: cost(Strategy.WIFI_ONLY, w) - cost(Strategy.BOTH, w)
        )
        cell_only = _bisect_rows(
            len(grid),
            lambda w: cost(Strategy.BOTH, w) - cost(Strategy.CELLULAR_ONLY, w),
        )
        return [
            EibEntry(c, cellular_only_below=co, wifi_only_above=wo)
            for c, co, wo in zip(grid, cell_only, wifi_only)
        ]

    # ------------------------------------------------------------------
    # queries

    def thresholds(self, cell_mbps: float) -> Tuple[float, float]:
        """``(cellular_only_below, wifi_only_above)`` at a cellular rate,
        linearly interpolated between grid rows and clamped at the grid
        edges."""
        if cell_mbps < 0:
            raise EnergyModelError("cell_mbps must be non-negative")
        grid = self._grid
        if cell_mbps <= grid[0]:
            entry = self._entries[0]
            return entry.cellular_only_below, entry.wifi_only_above
        if cell_mbps >= grid[-1]:
            entry = self._entries[-1]
            return entry.cellular_only_below, entry.wifi_only_above
        idx = bisect_left(grid, cell_mbps)
        lo, hi = self._entries[idx - 1], self._entries[idx]
        frac = (cell_mbps - lo.cell_mbps) / (hi.cell_mbps - lo.cell_mbps)

        def lerp(a: float, b: float) -> float:
            if math.isinf(a) or math.isinf(b):
                return math.inf
            return a + frac * (b - a)

        return (
            lerp(lo.cellular_only_below, hi.cellular_only_below),
            lerp(lo.wifi_only_above, hi.wifi_only_above),
        )

    def decide(self, wifi_mbps: float, cell_mbps: float) -> Strategy:
        """The raw (hysteresis-free) EIB verdict for observed rates."""
        cell_only, wifi_only = self.thresholds(cell_mbps)
        if wifi_mbps < cell_only:
            return Strategy.CELLULAR_ONLY
        if wifi_mbps >= wifi_only:
            return Strategy.WIFI_ONLY
        return Strategy.BOTH

    def entry_at(self, cell_mbps: float) -> EibEntry:
        """An interpolated entry at an arbitrary cellular rate."""
        cell_only, wifi_only = self.thresholds(cell_mbps)
        return EibEntry(cell_mbps, cell_only, wifi_only)

    def table_rows(self, cell_rates_mbps: Sequence[float]) -> List[EibEntry]:
        """Rows in Table 2's format for the requested cellular rates."""
        return [self.entry_at(c) for c in cell_rates_mbps]


_EIB_CACHE: Dict[Tuple[str, InterfaceKind, Direction], EnergyInformationBase] = {}


def cached_eib(
    profile: DeviceProfile,
    cell_kind: InterfaceKind = InterfaceKind.LTE,
    direction: Direction = Direction.DOWN,
) -> EnergyInformationBase:
    """A process-wide cache of EIBs — they are pure functions of the
    device profile, and a build bisects a few hundred grid rows (a few
    milliseconds, vectorized).  Keyed on the profile's content, so two
    profiles that share a name get their own tables."""
    key = (profile_key(profile), cell_kind, direction)
    if key not in _EIB_CACHE:
        _EIB_CACHE[key] = EnergyInformationBase(profile, cell_kind, direction=direction)
    return _EIB_CACHE[key]
