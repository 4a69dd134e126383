"""The vectorized offline builders against scalar references, bit for bit.

Random valid device profiles and cellular grids go through
:class:`EnergyInformationBase` and through a plain scalar bisection of
the same per-byte differences; random level sets and transition
functions (uniform, and ragged ones with differently sized successor
lists) go through :class:`MdpPolicy` and through a plain scalar value
iteration.  Every threshold, value and action must agree exactly.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mdp import MdpAction, MdpPolicy, uniform_level_transitions
from repro.core.eib import EnergyInformationBase
from repro.energy.device import DeviceProfile
from repro.energy.efficiency import Strategy, per_byte_energy
from repro.energy.power import Direction, InterfacePower
from repro.net.interface import InterfaceKind

CELL_KINDS = st.sampled_from([InterfaceKind.LTE, InterfaceKind.THREEG])


def reference_eib_rows(profile, kind, direction, grid):
    """The EIB as a scalar bisection: ``(cell, cell_only, wifi_only)``."""

    def per_byte(strategy, wifi, cell):
        return per_byte_energy(profile, strategy, wifi, cell, kind, direction)

    def bisect(diff):
        lo, hi = 1e-6, 1_000.0
        if diff(lo) <= 0:
            return lo
        if diff(hi) > 0:
            return math.inf
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if diff(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    rows = []
    for c in sorted(set(grid)):
        wifi_only = bisect(
            lambda w: per_byte(Strategy.WIFI_ONLY, w, c) - per_byte(Strategy.BOTH, w, c)
        )
        cell_only = bisect(
            lambda w: per_byte(Strategy.BOTH, w, c)
            - per_byte(Strategy.CELLULAR_ONLY, w, c)
        )
        rows.append((c, cell_only, wifi_only))
    return rows


def reference_mdp(policy, transitions, iterations):
    """Scalar value iteration with the policy's own epoch costs.

    The expected future value is summed left to right from 0, written
    out as a loop: the builtin ``sum`` of floats is compensated on
    Python >= 3.12, and the solver's contract is the plain sum.
    """
    states = list(
        itertools.product(range(len(policy.wifi_levels)), range(len(policy.cell_levels)))
    )
    trans = {s: list(transitions(s)) for s in states}
    costs = {(s, a): policy._epoch_cost(s, a) for s in states for a in MdpAction}

    def future(values, s):
        total = 0
        for s2, p in trans[s]:
            total = total + p * values[s2]
        return total

    values = {s: 0.0 for s in states}
    for _ in range(iterations):
        new = {
            s: min(costs[(s, a)] + policy.discount * future(values, s) for a in MdpAction)
            for s in states
        }
        delta = max(abs(new[s] - values[s]) for s in states)
        values = new
        if delta < 1e-9:
            break
    actions = {
        s: min(MdpAction, key=lambda a: costs[(s, a)] + policy.discount * future(values, s))
        for s in states
    }
    return values, actions


@st.composite
def interface_powers(draw):
    base = draw(st.floats(min_value=0.01, max_value=3.0))
    return InterfacePower(
        base_w=base,
        per_mbps_w=draw(st.floats(min_value=0.0, max_value=0.5)),
        idle_w=draw(st.floats(min_value=0.0, max_value=base)),
        per_mbps_up_w=draw(st.none() | st.floats(min_value=0.0, max_value=3.0)),
    )


@st.composite
def profiles(draw):
    return DeviceProfile(
        name="drawn",
        interfaces={
            InterfaceKind.WIFI: draw(interface_powers()),
            InterfaceKind.LTE: draw(interface_powers()),
            InterfaceKind.THREEG: draw(interface_powers()),
        },
        rrc={},
        overlap_saving_w=draw(st.floats(min_value=0.0, max_value=2.0)),
        wifi_activation_j=0.0,
    )


def hexes(row):
    return tuple(float(x).hex() for x in row)


@settings(max_examples=60, deadline=None)
@given(
    profile=profiles(),
    kind=CELL_KINDS,
    direction=st.sampled_from(list(Direction)),
    grid=st.lists(
        st.floats(min_value=1e-3, max_value=200.0), min_size=1, max_size=12
    ),
)
def test_eib_matches_scalar_bisection(profile, kind, direction, grid):
    eib = EnergyInformationBase(profile, kind, cell_grid_mbps=grid, direction=direction)
    got = [
        hexes((e.cell_mbps, e.cellular_only_below, e.wifi_only_above))
        for e in eib._entries
    ]
    want = [hexes(row) for row in reference_eib_rows(profile, kind, direction, grid)]
    assert got == want


def test_eib_edge_rules_match_scalar_bisection():
    """An overlap saving larger than the WiFi base power makes BOTH
    cheaper than cellular alone from the first rate tried (``1e-6``) and
    keeps it cheaper than WiFi alone up to the search bound (``inf``)."""
    profile = DeviceProfile(
        name="edges",
        interfaces={
            InterfaceKind.WIFI: InterfacePower(base_w=0.5, per_mbps_w=0.5),
            InterfaceKind.LTE: InterfacePower(base_w=1.0, per_mbps_w=0.0),
        },
        rrc={},
        overlap_saving_w=0.9,
        wifi_activation_j=0.0,
    )
    grid = [0.5, 1.0, 5.0]
    eib = EnergyInformationBase(profile, InterfaceKind.LTE, cell_grid_mbps=grid)
    want = reference_eib_rows(profile, InterfaceKind.LTE, Direction.DOWN, grid)
    got = [(e.cell_mbps, e.cellular_only_below, e.wifi_only_above) for e in eib._entries]
    assert [hexes(r) for r in got] == [hexes(r) for r in want]
    assert all(r[1] == 1e-6 and math.isinf(r[2]) for r in want)


LEVELS = st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=4)


@st.composite
def ragged_transitions(draw, n_wifi, n_cell):
    """A transition function whose successor lists differ in length
    (some may be empty), in a drawn order, with normalised weights."""
    states = list(itertools.product(range(n_wifi), range(n_cell)))
    table = {}
    for s in states:
        succ = draw(st.lists(st.sampled_from(states), max_size=len(states) + 2))
        weights = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in succ]
        total = sum(weights)
        table[s] = [(s2, w / total) for s2, w in zip(succ, weights)]
    return lambda state: table[state]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    profile=profiles(),
    kind=CELL_KINDS,
    wifi_levels=LEVELS,
    cell_levels=LEVELS,
    ragged=st.booleans(),
    discount=st.floats(min_value=0.5, max_value=0.99),
    iterations=st.integers(min_value=1, max_value=60),
    demand=st.floats(min_value=0.1, max_value=10.0),
)
def test_mdp_matches_scalar_value_iteration(
    data, profile, kind, wifi_levels, cell_levels, ragged, discount, iterations, demand
):
    if ragged:
        transitions = data.draw(ragged_transitions(len(wifi_levels), len(cell_levels)))
    else:
        stay = data.draw(st.floats(min_value=0.05, max_value=1.0))
        transitions = uniform_level_transitions(len(wifi_levels), len(cell_levels), stay)
    policy = MdpPolicy(
        profile, wifi_levels, cell_levels, transitions=transitions, cell_kind=kind,
        discount=discount, iterations=iterations, demand_mbps=demand,
    )
    values, actions = reference_mdp(policy, transitions, iterations)
    assert list(policy.values) == list(values)
    assert [v.hex() for v in policy.values.values()] == [
        float(v).hex() for v in values.values()
    ]
    assert policy.policy == actions
