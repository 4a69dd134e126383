"""The MDP-based energy scheduler of Pluntke et al. [24] (§4.6).

Pluntke et al. schedule MPTCP path usage with a Markov decision
process: states are discretised per-interface throughput levels, the
action set picks which interfaces to use for the next unit-time epoch
(one second, as in the paper), and the cost is the energy spent in the
epoch.  The policy is far too expensive to compute in the kernel, so it
is computed offline ("in the cloud") and downloaded — here, computed by
value iteration before the run — and applied at run time as a lookup.
The value iteration is vectorized over all states with numpy and exact:
it sums each state's successors left to right and breaks ties towards
the first action, so values and policy equal a scalar solve bit for bit
(``tests/data/offline_tables.golden.json`` pins them).

§4.6 simulates this scheduler rather than deploying it, and observes
that with an energy model in which LTE's per-second power never drops
below WiFi's, the generated policies choose WiFi-only in every state —
giving exactly the performance (and limitations) of TCP over WiFi.
This implementation reproduces that analysis honestly: the policy is
derived from the cost/transition structure, not hard-coded.
"""

from __future__ import annotations

import enum
import itertools
import random as _random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.energy.device import DeviceProfile
from repro.energy.efficiency import Strategy, strategy_power
from repro.errors import ConfigurationError
from repro.mptcp.connection import MptcpMode, MPTCPConnection
from repro.net.interface import InterfaceKind
from repro.net.path import NetworkPath
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.tcp.connection import ByteSource
from repro.units import bytes_per_sec_to_mbps

#: Decision epoch, seconds ("Unit time for state transitions is set to
#: one second as in [24]").
EPOCH = 1.0

#: Cost assigned to an action that transfers nothing (the flow must
#: make progress); effectively infinite relative to real powers.
_STALL_COST = 1e6


class MdpAction(enum.Enum):
    """Interface sets the scheduler can choose per epoch."""

    WIFI = "wifi"
    CELLULAR = "cellular"
    BOTH = "both"


_ACTION_TO_STRATEGY = {
    MdpAction.WIFI: Strategy.WIFI_ONLY,
    MdpAction.CELLULAR: Strategy.CELLULAR_ONLY,
    MdpAction.BOTH: Strategy.BOTH,
}

State = Tuple[int, int]  # (wifi level index, cellular level index)
TransitionFn = Callable[[State], Sequence[Tuple[State, float]]]


def uniform_level_transitions(
    n_wifi: int, n_cell: int, stay_prob: float = 0.8
) -> TransitionFn:
    """A simple finite state machine of throughput changes: each
    interface independently stays at its level with ``stay_prob`` and
    otherwise jumps uniformly to any other level.  Scenario-specific
    chains can be passed to :class:`MdpPolicy` instead."""
    if not 0 < stay_prob <= 1:
        raise ConfigurationError("stay_prob must be in (0, 1]")

    def transitions(state: State) -> Sequence[Tuple[State, float]]:
        wi, ci = state
        out: List[Tuple[State, float]] = []
        for wj in range(n_wifi):
            pw = stay_prob if wj == wi else (1 - stay_prob) / max(1, n_wifi - 1)
            for cj in range(n_cell):
                pc = stay_prob if cj == ci else (1 - stay_prob) / max(1, n_cell - 1)
                if pw * pc > 0:
                    out.append(((wj, cj), pw * pc))
        return out

    return transitions


class MdpPolicy:
    """Offline value iteration over throughput-level states."""

    def __init__(
        self,
        profile: DeviceProfile,
        wifi_levels_mbps: Sequence[float],
        cell_levels_mbps: Sequence[float],
        transitions: Optional[TransitionFn] = None,
        cell_kind: InterfaceKind = InterfaceKind.LTE,
        discount: float = 0.95,
        iterations: int = 300,
        demand_mbps: float = 0.5,
    ):
        if not wifi_levels_mbps or not cell_levels_mbps:
            raise ConfigurationError("level sets must be non-empty")
        if not 0 < discount < 1:
            raise ConfigurationError("discount must be in (0, 1)")
        self.profile = profile
        self.wifi_levels = list(wifi_levels_mbps)
        self.cell_levels = list(cell_levels_mbps)
        self.cell_kind = cell_kind
        self.discount = discount
        if demand_mbps <= 0:
            raise ConfigurationError("demand_mbps must be positive")
        self.demand_mbps = demand_mbps
        self._transitions = transitions or uniform_level_transitions(
            len(self.wifi_levels), len(self.cell_levels)
        )
        self.values: Dict[State, float] = {}
        self.policy: Dict[State, MdpAction] = {}
        self._solve(iterations)

    # ------------------------------------------------------------------

    def _epoch_cost(self, state: State, action: MdpAction) -> float:
        """Energy (joules) to serve the flow's demand for one epoch.

        Pluntke et al. schedule flows with throughput requirements: an
        action must serve the demand (heavily penalised otherwise) and
        costs the power of running the chosen radios at the served
        rate.  With per-second radio powers where cellular never drops
        below WiFi, this is what makes the policy collapse to WiFi-only
        whenever WiFi can carry the demand (§4.6).
        """
        wifi = self.wifi_levels[state[0]]
        cell = self.cell_levels[state[1]]
        rate = {
            MdpAction.WIFI: wifi,
            MdpAction.CELLULAR: cell,
            MdpAction.BOTH: wifi + cell,
        }[action]
        if rate <= 0:
            return _STALL_COST
        served = min(rate, self.demand_mbps)
        if action is MdpAction.BOTH:
            wifi_served = min(wifi, served)
            cell_served = served - wifi_served
        elif action is MdpAction.WIFI:
            wifi_served, cell_served = served, 0.0
        else:
            wifi_served, cell_served = 0.0, served
        power = strategy_power(
            self.profile,
            _ACTION_TO_STRATEGY[action],
            wifi_served,
            cell_served,
            self.cell_kind,
        )
        cost = power * EPOCH
        if rate < self.demand_mbps:
            cost += _STALL_COST * (1.0 - rate / self.demand_mbps)
        return cost

    def _solve(self, iterations: int) -> None:
        """Value iteration over a padded (state x successor) matrix.

        Row ``i`` of ``prob``/``succ`` lists state ``i``'s successors in
        the order the transition function gives them, padded with
        ``p = 0`` up to the widest row.  ``np.add.accumulate`` sums each
        row left to right, so the expected future value is the plain
        sequential sum of ``p * V[s']`` (``np.sum`` and ``@`` reduce in
        a different order and differ in the last ulp).  Actions break
        ties towards the first in :class:`MdpAction` order.
        """
        import numpy as np

        states = list(
            itertools.product(range(len(self.wifi_levels)), range(len(self.cell_levels)))
        )
        index = {s: i for i, s in enumerate(states)}
        trans = [list(self._transitions(s)) for s in states]
        width = max(1, max(len(t) for t in trans))
        prob = np.zeros((len(states), width))
        succ = np.zeros((len(states), width), dtype=np.intp)
        for i, successors in enumerate(trans):
            for j, (s2, p) in enumerate(successors):
                prob[i, j] = p
                succ[i, j] = index[s2]
        costs = np.array(
            [[self._epoch_cost(s, a) for a in MdpAction] for s in states]
        )

        def backup(values):
            # ``+ 0.0`` matches a sum that starts from 0: it only turns a
            # -0.0 total into 0.0.
            future = np.add.accumulate(prob * values[succ], axis=1)[:, -1] + 0.0
            q = costs + self.discount * future[:, None]
            best = q[:, 0]
            choice = np.zeros(len(states), dtype=np.intp)
            for a in range(1, q.shape[1]):
                better = q[:, a] < best
                best = np.where(better, q[:, a], best)
                choice = np.where(better, a, choice)
            return best, choice

        values = np.zeros(len(states))
        for _ in range(iterations):
            new_values, _choice = backup(values)
            delta = np.max(np.abs(new_values - values))
            values = new_values
            if delta < 1e-9:
                break
        _best, choice = backup(values)
        actions = list(MdpAction)
        self.values = dict(zip(states, values.tolist()))
        self.policy = {s: actions[a] for s, a in zip(states, choice.tolist())}

    # ------------------------------------------------------------------

    def state_for(self, wifi_mbps: float, cell_mbps: float) -> State:
        """Discretise observed throughputs to the nearest levels."""
        wi = min(
            range(len(self.wifi_levels)),
            key=lambda i: abs(self.wifi_levels[i] - wifi_mbps),
        )
        ci = min(
            range(len(self.cell_levels)),
            key=lambda i: abs(self.cell_levels[i] - cell_mbps),
        )
        return wi, ci

    def action_for(self, wifi_mbps: float, cell_mbps: float) -> MdpAction:
        """The scheduled action for observed throughputs."""
        return self.policy[self.state_for(wifi_mbps, cell_mbps)]

    def chosen_actions(self) -> List[MdpAction]:
        """Distinct actions the policy ever chooses (§4.6 observes this
        collapses to {WIFI} under LTE-unfavourable energy models)."""
        return sorted(set(self.policy.values()), key=lambda a: a.value)


class MdpScheduledConnection:
    """MPTCP driven by a precomputed MDP policy in 1-second epochs."""

    def __init__(
        self,
        sim: Simulator,
        wifi_path: NetworkPath,
        cellular_path: NetworkPath,
        source: ByteSource,
        policy: MdpPolicy,
        rng: Optional[_random.Random] = None,
        name: str = "mdp",
    ):
        self.sim = sim
        self.wifi_path = wifi_path
        self.cellular_path = cellular_path
        self.policy = policy
        self.name = name
        # auto_join is off: the scheduler owns the decision of whether
        # the cellular subflow exists at all.  A policy that never
        # schedules cellular (§4.6's observed outcome) therefore never
        # pays its promotion/tail — matching the paper's "same energy
        # performance as TCP over WiFi".
        self.mptcp = MPTCPConnection(
            sim,
            primary_path=wifi_path,
            source=source,
            secondary_paths=[cellular_path],
            mode=MptcpMode.FULL,
            rng=rng,
            auto_join=False,
            name=name,
        )
        self.epochs = 0
        self._last_wifi_mbps = bytes_per_sec_to_mbps(wifi_path.capacity.rate)
        self._last_cell_mbps = bytes_per_sec_to_mbps(cellular_path.capacity.rate)
        self._epoch_proc = PeriodicProcess(sim, EPOCH, self._epoch)
        self._complete_listeners: List[Callable[["MdpScheduledConnection"], None]] = []
        self.mptcp.on_complete(self._on_complete)

    def open(self) -> None:
        """Open the connection and start epoch scheduling."""
        self.mptcp.open()
        self._epoch_proc.start()

    def close(self) -> None:
        """Close all subflows."""
        self._epoch_proc.stop()
        self.mptcp.close()

    def on_complete(self, listener) -> None:
        """Subscribe to transfer completion."""
        self._complete_listeners.append(listener)

    def _on_complete(self, _conn: MPTCPConnection) -> None:
        self._epoch_proc.stop()
        for listener in list(self._complete_listeners):
            listener(self)

    def _epoch(self) -> None:
        self.epochs += 1
        self._observe()
        action = self.policy.action_for(self._last_wifi_mbps, self._last_cell_mbps)
        wifi_sf = self.mptcp.subflow_for(self.wifi_path.interface.kind)
        cell_sf = self.mptcp.subflow_for(self.cellular_path.interface.kind)
        want_wifi = action in (MdpAction.WIFI, MdpAction.BOTH)
        want_cell = action in (MdpAction.CELLULAR, MdpAction.BOTH)
        if want_cell and cell_sf is None and self.mptcp.opened:
            cell_sf = self.mptcp.add_subflow(self.cellular_path)
        for subflow, want in ((wifi_sf, want_wifi), (cell_sf, want_cell)):
            if subflow is None or not subflow.established:
                continue
            if want and subflow.suspended:
                self.mptcp.set_low_priority(subflow, low=False)
            elif not want and not subflow.suspended:
                self.mptcp.set_low_priority(subflow, low=True)

    def _observe(self) -> None:
        """Track per-interface throughput; suspended interfaces keep
        their last observation (as in the offline simulation)."""
        wifi_sf = self.mptcp.subflow_for(self.wifi_path.interface.kind)
        cell_sf = self.mptcp.subflow_for(self.cellular_path.interface.kind)
        if wifi_sf is not None and wifi_sf.established and not wifi_sf.suspended:
            self._last_wifi_mbps = bytes_per_sec_to_mbps(wifi_sf.current_rate)
        if cell_sf is not None and cell_sf.established and not cell_sf.suspended:
            self._last_cell_mbps = bytes_per_sec_to_mbps(cell_sf.current_rate)

    @property
    def completed_at(self) -> Optional[float]:
        """Transfer completion time."""
        return self.mptcp.completed_at

    @property
    def bytes_received(self) -> float:
        """Bytes delivered so far."""
        return self.mptcp.bytes_received
