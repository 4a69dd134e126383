"""Protocol factory: one uniform constructor for every strategy the
paper compares, on any registered engine.

Every returned object exposes ``open()``, ``close()``,
``on_complete(cb)``, ``completed_at`` and ``bytes_received``.  On the
fluid engine energy flows through the paths' aggregate-rate listeners;
on the packet engine the runner (or the eMPTCP adapter) probes
delivered rates — either way the runner does not need to know which
protocol it is driving.

Engine dispatch goes through :mod:`repro.engines`: each registration
carries its per-connection constructor (``protocol_factory``) and its
supported-protocol tuple, so unsupported combinations fail with the
registry's canonical error naming *that* engine's set; ask the registry
(``repro.engines.get_engine(name).protocols``) which protocols an
engine runs.
"""

from __future__ import annotations

import random as _random
from typing import Any, Optional

from repro.baselines.mdp import MdpPolicy, MdpScheduledConnection
from repro.baselines.single_path import SinglePathTcp
from repro.baselines.wifi_first import WiFiFirstConnection
from repro.core.config import EMPTCPConfig
from repro.core.eib import cached_eib
from repro.core.emptcp import EMPTCPConnection
from repro.energy.device import DeviceProfile
from repro.energy.power import Direction
from repro.energy.serialization import profile_key
from repro.errors import ConfigurationError
from repro.mptcp.connection import MptcpMode, MPTCPConnection
from repro.net.interface import InterfaceKind
from repro.sim.engine import Simulator
from repro.tcp.connection import ByteSource

#: Every strategy the harness can run (the fluid engine's set — the
#: reference engine registers exactly this tuple).
PROTOCOLS = ("mptcp", "emptcp", "tcp-wifi", "wifi-first", "mdp", "single-path-mode")

#: Default throughput levels (Mbps) for the MDP scheduler's state space.
MDP_LEVELS = (0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0)

_POLICY_CACHE = {}


def mdp_policy_for(
    profile: DeviceProfile, cell_kind, direction: Direction = Direction.DOWN
) -> MdpPolicy:
    """Build (and cache, keyed on the profile's content) the offline
    MDP policy for a device profile — the stand-in for Pluntke et al.'s
    cloud-computed schedule."""
    if direction is not Direction.DOWN:
        raise ConfigurationError(
            "the offline MDP policy is computed for downloads only; "
            f"direction {direction.value!r} has no precomputed schedule"
        )
    key = (profile_key(profile), cell_kind, direction)
    if key not in _POLICY_CACHE:
        _POLICY_CACHE[key] = MdpPolicy(
            profile, MDP_LEVELS, MDP_LEVELS, cell_kind=cell_kind
        )
    return _POLICY_CACHE[key]


def build_protocol(
    protocol: str,
    sim: Simulator,
    wifi_path: Any,
    cellular_path: Any,
    source: ByteSource,
    profile: DeviceProfile,
    config: Optional[EMPTCPConfig] = None,
    rng: Optional[_random.Random] = None,
    direction: Direction = Direction.DOWN,
    engine: str = "fluid",
    cell_kind: Optional[InterfaceKind] = None,
    meter=None,
    rrc=None,
):
    """Construct a connection object for the named protocol.

    ``engine="fluid"`` expects :class:`~repro.net.path.NetworkPath`
    arguments; ``engine="packet"`` expects
    :class:`~repro.packet.link.PacketLink` ones (plus ``cell_kind``,
    and optionally the runner-owned ``meter``/``rrc`` for eMPTCP).
    Engines without per-connection objects (the vectorized flow tier)
    refuse with a pointer to ``run_scenario``; protocols outside the
    requested engine's registered set raise the canonical error naming
    that engine's supported tuple.
    """
    from repro import engines as _engines

    eng = _engines.get_engine(engine)
    if eng.protocol_factory is None:
        raise ConfigurationError(
            f"the {eng.name!r} engine advances whole fleets vectorized and "
            "has no per-connection objects; use "
            f"run_scenario(..., engine={eng.name!r}) instead of build_protocol"
        )
    message = _engines.protocol_error(eng, protocol)
    if message is not None:
        raise ConfigurationError(message)
    return eng.protocol_factory(
        protocol,
        sim=sim,
        wifi=wifi_path,
        cellular=cellular_path,
        source=source,
        profile=profile,
        config=config,
        rng=rng or _random.Random(0),
        direction=direction,
        cell_kind=cell_kind or InterfaceKind.LTE,
        meter=meter,
        rrc=rrc,
    )


def _build_fluid_protocol(
    protocol: str,
    sim: Simulator,
    wifi: Any,
    cellular: Any,
    source: ByteSource,
    profile: DeviceProfile,
    config: Optional[EMPTCPConfig],
    rng: _random.Random,
    direction: Direction,
    cell_kind: InterfaceKind,
    meter,
    rrc,
):
    """The fluid engine's registered ``protocol_factory``.

    ``cell_kind``/``meter``/``rrc`` are part of the uniform factory
    signature but unused here: fluid paths carry their interface kind
    and the runner owns the energy wiring.
    """
    if protocol == "tcp-wifi":
        return SinglePathTcp(sim, wifi, source, rng=rng)
    if protocol == "mptcp":
        return MPTCPConnection(
            sim,
            primary_path=wifi,
            source=source,
            secondary_paths=[cellular],
            mode=MptcpMode.FULL,
            rng=rng,
            auto_join=True,
            name="mptcp",
        )
    if protocol == "single-path-mode":
        return MPTCPConnection(
            sim,
            primary_path=wifi,
            source=source,
            secondary_paths=[cellular],
            mode=MptcpMode.SINGLE_PATH,
            rng=rng,
            name="single-path",
        )
    if protocol == "emptcp":
        return EMPTCPConnection(
            sim,
            wifi,
            cellular,
            source,
            profile=profile,
            config=config,
            rng=rng,
            eib=cached_eib(profile, cellular.interface.kind, direction),
            direction=direction,
        )
    if protocol == "wifi-first":
        return WiFiFirstConnection(sim, wifi, cellular, source, rng=rng)
    if protocol == "mdp":
        policy = mdp_policy_for(profile, cellular.interface.kind, direction)
        return MdpScheduledConnection(sim, wifi, cellular, source, policy, rng=rng)
    raise ConfigurationError(
        f"unknown protocol {protocol!r}; choose one of {PROTOCOLS}"
    )


def _build_packet_protocol(
    protocol: str,
    sim: Simulator,
    wifi: Any,
    cellular: Any,
    source: ByteSource,
    profile: DeviceProfile,
    config: Optional[EMPTCPConfig],
    rng: _random.Random,
    direction: Direction,
    cell_kind: InterfaceKind,
    meter,
    rrc,
):
    """The packet engine's registered ``protocol_factory``.

    ``rng`` is accepted for signature uniformity; packet links carry
    their own seeded loss/serialization streams.
    """
    from repro import engines as _engines
    from repro.packet.emptcp import PacketEmptcp
    from repro.packet.mptcp import PacketMptcpConnection, single_path_connection

    if protocol == "emptcp":
        return PacketEmptcp(
            sim,
            wifi,
            cellular,
            source,
            profile=profile,
            config=config,
            cell_kind=cell_kind,
            meter=meter,
            direction=direction,
            rrc=rrc,
        )
    if protocol == "mptcp":
        return PacketMptcpConnection(sim, [wifi, cellular], source, name="pmptcp")
    if protocol == "tcp-wifi":
        return single_path_connection(sim, wifi, source)
    raise ConfigurationError(
        _engines.protocol_error("packet", protocol)
        or f"the packet protocol factory has no constructor for {protocol!r}"
    )
