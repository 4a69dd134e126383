"""Cross-model validation: fluid vs packet transport (CHK5xx).

The reproduction's results rest on the fluid model; this module runs
*matched* scenarios through both engines and compares the quantities
the paper's claims depend on:

* single-path completion time across rates/RTTs/loss;
* MPTCP aggregate completion time and per-subflow byte split;
* the head-of-line pathology: with a small connection-level receive
  buffer and a slow+laggy second path, packet-level MPTCP's aggregate
  goodput falls *below* the fast path alone — the effect behind the
  paper's Bad/Bad observations, which the fluid model only
  approximates (see EXPERIMENTS.md).

Its results share the checker's :class:`~repro.check.findings.Report`
vocabulary (:func:`agreement_report`).
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.findings import Report
from repro.errors import SimulationError
from repro.net.bandwidth import ConstantCapacity
from repro.net.interface import InterfaceKind, NetworkInterface
from repro.net.path import NetworkPath
from repro.mptcp.connection import MPTCPConnection
from repro.packet.link import PacketLink
from repro.packet.mptcp import PacketMptcpConnection, single_path_connection
from repro.sim.engine import Simulator
from repro.tcp.connection import FiniteSource, TcpConnection
from repro.units import mbps_to_bytes_per_sec, mib

#: Acceptable fluid/packet completion-time ratio band for CHK501.  The
#: engines model loss recovery differently, so ±30% is agreement, not
#: slack — see EXPERIMENTS.md for the measured ratios.
AGREEMENT_TOLERANCE = 0.30


@dataclass(frozen=True)
class PathSpec:
    """One path, engine-independent."""

    mbps: float
    rtt: float
    loss: float = 0.0
    buffer_bytes: float = 126_000.0
    kind: InterfaceKind = InterfaceKind.WIFI


@dataclass(frozen=True)
class ModelComparison:
    """Completion times of both engines on one matched scenario."""

    label: str
    size_bytes: float
    fluid_time: float
    packet_time: float

    @property
    def ratio(self) -> float:
        """fluid / packet completion time (1.0 = perfect agreement)."""
        return self.fluid_time / self.packet_time


def _fluid_path(sim: Simulator, spec: PathSpec) -> NetworkPath:
    path = NetworkPath(
        NetworkInterface(spec.kind),
        ConstantCapacity(mbps_to_bytes_per_sec(spec.mbps)),
        base_rtt=spec.rtt,
        loss_rate=spec.loss,
        buffer_bytes=spec.buffer_bytes,
    )
    path.attach(sim)
    return path


def _packet_link(sim: Simulator, spec: PathSpec, seed: int) -> PacketLink:
    return PacketLink(
        sim,
        ConstantCapacity(mbps_to_bytes_per_sec(spec.mbps)),
        one_way_delay=spec.rtt / 2.0,
        buffer_bytes=spec.buffer_bytes,
        loss_rate=spec.loss,
        rng=_random.Random(seed),
    )


def fluid_single_path_time(
    spec: PathSpec, size_bytes: float, seed: int = 0, max_time: float = 3_000.0
) -> float:
    """Completion time of the fluid TCP engine."""
    sim = Simulator()
    path = _fluid_path(sim, spec)
    source = FiniteSource(size_bytes)
    conn = TcpConnection(sim, path, source, rng=_random.Random(seed))
    done: List[float] = []
    conn.on_delivery(
        lambda _c, _d: done.append(sim.now) if source.exhausted else None
    )
    conn.connect()
    sim.run(until=max_time)
    if not done:
        raise SimulationError("fluid transfer did not complete")
    return done[-1]


def packet_single_path_time(
    spec: PathSpec, size_bytes: float, seed: int = 0, max_time: float = 3_000.0
) -> float:
    """Completion time of the packet TCP engine."""
    sim = Simulator()
    link = _packet_link(sim, spec, seed)
    conn = single_path_connection(sim, link, FiniteSource(size_bytes))
    conn.open()
    sim.run(until=max_time, max_events=50_000_000)
    if conn.completed_at is None:
        raise SimulationError("packet transfer did not complete")
    return conn.completed_at


def compare_single_path(
    specs: Sequence[Tuple[str, PathSpec]],
    size_bytes: float = mib(4),
    seed: int = 0,
) -> List[ModelComparison]:
    """Matched single-path downloads through both engines."""
    out: List[ModelComparison] = []
    for label, spec in specs:
        out.append(
            ModelComparison(
                label=label,
                size_bytes=size_bytes,
                fluid_time=fluid_single_path_time(spec, size_bytes, seed),
                packet_time=packet_single_path_time(spec, size_bytes, seed),
            )
        )
    return out


def fluid_mptcp_time(
    specs: Sequence[PathSpec], size_bytes: float, seed: int = 0,
    max_time: float = 3_000.0,
) -> float:
    """Completion time of the fluid MPTCP engine over the given paths."""
    sim = Simulator()
    paths = [_fluid_path(sim, spec) for spec in specs]
    source = FiniteSource(size_bytes)
    conn = MPTCPConnection(
        sim,
        primary_path=paths[0],
        source=source,
        secondary_paths=paths[1:],
        rng=_random.Random(seed),
    )
    conn.open()
    conn.on_complete(lambda _c: sim.stop())
    sim.run(until=max_time)
    if conn.completed_at is None:
        raise SimulationError("fluid MPTCP transfer did not complete")
    return conn.completed_at


def packet_mptcp_time(
    specs: Sequence[PathSpec],
    size_bytes: float,
    seed: int = 0,
    rcv_buffer: float = 2_000_000.0,
    max_time: float = 3_000.0,
) -> Tuple[float, List[float]]:
    """Completion time + per-subflow bytes of the packet MPTCP engine."""
    sim = Simulator()
    links = [_packet_link(sim, spec, seed + i) for i, spec in enumerate(specs)]
    conn = PacketMptcpConnection(
        sim, links, FiniteSource(size_bytes), rcv_buffer=rcv_buffer
    )
    conn.open()
    sim.run(until=max_time, max_events=50_000_000)
    if conn.completed_at is None:
        raise SimulationError("packet MPTCP transfer did not complete")
    return conn.completed_at, [sf.bytes_acked_total for sf in conn.subflows]


def compare_onoff_single_path(
    size_bytes: float = mib(32),
    high_mbps: float = 12.0,
    low_mbps: float = 0.8,
    mean_dwell: float = 40.0,
    rtt: float = 0.05,
    seeds: Sequence[int] = (1, 2, 3),
    max_time: float = 4_000.0,
) -> List[ModelComparison]:
    """Matched runs under the paper's §4.3 on/off WiFi modulation.

    Both engines see the *same* capacity sample path per seed (the
    modulation RNG is seeded identically), so the comparison is paired.
    """
    from repro.net.bandwidth import TwoStateMarkovCapacity

    def modulation(seed: int) -> TwoStateMarkovCapacity:
        return TwoStateMarkovCapacity(
            high_rate=mbps_to_bytes_per_sec(high_mbps),
            low_rate=mbps_to_bytes_per_sec(low_mbps),
            mean_high=mean_dwell,
            mean_low=mean_dwell,
            rng=_random.Random(seed),
            start_high=False,
        )

    out: List[ModelComparison] = []
    for seed in seeds:
        # Fluid.
        sim = Simulator()
        path = NetworkPath(
            NetworkInterface(InterfaceKind.WIFI), modulation(seed), base_rtt=rtt
        )
        path.attach(sim)
        source = FiniteSource(size_bytes)
        conn = TcpConnection(sim, path, source, rng=_random.Random(seed + 100))
        done: List[float] = []
        conn.on_delivery(
            lambda _c, _d: done.append(sim.now) if source.exhausted else None
        )
        conn.connect()
        sim.run(until=max_time)
        if not done:
            raise SimulationError("fluid on/off transfer did not complete")
        # Packet.
        sim2 = Simulator()
        link = PacketLink(
            sim2,
            modulation(seed),
            one_way_delay=rtt / 2,
            rng=_random.Random(seed + 100),
        )
        pconn = single_path_connection(sim2, link, FiniteSource(size_bytes))
        pconn.open()
        sim2.run(until=max_time, max_events=100_000_000)
        if pconn.completed_at is None:
            raise SimulationError("packet on/off transfer did not complete")
        out.append(
            ModelComparison(
                label=f"on/off seed {seed}",
                size_bytes=size_bytes,
                fluid_time=done[-1],
                packet_time=pconn.completed_at,
            )
        )
    return out


def hol_goodput_collapse(
    fast: Optional[PathSpec] = None,
    slow: Optional[PathSpec] = None,
    size_bytes: float = mib(4),
    rcv_buffer: float = 64_000.0,
    seed: int = 0,
) -> Tuple[float, float]:
    """Demonstrate receive-buffer head-of-line blocking.

    Returns ``(fast_alone_time, mptcp_time)`` for a small receive
    buffer; with a sufficiently slow and laggy second path, MPTCP takes
    *longer* than the fast path alone — the pathology the paper's
    Bad/Bad category exposes and the reason adaptive path suspension
    can beat always-on MPTCP.
    """
    fast = fast or PathSpec(mbps=8.0, rtt=0.04)
    slow = slow or PathSpec(mbps=0.4, rtt=0.6, buffer_bytes=30_000.0)
    alone = packet_single_path_time(fast, size_bytes, seed)
    together, _split = packet_mptcp_time(
        [fast, slow], size_bytes, seed, rcv_buffer=rcv_buffer
    )
    return alone, together


# ---------------------------------------------------------------------------
# Report-vocabulary wrapper


def agreement_report(
    comparisons: Sequence[ModelComparison],
    tolerance: float = AGREEMENT_TOLERANCE,
) -> Report:
    """Fold model comparisons into the shared checker vocabulary.

    CHK501: a matched scenario whose fluid/packet completion-time ratio
    leaves the agreement band; CHK502: a comparison whose run crashed
    (recorded by :func:`run_agreement_checks`).
    """
    report = Report(tier="packet")
    for comparison in comparisons:
        report.checked += 1
        ratio = comparison.ratio
        if not (1 - tolerance) <= ratio <= (1 + tolerance):
            report.add(
                "CHK501",
                f"fluid/packet disagreement on {comparison.label}: "
                f"fluid {comparison.fluid_time:.2f}s vs packet "
                f"{comparison.packet_time:.2f}s (ratio {ratio:.2f}, "
                f"band {1 - tolerance:.2f}..{1 + tolerance:.2f})",
                context=comparison.label,
            )
    return report


#: Protocols compared fluid-vs-packet by default.  Plain MPTCP is
#: deliberately excluded: its aggregate completion time is dominated by
#: scheduler/coupling details the two engines model differently, so it
#: sits outside the ±30% band (see EXPERIMENTS.md).  This is a live
#: view of the packet engine's ``agreement_protocols`` declaration.
AGREEMENT_PROTOCOLS = ("tcp-wifi", "emptcp")


def cross_engine_agreement_specs(
    engine: str,
    size_bytes: float = mib(2),
    protocols: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
) -> List[Tuple[str, "RunSpec", "RunSpec"]]:
    """Matched (label, reference spec, ``engine`` spec) triples.

    The generic CHK5xx enumerator: each pair names the *same*
    static-bandwidth scenario (§4.2 good and bad WiFi) and differs
    only in ``engine``, so the whole comparison rides through the
    unified runner — caching, manifests, and traces apply to agreement
    runs like any other experiment.  ``protocols`` defaults to the
    engine's registered ``agreement_protocols``; any engine added to
    the :mod:`repro.engines` registry with a non-empty declaration is
    enumerable here without further edits.
    """
    from repro import engines as _engines
    from repro.experiments.static_bw import LAB_LTE_MBPS
    from repro.runtime.spec import RunSpec

    eng = _engines.get_engine(engine)
    if protocols is None:
        protocols = eng.agreement_protocols
    triples: List[Tuple[str, RunSpec, RunSpec]] = []
    for good, wifi_label in ((True, "good-wifi"), (False, "bad-wifi")):
        kwargs = {
            "good_wifi": good,
            "download_bytes": size_bytes,
            "lte_mbps": LAB_LTE_MBPS,
        }
        for protocol in protocols:
            for seed in seeds:
                triples.append(
                    (
                        f"{protocol} on {wifi_label} seed {seed}",
                        RunSpec(
                            protocol=protocol,
                            builder="static",
                            kwargs=dict(kwargs),
                            seed=seed,
                            engine=_engines.DEFAULT_ENGINE,
                        ),
                        RunSpec(
                            protocol=protocol,
                            builder="static",
                            kwargs=dict(kwargs),
                            seed=seed,
                            engine=eng.name,
                        ),
                    )
                )
    return triples


def all_engine_agreement_specs(
    size_bytes: float = mib(2), seeds: Sequence[int] = (0,)
) -> Dict[str, List[Tuple[str, "RunSpec", "RunSpec"]]]:
    """Agreement triples for *every* registered non-reference engine
    that declares agreement protocols, keyed by engine name."""
    from repro import engines as _engines

    out: Dict[str, List[Tuple[str, "RunSpec", "RunSpec"]]] = {}
    for name in _engines.engine_names():
        if name == _engines.DEFAULT_ENGINE:
            continue
        if not _engines.get_engine(name).agreement_protocols:
            continue
        out[name] = cross_engine_agreement_specs(
            name, size_bytes=size_bytes, seeds=seeds
        )
    return out


def engine_agreement_specs(
    size_bytes: float = mib(2),
    protocols: Sequence[str] = AGREEMENT_PROTOCOLS,
    seeds: Sequence[int] = (0,),
) -> List[Tuple[str, "RunSpec", "RunSpec"]]:
    """Matched (label, fluid spec, packet spec) triples — the packet
    instantiation of :func:`cross_engine_agreement_specs`."""
    return cross_engine_agreement_specs(
        "packet", size_bytes=size_bytes, protocols=protocols, seeds=seeds
    )


def run_engine_agreement(
    size_bytes: float = mib(2),
    protocols: Sequence[str] = AGREEMENT_PROTOCOLS,
    seeds: Sequence[int] = (0,),
    tolerance: float = AGREEMENT_TOLERANCE,
) -> Tuple[Report, List[ModelComparison]]:
    """Run matched fluid/packet scenarios through the unified runner.

    Returns the CHK501 report plus the raw comparisons (for the CLI's
    table and the golden-file test).  Raises
    :class:`~repro.errors.ExecutionError` if a run dies outright.
    """
    from repro.runtime.executor import run_specs

    triples = engine_agreement_specs(
        size_bytes=size_bytes, protocols=protocols, seeds=seeds
    )
    specs = [spec for _label, fluid, packet in triples for spec in (fluid, packet)]
    results = run_specs(specs)
    comparisons: List[ModelComparison] = []
    for i, (label, _fluid, _packet) in enumerate(triples):
        fluid_res, packet_res = results[2 * i], results[2 * i + 1]
        comparisons.append(
            ModelComparison(
                label=label,
                size_bytes=size_bytes,
                fluid_time=fluid_res.download_time,
                packet_time=packet_res.download_time,
            )
        )
    return agreement_report(comparisons, tolerance=tolerance), comparisons


def run_agreement_checks(
    size_bytes: float = mib(2),
    seed: int = 0,
    tolerance: float = AGREEMENT_TOLERANCE,
    protocols: Sequence[str] = AGREEMENT_PROTOCOLS,
) -> Report:
    """Run the fluid/packet agreement suite as a checker tier.

    End-to-end protocol runs (including eMPTCP's full control plane)
    go through the unified experiment runner on both engines (CHK501);
    the head-of-line collapse must also reproduce (CHK503): with a
    small receive buffer and a bad second path, packet MPTCP must be
    *slower* than the fast path alone, or the packet engine has lost
    the effect the Bad/Bad analysis depends on.
    """
    from repro.errors import ExecutionError

    try:
        report, _comparisons = run_engine_agreement(
            size_bytes=size_bytes,
            protocols=protocols,
            seeds=(seed,),
            tolerance=tolerance,
        )
    except (ExecutionError, SimulationError) as exc:
        report = Report(tier="packet")
        report.add("CHK502", f"agreement run failed: {exc}")
        return report
    try:
        alone, together = hol_goodput_collapse(size_bytes=size_bytes, seed=seed)
    except SimulationError as exc:
        report.add("CHK502", f"head-of-line run failed: {exc}")
        return report
    report.checked += 1
    if together <= alone:
        report.add(
            "CHK503",
            f"head-of-line collapse not reproduced: MPTCP with a bad "
            f"second path finished in {together:.2f}s, faster than the "
            f"fast path alone ({alone:.2f}s)",
            context="hol-collapse",
        )
    return report
