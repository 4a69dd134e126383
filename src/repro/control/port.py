"""The control-plane/data-plane seam.

:class:`DataPlanePort` is everything the eMPTCP control plane is
allowed to ask of a transport engine.  The attribute names on
:class:`SubflowLike` deliberately match the fluid
:class:`~repro.mptcp.subflow.Subflow`, so fluid subflows satisfy the
protocol directly and the packet engine provides a thin view object —
either way the same :class:`~repro.core.sampler.ThroughputSampler`
drives the §3.2 predictor.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable

from repro.net.interface import InterfaceKind

#: Delivery callback: ``(interface kind, bytes delivered)`` per event.
DeliveryListener = Callable[[InterfaceKind, float], None]


@runtime_checkable
class SubflowLike(Protocol):
    """What the control plane needs to observe about one subflow."""

    name: str

    @property
    def interface_kind(self) -> InterfaceKind:
        """The interface this subflow runs over."""
        ...

    @property
    def established(self) -> bool:
        """Handshake finished; the subflow can carry data."""
        ...

    @property
    def suspended(self) -> bool:
        """Deactivated by the controller (MP_PRIO backup / paused)."""
        ...

    @property
    def sending(self) -> bool:
        """Data currently in flight (distinguishes app-limited idle
        windows from genuine zero-throughput samples, §3.2)."""
        ...

    @property
    def bytes_delivered(self) -> float:
        """Cumulative bytes this subflow delivered to the connection."""
        ...

    @property
    def handshake_rtt(self) -> Optional[float]:
        """RTT estimate from connection setup; sets the sampling
        interval δ (§3.2).  None until established."""
        ...


@runtime_checkable
class DelayPort(Protocol):
    """The port subset §3.5 delayed establishment consumes.

    :class:`DataPlanePort` is a superset; a port driving delayed
    establishment alone need implement only this slice.
    """

    def join_cellular(self) -> SubflowLike:
        """Establish the cellular subflow (§3.5's commit action)."""
        ...

    def on_delivery(self, listener: DeliveryListener) -> None:
        """Subscribe to per-interface delivery events (drives κ)."""
        ...

    @property
    def is_idle(self) -> bool:
        """No data moving for roughly one RTT (the §3.5 idle veto)."""
        ...

    @property
    def source_exhausted(self) -> bool:
        """The application has no more bytes queued."""
        ...

    @property
    def completed(self) -> bool:
        """The transfer finished; control decisions are moot."""
        ...


@runtime_checkable
class DataPlanePort(DelayPort, Protocol):
    """The full command/query set the control plane issues to an engine."""

    def subflow(self, kind: InterfaceKind) -> Optional[SubflowLike]:
        """The subflow running over ``kind``, or None if never joined."""
        ...

    def set_subflow_usage(self, kind: InterfaceKind, in_use: bool) -> None:
        """Activate/deactivate the ``kind`` subflow (MP_PRIO, §3.4),
        applying the engine's §3.6 re-use tweaks on resume."""
        ...


__all__ = ["DataPlanePort", "DelayPort", "DeliveryListener", "SubflowLike"]
