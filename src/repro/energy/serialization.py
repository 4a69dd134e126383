"""Device-profile serialisation.

Profiles are plain data; serialising them to JSON lets users version
their own measured devices (e.g. one produced with
:mod:`repro.energy.fitting`) and load them back without touching code::

    text = profile_to_json(my_profile)
    profile = profile_from_json(text)
    eib = EnergyInformationBase(profile)
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.energy.device import DeviceProfile, DeviceSpec
from repro.energy.power import InterfacePower
from repro.energy.rrc import RrcParams
from repro.errors import EnergyModelError
from repro.net.interface import InterfaceKind


def profile_to_dict(profile: DeviceProfile) -> Dict[str, Any]:
    """A JSON-ready dictionary for one device profile."""
    return {
        "name": profile.name,
        "interfaces": {
            kind.value: {
                "base_w": p.base_w,
                "per_mbps_w": p.per_mbps_w,
                "per_mbps_up_w": p.per_mbps_up_w,
                "idle_w": p.idle_w,
            }
            for kind, p in profile.interfaces.items()
        },
        "rrc": {
            kind.value: {
                "promotion_time": r.promotion_time,
                "promotion_power_w": r.promotion_power_w,
                "tail_time": r.tail_time,
                "tail_power_w": r.tail_power_w,
                "active_hold": r.active_hold,
            }
            for kind, r in profile.rrc.items()
        },
        "overlap_saving_w": profile.overlap_saving_w,
        "wifi_activation_j": profile.wifi_activation_j,
        "baseline_w": profile.baseline_w,
        "spec": {
            "release_date": profile.spec.release_date,
            "app_processor": profile.spec.app_processor,
            "semiconductor": profile.spec.semiconductor,
            "android_version": profile.spec.android_version,
            "kernel_version": profile.spec.kernel_version,
            "wifi_chipset": profile.spec.wifi_chipset,
        },
    }


def profile_from_dict(data: Dict[str, Any]) -> DeviceProfile:
    """Reconstruct a profile from :func:`profile_to_dict` output."""
    try:
        interfaces = {
            InterfaceKind(kind): InterfacePower(
                base_w=params["base_w"],
                per_mbps_w=params["per_mbps_w"],
                per_mbps_up_w=params.get("per_mbps_up_w"),
                idle_w=params.get("idle_w", 0.0),
            )
            for kind, params in data["interfaces"].items()
        }
        rrc = {
            InterfaceKind(kind): RrcParams(
                promotion_time=params["promotion_time"],
                promotion_power_w=params["promotion_power_w"],
                tail_time=params["tail_time"],
                tail_power_w=params["tail_power_w"],
                active_hold=params.get("active_hold", 0.2),
            )
            for kind, params in data.get("rrc", {}).items()
        }
        spec = DeviceSpec(**data.get("spec", {}))
        return DeviceProfile(
            name=data["name"],
            interfaces=interfaces,
            rrc=rrc,
            overlap_saving_w=data.get("overlap_saving_w", 0.0),
            wifi_activation_j=data.get("wifi_activation_j", 0.0),
            baseline_w=data.get("baseline_w", 0.0),
            spec=spec,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise EnergyModelError(f"malformed profile data: {exc}") from exc


def profile_to_json(profile: DeviceProfile, indent: int = 2) -> str:
    """Serialise a profile to JSON text."""
    return json.dumps(profile_to_dict(profile), indent=indent)


def profile_key(profile: DeviceProfile) -> str:
    """A content key for process caches of per-profile tables: two
    profiles share it only when every field matches, not just the name
    (``DeviceProfile`` holds mappings, so it is not hashable itself)."""
    return json.dumps(profile_to_dict(profile), sort_keys=True)


def profile_from_json(text: str) -> DeviceProfile:
    """Parse a profile from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EnergyModelError(f"invalid profile JSON: {exc}") from exc
    return profile_from_dict(data)
