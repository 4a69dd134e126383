"""Energy substrate: interface power models, the cellular RRC state
machine (promotion/tail), device profiles, the integrating energy
meter, and per-byte-efficiency math.

The paper populates its Energy Information Base from a parameterised
multi-interface power model ([17], extending Huang et al. [14] and
Balasubramanian et al. [1]); this package implements a model of the
same form — linear power in throughput per interface, a cross-interface
overlap saving when both radios are up, and 3GPP promotion/tail fixed
overheads — with device profiles calibrated so that the paper's
Figure 1 (fixed overheads) and Table 2 (EIB thresholds) approximately
reproduce.  See DESIGN.md §5 for the calibration.
"""

from repro.energy.device import DEVICES, GALAXY_S3, NEXUS_5, DeviceProfile
from repro.energy.efficiency import (
    Strategy,
    best_strategy,
    download_energy,
    efficiency_heatmap,
    operating_region,
    per_byte_energy,
    strategy_power,
)
from repro.energy.fitting import (
    AffineFit,
    PowerSample,
    fit_affine,
    fit_profile_interface,
    simulate_measurement_campaign,
)
from repro.energy.meter import EnergyMeter
from repro.energy.power import Direction, InterfacePower
from repro.energy.rrc import RrcMachine, RrcParams, RrcState
from repro.energy.serialization import (
    profile_from_dict,
    profile_from_json,
    profile_key,
    profile_to_dict,
    profile_to_json,
)

__all__ = [
    "AffineFit",
    "DEVICES",
    "DeviceProfile",
    "Direction",
    "EnergyMeter",
    "GALAXY_S3",
    "InterfacePower",
    "NEXUS_5",
    "PowerSample",
    "RrcMachine",
    "RrcParams",
    "RrcState",
    "Strategy",
    "best_strategy",
    "download_energy",
    "efficiency_heatmap",
    "fit_affine",
    "fit_profile_interface",
    "operating_region",
    "per_byte_energy",
    "profile_from_dict",
    "profile_from_json",
    "profile_key",
    "profile_to_dict",
    "profile_to_json",
    "simulate_measurement_campaign",
    "strategy_power",
]
