"""Regenerate ``tests/data/offline_tables.golden.json``.

The golden pins the offline tables bit for bit: every EIB row of every
``DEVICES`` profile x cellular kind x direction, and the MDP values and
policy that ``experiments.protocols.mdp_policy_for`` serves for every
profile x cellular kind.  Floats are stored as ``float.hex()``.

Regenerate only when a change is *meant* to move a threshold or a
policy, and list the regeneration and its reason in CHANGES.md::

    PYTHONPATH=src python tests/offline_tables_golden.py

``tests/test_offline_tables_golden.py`` compares against the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

from repro.baselines.mdp import MdpPolicy
from repro.core.eib import EnergyInformationBase
from repro.energy.device import DEVICES
from repro.energy.power import Direction
from repro.experiments.protocols import MDP_LEVELS
from repro.net.interface import InterfaceKind

GOLDEN = Path(__file__).resolve().parent / "data" / "offline_tables.golden.json"

CELL_KINDS = (InterfaceKind.LTE, InterfaceKind.THREEG)


def eib_key(profile_name: str, kind: InterfaceKind, direction: Direction) -> str:
    return f"{profile_name}/{kind.value}/{direction.value}"


def mdp_key(profile_name: str, kind: InterfaceKind) -> str:
    return f"{profile_name}/{kind.value}"


def state_key(state) -> str:
    return f"{state[0]},{state[1]}"


def eib_rows(eib: EnergyInformationBase):
    """Every grid row as ``[cell, cellular_only_below, wifi_only_above]``
    in ``float.hex()`` form."""
    return [
        [e.cell_mbps.hex(), e.cellular_only_below.hex(), e.wifi_only_above.hex()]
        for e in eib._entries
    ]


def mdp_tables(policy: MdpPolicy) -> Dict[str, Any]:
    return {
        "values": {state_key(s): v.hex() for s, v in sorted(policy.values.items())},
        "policy": {
            state_key(s): a.value for s, a in sorted(policy.policy.items())
        },
    }


def build() -> Dict[str, Any]:
    """The golden document, from the tables as the code builds them now.

    The MDP tables are built directly (not through the process cache of
    ``mdp_policy_for``) with the same arguments it uses, so that a
    regeneration never reads a stale cached table.
    """
    eib: Dict[str, Any] = {}
    mdp: Dict[str, Any] = {}
    for name, profile in sorted(DEVICES.items()):
        for kind in CELL_KINDS:
            for direction in Direction:
                table = EnergyInformationBase(profile, kind, direction=direction)
                eib[eib_key(name, kind, direction)] = eib_rows(table)
            policy = MdpPolicy(profile, MDP_LEVELS, MDP_LEVELS, cell_kind=kind)
            mdp[mdp_key(name, kind)] = mdp_tables(policy)
    return {"eib": eib, "mdp": mdp}


def dumps(doc: Dict[str, Any]) -> str:
    """JSON with one EIB row or one MDP table per line, so a regeneration
    diffs row by row."""
    lines = ["{", ' "eib": {']
    keys = sorted(doc["eib"])
    for i, key in enumerate(keys):
        rows = doc["eib"][key]
        lines.append(f"  {json.dumps(key)}: [")
        lines.extend(
            f"   {json.dumps(row)}" + ("," if j < len(rows) - 1 else "")
            for j, row in enumerate(rows)
        )
        lines.append("  ]" + ("," if i < len(keys) - 1 else ""))
    lines += [" },", ' "mdp": {']
    keys = sorted(doc["mdp"])
    for i, key in enumerate(keys):
        tables = doc["mdp"][key]
        lines.append(f"  {json.dumps(key)}: {{")
        lines.append(f'   "policy": {json.dumps(tables["policy"], sort_keys=True)},')
        lines.append(f'   "values": {json.dumps(tables["values"], sort_keys=True)}')
        lines.append("  }" + ("," if i < len(keys) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    doc = build()
    text = dumps(doc)
    assert json.loads(text) == doc
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
