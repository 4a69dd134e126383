"""Regenerate ``tests/data/packet_results.golden.json``.

The golden pins packet-engine results byte for byte: each entry maps a
spec's ``content_hash()`` to the sha256 of its canonical ``RunResult``
JSON (sorted keys, compact separators).  The specs cover the Fig 5/6
static scenarios (good/bad WiFi x emptcp/mptcp/tcp-wifi at 2 and
4 MiB), a few random-bandwidth seeds, one short mobility window, and a
download whose size is not a whole number of bytes.

Regenerate only when a change is *meant* to move a packet result, and
list the regeneration, the moved specs and the reason in CHANGES.md::

    PYTHONPATH=src python tests/packet_results_golden.py

``tests/test_packet_results_golden.py`` compares against the file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.experiments.static_bw import LAB_LTE_MBPS
from repro.runtime.spec import RunSpec
from repro.units import mib

GOLDEN = Path(__file__).resolve().parent / "data" / "packet_results.golden.json"

PROTOCOLS = ("emptcp", "mptcp", "tcp-wifi")


def _static(good: bool, protocol: str, size: float, seed: int = 0) -> RunSpec:
    return RunSpec(
        protocol=protocol,
        builder="static",
        seed=seed,
        engine="packet",
        kwargs={"good_wifi": good, "download_bytes": size, "lte_mbps": LAB_LTE_MBPS},
    )


def specs() -> List[RunSpec]:
    """Every pinned spec, in golden order."""
    out = [
        _static(good, protocol, mib(size_mib))
        for size_mib in (2, 4)
        for good in (True, False)
        for protocol in PROTOCOLS
    ]
    out += [
        RunSpec(protocol=protocol, builder="random-bw", seed=seed,
                engine="packet", kwargs={"download_bytes": mib(4)})
        for protocol, seed in (("emptcp", 1), ("emptcp", 2), ("emptcp", 3),
                               ("mptcp", 1), ("tcp-wifi", 2))
    ]
    out.append(RunSpec(protocol="emptcp", builder="mobility", seed=1,
                       engine="packet", kwargs={"duration": 15.0}))
    out.append(_static(True, "emptcp", 1_234_567.25, seed=3))
    return out


def result_digest(result) -> str:
    """sha256 of the canonical JSON of one ``RunResult``."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build() -> Dict[str, str]:
    """``{spec hash: result digest}``, every spec executed uncached."""
    return {spec.content_hash(): result_digest(spec.execute()) for spec in specs()}


def main() -> int:
    doc = build()
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()]
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    assert json.loads(text) == doc
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN} ({len(doc)} specs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
