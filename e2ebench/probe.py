"""Set-up probe: a fresh process that sets a workload up, prints
``ready`` and tears down.  The benchmark times spawn-to-``ready``.

Usage (from the checkout root)::

    python3 e2ebench/probe.py packet-static|service-sweep
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402


def main(name: str) -> int:
    if name == "packet-static":
        workloads.packet_setup()
        print("ready", flush=True)
        return 0
    if name == "service-sweep":
        with harness.scratch_dir("probe") as tmp:
            handle = workloads.ServiceHandle(tmp / "cache")
            print("ready", flush=True)
            handle.close()
        return 0
    print(f"error: no set-up probe for {name!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
