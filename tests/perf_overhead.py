"""The profiler-overhead A/B on one static-bandwidth eMPTCP download.

Driven by the ``perf-smoke`` Makefile target::

    PYTHONPATH=src python tests/perf_overhead.py --size-mb 4

Prints the disabled-guard A/B and the enabled-profiler cost (min of
three runs each); see :func:`profiling_overhead`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional

from repro import obs
from repro.runtime.spec import RunSpec
from repro.units import mib


def profiling_overhead(
    size_mb: float = 4.0, repeats: int = 3, engine: str = "packet"
) -> Dict[str, Any]:
    """Measure the cost of the profiler on one static-bw emptcp run.

    Two modes, min-of-``repeats`` each:

    * *disabled* (twice, independently) — every instrumented component
      carries only the ``is not None`` guard; the A/B delta bounds the
      measurement noise, demonstrating that the guard's cost is not
      distinguishable from run-to-run jitter (< a few percent);
    * *enabled* — the same run inside ``obs.capture(profile=True)``,
      showing what turning the profiler on actually costs.

    The packet engine is the default subject: its per-segment dispatch
    loop is the instrumented hot path and runs long enough (tens of
    ms) for percentages to mean something; the fluid run finishes in
    ~1 ms at this size and drowns in timer noise.
    """
    spec = RunSpec(
        protocol="emptcp",
        builder="static",
        kwargs={"good_wifi": True, "download_bytes": mib(size_mb)},
        seed=0,
        engine=engine,
    )

    def min_wall(profile: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            if profile:
                with obs.capture(trace=False, metrics=False, profile=True):
                    start = time.perf_counter()
                    spec.execute()
                    wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                spec.execute()
                wall = time.perf_counter() - start
            best = min(best, wall)
        return best

    off_a = min_wall(False)
    off_b = min_wall(False)
    on = min_wall(True)
    return {
        "engine": engine,
        "size_mb": size_mb,
        "repeats": repeats,
        "disabled_a_s": off_a,
        "disabled_b_s": off_b,
        "disabled_delta": abs(off_b - off_a) / off_a if off_a > 0 else 0.0,
        "enabled_s": on,
        "enabled_overhead": (on - off_a) / off_a if off_a > 0 else 0.0,
    }


def format_overhead(measure: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`profiling_overhead`."""
    return "\n".join(
        [
            f"profiler overhead on {measure['size_mb']:g} MiB static-bw "
            f"emptcp@{measure.get('engine', 'packet')} "
            f"(min of {int(measure['repeats'])}):",
            f"  disabled (guard only), run A: "
            f"{measure['disabled_a_s'] * 1e3:8.2f} ms",
            f"  disabled (guard only), run B: "
            f"{measure['disabled_b_s'] * 1e3:8.2f} ms   "
            f"A/B delta {measure['disabled_delta']:.1%}",
            f"  profiling enabled:            "
            f"{measure['enabled_s'] * 1e3:8.2f} ms   "
            f"overhead {measure['enabled_overhead']:+.1%}",
        ]
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size-mb", type=float, default=4.0)
    args = parser.parse_args(argv)
    print(format_overhead(profiling_overhead(args.size_mb)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
