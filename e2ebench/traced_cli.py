"""Run ``emptcp-repro`` under the benchmark's layer tracing.

Usage (from the checkout root)::

    python3 e2ebench/traced_cli.py TRACE.json report --cache-dir DIR

The program's own output is unchanged.  The trace is held in memory
and written to ``TRACE.json`` when the command ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import layers  # noqa: E402


def main(argv: list) -> int:
    out_path, cli_args = Path(argv[0]), argv[1:]
    harness.import_program()
    tracer = layers.Tracer(harness.SRC)
    # The profiler runs from before the import, the seams from after it.
    tracer.profiler.start()
    start = time.perf_counter()
    import repro.cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer.timers.install()
    try:
        code = repro.cli.main(cli_args)
    finally:
        tracer.stop()
        doc = tracer.snapshot()
        doc["cli_import_ms"] = import_ms
        out_path.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
