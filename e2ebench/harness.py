"""Shared machinery of the benchmark: paths, the timed closed loop, the
host reference loop, CPU and memory accounting, and set-up probes.

Everything here runs from the root of a source checkout: the program
is imported from ``src/`` and every file the benchmark writes lives
under ``.bench_tmp/`` in that checkout.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
TMP_ROOT = ROOT / ".bench_tmp"

#: Iterations of the fixed pure-Python reference loop (about 10 ms).
REF_LOOP_N = 100_000
#: Minimum wall time between two reference-loop samples in a timed phase.
REF_EVERY_S = 0.25


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


def require_source() -> None:
    """Refuse to run without the program's sources in the checkout."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program sources under {SRC}; run from the root of a "
            "checkout that holds src/repro"
        )


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's sources
    first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@contextmanager
def scratch_dir(tag: str) -> Iterator[Path]:
    """A private temporary directory inside the checkout, removed on exit."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


# -- host reference loop --------------------------------------------


def ref_loop_ms() -> float:
    """CPU milliseconds of a fixed pure-Python loop on this thread."""
    start = time.thread_time()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i % 7
    if acc < 0:  # keeps the loop from being optimised into nothing
        raise AssertionError(acc)
    return (time.thread_time() - start) * 1e3


# -- CPU and memory accounting --------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _live_children() -> List[Tuple[int, float, int]]:
    """(pid, cpu seconds, peak RSS KiB) of this process's live children."""
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
            fields = stat[stat.rindex(")") + 2:].split()
            if int(fields[1]) != me:
                continue
            cpu_s = (int(fields[11]) + int(fields[12])) / _CLK_TCK
            hwm_kb = 0
            with open(f"/proc/{name}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        hwm_kb = int(line.split()[1])
                        break
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        out.append((int(name), cpu_s, hwm_kb))
    return out


def cpu_seconds() -> float:
    """CPU of this process, its reaped children and its live children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(cpu for _pid, cpu, _hwm in _live_children())
    return (own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
            + live)


def peak_rss_mb(include_children: bool = True) -> float:
    """Largest peak RSS of this process and (optionally) its live children."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        for _pid, _cpu, hwm in _live_children():
            kib = max(kib, hwm)
    return kib / 1024.0


def run_child(
    argv: Sequence[str], *, stdout_path: Path, stderr_path: Path,
    timeout_s: float = 170.0,
) -> Tuple[int, float, float]:
    """Run a program subprocess to its end.

    Returns ``(exit code, wall s, peak RSS MiB)``; the peak RSS is that
    child's alone, from ``wait4``.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def probe_ready_s(argv: Sequence[str], timeout_s: float = 120.0) -> float:
    """Seconds from spawning ``argv`` to its ``ready`` line on stdout;
    the child is then left to finish and reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe {argv} failed (exit {code})")
    return ready


# -- the timed closed loop ------------------------------------------


class TimedLoop:
    """One closed-loop client: runs whole rounds of ops for ``seconds``.

    Each op is timed alone (wall).  Between ops, at most every
    ``REF_EVERY_S``, the host reference loop runs; its time counts
    neither toward op latency nor toward throughput.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.op_ms: List[float] = []
        self.ref_ms: List[float] = []
        self.ref_cpu_s = 0.0
        self.cpu_s = 0.0
        self.failed = 0

    def _ref(self) -> None:
        ms = ref_loop_ms()
        self.ref_ms.append(ms)
        self.ref_cpu_s += ms / 1e3

    def run(self, rounds: Callable[[int], List[Callable[[], bool]]]) -> None:
        """``rounds(i)`` gives round ``i``'s ops; each op returns True
        when it succeeded and False when it failed."""
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        last_ref = -1e9
        index = 0
        while time.perf_counter() - start < self.seconds:
            for op in rounds(index):
                now = time.perf_counter()
                if now - last_ref >= REF_EVERY_S:
                    self._ref()
                    last_ref = time.perf_counter()
                t0 = time.perf_counter()
                ok = op()
                self.op_ms.append((time.perf_counter() - t0) * 1e3)
                if not ok:
                    self.failed += 1
            index += 1
        self._ref()
        self.cpu_s = cpu_seconds() - cpu0 - self.ref_cpu_s

    @property
    def ops(self) -> int:
        return len(self.op_ms)


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


#: The tail percentile: the highest one whose run-to-run spread stays
#: within its bound on this host (README, "Tail").
TAIL_PCT = 75


def end_to_end(loop: TimedLoop, setup_s: float, rss_mb: float
               ) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of one run.

    ``op_ms_tail`` is p75 where the run has at least 40 ops; with fewer
    there is no tail, and it repeats the median (README, "Tail").
    """
    p50 = statistics.median(loop.op_ms)
    tail = percentile(loop.op_ms, TAIL_PCT) if loop.ops >= 40 else p50
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops / (sum(loop.op_ms) / 1e3), "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail, "ms"),
        "cpu_ms_per_op": (loop.cpu_s * 1e3 / loop.ops, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
