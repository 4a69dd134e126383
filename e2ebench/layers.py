"""Per-layer tracing from outside the program.

No file of the program changes.  A traced run wraps public functions
and methods at each layer's seam (:class:`LayerTimers`) and runs the
stdlib profiler over every thread (:class:`SelfProfiler`), grouping
self time by ``repro.<package>``.  Both keep their data in memory; the
caller turns it into metrics when the run ends.
"""

from __future__ import annotations

import cProfile
import importlib
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Packages of the program that get a ``self_ms.<name>`` metric, plus
#: ``repro`` (top-level modules such as units/errors) and ``external``
#: (stdlib, numpy, builtins, the benchmark's own code).
PACKAGES = (
    "analysis", "baselines", "check", "cli", "control", "core", "energy",
    "engines", "experiments", "flow", "mptcp", "net", "obs", "packet",
    "runtime", "sim", "tcp", "workloads", "repro", "external",
)

#: Every per-layer metric, in the order the benchmark prints them.
#: Times are ms per op and counts are per op, except where README.md
#: says otherwise (``service.lost_events`` is a run total).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("eib.build_ms", "ms"), ("eib.builds", "count"),
    ("eib.per_byte_calls", "count"),
    ("mdp.solve_ms", "ms"), ("mdp.solves", "count"),
    ("cli.import_ms", "ms"),
    ("experiments.fluid_run_ms", "ms"), ("sim.run_ms", "ms"),
    ("sim.events", "count"),
    ("packet.run_ms", "ms"),
    ("runtime.run_many_ms", "ms"), ("runtime.verify_ms", "ms"),
    ("runtime.hash_ms", "ms"), ("runtime.execute_ms", "ms"),
    ("runtime.overhead_ms_per_run", "ms"),
    ("cache.get_ms", "ms"), ("cache.put_ms", "ms"),
    ("cache.hits", "count"), ("cache.misses", "count"),
    ("store.appends", "count"),
    ("service.submit_ms", "ms"), ("service.first_event_ms", "ms"),
    ("service.stream_ms", "ms"), ("service.lost_events", "count"),
    ("scheduler.jobs_done", "count"), ("scheduler.jobs_failed", "count"),
    ("scheduler.retries", "count"),
) + tuple((f"self_ms.{pkg}", "ms") for pkg in PACKAGES) + (
    ("trace.op_ms", "ms"), ("trace.self_sum_pct", "%"),
    ("trace.overhead_pct", "%"), ("host.ref_ms", "ms"),
)

#: (metric stem, module, attribute path) of every wrapped seam.  A
#: dotted attribute is a method patched on its class; a plain one is a
#: function replaced in every ``repro`` module that holds it.
SEAMS: Tuple[Tuple[str, str, str], ...] = (
    ("eib.build", "repro.core.eib", "EnergyInformationBase.__init__"),
    ("eib.per_byte", "repro.energy.efficiency", "per_byte_energy"),
    ("mdp.solve", "repro.baselines.mdp", "MdpPolicy._solve"),
    ("experiments.fluid_run", "repro.experiments.runner",
     "run_fluid_scenario"),
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("packet.run", "repro.packet.runner", "run_packet_scenario"),
    ("runtime.run_many", "repro.runtime.executor", "run_many"),
    ("runtime.verify", "repro.check.config", "verify_specs"),
    ("runtime.hash", "repro.runtime.spec", "RunSpec.content_hash"),
    ("runtime.execute", "repro.runtime.spec", "RunSpec.execute"),
    ("cache.get", "repro.runtime.cache", "ResultCache.get"),
    ("cache.put", "repro.runtime.cache", "ResultCache.put"),
    ("store.append", "repro.runtime.store", "SegmentStore.put"),
)


class _Stat:
    __slots__ = ("total_s", "calls", "items", "hits")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.calls = 0
        self.items = 0  # specs passed to run_many
        self.hits = 0  # cache gets that found an entry


class LayerTimers:
    """Wall time and call counts at each seam, outermost calls only."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {stem: _Stat() for stem, _m, _a in SEAMS}
        self._depth = threading.local()
        self._undo: List[Callable[[], None]] = []
        self._events0 = 0

    def _wrap(self, stem: str, orig: Callable[..., Any]) -> Callable[..., Any]:
        stat = self.stats[stem]
        depth = self._depth

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            level = getattr(depth, stem, 0)
            if level:
                return orig(*args, **kwargs)
            setattr(depth, stem, 1)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                stat.total_s += time.perf_counter() - start
                stat.calls += 1
                setattr(depth, stem, 0)
            if stem == "runtime.run_many":
                stat.items += len(args[0]) if args else len(kwargs["specs"])
            elif stem == "cache.get" and result is not None:
                stat.hits += 1
            return result

        wrapper.__wrapped__ = orig  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        """Patch every seam; :meth:`uninstall` restores them."""
        from repro.sim.engine import dispatch_stats

        self._events0 = dispatch_stats().snapshot()[0]
        for stem, module_name, attr in SEAMS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(stem, orig))
                self._undo.append(
                    lambda cls=cls, meth=meth, orig=orig: setattr(cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(stem, orig)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append(
                            lambda mod=mod, key=key, orig=orig:
                            setattr(mod, key, orig))

    def reset(self) -> None:
        """Forget everything measured so far; the seams stay installed."""
        from repro.sim.engine import dispatch_stats

        for stat in self.stats.values():
            stat.__init__()
        self._events0 = dispatch_stats().snapshot()[0]

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def sim_events(self) -> int:
        from repro.sim.engine import dispatch_stats

        return dispatch_stats().snapshot()[0] - self._events0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stats": {stem: [s.total_s, s.calls, s.items, s.hits]
                      for stem, s in self.stats.items()},
            "sim_events": self.sim_events(),
        }


def package_of(code: Any, repro_dir: str) -> str:
    """The ``PACKAGES`` name a profiled code object belongs to."""
    if isinstance(code, str):
        return "external"  # a builtin
    filename = code.co_filename
    if not filename.startswith(repro_dir):
        return "external"
    rel = filename[len(repro_dir):]
    if "/" in rel:
        pkg = rel.split("/", 1)[0]
        return pkg if pkg in PACKAGES else "repro"
    return "cli" if rel == "cli.py" else "repro"


class SelfProfiler:
    """The stdlib profiler on the calling thread and on every thread
    started while it runs, with self time grouped by package.

    ``timer`` defaults to wall time; pass ``time.thread_time`` where
    threads wait on each other, so that waiting is not counted.
    """

    def __init__(self, timer: Optional[Callable[[], float]] = None):
        self.timer = timer
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _new(self) -> cProfile.Profile:
        prof = (cProfile.Profile(self.timer) if self.timer is not None
                else cProfile.Profile())
        with self._lock:
            self._profiles.append(prof)
        return prof

    def _thread_hook(self, *_args: Any) -> None:
        # Runs as the new thread's first profile event: hand the thread
        # over to a profiler of its own.
        self._new().enable()

    def start(self) -> None:
        threading.setprofile(self._thread_hook)
        self._new().enable()

    def stop(self) -> None:
        threading.setprofile(None)  # type: ignore[arg-type]
        self._profiles[0].disable()

    def clear(self) -> None:
        """Forget everything profiled so far, on every thread."""
        with self._lock:
            for prof in self._profiles:
                prof.clear()

    def self_ms(self, repro_dir: str) -> Dict[str, float]:
        out = {pkg: 0.0 for pkg in PACKAGES}
        with self._lock:
            profiles = list(self._profiles)
        for prof in profiles:
            for entry in prof.getstats():
                out[package_of(entry.code, repro_dir)] += entry.inlinetime * 1e3
        return out


class Tracer:
    """The seams and the profiler together, for one traced phase."""

    def __init__(self, src: Path, timer: Optional[Callable[[], float]] = None):
        self.repro_dir = str(src / "repro") + "/"
        self.timers = LayerTimers()
        self.profiler = SelfProfiler(timer)

    def start(self) -> None:
        self.timers.install()
        self.profiler.start()

    def stop(self) -> None:
        self.profiler.stop()
        self.timers.uninstall()

    def reset(self) -> None:
        """Forget what was traced so far (a warm-up, say)."""
        self.timers.reset()
        self.profiler.clear()

    def snapshot(self) -> Dict[str, Any]:
        """The trace so far, in the shape :func:`merge` adds up."""
        doc = self.timers.to_dict()
        doc["self_ms"] = self.profiler.self_ms(self.repro_dir)
        return doc


def merge(into: Dict[str, Any], part: Dict[str, Any]) -> None:
    """Add one traced piece (``LayerTimers.to_dict`` plus ``self_ms``,
    ``cli_import_ms``) into an accumulator of the same shape."""
    for stem, vals in part.get("stats", {}).items():
        acc = into.setdefault("stats", {}).setdefault(stem, [0.0, 0, 0, 0])
        for i, value in enumerate(vals):
            acc[i] += value
    for key in ("sim_events", "cli_import_ms"):
        into[key] = into.get(key, 0) + part.get(key, 0)
    selfs = into.setdefault("self_ms", {pkg: 0.0 for pkg in PACKAGES})
    for pkg, ms in part.get("self_ms", {}).items():
        selfs[pkg] += ms


def per_layer_metrics(
    traced: Dict[str, Any], ops: int, extra: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Every ``PER_LAYER`` metric from merged trace data over ``ops``
    traced ops.  ``extra`` supplies the metrics measured by the caller
    (service client timings, scheduler counters, host and overhead
    figures); anything not measured on this workload reads 0."""
    stats = traced.get("stats", {})

    def ms(stem: str) -> float:
        return stats.get(stem, [0.0, 0, 0, 0])[0] * 1e3 / ops

    def calls(stem: str) -> float:
        return stats.get(stem, [0.0, 0, 0, 0])[1] / ops

    runs = stats.get("runtime.run_many", [0.0, 0, 0, 0])[2]
    run_many_s = stats.get("runtime.run_many", [0.0, 0, 0, 0])[0]
    execute_s = stats.get("runtime.execute", [0.0, 0, 0, 0])[0]
    gets = stats.get("cache.get", [0.0, 0, 0, 0])
    values: Dict[str, float] = {
        "eib.build_ms": ms("eib.build"),
        "eib.builds": calls("eib.build"),
        "eib.per_byte_calls": calls("eib.per_byte"),
        "mdp.solve_ms": ms("mdp.solve"),
        "mdp.solves": calls("mdp.solve"),
        "cli.import_ms": traced.get("cli_import_ms", 0.0) / ops,
        "experiments.fluid_run_ms": ms("experiments.fluid_run"),
        "sim.run_ms": ms("sim.run"),
        "sim.events": traced.get("sim_events", 0) / ops,
        "packet.run_ms": ms("packet.run"),
        "runtime.run_many_ms": ms("runtime.run_many"),
        "runtime.verify_ms": ms("runtime.verify"),
        "runtime.hash_ms": ms("runtime.hash"),
        "runtime.execute_ms": ms("runtime.execute"),
        "runtime.overhead_ms_per_run": (
            (run_many_s - execute_s) * 1e3 / runs if runs else 0.0),
        "cache.get_ms": ms("cache.get"),
        "cache.put_ms": ms("cache.put"),
        "cache.hits": gets[3] / ops,
        "cache.misses": (gets[1] - gets[3]) / ops,
        "store.appends": calls("store.append"),
    }
    self_ms = traced.get("self_ms", {})
    for pkg in PACKAGES:
        values[f"self_ms.{pkg}"] = self_ms.get(pkg, 0.0) / ops
    values.update(extra)
    units = dict(PER_LAYER)
    return {name: (float(values.get(name, 0.0)), units[name])
            for name, _unit in PER_LAYER}
