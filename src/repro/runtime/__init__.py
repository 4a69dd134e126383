"""repro.runtime — the experiment execution runtime.

Turns experiment execution into declarative, parallel, cached,
observable jobs.  Since the runtime split, four separable components
sit behind the :func:`run_many` facade:

* :mod:`repro.runtime.queue` — a persistent, crash-recoverable job
  queue (JSONL journal) with priorities, dependency edges, and
  spec-hash deduplication (one execution, many waiters);
* :mod:`repro.runtime.scheduler` — one synchronous dispatcher loop
  feeding an in-process or warm process pool; timeouts, bounded
  retries, and the serial fallback live here as strategy objects;
* :mod:`repro.runtime.store` — the batched append-only segment store
  behind the result cache, with metadata-only stats and
  segment-granular eviction;
* :mod:`repro.runtime.service` — the stdlib HTTP/JSONL experiment
  service (submit/stream/status) plus the sweep-DAG planner.

Supporting cast, unchanged in spirit:

* :mod:`repro.runtime.spec` — picklable :class:`RunSpec`s with stable
  content hashes, plus the scenario-builder registry;
* :mod:`repro.runtime.executor` — the facade: ambient
  :class:`RuntimeContext`, :func:`run_many`/:func:`run_specs`;
* :mod:`repro.runtime.cache` — the content-addressed result cache
  over the segment store;
* :mod:`repro.runtime.clock` — the journaled wall-clock seam the
  determinism checks hold the queue/scheduler/store to;
* :mod:`repro.runtime.manifest` / :mod:`repro.runtime.progress` —
  JSONL run manifests and live runs/sec + ETA reporting;
* :mod:`repro.runtime.perf` / :mod:`repro.runtime.bench` — per-run
  performance records, the content-addressed perf store, and the
  ``repro perf record/compare`` benchmark suite.

Typical use::

    from repro.runtime import ResultCache, run_many, use_runtime
    from repro.experiments.static_bw import static_specs

    specs = static_specs(good_wifi=True, runs=10)
    with use_runtime(jobs=4, cache=ResultCache()):
        results = run_many(specs)
"""

from repro.runtime.cache import DEFAULT_CACHE_ROOT, CacheStats, ResultCache
from repro.runtime.executor import (
    RuntimeContext,
    current_context,
    group_results,
    run_many,
    run_specs,
    use_runtime,
)
from repro.runtime.manifest import (
    ManifestEntry,
    RunManifest,
    format_summary,
    summarize,
)
from repro.runtime.perf import PerfMeter, PerfRecord, PerfStore
from repro.runtime.progress import ProgressReporter, ProgressSnapshot
from repro.runtime.queue import Job, JobQueue, QueueStats
from repro.runtime.scheduler import (
    BatchSink,
    RetryPolicy,
    Scheduler,
    TimeoutPolicy,
)
from repro.runtime.service import ExperimentService, SweepPlan, plan_sweep
from repro.runtime.spec import (
    BuilderEntry,
    RunSpec,
    ScenarioRef,
    build_scenario,
    code_salt,
    get_builder,
    register_builder,
    register_scenario_builder,
    registered_builders,
)
from repro.runtime.store import SegmentStore, StoreTelemetry

__all__ = [
    "BatchSink",
    "BuilderEntry",
    "CacheStats",
    "DEFAULT_CACHE_ROOT",
    "ExperimentService",
    "Job",
    "JobQueue",
    "ManifestEntry",
    "PerfMeter",
    "PerfRecord",
    "PerfStore",
    "ProgressReporter",
    "ProgressSnapshot",
    "QueueStats",
    "ResultCache",
    "RetryPolicy",
    "RunManifest",
    "RunSpec",
    "RuntimeContext",
    "ScenarioRef",
    "Scheduler",
    "SegmentStore",
    "StoreTelemetry",
    "SweepPlan",
    "TimeoutPolicy",
    "build_scenario",
    "code_salt",
    "current_context",
    "format_summary",
    "get_builder",
    "group_results",
    "plan_sweep",
    "register_builder",
    "register_scenario_builder",
    "registered_builders",
    "run_many",
    "run_specs",
    "summarize",
    "use_runtime",
]
