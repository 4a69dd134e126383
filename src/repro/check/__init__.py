"""repro.check — static lint, config verification, and trace analysis.

Three tiers, one vocabulary (:class:`Finding` / :class:`Report`):

* **Tier 1 — lint** (:mod:`repro.check.lint`): AST rules over
  ``src/repro/`` enforcing determinism, unit-suffix discipline, event
  schema agreement, and export hygiene (REP1xx), with ``# repro:
  noqa[RULE]`` escapes and a committed baseline
  (:mod:`repro.check.baseline`).
* **Tier 1.5 — dataflow** (:mod:`repro.check.dataflow`): an
  interprocedural abstract interpretation over ``src/repro/`` —
  unit-dimension inference, determinism taint, and emit-payload
  resolution (REP2xx) — catching the bugs whose cause and symptom
  live in different functions.  Same noqa escapes; its own baseline
  (``.repro-dataflow-baseline.json``).  Per-file findings for both
  static tiers are cached incrementally (:mod:`repro.check.cache`).
* **Tier 2 — config** (:mod:`repro.check.config`): algebraic
  preconditions on configs, EIB tables, device profiles, scenarios,
  and run specs (CHK2xx); the execution runtime applies the cheap
  subset before dispatching any :class:`RunSpec`.
* **Tier 3 — traces** (:mod:`repro.check.traces`,
  :mod:`repro.check.determinism`): physical/protocol invariants over
  exported JSONL traces (CHK3xx) and an empirical determinism detector
  that replays a spec and diffs the traces (CHK4xx).

:mod:`repro.check.packet` (CHK5xx) folds the fluid-vs-packet model
validation into the same vocabulary, :mod:`repro.check.flow` does the
same for the analytic flow tier (CHK504/CHK505), and :mod:`repro.check.perf`
(CHK6xx) verifies perf telemetry — manifest perf-record schema and
consistency, span-tree well-formedness, and parent/child time
conservation.  :mod:`repro.check.disttrace` (CHK7xx) validates
distributed-trace topology over the lifecycle-span exports: every run
span reachable from its batch root, exactly one root per trace, time
containment, and stamped run exports resolving to real spans.

CLI: ``repro check <lint|dataflow|config|trace|determinism|perf|all>``;
``make check`` runs the static tiers.  Rule catalog: ``CHECKS.md``.
"""

from __future__ import annotations

from repro.check.baseline import (
    DEFAULT_BASELINE,
    fingerprint_counts,
    load_baseline,
    new_findings,
    write_baseline,
)
from repro.check.config import (
    check_defaults,
    check_device_profile,
    check_eib,
    check_eib_entries,
    check_emptcp_config,
    check_run_spec,
    check_scenario,
    check_tau_bound,
    verify_specs,
)
from repro.check.cache import DEFAULT_CHECK_CACHE, CheckCache
from repro.check.dataflow import (
    DEFAULT_DATAFLOW_BASELINE,
    analyze_paths,
    analyze_sources,
)
from repro.check.determinism import check_determinism
from repro.check.disttrace import check_trace_topology
from repro.check.findings import (
    Finding,
    Report,
    Severity,
    filter_noqa,
    merge_reports,
)
from repro.check.flow import (
    FLOW_AGREEMENT_PROTOCOLS,
    FlowComparison,
    flow_agreement_report,
    flow_agreement_specs,
    run_flow_agreement,
    run_flow_checks,
)
from repro.check.lint import lint_paths, lint_source
from repro.check.perf import (
    check_manifest_perf,
    check_perf_record,
    check_perf_target,
    check_spans,
)
from repro.check.traces import check_events, check_trace_file, check_traces

__all__ = [
    "Finding",
    "Report",
    "Severity",
    "filter_noqa",
    "merge_reports",
    "DEFAULT_BASELINE",
    "fingerprint_counts",
    "load_baseline",
    "new_findings",
    "write_baseline",
    "lint_paths",
    "lint_source",
    "DEFAULT_CHECK_CACHE",
    "CheckCache",
    "DEFAULT_DATAFLOW_BASELINE",
    "analyze_paths",
    "analyze_sources",
    "check_defaults",
    "check_device_profile",
    "check_eib",
    "check_eib_entries",
    "check_emptcp_config",
    "check_run_spec",
    "check_scenario",
    "check_tau_bound",
    "verify_specs",
    "check_events",
    "check_trace_file",
    "check_traces",
    "check_trace_topology",
    "check_determinism",
    "FLOW_AGREEMENT_PROTOCOLS",
    "FlowComparison",
    "flow_agreement_report",
    "flow_agreement_specs",
    "run_flow_agreement",
    "run_flow_checks",
    "check_manifest_perf",
    "check_perf_record",
    "check_perf_target",
    "check_spans",
]
