"""Tier 1: the repo-specific AST linter.

Generic linters cannot know that ``time.time()`` inside the simulator
breaks replay determinism, that ``Tracer.emit`` calls are contracts
against :data:`~repro.obs.events.EVENT_SCHEMA`, or that a dict passed
as ``RunSpec(config=...)`` must spell :class:`~repro.core.config.
EMPTCPConfig` field names exactly.  These rules do.

Rules
-----

========  ==========================================================
REP101    wall-clock reads (``time.time``/``monotonic``/``datetime.
          now``...) inside the deterministic packages (``sim``,
          ``core``, ``mptcp``, ``tcp``) or the journaled runtime
          modules (queue/scheduler/store, which must read the
          :mod:`repro.runtime.clock` seam) — simulations must depend
          on simulated time only
REP102    unseeded randomness in the deterministic packages: calls to
          the ``random`` module's *global* functions, or
          ``random.Random()`` with no seed argument
REP103    float ``==``/``!=`` against a simulation-clock expression
          (``.now``, ``*_time``, ``*_at``, ``t``) — clock comparisons
          must be ordered (``<=``/``>=``) or identity checks
REP104    ``Tracer.emit`` with an event type missing from
          ``EVENT_SCHEMA``, or missing that type's declared fields
REP105    throughput/energy/power identifiers without a unit suffix
          (``_mbps``, ``_bytes_per_sec``, ``_j``, ``_w``...; see
          :mod:`repro.units`)
REP106    config-key string that is not an ``EMPTCPConfig`` field
          (``RunSpec(config={...})``, ``ScenarioRef.spec(config=...)``,
          ``sweep_config("<field>", ...)``)
REP107    ``__init__.py`` ``__all__`` out of sync with what the module
          actually binds (both directions)
========  ==========================================================

Suppression: append ``# repro: noqa[REP105]`` (or a bare
``# repro: noqa``) to the offending line.  Pre-existing debt lives in
the committed baseline (:mod:`repro.check.baseline`).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.check.cache import CheckCache, combine_hashes, content_hash
from repro.check.findings import Finding, Report, Severity, filter_noqa

#: Bump to invalidate every lint cache entry when rules change.
_LINT_VERSION = "1"

#: Subpackages of ``repro`` whose behaviour must be a pure function of
#: (scenario, seed): anything here feeding on ambient entropy corrupts
#: the result cache and the determinism detector.
DETERMINISTIC_PACKAGES = ("sim", "core", "mptcp", "tcp", "flow", "engines")

#: Individual modules outside those packages that the same rules cover:
#: the runtime's queue, scheduler, and segment store journal/stamp
#: timestamps, so every wall-clock read must go through the replayable
#: :mod:`repro.runtime.clock` seam (never ``time.*`` directly), and any
#: deliberate entropy (retry jitter) must carry an explicit noqa.
DETERMINISTIC_MODULES = (
    ("runtime", "queue.py"),
    ("runtime", "scheduler.py"),
    ("runtime", "store.py"),
    # Trace/span IDs must be content-derived (sha256), never
    # uuid4-on-wallclock: replayed batches must land in the same ID
    # space.  The module is clock-free by design — callers pass
    # timestamps in through the runtime clock seam.
    ("obs", "dist.py"),
)

#: Wall-clock attributes of the ``time`` module (REP101).
_WALLCLOCK_TIME_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
}

#: ``random`` module *global* functions whose hidden shared state makes
#: them unseedable per-component (REP102).
_GLOBAL_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "triangular",
    "vonmisesvariate",
    "seed",
    "getrandbits",
}

#: Identifier fragments that mark a numeric name as carrying a unit
#: (REP105).  Matching is substring-based on the lowered name, with
#: ``_j``/``_w``/``_s`` anchored to the end.
_UNIT_TOKENS = (
    "mbps",
    "kbps",
    "bps",
    "byte",
    "bytes",
    "joule",
    "watt",
    "_mw",
    "per_sec",
    "per_bit",
    "per_byte",
    "seconds",
)

#: Fragments that claim a name holds a *dimensionless* quantity (a
#: pure ratio or percentage).  REP105 accepts them — a ratio genuinely
#: has no unit — but the claim is load-bearing: the dataflow tier
#: (REP201) cross-checks it and flags any value with a propagated
#: physical dimension assigned to such a name, so ``energy_ratio =
#: wifi_j - cell_j`` no longer hides behind the suffix.
_DIMENSIONLESS_TOKENS = (
    "_pct",
    "percent",
    "fraction",
    "factor",
    "ratio",
)
_UNIT_SUFFIXES = ("_j", "_w", "_s", "_mw", "_ns", "_ms")

#: Quantity roots that demand a unit suffix when they name a scalar.
_QUANTITY_ROOTS = ("bandwidth", "throughput", "energy", "power", "rate")

#: ``rate`` names that are probabilities/counters, not data rates
#: ("migrated" only contains "rate" by spelling accident).
_RATE_EXEMPT = ("loss", "drop", "hit", "miss", "error", "sample_rate", "frame",
                "migrated")

#: Non-scalar shapes a quantity root may legitimately name.
_NONSCALAR_HINTS = (
    "series",
    "trace",
    "model",
    "profile",
    "meter",
    "machine",
    "process",
    "factory",
    "fn",
    "map",
    "dict",
    "log",
)

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


def _noqa_lines(source: str) -> Dict[int, Optional[List[str]]]:
    """``{line: [rule, ...] or None}`` for every noqa comment."""
    out: Dict[int, Optional[List[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        match = _NOQA_RE.search(line)
        if match:
            rules = match.group("rules")
            out[lineno] = (
                [r.strip().upper() for r in rules.split(",") if r.strip()]
                if rules
                else None
            )
    return out


def _config_field_names() -> Set[str]:
    import dataclasses

    from repro.core.config import EMPTCPConfig

    return {f.name for f in dataclasses.fields(EMPTCPConfig)}


def _event_schema() -> Dict[str, Dict[str, tuple]]:
    from repro.obs.events import EVENT_SCHEMA

    return EVENT_SCHEMA


def _is_deterministic_path(path: str) -> bool:
    parts = Path(path).parts
    try:
        idx = parts.index("repro")
    except ValueError:
        return False
    if len(parts) > idx + 1 and parts[idx + 1] in DETERMINISTIC_PACKAGES:
        return True
    return tuple(parts[idx + 1:]) in DETERMINISTIC_MODULES


def _has_unit(name: str) -> bool:
    lowered = name.lower()
    if any(token in lowered for token in _UNIT_TOKENS):
        return True
    if any(token in lowered for token in _DIMENSIONLESS_TOKENS):
        return True  # dimensionless claim; REP201 verifies it holds
    return any(lowered.endswith(suffix) for suffix in _UNIT_SUFFIXES)


def _needs_unit(name: str) -> bool:
    """True when ``name`` reads like a scalar physical quantity but
    carries no unit token."""
    lowered = name.lower().lstrip("_")
    if not any(root in lowered for root in _QUANTITY_ROOTS):
        return False
    if "rate" in lowered and not any(
        root in lowered for root in _QUANTITY_ROOTS[:-1]
    ):
        if any(exempt in lowered for exempt in _RATE_EXEMPT):
            return False
    if any(hint in lowered for hint in _NONSCALAR_HINTS):
        return False
    return not _has_unit(lowered)


def _is_numeric_annotation(node: Optional[ast.expr]) -> bool:
    """True for ``float``/``int``/``Optional[float]``-shaped annotations
    and for *no* annotation (unannotated scalars still need units)."""
    if node is None:
        return True
    if isinstance(node, ast.Name):
        return node.id in ("float", "int")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in ("float", "int")
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            return _is_numeric_annotation(
                node.slice if not isinstance(node.slice, ast.Tuple) else None
            )
    return False


class _Linter(ast.NodeVisitor):
    """One file's worth of rule evaluation."""

    def __init__(self, path: str, config_fields: Set[str], schema: Dict):
        self.path = path
        self.deterministic = _is_deterministic_path(path)
        self.config_fields = config_fields
        self.schema = schema
        self.findings: List[Finding] = []
        self._scope: List[str] = []
        #: local names bound to the ``random`` / ``time`` / ``datetime``
        #: modules by imports (``import random as _random``).
        self.random_aliases: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.datetime_aliases: Set[str] = set()

    # -- helpers -------------------------------------------------------

    def _context(self, symbol: str = "") -> str:
        scope = ".".join(self._scope)
        if scope and symbol:
            return f"{scope}:{symbol}"
        return scope or symbol

    def _flag(
        self,
        rule: str,
        message: str,
        node: ast.AST,
        symbol: str = "",
        severity: Severity = Severity.ERROR,
    ) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                message=message,
                path=self.path,
                line=getattr(node, "lineno", 0),
                severity=severity,
                context=self._context(symbol),
            )
        )

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_aliases.add(bound)
        self.generic_visit(node)

    # -- scope tracking ------------------------------------------------

    def _visit_scoped(self, node, name: str) -> None:
        self._scope.append(name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_annassign_fields(node)
        self._visit_scoped(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_signature_units(node)
        self._visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_signature_units(node)
        self._visit_scoped(node, node.name)

    # -- REP101 / REP102 ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner, attr = func.value.id, func.attr
            if self.deterministic:
                if owner in self.time_aliases and attr in _WALLCLOCK_TIME_FNS:
                    self._flag(
                        "REP101",
                        f"wall-clock call {owner}.{attr}() in a deterministic "
                        f"package; use the simulator clock (sim.now)",
                        node,
                        symbol=f"{owner}.{attr}",
                    )
                if owner in self.datetime_aliases and attr in ("now", "utcnow", "today"):
                    self._flag(
                        "REP101",
                        f"wall-clock call {owner}.{attr}() in a deterministic "
                        f"package; use the simulator clock (sim.now)",
                        node,
                        symbol=f"{owner}.{attr}",
                    )
                if owner in self.random_aliases and attr in _GLOBAL_RANDOM_FNS:
                    self._flag(
                        "REP102",
                        f"global-RNG call {owner}.{attr}() in a deterministic "
                        f"package; draw from a seeded random.Random / "
                        f"RandomStreams stream",
                        node,
                        symbol=f"{owner}.{attr}",
                    )
                if (
                    owner in self.random_aliases
                    and attr == "Random"
                    and not node.args
                    and not node.keywords
                ):
                    self._flag(
                        "REP102",
                        f"{owner}.Random() constructed without a seed in a "
                        f"deterministic package",
                        node,
                        symbol=f"{owner}.Random",
                    )
        if isinstance(func, ast.Attribute) and func.attr == "emit":
            self._check_emit(node)
        self._check_config_keys(node)
        self.generic_visit(node)

    # -- REP103 --------------------------------------------------------

    @staticmethod
    def _clock_name(node: ast.expr) -> Optional[str]:
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name is None:
            return None
        if name == "now" or name == "t":
            return name
        if name.endswith("_time") or name.endswith("_at"):
            return name
        return None

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side, other in ((left, right), (right, left)):
                clock = self._clock_name(side)
                if clock is None:
                    continue
                if isinstance(other, ast.Constant) and other.value is None:
                    continue  # `x == None` is misguided but not a float bug
                self._flag(
                    "REP103",
                    f"float equality against simulation clock {clock!r}; "
                    f"compare with <=/>= or track state explicitly",
                    node,
                    symbol=clock,
                )
                break
        self.generic_visit(node)

    # -- REP104 --------------------------------------------------------

    def _check_emit(self, node: ast.Call) -> None:
        if not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return  # dynamic event type: not statically checkable
        etype = first.value
        fields = self.schema.get(etype)
        if fields is None:
            self._flag(
                "REP104",
                f"tracer emission of unknown event type {etype!r} "
                f"(not in EVENT_SCHEMA)",
                node,
                symbol=etype,
            )
            return
        provided: Set[str] = set()
        opaque = False
        # emit(type, t, **fields): positional slot 2 is `t`.
        if len(node.args) > 1:
            provided.add("t")
        for kw in node.keywords:
            if kw.arg is not None:
                provided.add(kw.arg)
            elif isinstance(kw.value, ast.Dict) and all(
                isinstance(k, ast.Constant) and isinstance(k.value, str)
                for k in kw.value.keys
            ):
                provided.update(k.value for k in kw.value.keys)  # type: ignore[union-attr]
            else:
                opaque = True  # **dynamic — cannot enumerate
        if opaque:
            return
        missing = sorted(set(fields) - provided)
        if "t" not in provided:
            missing.insert(0, "t")
        if missing:
            self._flag(
                "REP104",
                f"tracer emission of {etype!r} is missing declared "
                f"field(s): {', '.join(missing)}",
                node,
                symbol=etype,
            )

    # -- REP105 --------------------------------------------------------

    def _check_signature_units(self, node) -> None:
        args = list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        )
        for arg in args:
            if arg.arg in ("self", "cls"):
                continue
            if _needs_unit(arg.arg) and _is_numeric_annotation(arg.annotation):
                self._flag(
                    "REP105",
                    f"parameter {arg.arg!r} names a physical quantity without "
                    f"a unit suffix (_mbps/_bytes_per_sec/_j/_w...; see "
                    f"repro.units)",
                    arg,
                    symbol=f"{node.name}.{arg.arg}",
                )

    def _check_annassign_fields(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            target = stmt.target
            if not isinstance(target, ast.Name):
                continue
            if _needs_unit(target.id) and _is_numeric_annotation(stmt.annotation):
                self.findings.append(
                    Finding(
                        rule="REP105",
                        message=(
                            f"field {target.id!r} names a physical quantity "
                            f"without a unit suffix (_mbps/_bytes_per_sec/"
                            f"_j/_w...; see repro.units)"
                        ),
                        path=self.path,
                        line=stmt.lineno,
                        context=self._context(f"{node.name}.{target.id}"),
                    )
                )

    # -- REP106 --------------------------------------------------------

    def _check_config_keys(self, node: ast.Call) -> None:
        dict_nodes: List[ast.Dict] = []
        for kw in node.keywords:
            if kw.arg == "config" and isinstance(kw.value, ast.Dict):
                dict_nodes.append(kw.value)
        func = node.func
        fname = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if fname == "sweep_config" and node.args:
            first = node.args[0]
            if (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and first.value not in self.config_fields
            ):
                self._flag(
                    "REP106",
                    f"sweep_config parameter {first.value!r} is not an "
                    f"EMPTCPConfig field",
                    first,
                    symbol=first.value,
                )
        if fname not in ("RunSpec", "spec", "run_spec") and not dict_nodes:
            return
        for dict_node in dict_nodes:
            for key in dict_node.keys:
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    continue
                if key.value not in self.config_fields:
                    self._flag(
                        "REP106",
                        f"config key {key.value!r} is not an EMPTCPConfig "
                        f"field",
                        key,
                        symbol=key.value,
                    )


# -- REP107 ------------------------------------------------------------


def _lazy_exports(tree: ast.Module) -> Set[str]:
    """Names a module ``__getattr__`` serves from a top-level dict."""
    getattr_fn = next(
        (n for n in tree.body
         if isinstance(n, ast.FunctionDef) and n.name == "__getattr__"),
        None,
    )
    if getattr_fn is None:
        return set()
    read = {n.id for n in ast.walk(getattr_fn) if isinstance(n, ast.Name)}
    names: Set[str] = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Dict)
            and any(isinstance(t, ast.Name) and t.id in read for t in node.targets)
        ):
            names.update(
                k.value for k in node.value.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            )
    return names


def _check_all_exports(tree: ast.Module, path: str) -> List[Finding]:
    """``__all__`` vs actually-bound names, both directions.

    Only applied to ``__init__.py`` files that define ``__all__``.
    "Public" for the unlisted direction means: names imported from
    ``repro.*`` modules or defined at top level, not starting with an
    underscore — stdlib/typing imports are implementation detail.
    A module ``__getattr__`` (PEP 562) binds the string keys of every
    top-level dict literal it reads by name.
    """
    findings: List[Finding] = []
    bound: Set[str] = _lazy_exports(tree)
    public: Set[str] = set()
    all_names: Optional[List[Tuple[str, int]]] = None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            from_repro = (node.module or "").split(".")[0] == "repro"
            for alias in node.names:
                name = alias.asname or alias.name
                bound.add(name)
                if from_repro and not name.startswith("_"):
                    public.add(name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        try:
                            names = ast.literal_eval(node.value)
                        except ValueError:
                            continue
                        all_names = [(n, node.lineno) for n in names]
    if all_names is None:
        return findings
    bound.add("__version__")
    for name, lineno in all_names:
        if name not in bound:
            findings.append(
                Finding(
                    rule="REP107",
                    message=f"__all__ exports {name!r} which the module does "
                    f"not bind",
                    path=path,
                    line=lineno,
                    context=name,
                )
            )
    listed = {n for n, _ in all_names}
    for name in sorted(public - listed):
        findings.append(
            Finding(
                rule="REP107",
                message=f"public name {name!r} is bound but missing from "
                f"__all__",
                path=path,
                line=all_names[0][1] if all_names else 1,
                context=name,
            )
        )
    return findings


# -- entry points ------------------------------------------------------


def lint_source(source: str, path: str) -> List[Finding]:
    """Every (unsuppressed) finding in one file's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="REP100",
                message=f"syntax error: {exc.msg}",
                path=path,
                line=exc.lineno or 0,
                context="syntax",
            )
        ]
    linter = _Linter(path, _config_field_names(), _event_schema())
    linter.visit(tree)
    findings = linter.findings
    if Path(path).name == "__init__.py":
        findings = findings + _check_all_exports(tree, path)
    return filter_noqa(findings, _noqa_lines(source))


def iter_python_files(target: Union[str, Path]) -> List[Path]:
    """Python files under ``target`` (a file or a directory), sorted."""
    target = Path(target)
    if target.is_file():
        return [target]
    return sorted(p for p in target.rglob("*.py") if "__pycache__" not in p.parts)


def _lint_salt() -> str:
    """Everything lint output depends on besides the file's own text:
    rule version, the event schema (REP104), the config field set
    (REP106), and the token vocabularies (REP105)."""
    schema = _event_schema()
    return combine_hashes(
        [_LINT_VERSION]
        + [f"{k}:{sorted(v)}" for k, v in sorted(schema.items())]
        + sorted(_config_field_names())
        + list(_UNIT_TOKENS)
        + list(_DIMENSIONLESS_TOKENS)
        + list(_UNIT_SUFFIXES)
        + list(_RATE_EXEMPT)
        + list(DETERMINISTIC_PACKAGES)
        + ["/".join(parts) for parts in DETERMINISTIC_MODULES]
    )


def lint_paths(
    targets: Sequence[Union[str, Path]],
    rel_to: Optional[Path] = None,
    cache: Optional[CheckCache] = None,
) -> Report:
    """Lint every Python file under the given targets.

    Paths in findings are made relative to ``rel_to`` (default: the
    current working directory) when possible, so baselines are stable
    across checkouts.  The rules are file-local, so with a
    :class:`CheckCache` each unchanged file's findings are replayed
    from disk, keyed on its own content plus the rule salt.
    """
    rel_to = Path(rel_to) if rel_to is not None else Path.cwd()
    salt = _lint_salt() if cache is not None and cache.enabled else ""
    report = Report(tier="lint")
    for target in targets:
        for file in iter_python_files(target):
            try:
                rel = file.resolve().relative_to(rel_to.resolve()).as_posix()
            except ValueError:
                rel = file.as_posix()
            source = file.read_text()
            report.checked += 1
            if cache is not None and cache.enabled:
                key = combine_hashes([salt, rel, content_hash(source)])
                hit = cache.load(key)
                if hit is not None:
                    report.extend(hit)
                    continue
                findings = lint_source(source, rel)
                cache.store(key, findings)
            else:
                findings = lint_source(source, rel)
            report.extend(findings)
    return report


def lint_findings(findings: Iterable[Finding]) -> Report:
    """Wrap raw findings in a lint report (testing convenience)."""
    report = Report(tier="lint")
    report.extend(findings)
    return report
