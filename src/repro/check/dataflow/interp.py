"""The forward abstract interpreter behind the REP2xx rules.

One :class:`FunctionInterp` walks one function body (or a module's top
level) with an environment of :class:`AbsVal` abstract values tracking
four facts per expression:

* **unit** — the :mod:`~repro.check.dataflow.unitalg` domain (REP201);
* **taint** — ``(kind, origin)`` pairs for values derived from
  wall-clock reads, unseeded RNG, ``os.environ``, or set-iteration
  order (REP202);
* **dict shape** — statically known string keys (and their values)
  of incrementally built payload dicts (REP203);
* **const** — literal constants, for resolving non-literal
  ``Tracer.emit`` event types.

Interprocedural facts come from :class:`Summary` records: the return
value of every project function, computed to a fixpoint by
:func:`compute_summaries` over the call graph (worklist, reverse
edges).  The same interpreter runs twice per function — once in
summary mode (no findings) during the fixpoint, once in check mode
with a findings sink.

Control flow is handled by branch-and-join: both arms of an ``if``
run on copies of the environment and merge (units must agree or drop
to unknown, taints union, dict shapes must agree).  Loop bodies run
once — enough for the patterns the rules target, and it keeps the
pass linear.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.check.dataflow import unitalg
from repro.check.dataflow.callgraph import Resolver
from repro.check.dataflow.symbols import (
    FunctionInfo,
    ModuleTable,
    package_of,
)
from repro.check.dataflow.unitalg import (
    DIMENSIONLESS,
    SCALAR,
    unit_of_name,
)
from repro.check.findings import Finding, Severity

#: Packages whose behaviour must be a pure function of (scenario,
#: seed).  REP202 guards these — a superset of the lint tier's list:
#: ``packet`` and ``control`` joined when the control plane became
#: engine-agnostic.
DETERMINISTIC_PACKAGES = (
    "sim",
    "core",
    "mptcp",
    "tcp",
    "flow",
    "engines",
    "packet",
    "control",
)

#: Individual modules held to the same standard even though their
#: parent package (``runtime``) is not: the job queue, scheduler, and
#: segment store journal timestamps and must be crash-replayable.
DETERMINISTIC_MODULES = (
    "repro.runtime.queue",
    "repro.runtime.scheduler",
    "repro.runtime.store",
)

#: The blessed wall-clock boundary.  Values returned by these modules
#: are recorded timestamps and wall times, so wall-clock taint is
#: laundered at the call edge instead of propagating into the callers
#: above.
CLOCK_SEAM_MODULES = frozenset({"repro.runtime.clock"})

#: Modules exempt from REP201: ``repro.units`` is *the* blessed
#: conversion boundary — inside it, values change unit by design.
UNIT_EXEMPT_MODULES = frozenset({"repro.units"})

#: Taint-source kinds (the first element of each taint pair).
WALLCLOCK = "wall-clock"
RNG = "unseeded-rng"
ENVIRON = "os.environ"
SET_ORDER = "set-iteration-order"

#: Direct wall-clock / RNG reads are REP101/REP102's beat; REP202 only
#: reports them once they travel through a call boundary.
_DIRECT_REPORTED_ELSEWHERE = (WALLCLOCK, RNG)

_WALLCLOCK_PATHS = {
    f"time.{fn}"
    for fn in (
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
    )
}
_DATETIME_SUFFIXES = ("now", "utcnow", "today")

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
_NUMPY_RANDOM_FNS = {
    "random",
    "rand",
    "randn",
    "randint",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "exponential",
    "poisson",
    "seed",
}

Taint = FrozenSet[Tuple[str, str]]
_NO_TAINT: Taint = frozenset()
_MAX_TAINTS = 4


@dataclass(frozen=True)
class AbsVal:
    """One abstract value: unit x taint x dict shape x constant."""

    unit: Optional[str] = None
    taint: Taint = _NO_TAINT
    #: Statically known dict entries, or None for non-dicts/unknown.
    entries: Optional[Tuple[Tuple[str, "AbsVal"], ...]] = None
    #: True when ``entries`` lists *every* key the dict can hold.
    complete: bool = False
    const: Any = None
    is_set: bool = False

    def with_taint(self, taint: Taint) -> "AbsVal":
        if not taint:
            return self
        merged = frozenset(list(self.taint | taint)[:_MAX_TAINTS])
        return replace(self, taint=merged)


UNKNOWN = AbsVal()


def join_values(a: AbsVal, b: AbsVal) -> AbsVal:
    """Lattice join at control-flow merges."""
    entries: Optional[Tuple[Tuple[str, AbsVal], ...]] = None
    complete = False
    if a.entries is not None and b.entries is not None:
        if dict(a.entries).keys() == dict(b.entries).keys():
            bmap = dict(b.entries)
            entries = tuple(
                (k, join_values(v, bmap[k])) for k, v in a.entries
            )
            complete = a.complete and b.complete
    return AbsVal(
        unit=unitalg.join_units(a.unit, b.unit),
        taint=frozenset(list(a.taint | b.taint)[:_MAX_TAINTS]),
        entries=entries,
        complete=complete,
        const=a.const if a.const == b.const else None,
        is_set=a.is_set and b.is_set,
    )


@dataclass
class Summary:
    """Interprocedural facts about one project function."""

    returns: AbsVal = field(default_factory=lambda: UNKNOWN)
    #: Declared units of positional parameters, seeded from names and
    #: ``repro.units.UNIT_SIGNATURES`` (None = no claim).
    param_units: Tuple[Optional[str], ...] = ()
    param_names: Tuple[str, ...] = ()


@dataclass
class AnalysisContext:
    """Everything shared across one analysis run."""

    tables: Dict[str, ModuleTable]
    resolver: Resolver
    summaries: Dict[str, Summary]
    schema: Dict[str, Dict[str, tuple]]
    unit_signatures: Dict[str, Tuple[Tuple[str, ...], str]]
    det_packages: Tuple[str, ...] = DETERMINISTIC_PACKAGES
    det_modules: Tuple[str, ...] = DETERMINISTIC_MODULES

    def is_deterministic(self, module: str) -> bool:
        return (
            package_of(module) in self.det_packages
            or module in self.det_modules
        )


def seed_params(info: FunctionInfo, ctx: AnalysisContext) -> Summary:
    """Parameter-unit claims from names (and the units signature
    table, which wins for ``repro.units`` helpers)."""
    node = info.node
    args = (
        list(node.args.posonlyargs)
        + list(node.args.args)
        + list(node.args.kwonlyargs)
    )
    names = tuple(a.arg for a in args)
    units: List[Optional[str]] = [unit_of_name(n) for n in names]
    sig = ctx.unit_signatures.get(info.name)
    if sig is not None and info.module == "repro.units":
        declared = list(sig[0])
        start = 1 if names and names[0] in ("self", "cls") else 0
        for i, unit in enumerate(declared):
            if start + i < len(units):
                units[start + i] = unit
    return Summary(param_units=tuple(units), param_names=names)


class FunctionInterp(ast.NodeVisitor):
    """One abstract-interpretation pass over one function body."""

    def __init__(
        self,
        ctx: AnalysisContext,
        table: ModuleTable,
        info: Optional[FunctionInfo],
        sink: Optional[List[Finding]] = None,
    ):
        self.ctx = ctx
        self.table = table
        self.info = info
        self.sink = sink
        self.cls = info.cls if info else None
        self.env: Dict[str, AbsVal] = {}
        self.ret: Optional[AbsVal] = None
        self.unit_checks = table.module not in UNIT_EXEMPT_MODULES
        self.deterministic = ctx.is_deterministic(table.module)

    # -- plumbing ------------------------------------------------------

    def _scope(self, symbol: str) -> str:
        base = ""
        if self.info is not None:
            base = self.info.qualname.split(":", 1)[1]
        return f"{base}:{symbol}" if base and symbol else (base or symbol)

    def _flag(
        self,
        rule: str,
        message: str,
        node: ast.AST,
        symbol: str = "",
        severity: Severity = Severity.ERROR,
    ) -> None:
        if self.sink is None:
            return
        self.sink.append(
            Finding(
                rule=rule,
                message=message,
                path=self.table.path,
                line=getattr(node, "lineno", 0),
                severity=severity,
                context=self._scope(symbol),
            )
        )

    # -- entry points --------------------------------------------------

    def run_function(self) -> AbsVal:
        assert self.info is not None
        summary = self.ctx.summaries.get(self.info.qualname)
        if summary is None:
            summary = seed_params(self.info, self.ctx)
        for name, unit in zip(summary.param_names, summary.param_units):
            self.env[name] = AbsVal(unit=unit)
        body = self.info.node.body  # type: ignore[attr-defined]
        self.exec_block(body, self.env)
        ret = self.ret if self.ret is not None else UNKNOWN
        declared = (
            unit_of_name(self.info.name) if self.unit_checks else None
        )
        if (
            declared is not None
            and unitalg.additive_conflict(declared, ret.unit)
        ):
            self._flag(
                "REP201",
                f"function {self.info.name!r} declares unit "
                f"{unitalg.format_unit(declared)} in its name but returns "
                f"{unitalg.format_unit(ret.unit)}; convert via repro.units",
                self.info.node,
                symbol=f"return.{self.info.name}",
            )
        # As with assignments: once the declaration is checked, trust
        # the name spelling when inference knows nothing better, so
        # `rate_mbps(x)` carries mbps into callers.
        if declared is not None and ret.unit in (None, SCALAR):
            ret = replace(ret, unit=declared)
        return ret

    def run_module(self) -> None:
        """Interpret module-level statements (class bodies included)."""
        for stmt in self.table.tree.body:
            if isinstance(stmt, ast.ClassDef):
                class_env = dict(self.env)
                for sub in stmt.body:
                    if not isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self.exec_stmt(sub, class_env)
            elif not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self.exec_stmt(stmt, self.env)

    # -- statements ----------------------------------------------------

    def exec_block(self, body: List[ast.stmt], env: Dict[str, AbsVal]) -> None:
        for stmt in body:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.stmt, env: Dict[str, AbsVal]) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.assign(target, value, env, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, env)
                self.assign(stmt.target, value, env, stmt)
        elif isinstance(stmt, ast.AugAssign):
            target = stmt.target
            current = (
                self.lookup(target.id, env)
                if isinstance(target, ast.Name)
                else self.eval(target, env)
            )
            value = self.eval(stmt.value, env)
            result = self.binop_value(stmt.op, current, value, stmt)
            if isinstance(target, ast.Name):
                self.assign(target, result, env, stmt)
        elif isinstance(stmt, ast.Return):
            value = (
                self.eval(stmt.value, env) if stmt.value is not None else UNKNOWN
            )
            self.ret = value if self.ret is None else join_values(self.ret, value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            then_env = dict(env)
            else_env = dict(env)
            self.exec_block(stmt.body, then_env)
            self.exec_block(stmt.orelse, else_env)
            self.merge_into(env, then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self.eval(stmt.iter, env)
            element = UNKNOWN.with_taint(iterable.taint)
            if iterable.is_set:
                element = element.with_taint(
                    frozenset(
                        {(SET_ORDER, f"iteration over a set in "
                                     f"{self.table.module}")}
                    )
                )
                if self.deterministic:
                    self._flag(
                        "REP202",
                        "iteration order over a set is not deterministic "
                        "across processes (hash randomization); sort first",
                        stmt,
                        symbol="set-iteration",
                    )
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = element
            body_env = dict(env)
            self.exec_block(stmt.body, body_env)
            self.exec_block(stmt.orelse, body_env)
            self.merge_into(env, env, body_env)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            body_env = dict(env)
            self.exec_block(stmt.body, body_env)
            self.exec_block(stmt.orelse, body_env)
            self.merge_into(env, env, body_env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr, env)
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    env[item.optional_vars.id] = value
            self.exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            self.exec_block(stmt.body, body_env)
            envs = [body_env]
            for handler in stmt.handlers:
                handler_env = dict(env)
                self.exec_block(handler.body, handler_env)
                envs.append(handler_env)
            merged = envs[0]
            for other in envs[1:]:
                merged_copy = dict(merged)
                self.merge_into(merged, merged_copy, other)
            env.update(merged)
            self.exec_block(stmt.orelse, env)
            self.exec_block(stmt.finalbody, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass  # nested defs get their own summary pass
        elif isinstance(stmt, ast.ClassDef):
            pass
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            if isinstance(stmt, ast.Assert):
                self.eval(stmt.test, env)
            elif stmt.exc is not None:
                self.eval(stmt.exc, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)

    def merge_into(
        self,
        env: Dict[str, AbsVal],
        a: Dict[str, AbsVal],
        b: Dict[str, AbsVal],
    ) -> None:
        """Join two branch environments back into ``env``."""
        for name in set(a) | set(b):
            va, vb = a.get(name), b.get(name)
            if va is None or vb is None:
                env[name] = (va or vb).with_taint(_NO_TAINT)  # type: ignore[union-attr]
            else:
                env[name] = join_values(va, vb)

    # -- assignment ----------------------------------------------------

    def assign(
        self,
        target: ast.expr,
        value: AbsVal,
        env: Dict[str, AbsVal],
        stmt: ast.stmt,
    ) -> None:
        if isinstance(target, ast.Name):
            declared = unit_of_name(target.id) if self.unit_checks else None
            if declared is not None and unitalg.additive_conflict(
                declared, value.unit
            ):
                self._flag(
                    "REP201",
                    f"value of unit {unitalg.format_unit(value.unit)} "
                    f"assigned to {target.id!r} which declares "
                    f"{unitalg.format_unit(declared)}; route the conversion "
                    f"through repro.units",
                    stmt,
                    symbol=target.id,
                )
            # Trust the spelling when inference has nothing better: a
            # `_mbps` name keeps claiming mbps downstream.
            if value.unit is None and declared is not None:
                value = replace(value, unit=declared)
            elif value.unit == SCALAR and declared is not None:
                value = replace(value, unit=declared)
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = UNKNOWN.with_taint(value.taint)
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    env[elt.id] = element
        elif isinstance(target, ast.Subscript):
            base = target.value
            if (
                isinstance(base, ast.Name)
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                existing = env.get(base.id)
                if existing is not None and existing.entries is not None:
                    entries = dict(existing.entries)
                    entries[target.slice.value] = value
                    env[base.id] = replace(
                        existing,
                        entries=tuple(sorted(entries.items())),
                        taint=frozenset(
                            list(existing.taint | value.taint)[:_MAX_TAINTS]
                        ),
                    )
        elif isinstance(target, ast.Starred):
            self.assign(target.value, UNKNOWN.with_taint(value.taint), env, stmt)

    def lookup(self, name: str, env: Dict[str, AbsVal]) -> AbsVal:
        found = env.get(name)
        if found is not None:
            return found
        if name in self.table.constants:
            return AbsVal(unit=SCALAR)
        target = self.table.symbol_aliases.get(name)
        if target is not None:
            module, _, symbol = target.rpartition(".")
            other = self.ctx.tables.get(module)
            if other is not None and symbol in other.constants:
                return AbsVal(unit=SCALAR)
        return AbsVal(unit=unit_of_name(name))

    # -- expressions ---------------------------------------------------

    def eval(self, node: ast.expr, env: Dict[str, AbsVal]) -> AbsVal:
        if isinstance(node, ast.Name):
            return self.lookup(node.id, env)
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool) or value is None:
                return AbsVal(const=value)
            if isinstance(value, (int, float)):
                return AbsVal(unit=SCALAR, const=value)
            if isinstance(value, str):
                return AbsVal(const=value)
            return UNKNOWN
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node, env)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            return self.binop_value(node.op, left, right, node)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, env)
        if isinstance(node, ast.Compare):
            operands = [self.eval(node.left, env)] + [
                self.eval(c, env) for c in node.comparators
            ]
            if self.unit_checks:
                for a, b in zip(operands, operands[1:]):
                    if unitalg.additive_conflict(a.unit, b.unit):
                        self._flag(
                            "REP201",
                            f"comparison mixes units "
                            f"{unitalg.format_unit(a.unit)} and "
                            f"{unitalg.format_unit(b.unit)}; convert via "
                            f"repro.units first",
                            node,
                            symbol="compare",
                        )
            taint = frozenset().union(*(v.taint for v in operands))
            return AbsVal().with_taint(taint)
        if isinstance(node, ast.BoolOp):
            values = [self.eval(v, env) for v in node.values]
            result = values[0]
            for value in values[1:]:
                result = join_values(result, value)
            return result
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return join_values(
                self.eval(node.body, env), self.eval(node.orelse, env)
            )
        if isinstance(node, ast.Call):
            return self.eval_call(node, env)
        if isinstance(node, ast.Dict):
            return self.eval_dict(node, env)
        if isinstance(node, ast.Set):
            taint = frozenset().union(
                *(self.eval(e, env).taint for e in node.elts)
            )
            return AbsVal(is_set=True).with_taint(taint)
        if isinstance(node, (ast.List, ast.Tuple)):
            taint = frozenset().union(
                *(self.eval(e, env).taint for e in node.elts)
            )
            return AbsVal().with_taint(taint)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value, env)
            if isinstance(node.slice, ast.expr):
                self.eval(node.slice, env)
            return UNKNOWN.with_taint(base.taint)
        if isinstance(node, ast.JoinedStr):
            taint: Taint = frozenset()
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    taint = taint | self.eval(part.value, env).taint
            return AbsVal().with_taint(taint)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, env)
            if isinstance(node.target, ast.Name):
                self.assign(node.target, value, env, node)  # type: ignore[arg-type]
                return env.get(node.target.id, value)
            return value
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, ast.Await):
            return self.eval(node.value, env)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            taint: Taint = frozenset()
            for gen in node.generators:
                taint = taint | self.eval(gen.iter, env).taint
            return AbsVal(is_set=isinstance(node, ast.SetComp)).with_taint(
                taint
            )
        if isinstance(node, ast.Lambda):
            return UNKNOWN
        return UNKNOWN

    def eval_attribute(
        self, node: ast.Attribute, env: Dict[str, AbsVal]
    ) -> AbsVal:
        dotted = self.ctx.resolver.flatten(node, self.table)
        if dotted == "os.environ":
            value = AbsVal().with_taint(
                frozenset({(ENVIRON, "os.environ read")})
            )
            self._taint_source(value, node)
            return value
        if dotted is not None and "." in dotted:
            module, _, symbol = dotted.rpartition(".")
            other = self.ctx.tables.get(module)
            if other is not None and symbol in other.constants:
                return AbsVal(unit=SCALAR)
        base_taint: Taint = frozenset()
        if not (
            isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            base_taint = self.eval(node.value, env).taint
        unit = unit_of_name(node.attr)
        return AbsVal(unit=unit).with_taint(base_taint)

    def binop_value(
        self, op: ast.operator, left: AbsVal, right: AbsVal, node: ast.AST
    ) -> AbsVal:
        taint = left.taint | right.taint
        unit: Optional[str] = None
        if isinstance(op, (ast.Add, ast.Sub)):
            if self.unit_checks and unitalg.additive_conflict(
                left.unit, right.unit
            ):
                opname = "+" if isinstance(op, ast.Add) else "-"
                self._flag(
                    "REP201",
                    f"incompatible units in "
                    f"{unitalg.format_unit(left.unit)} {opname} "
                    f"{unitalg.format_unit(right.unit)}; convert via "
                    f"repro.units",
                    node,
                    symbol=f"{unitalg.format_unit(left.unit)}{opname}"
                    f"{unitalg.format_unit(right.unit)}",
                )
            else:
                for candidate in (left.unit, right.unit):
                    if candidate not in (None, SCALAR):
                        unit = candidate
                        break
                else:
                    unit = SCALAR if left.unit == right.unit == SCALAR else None
        elif isinstance(op, ast.Mult):
            unit = unitalg.mul_units(left.unit, right.unit)
        elif isinstance(op, (ast.Div, ast.FloorDiv)):
            unit = unitalg.div_units(left.unit, right.unit)
        elif isinstance(op, ast.Mod):
            unit = left.unit
        return AbsVal(unit=unit).with_taint(taint)

    def eval_dict(self, node: ast.Dict, env: Dict[str, AbsVal]) -> AbsVal:
        entries: Dict[str, AbsVal] = {}
        complete = True
        taint: Taint = frozenset()
        for key, value in zip(node.keys, node.values):
            if key is None:  # {**other}
                expanded = self.eval(value, env)
                taint = taint | expanded.taint
                if expanded.entries is not None:
                    entries.update(dict(expanded.entries))
                    complete = complete and expanded.complete
                else:
                    complete = False
                continue
            val = self.eval(value, env)
            taint = taint | val.taint
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                entries[key.value] = val
            else:
                complete = False
        return AbsVal(
            entries=tuple(sorted(entries.items())), complete=complete
        ).with_taint(taint)

    # -- calls ---------------------------------------------------------

    def eval_call(self, node: ast.Call, env: Dict[str, AbsVal]) -> AbsVal:
        func = node.func
        args = [self.eval(a, env) for a in node.args]
        kwargs = {
            kw.arg: self.eval(kw.value, env)
            for kw in node.keywords
            if kw.arg is not None
        }
        star_kwargs = [
            self.eval(kw.value, env)
            for kw in node.keywords
            if kw.arg is None
        ]
        arg_taint: Taint = frozenset()
        for value in list(args) + list(kwargs.values()) + star_kwargs:
            arg_taint = arg_taint | value.taint

        if isinstance(func, ast.Attribute) and func.attr == "emit":
            self.check_emit(node, args, kwargs, star_kwargs)

        dotted = (
            self.ctx.resolver.flatten(func, self.table)
            if isinstance(func, (ast.Name, ast.Attribute))
            else None
        )
        source = self.classify_source(dotted, node)
        if source is not None:
            value = AbsVal().with_taint(frozenset({source})).with_taint(
                arg_taint
            )
            self._taint_source(value, node, direct_kind=source[0])
            return value

        if isinstance(func, ast.Name):
            builtin = self.eval_builtin(func.id, node, args, kwargs, arg_taint)
            if builtin is not None:
                return builtin

        target = self.ctx.resolver.resolve_call(func, self.table, self.cls)
        if target is not None:
            return self.eval_project_call(node, target, args, kwargs, arg_taint)
        # `repro.units` helpers keep their declared signatures even when
        # units.py itself is outside the analyzed set (fixture trees).
        if dotted is not None and dotted.startswith("repro.units."):
            sig = self.ctx.unit_signatures.get(dotted.rpartition(".")[2])
            if sig is not None:
                declared_in, declared_out = sig
                if self.unit_checks:
                    for i, value in enumerate(args):
                        if i < len(declared_in) and unitalg.additive_conflict(
                            declared_in[i], value.unit
                        ):
                            self._flag(
                                "REP201",
                                f"argument {i + 1} of "
                                f"{dotted.rpartition('.')[2]}() declares "
                                f"{unitalg.format_unit(declared_in[i])} but "
                                f"receives {unitalg.format_unit(value.unit)}",
                                node,
                                symbol=f"{dotted.rpartition('.')[2]}.{i + 1}",
                            )
                return AbsVal(unit=declared_out).with_taint(arg_taint)
        return AbsVal().with_taint(arg_taint)

    def classify_source(
        self, dotted: Optional[str], node: ast.Call
    ) -> Optional[Tuple[str, str]]:
        """(kind, description) when a call reads ambient entropy."""
        if dotted is None:
            return None
        if dotted in _WALLCLOCK_PATHS:
            return (WALLCLOCK, f"{dotted}()")
        if dotted.startswith("datetime.") and dotted.rpartition(".")[
            2
        ] in _DATETIME_SUFFIXES:
            return (WALLCLOCK, f"{dotted}()")
        if dotted.startswith("random."):
            fn = dotted.rpartition(".")[2]
            if fn in _GLOBAL_RANDOM_FNS:
                return (RNG, f"{dotted}()")
            if fn == "Random" and not node.args and not node.keywords:
                return (RNG, "random.Random() without a seed")
        if dotted.startswith("numpy.random."):
            fn = dotted.rpartition(".")[2]
            if fn in _NUMPY_RANDOM_FNS:
                return (RNG, f"{dotted}()")
            if fn == "default_rng" and not node.args and not node.keywords:
                return (RNG, "numpy.random.default_rng() without a seed")
        if dotted in ("os.getenv", "os.environ.get"):
            return (ENVIRON, f"{dotted}()")
        return None

    def _taint_source(
        self,
        value: AbsVal,
        node: ast.AST,
        direct_kind: Optional[str] = None,
    ) -> None:
        """REP202 for *direct* sources not owned by REP101/REP102."""
        if not self.deterministic:
            return
        kinds = {kind for kind, _ in value.taint}
        if direct_kind is not None and direct_kind in _DIRECT_REPORTED_ELSEWHERE:
            return
        for kind, desc in sorted(value.taint):
            if kind in _DIRECT_REPORTED_ELSEWHERE:
                continue
            self._flag(
                "REP202",
                f"{desc} feeds a deterministic package "
                f"({package_of(self.table.module)}); results must be a pure "
                f"function of (scenario, seed)",
                node,
                symbol=f"{kind}",
            )
        del kinds

    def eval_builtin(
        self,
        name: str,
        node: ast.Call,
        args: List[AbsVal],
        kwargs: Dict[str, AbsVal],
        arg_taint: Taint,
    ) -> Optional[AbsVal]:
        if name in ("set", "frozenset"):
            return AbsVal(is_set=True).with_taint(arg_taint)
        if name == "sorted":
            # Sorting launders iteration-order taint by construction.
            cleaned = frozenset(
                pair for pair in arg_taint if pair[0] != SET_ORDER
            )
            return AbsVal().with_taint(cleaned)
        if name == "dict":
            if not node.args and all(kw.arg is not None for kw in node.keywords):
                entries = tuple(sorted(kwargs.items()))
                return AbsVal(entries=entries, complete=True).with_taint(
                    arg_taint
                )
            return AbsVal().with_taint(arg_taint)
        if name in ("min", "max"):
            units = [a.unit for a in args]
            if self.unit_checks:
                for i in range(len(units) - 1):
                    if unitalg.additive_conflict(units[i], units[i + 1]):
                        self._flag(
                            "REP201",
                            f"{name}() compares values of units "
                            f"{unitalg.format_unit(units[i])} and "
                            f"{unitalg.format_unit(units[i + 1])}",
                            node,
                            symbol=name,
                        )
            unit = None
            for candidate in units:
                if candidate not in (None, SCALAR):
                    unit = candidate if unit in (None, candidate) else None
                    break
            return AbsVal(unit=unit).with_taint(arg_taint)
        if name in ("abs", "round", "float", "sum"):
            unit = args[0].unit if args else None
            return AbsVal(unit=unit).with_taint(arg_taint)
        if name in ("int", "len", "bool", "str", "repr", "hash", "id"):
            return AbsVal().with_taint(arg_taint)
        return None

    def eval_project_call(
        self,
        node: ast.Call,
        target: str,
        args: List[AbsVal],
        kwargs: Dict[str, AbsVal],
        arg_taint: Taint,
    ) -> AbsVal:
        info = self.ctx.resolver.project[target]
        summary = self.ctx.summaries.get(target) or seed_params(info, self.ctx)
        if info.module in CLOCK_SEAM_MODULES and summary.returns.taint:
            # The clock seam owns its wall-clock reads: its instants
            # are timestamps and wall times the runtime records, never
            # simulation inputs, so the taint stops at the call edge.
            cleaned = frozenset(
                pair for pair in summary.returns.taint if pair[0] != WALLCLOCK
            )
            summary = replace(
                summary, returns=replace(summary.returns, taint=cleaned)
            )
        self.check_call_units(node, info, summary, args, kwargs)
        self.check_taint_flow(node, info, summary, args, kwargs)

        returns = summary.returns
        sig = (
            self.ctx.unit_signatures.get(info.name)
            if info.module == "repro.units"
            else None
        )
        if sig is not None:
            returns = replace(returns, unit=sig[1])
        return returns.with_taint(arg_taint)

    def check_call_units(
        self,
        node: ast.Call,
        info: FunctionInfo,
        summary: Summary,
        args: List[AbsVal],
        kwargs: Dict[str, AbsVal],
    ) -> None:
        if not self.unit_checks or self.sink is None:
            return
        names = list(summary.param_names)
        units = list(summary.param_units)
        if names and names[0] in ("self", "cls") and not isinstance(
            node.func, ast.Name
        ):
            names, units = names[1:], units[1:]
        for i, value in enumerate(args):
            if i >= len(units):
                break
            if unitalg.additive_conflict(units[i], value.unit):
                self._flag(
                    "REP201",
                    f"argument {names[i]!r} of {info.name}() declares "
                    f"{unitalg.format_unit(units[i])} but receives "
                    f"{unitalg.format_unit(value.unit)}",
                    node,
                    symbol=f"{info.name}.{names[i]}",
                )
        for kw_name, value in kwargs.items():
            if kw_name in names:
                declared = units[names.index(kw_name)]
                if unitalg.additive_conflict(declared, value.unit):
                    self._flag(
                        "REP201",
                        f"argument {kw_name!r} of {info.name}() declares "
                        f"{unitalg.format_unit(declared)} but receives "
                        f"{unitalg.format_unit(value.unit)}",
                        node,
                        symbol=f"{info.name}.{kw_name}",
                    )

    def check_taint_flow(
        self,
        node: ast.Call,
        info: FunctionInfo,
        summary: Summary,
        args: List[AbsVal],
        kwargs: Dict[str, AbsVal],
    ) -> None:
        if self.sink is None:
            return
        # Tainted return value consumed inside a deterministic package.
        if self.deterministic and summary.returns.taint:
            for kind, desc in sorted(summary.returns.taint):
                self._flag(
                    "REP202",
                    f"{info.name}() returns a value derived from {desc} "
                    f"({kind}); it flows into deterministic package "
                    f"{package_of(self.table.module)!r}",
                    node,
                    symbol=f"call.{info.name}",
                )
        # Tainted argument handed into a deterministic package.
        if self.ctx.is_deterministic(info.module) and not self.deterministic:
            for value in list(args) + list(kwargs.values()):
                for kind, desc in sorted(value.taint):
                    self._flag(
                        "REP202",
                        f"value derived from {desc} ({kind}) is passed "
                        f"into {info.qualname} in deterministic package "
                        f"{package_of(info.module)!r}",
                        node,
                        symbol=f"arg.{info.name}",
                    )

    # -- REP203 --------------------------------------------------------

    def check_emit(
        self,
        node: ast.Call,
        args: List[AbsVal],
        kwargs: Dict[str, AbsVal],
        star_kwargs: List[AbsVal],
    ) -> None:
        if self.sink is None or not node.args:
            return
        literal_type = isinstance(node.args[0], ast.Constant)
        has_star = any(kw.arg is None for kw in node.keywords)
        if literal_type and not has_star:
            return  # fully literal: REP104's territory
        etype = args[0].const
        if not isinstance(etype, str):
            return  # dynamically computed beyond const-propagation
        fields = self.ctx.schema.get(etype)
        if fields is None:
            self._flag(
                "REP203",
                f"tracer emission of unknown event type {etype!r} resolved "
                f"by dataflow (not in EVENT_SCHEMA)",
                node,
                symbol=etype,
            )
            return
        provided: Dict[str, AbsVal] = dict(kwargs)
        complete = True
        for expanded in star_kwargs:
            if expanded.entries is None:
                complete = False
                continue
            provided.update(dict(expanded.entries))
            complete = complete and expanded.complete
        if len(node.args) > 1:
            provided.setdefault("t", args[1])
        if complete:
            missing = sorted(set(fields) - set(provided))
            if "t" not in provided:
                missing.insert(0, "t")
            if missing:
                self._flag(
                    "REP203",
                    f"tracer emission of {etype!r} (payload resolved by "
                    f"dataflow) is missing declared field(s): "
                    f"{', '.join(missing)}",
                    node,
                    symbol=etype,
                )
        for name, value in sorted(provided.items()):
            allowed = fields.get(name)
            if allowed is None or value.const is None:
                continue
            if not isinstance(value.const, tuple(allowed)) or (
                isinstance(value.const, bool) and bool not in allowed
            ):
                self._flag(
                    "REP203",
                    f"field {name!r} of {etype!r} expects "
                    f"{'/'.join(t.__name__ for t in allowed)} but the "
                    f"resolved payload holds {type(value.const).__name__}",
                    node,
                    symbol=f"{etype}.{name}",
                )
