"""Tier-1 linter (repro.check.lint): every rule with a triggering and a
clean fixture, plus noqa suppression and the baseline round trip."""

import json
import textwrap

import pytest

from repro.check.baseline import (
    fingerprint_counts,
    load_baseline,
    new_findings,
    write_baseline,
)
from repro.check.lint import lint_paths, lint_source
from repro.errors import ConfigurationError

#: A path inside a deterministic package (REP101/REP102 apply).
DET = "src/repro/sim/fixture.py"
#: A path outside the deterministic packages (they do not).
FREE = "src/repro/analysis/fixture.py"


def rules(findings):
    return sorted(f.rule for f in findings)


def lint(source, path=DET):
    return lint_source(textwrap.dedent(source), path)


# ---------------------------------------------------------------------------
# REP100: syntax errors are findings, not crashes


def test_rep100_syntax_error():
    findings = lint("def broken(:\n")
    assert rules(findings) == ["REP100"]


# ---------------------------------------------------------------------------
# REP101: wall-clock reads in deterministic packages


def test_rep101_wallclock_flagged_in_deterministic_package():
    src = """
        import time

        def stamp():
            return time.time()
    """
    assert rules(lint(src)) == ["REP101"]


def test_rep101_respects_import_alias():
    src = """
        import time as _time

        def stamp():
            return _time.monotonic()
    """
    assert rules(lint(src)) == ["REP101"]


def test_rep101_datetime_now():
    src = """
        import datetime

        def stamp():
            return datetime.now()
    """
    assert rules(lint(src)) == ["REP101"]


def test_rep101_silent_outside_deterministic_packages():
    src = """
        import time

        def stamp():
            return time.time()
    """
    assert lint(src, path=FREE) == []


def test_rep101_sim_clock_is_clean():
    src = """
        def stamp(sim):
            return sim.now
    """
    assert lint(src) == []


# ---------------------------------------------------------------------------
# REP102: unseeded randomness


def test_rep102_global_random_call():
    src = """
        import random

        def draw():
            return random.random()
    """
    assert rules(lint(src)) == ["REP102"]


def test_rep102_unseeded_random_constructor():
    src = """
        import random

        def make_rng():
            return random.Random()
    """
    assert rules(lint(src)) == ["REP102"]


def test_rep102_seeded_random_is_clean():
    src = """
        import random

        def make_rng(seed: int):
            return random.Random(seed)
    """
    assert lint(src) == []


def test_rep102_silent_outside_deterministic_packages():
    src = """
        import random

        def draw():
            return random.random()
    """
    assert lint(src, path=FREE) == []


# ---------------------------------------------------------------------------
# REP103: float == against clock expressions


def test_rep103_eq_against_now():
    src = """
        def poll(sim):
            if sim.now == 3.0:
                return True
    """
    assert rules(lint(src)) == ["REP103"]


def test_rep103_neq_against_time_suffix():
    src = """
        def poll(deadline_time, t):
            return t != deadline_time
    """
    # Both sides look like clocks; one finding per comparison.
    assert rules(lint(src)) == ["REP103"]


def test_rep103_ordered_comparison_is_clean():
    src = """
        def poll(sim, deadline_time):
            return sim.now >= deadline_time
    """
    assert lint(src) == []


def test_rep103_none_check_is_clean():
    src = """
        def poll(completed_at):
            return completed_at == None
    """
    assert lint(src) == []


# ---------------------------------------------------------------------------
# REP104: Tracer.emit vs EVENT_SCHEMA


def test_rep104_unknown_event_type():
    src = """
        def note(tracer, sim):
            tracer.emit("bogus.event", t=sim.now)
    """
    findings = lint(src)
    assert rules(findings) == ["REP104"]
    assert "bogus.event" in findings[0].message


def test_rep104_missing_declared_fields():
    src = """
        def note(tracer, sim):
            tracer.emit("tcp.loss", t=sim.now, conn="c0")
    """
    findings = lint(src)
    assert rules(findings) == ["REP104"]
    assert "interface" in findings[0].message


def test_rep104_complete_emission_is_clean():
    src = """
        def note(tracer, sim):
            tracer.emit("tcp.loss", t=sim.now, conn="c0", interface="wifi")
    """
    assert lint(src) == []


def test_rep104_dynamic_kwargs_are_opaque():
    src = """
        def note(tracer, sim, fields):
            tracer.emit("tcp.loss", t=sim.now, **fields)
    """
    assert lint(src) == []


# ---------------------------------------------------------------------------
# REP105: unit-suffix discipline


def test_rep105_bare_quantity_parameter():
    src = """
        def drain(energy: float):
            return energy
    """
    assert rules(lint(src)) == ["REP105"]


def test_rep105_suffixed_parameter_is_clean():
    src = """
        def drain(energy_j: float, bandwidth_mbps: float):
            return energy_j
    """
    assert lint(src) == []


def test_rep105_class_field_annotation():
    src = """
        class Budget:
            power: float
            power_w: float
    """
    findings = lint(src)
    assert rules(findings) == ["REP105"]
    assert "power" in findings[0].context


def test_rep105_loss_rate_is_exempt():
    src = """
        def lossy(loss_rate: float):
            return loss_rate
    """
    assert lint(src) == []


def test_rep105_nonscalar_shapes_are_exempt():
    src = """
        def plot(rate_series, power_model):
            return rate_series, power_model
    """
    assert lint(src) == []


def test_rep105_non_numeric_annotation_is_exempt():
    src = """
        def label(energy: str):
            return energy
    """
    assert lint(src) == []


# ---------------------------------------------------------------------------
# REP106: config keys must be EMPTCPConfig fields


def test_rep106_bad_runspec_config_key():
    src = """
        def make(RunSpec):
            return RunSpec(protocol="emptcp", builder="static",
                           config={"tau_secondz": 1.0})
    """
    findings = lint(src)
    assert rules(findings) == ["REP106"]
    assert "tau_secondz" in findings[0].message


def test_rep106_valid_config_key_is_clean():
    src = """
        def make(RunSpec):
            return RunSpec(protocol="emptcp", builder="static",
                           config={"tau_seconds": 1.0})
    """
    assert lint(src) == []


def test_rep106_sweep_config_parameter():
    src = """
        def sweep(sweep_config):
            return sweep_config("not_a_field", [1, 2, 3])
    """
    assert rules(lint(src)) == ["REP106"]


# ---------------------------------------------------------------------------
# REP107: __all__ in sync, both directions


def test_rep107_all_lists_unbound_name():
    src = """
        from repro.units import mbps_to_bytes_per_sec

        __all__ = ["mbps_to_bytes_per_sec", "ghost"]
    """
    findings = lint_source(
        textwrap.dedent(src), "src/repro/fake/__init__.py"
    )
    assert rules(findings) == ["REP107"]
    assert "ghost" in findings[0].message


def test_rep107_public_name_missing_from_all():
    src = """
        from repro.units import mbps_to_bytes_per_sec, mib

        __all__ = ["mib"]
    """
    findings = lint_source(
        textwrap.dedent(src), "src/repro/fake/__init__.py"
    )
    assert rules(findings) == ["REP107"]
    assert "mbps_to_bytes_per_sec" in findings[0].message


def test_rep107_only_applies_to_init_files():
    src = """
        from repro.units import mib

        __all__ = ["mib", "ghost"]
    """
    assert lint_source(textwrap.dedent(src), "src/repro/fake/module.py") == []


def test_rep107_stdlib_imports_are_not_public():
    src = """
        import json
        from pathlib import Path

        from repro.units import mib

        __all__ = ["mib"]
    """
    assert lint_source(textwrap.dedent(src), "src/repro/fake/__init__.py") == []


def test_rep107_module_getattr_binds_its_lazy_names():
    src = """
        _LAZY = {"Service": "repro.fake.service"}
        _OTHER = {"ghost": "repro.fake.ghost"}

        def __getattr__(name):
            return _LAZY[name]

        __all__ = ["Service", "ghost"]
    """
    findings = lint_source(textwrap.dedent(src), "src/repro/fake/__init__.py")
    assert rules(findings) == ["REP107"]
    assert "ghost" in findings[0].message


# ---------------------------------------------------------------------------
# noqa suppression


def test_noqa_with_matching_rule_suppresses():
    src = """
        import random

        def draw():
            return random.random()  # repro: noqa[REP102]
    """
    assert lint(src) == []


def test_bare_noqa_suppresses_everything():
    src = """
        import time

        def stamp():
            return time.time()  # repro: noqa
    """
    assert lint(src) == []


def test_noqa_with_other_rule_does_not_suppress():
    src = """
        import random

        def draw():
            return random.random()  # repro: noqa[REP105]
    """
    assert rules(lint(src)) == ["REP102"]


# ---------------------------------------------------------------------------
# baseline round trip


def _sample_findings():
    return lint(
        """
        import random

        def draw():
            return random.random()
        """
    )


def test_baseline_round_trip(tmp_path):
    findings = _sample_findings()
    path = tmp_path / "baseline.json"
    write_baseline(path, findings)
    baseline = load_baseline(path)
    assert baseline == fingerprint_counts(findings)
    new, stale = new_findings(findings, baseline)
    assert new == [] and stale == []


def test_baseline_flags_new_and_stale(tmp_path):
    findings = _sample_findings()
    path = tmp_path / "baseline.json"
    write_baseline(path, findings)
    baseline = load_baseline(path)
    # A fresh violation not in the baseline is "new"...
    extra = lint(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    new, stale = new_findings(findings + extra, baseline)
    assert rules(new) == ["REP101"]
    # ...and a fixed one leaves a stale fingerprint behind.
    new, stale = new_findings([], baseline)
    assert new == [] and len(stale) == 1


def test_baseline_missing_file_is_empty():
    assert load_baseline("/nonexistent/baseline.json") == {}


def test_baseline_malformed_file_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("not json")
    with pytest.raises(ConfigurationError):
        load_baseline(path)


# ---------------------------------------------------------------------------
# whole-tree regression: the committed baseline covers src/repro


def test_committed_baseline_is_current(repo_root):
    report = lint_paths([repo_root / "src" / "repro"], rel_to=repo_root)
    baseline = load_baseline(repo_root / ".repro-check-baseline.json")
    new, _stale = new_findings(report.findings, baseline)
    assert new == [], "\n".join(f.format() for f in new)


def test_lint_paths_relativizes(repo_root, tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("import random\nrandom.seed(1)\n")
    report = lint_paths([target], rel_to=tmp_path)
    assert report.checked == 1
    # Outside a repro/<deterministic> tree nothing fires.
    assert report.ok
