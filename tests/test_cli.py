"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.trace import read_run_record


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_import_does_not_load_numpy():
    """numpy is imported by the code that computes with it (the fitting
    functions, the offline table builders, the flow tier), not by CLI
    start-up; likewise the static checks (``repro.check``) and the HTTP
    experiment service, which only their own commands use."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    lazy = ("numpy", "repro.check", "repro.runtime.service", "http.server")
    probe = f"import sys, repro.cli; print([m for m in {lazy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_runtime_serves_the_service_names_on_first_use():
    import repro.runtime as runtime
    from repro.runtime.service import ExperimentService, SweepPlan, plan_sweep

    assert runtime.ExperimentService is ExperimentService
    assert runtime.SweepPlan is SweepPlan
    assert runtime.plan_sweep is plan_sweep
    assert set(runtime._LAZY_EXPORTS) <= set(runtime.__all__)
    with pytest.raises(AttributeError):
        runtime.no_such_name  # noqa: B018


def test_list_names_all_experiments(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    for name in ("table2", "fig1", "fig5", "fig8", "fig17", "sec46"):
        assert name in out


def test_table1(capsys):
    code, out = run_cli(capsys, "table1")
    assert code == 0
    assert "Samsung Galaxy S3" in out
    assert "Broadcom BCM4339" in out


def test_table2(capsys):
    code, out = run_cli(capsys, "table2")
    assert code == 0
    assert "0.502" in out  # the paper column is shown for comparison


def test_fig1(capsys):
    code, out = run_cli(capsys, "fig1")
    assert code == 0
    assert "lte" in out and "wifi" in out


def test_fig3(capsys):
    code, out = run_cli(capsys, "fig3")
    assert code == 0
    assert "LTE\\WiFi" in out


def test_fig4(capsys):
    code, out = run_cli(capsys, "fig4")
    assert code == 0
    assert "16MB" in out


def test_fig5_scaled_down(capsys):
    code, out = run_cli(capsys, "fig5", "--runs", "1", "--size-mb", "4")
    assert code == 0
    assert "emptcp" in out and "tcp-wifi" in out


def test_fig13_scaled_down(capsys):
    code, out = run_cli(capsys, "fig13", "--runs", "1")
    assert code == 0
    assert "uJ/bit" in out


def test_fig17_scaled_down(capsys):
    code, out = run_cli(capsys, "fig17", "--runs", "1")
    assert code == 0
    assert "latency" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["figNaN"])


SMALL = ["--runs", "1", "--size-mb", "4", "--envs", "6"]


@pytest.mark.parametrize(
    "command",
    [
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig12",
        "fig14",
        "sec46",
        "handover",
        "upload",
        "streaming",
        "validate",
    ],
)
def test_every_simulation_command_runs_at_small_scale(capsys, command):
    code, out = run_cli(capsys, command, *SMALL)
    assert code == 0
    assert out.strip()


def test_fig15_small_scale(capsys):
    code, out = run_cli(capsys, "fig15", "--envs", "6")
    assert code == 0
    assert "median" in out


def test_report_smoke_to_stdout(capsys):
    code, out = run_cli(capsys, "report", "--scale", "smoke")
    assert code == 0
    assert "# Reproduction report" in out


class TestCacheDirOption:
    """``cache stats``/``cache clear`` must operate on a non-default
    ``--cache-dir``, not silently fall back to the default root."""

    def test_stats_and_clear_respect_cache_dir(self, tmp_path, capsys):
        from repro.runtime.cache import ResultCache

        cache_dir = tmp_path / "custom-cache"
        code, _ = run_cli(
            capsys, "fig5", "--runs", "1", "--size-mb", "1",
            "--cache", "--cache-dir", str(cache_dir),
        )
        assert code == 0
        # Entries land in the segment store, not per-run JSON blobs.
        assert (cache_dir / "store").is_dir()
        entries = ResultCache(cache_dir).stats().entries
        assert entries == 3  # one per protocol

        code, out = run_cli(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
        assert code == 0
        assert str(cache_dir) in out
        assert f"entries:    {entries}" in out
        assert "segments:   " in out

        code, out = run_cli(capsys, "cache", "clear", "--cache-dir", str(cache_dir))
        assert code == 0
        assert f"removed {entries} cached result(s)" in out
        assert str(cache_dir) in out
        assert ResultCache(cache_dir).stats().entries == 0

        code, out = run_cli(capsys, "cache", "stats", "--cache-dir", str(cache_dir))
        assert code == 0
        assert "entries:    0" in out

    def test_clear_on_missing_dir_is_a_noop(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "cache", "clear", "--cache-dir", str(tmp_path / "nope")
        )
        assert code == 0
        assert "removed 0" in out

    def test_unknown_cache_subcommand_rejected(self, tmp_path, capsys):
        code = main(["cache", "frobnicate", "--cache-dir", str(tmp_path)])
        assert code == 2


class TestTraceCommand:
    def test_trace_flags_export_and_summarize(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code, _ = run_cli(
            capsys, "fig6", "--runs", "1", "--size-mb", "2",
            "--trace", "--metrics", "--cache-dir", str(cache_dir),
        )
        assert code == 0
        obs_dir = cache_dir / "obs"
        records = sorted(obs_dir.glob("*.trace.jsonl"))
        assert len(records) == 3
        assert all(read_run_record(r).metrics is not None for r in records)

        # explicit target
        code, out = run_cli(capsys, "trace", "summarize", str(obs_dir))
        assert code == 0
        assert "events across 3 trace file(s)" in out
        assert "predictor[" in out

        # default target is <cache-dir>/obs
        code, out = run_cli(capsys, "trace", "--cache-dir", str(cache_dir))
        assert code == 0
        assert "events across 3 trace file(s)" in out

        code, out = run_cli(capsys, "check", "trace", str(obs_dir))
        assert code == 0
        # The three run records, and nothing else under the obs dir.
        assert "trace: OK (3 checked)" in out
        assert sorted(p.name for p in obs_dir.iterdir()) == [
            r.name for r in records]

    def test_trace_obs_dir_override(self, tmp_path, capsys):
        obs_dir = tmp_path / "elsewhere"
        code, _ = run_cli(
            capsys, "fig5", "--runs", "1", "--size-mb", "1",
            "--trace", "--obs-dir", str(obs_dir),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert list(obs_dir.glob("*.trace.jsonl"))

    def test_check_trace_flags_schema_problems(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace.jsonl"
        bad.write_text('{"t": 1.0, "type": "not.a.known.type"}\n')
        code, out = run_cli(capsys, "check", "trace", str(bad))
        assert code == 1
        assert "CHK301" in out

    def test_trace_missing_target_errors(self, tmp_path, capsys):
        code = main(["trace", "summarize", str(tmp_path / "nope")])
        assert code == 2

    def test_unknown_trace_subcommand_rejected(self, tmp_path, capsys):
        code = main(["trace", "frobnicate", str(tmp_path)])
        assert code == 2
        # Runs correlate by spec hash; there is no span tree to print.
        assert main(["trace", "tree", str(tmp_path)]) == 2
        assert "choose summarize or timeline" in capsys.readouterr().err


class TestCheckCommand:
    def test_check_config_is_clean(self, capsys):
        code, out = run_cli(capsys, "check", "config")
        assert code == 0
        assert "config: OK" in out

    def test_check_lint_clean_file(self, capsys, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("def f(energy_j: float):\n    return energy_j\n")
        code, out = run_cli(
            capsys, "check", "lint", str(target), "--no-baseline"
        )
        assert code == 0
        assert "lint: OK" in out

    def test_check_lint_flags_violations(self, capsys, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        init = pkg / "__init__.py"
        init.write_text("__all__ = ['ghost']\n")
        code, out = run_cli(
            capsys, "check", "lint", str(init), "--no-baseline"
        )
        assert code == 1
        assert "REP107" in out

    def test_check_trace_reports_bad_trace(self, capsys):
        code, out = run_cli(
            capsys, "check", "trace", "tests/data/bad.trace.jsonl"
        )
        assert code == 1
        assert "CHK304" in out and "CHK307" in out

    def test_check_trace_missing_target_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "check", "trace", "/nonexistent/traces")
        assert code == 2

    def test_check_unknown_subcommand(self, capsys):
        code, _ = run_cli(capsys, "check", "bogus")
        assert code == 2

    def test_check_determinism_small(self, capsys):
        code, out = run_cli(capsys, "check", "determinism", "--size-mb", "1")
        assert code == 0
        assert "determinism: OK" in out
