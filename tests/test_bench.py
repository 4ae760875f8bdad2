"""Tests for the ``repro bench`` harness: envelope, gates, CLI exit codes."""

import json
import os
import subprocess

import pytest

from repro import bench
from repro.cli import main
from repro.core.result import Outcome

SUITES = ("kernels", "cube", "portfolio", "incremental")

#: suite-specific row fields next to the common name/wall_seconds/decisions.
ROW_FIELDS = {
    "kernels": ("engine", "pure_literals", "runs", "decisions_per_second"),
    "cube": ("instance", "jobs", "outcome", "speedup"),
    "portfolio": ("family", "outcome", "winner", "singles"),
    "incremental": ("scratch_decisions", "retained_per_bound", "diameter"),
}

#: the CLI flags each suite needs to run within the tests' time budget.
EXTRA_ARGS = {"portfolio": ["--jobs", "1"]}


@pytest.fixture
def tiny_series(monkeypatch):
    """Shrink every suite's quick series to one tiny instance."""
    monkeypatch.setattr(
        bench, "KERNELS_QUICK", dict(sizes=(2,), max_n_cap=1, budget_decisions=500)
    )
    monkeypatch.setattr(bench, "CUBE_QUICK", (("counter", 2, (1,)),))
    monkeypatch.setattr(
        bench, "PORTFOLIO_QUICK",
        dict(families=(("counter", (2,)),), max_n_cap=0, budget_decisions=500),
    )
    monkeypatch.setattr(bench, "INCREMENTAL_QUICK", (("counter", 2),))


def _bench(tmp_path, suite):
    out = str(tmp_path / "report.json")
    code = main(["bench", suite, "--quick", "-o", out] + EXTRA_ARGS.get(suite, []))
    with open(out) as handle:
        return code, json.load(handle)


@pytest.mark.parametrize("suite", SUITES)
def test_quick_report_envelope(suite, tiny_series, monkeypatch, tmp_path):
    # On a millisecond instance the portfolio's wall-clock ratio is
    # scheduler noise; the bound itself is exercised by the forced-failure
    # test below.
    monkeypatch.setattr(bench, "PORTFOLIO_BOUND", float("inf"))
    code, report = _bench(tmp_path, suite)
    assert code == 0
    assert report["schema"] == "repro-bench/3"
    assert report["suite"] == suite
    assert report["mode"] == "quick"
    assert set(report) == {"schema", "suite", "mode", "env", "series", "rows",
                           "summary", "gates", "ok"}
    env = report["env"]
    assert set(env) == {"commit", "dirty", "python", "platform", "cpu_count",
                        "kernel"}
    assert {"available", "version", "path", "import_error"} <= set(env["kernel"])
    assert env["dirty"] in (True, False, None)
    assert (env["kernel"]["path"] is not None) == env["kernel"]["available"]
    assert report["rows"]
    for row in report["rows"]:
        for key in ("name", "wall_seconds", "decisions") + ROW_FIELDS[suite]:
            assert key in row, (suite, key)
    assert report["gates"]
    for g in report["gates"]:
        assert g["name"] and g["ok"] and g["failures"] == [], g
    assert report["ok"]


def test_git_state_names_commit_and_dirty_tree(tmp_path):
    repo = str(tmp_path)

    def git(*args):
        subprocess.run(("git", "-c", "user.name=t", "-c", "user.email=t@t")
                       + args, cwd=repo, check=True, capture_output=True)

    assert bench.git_state(repo) == (None, None)  # not a checkout yet
    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    commit, dirty = bench.git_state(repo)
    assert len(commit) == 40 and dirty is False
    (tmp_path / "a.txt").write_text("two\n")
    assert bench.git_state(repo) == (commit, True)
    git("commit", "-q", "-am", "two")
    new_commit, dirty = bench.git_state(repo)
    assert new_commit != commit and dirty is False


def test_environment_names_the_loaded_kernel(monkeypatch):
    inside = os.path.join(bench.ROOT, "src", "repro", "_native.so")
    monkeypatch.setattr(bench, "kernel_path", lambda: inside)
    assert bench.environment()["kernel"]["path"] == os.path.join(
        "src", "repro", "_native.so")
    monkeypatch.setattr(bench, "kernel_path", lambda: "/x/_native.so")
    assert bench.environment()["kernel"]["path"] == "/x/_native.so"
    report = {"suite": "kernels", "mode": "quick", "env": dict(
        bench.environment(), dirty=True), "series": {}, "rows": [],
        "summary": {}, "gates": []}
    report["env"]["kernel"]["available"] = True
    text = bench.render_report(report)
    assert "/x/_native.so" in text and "uncommitted changes" in text


def test_kernels_records_a_missing_kernel_as_fallback(tiny_series, monkeypatch):
    monkeypatch.setattr(bench, "native_available", lambda: False)
    report = bench.run_suite("kernels", quick=True)
    assert report["env"]["kernel"]["fallback"] == "counters"
    assert {r["engine"] for r in report["rows"]} == {"counters"}


def test_portfolio_summary_covers_every_entrant(tiny_series):
    report = bench.run_suite("portfolio", quick=True, jobs=1)
    family = report["summary"]["families"]["counter"]
    assert set(family["single_wall_seconds"]) == set(report["series"]["entrants"])
    assert family["best_single"]["entrant"] in family["single_wall_seconds"]


def _wrong_native_decisions(monkeypatch):
    real = bench.run_series

    def fake(engine, pure, **series):
        runs, wall, solve_seconds = real("counters", pure, **series)
        if engine == "native":
            runs[0] = dict(runs[0], decisions=runs[0]["decisions"] + 1)
        return runs, wall, solve_seconds

    monkeypatch.setattr(bench, "native_available", lambda: True)
    monkeypatch.setattr(bench, "run_series", fake)
    return "decision_identity"


def _wrong_cube_verdict(monkeypatch):
    real = bench.run_cube

    def fake(formula, jobs, seed):
        report = real(formula, jobs=jobs, seed=seed)
        if jobs > 1:
            report.outcome = (
                Outcome.TRUE if report.outcome is Outcome.FALSE else Outcome.FALSE
            )
        return report

    monkeypatch.setattr(bench, "run_cube", fake)
    return "verdict_agreement"


def _slow_portfolio(monkeypatch):
    real = bench.race

    def fake(*args, **kwargs):
        result = real(*args, **kwargs)
        result.seconds = 100.0
        return result

    monkeypatch.setattr(bench, "race", fake)
    return "within_bound"


def _equal_scratch_count(monkeypatch):
    monkeypatch.setattr(bench, "scratch_diameter", bench.incremental_diameter)
    return "incremental_strictly_fewer"


def _wrong_diameter(monkeypatch):
    real = bench.incremental_diameter

    def fake(model):
        run = real(model)
        run.diameter += 1
        return run

    monkeypatch.setattr(bench, "incremental_diameter", fake)
    return "diameter_matches_bfs"


@pytest.mark.parametrize("suite, breakage", [
    ("kernels", _wrong_native_decisions),
    ("cube", _wrong_cube_verdict),
    ("portfolio", _slow_portfolio),
    ("incremental", _equal_scratch_count),
    ("incremental", _wrong_diameter),
])
def test_failed_gate_exits_1_with_report_on_disk(
    suite, breakage, tiny_series, monkeypatch, tmp_path, capsys
):
    gate_name = breakage(monkeypatch)
    code, report = _bench(tmp_path, suite)
    assert code == 1
    assert report["ok"] is False
    failed = [g for g in report["gates"] if not g["ok"]]
    assert [g["name"] for g in failed] == [gate_name]
    assert failed[0]["failures"]
    assert "FAILED: %s" % gate_name in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cube", "bench", "--quick"],
    ["portfolio", "bench", "--quick"],
    ["serve", "bench", "--quick"],
    ["bench", "cube", "--profile"],
    ["bench", "kernels", "--jobs", "1"],
    ["bench", "incremental", "--seed", "0"],
])
def test_retired_commands_and_misplaced_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
