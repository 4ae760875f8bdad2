"""``repro bench <suite>``: one harness behind every committed ``BENCH_*.json``.

Each suite runs a pinned series and returns its rows and named gates; one
shared core wraps them in the same envelope, records the environment,
checks the gates, writes the report and renders it. The suites:

* ``kernels`` — the Figure-6 counter series (the same instances, budget
  and double-timeout stopping rule as ``repro.evalx.suites.run_dia_scaling``)
  under every propagation backend this build can run, pure literals on and
  off. Gates: ``decision_identity`` (every run's decisions equal the
  counters reference, run by run) and, in full mode, ``pinned_decisions``
  (the counters totals equal the pre-kernel engine's, so a search change
  cannot masquerade as a speedup).
* ``cube`` — cube-and-conquer at ``jobs=1`` (the sequential baseline: no
  splitting, no fork, no sharing) and at each parallel job count on the
  Figure-6 counter/semaphore bounds. Gate: ``verdict_agreement``.
* ``portfolio`` — the PO/TO race against each lane run alone on the
  Figure-6 counter/semaphore series. Gate: ``within_bound`` (per family,
  portfolio wall-clock at most ``PORTFOLIO_BOUND`` times the best single
  lane's).
* ``incremental`` — the SMV diameter sweep on one persistent
  :class:`~repro.incremental.IncrementalSolver` vs from scratch per bound,
  on bit-identical formulas (:mod:`repro.smv.incremental`). Gates:
  ``diameter_matches_bfs`` and ``incremental_strictly_fewer``.

Report envelope (schema ``repro-bench/3``)::

    {"schema": "repro-bench/3", "suite": "kernels", "mode": "quick"|"full",
     "env": {"commit": "<sha>"|null, "dirty": true|false|null,
             "python": ..., "platform": ..., "cpu_count": ...,
             "kernel": {"available": ..., "version": ..., "path": ...,
                        "import_error": ..., ["fallback": "counters"]}},
     "series": {...}, "rows": [{"name": ..., "wall_seconds": ...,
                                "decisions": ..., ["outcome": ...], ...}],
     "summary": {...}, "gates": [{"name": ..., "ok": ..., "failures": [...]}],
     "ok": true}

The series are deterministic — pinned models, decision-only budgets — so
the decision columns compare across machines and solver versions (the
parallel cube runs excepted); the seconds are the host's, which is why
``env`` records it. ``dirty`` says the work tree had uncommitted changes,
so ``commit`` names the parent of the code that ran. Wall-clock is gated
only by the portfolio bound.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.engine.native import (
    kernel_path,
    kernel_version,
    native_available,
    native_import_error,
)
from repro.cube.coordinator import run_cube
from repro.evalx.parallel import execute_task
from repro.evalx.runner import Budget, Measurement, solve_po
from repro.portfolio.race import DEFAULT_ENTRANTS, ENTRANTS, race
from repro.smv.diameter import diameter_qbf
from repro.smv.incremental import incremental_diameter, scratch_diameter
from repro.smv.models import model_by_name
from repro.smv.reachability import eccentricity

#: bump on any change to the JSON layout so downstream tooling can dispatch.
SCHEMA = "repro-bench/3"


class SuiteResult(NamedTuple):
    series: dict
    rows: List[dict]
    summary: dict
    gates: List[dict]
    #: engine the kernels suite ran in place of a missing native kernel.
    kernel_fallback: Optional[str] = None


def gate(name: str, failures: list) -> dict:
    return {"name": name, "ok": not failures, "failures": failures}


def git_state(path: str) -> Tuple[Optional[str], Optional[bool]]:
    """``(HEAD commit, work tree has uncommitted changes)`` of the git
    checkout holding ``path``; ``(None, None)`` outside one."""
    def git(*args: str) -> str:
        return subprocess.run(
            ("git",) + args, cwd=path, capture_output=True, text=True, check=True
        ).stdout

    try:
        commit = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain").strip()) if commit else None
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return commit, dirty


#: the checkout (or install prefix) this module runs from: src/repro/..
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _relative(path: Optional[str]) -> Optional[str]:
    """``path`` relative to :data:`ROOT` when it lies inside it."""
    if path is not None and os.path.abspath(path).startswith(ROOT + os.sep):
        return os.path.relpath(path, ROOT)
    return path


def environment() -> dict:
    """Where a report was measured: commit, interpreter, host, kernel."""
    commit, dirty = git_state(ROOT)
    return {
        "commit": commit,
        "dirty": dirty,
        "python": "%s %s" % (platform.python_implementation(),
                             platform.python_version()),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "kernel": {
            "available": native_available(),
            "version": kernel_version(),
            "path": _relative(kernel_path()),
            "import_error": native_import_error(),
        },
    }


# -- kernels ---------------------------------------------------------------

#: The pre-kernel layered engine (commit 1f10356) on the full kernels series,
#: measured with the same wall-clock protocol as :func:`run_series`. The
#: decision counts are part of the engine contract (the kernels must
#: reproduce them literally, and the ``pinned_decisions`` gate checks
#: them); the seconds are the reference machine's and only the *ratio*
#: against a same-machine rerun is meaningful.
PR3_BASELINE: Dict[str, Dict[str, float]] = {
    "counters/pure=on": {"wall_seconds": 35.09, "decisions": 13103},
    "counters/pure=off": {"wall_seconds": 3.52, "decisions": 35669},
}
PR3_BASELINE_LABEL = "PR-3 layered engine (pre-kernel), same series and budget"

#: full mode is the fig6 counter series the baseline was measured on; quick
#: mode is the CI smoke: one model size, short budget, same stopping rule.
KERNELS_FULL = dict(sizes=(2, 3), max_n_cap=8, budget_decisions=8000)
KERNELS_QUICK = dict(sizes=(2,), max_n_cap=4, budget_decisions=2000)


def config_key(engine: str, pure: bool) -> str:
    return "%s/pure=%s" % (engine, "on" if pure else "off")


def run_series(
    engine: str,
    pure: bool,
    sizes: Sequence[int],
    max_n_cap: int,
    budget_decisions: int,
) -> Tuple[List[dict], float, float]:
    """One configuration over the Figure-6 counter series.

    Returns ``(runs, wall_seconds, solve_seconds)``: a per-run record list,
    the wall-clock of the whole series (instance construction and
    prenexing included — the number the baseline was measured with), and
    the summed in-solver seconds (what the throughput rates divide by).
    """
    budget = Budget(decisions=budget_decisions)
    runs: List[dict] = []
    solve_seconds = 0.0
    start = time.perf_counter()
    for size in sizes:
        model = model_by_name("counter", size)
        d = eccentricity(model)
        for n in range(min(d, max_n_cap) + 1):
            po = solve_po(
                diameter_qbf(model, n, "tree"),
                budget=budget, engine=engine, pure_literals=pure,
            )
            to = solve_po(
                diameter_qbf(model, n, "prenex"),
                budget=budget, engine=engine, pure_literals=pure,
            )
            for pipeline, m in (("PO", po), ("TO", to)):
                runs.append(_run_record(model.name, n, pipeline, m))
                solve_seconds += m.seconds
            # the series' stopping rule, same as run_dia_scaling: once both
            # pipelines blow the budget, longer lengths only get harder.
            if po.timed_out and to.timed_out:
                break
    wall = time.perf_counter() - start
    return runs, wall, solve_seconds


def _run_record(model_name: str, n: int, pipeline: str, m: Measurement) -> dict:
    stats = m.stats
    return {
        "instance": "%s/n=%d/%s" % (model_name, n, pipeline),
        "outcome": m.outcome.value,
        "timed_out": m.timed_out,
        "decisions": m.decisions,
        "propagations": stats.propagations,
        "clause_visits": stats.clause_visits,
        "cube_visits": stats.cube_visits,
        "seconds": m.seconds,
    }


def _aggregate(runs: List[dict], wall: float, solve_seconds: float) -> dict:
    totals = {
        key: sum(r[key] for r in runs)
        for key in ("decisions", "propagations", "clause_visits", "cube_visits")
    }
    # rates over in-solver time: instance construction does not dilute them
    denom = solve_seconds if solve_seconds > 0 else float("nan")
    return {
        "wall_seconds": wall,
        "solve_seconds": solve_seconds,
        **totals,
        "decisions_per_second": totals["decisions"] / denom,
        "propagations_per_second": totals["propagations"] / denom,
        "clause_visits_per_second": totals["clause_visits"] / denom,
    }


def _profiled(kwargs: dict, top: int = 15) -> Tuple[Tuple[List[dict], float, float], str]:
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    out = run_series(**kwargs)
    profiler.disable()
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(top)
    return out, buf.getvalue()


def _identity_mismatches(key: str, reference: List[dict], runs: List[dict]) -> List[dict]:
    mismatches = [
        {"config": key, "expected": ref, "got": run}
        for ref, run in zip(reference, runs)
        if (ref["instance"], ref["decisions"]) != (run["instance"], run["decisions"])
    ]
    if len(reference) != len(runs):
        mismatches.append(
            {"config": key, "expected_runs": len(reference), "got_runs": len(runs)}
        )
    return mismatches


def kernels(quick: bool = False, profile: bool = False) -> SuiteResult:
    """Every (engine, pure) configuration, checked against counters.

    The counters backend always runs first: it is the eager reference every
    other backend's decision counts are checked against, run by run. The
    native rows join whenever the compiled kernel imports; a missing kernel
    is never silent — ``kernel_fallback`` lands in the report's
    ``env.kernel`` and the counters rows stand in for native.
    """
    series = KERNELS_QUICK if quick else KERNELS_FULL
    engines = ["counters", "native"] if native_available() else ["counters"]
    rows: List[dict] = []
    mismatches: List[dict] = []
    for pure in (True, False):
        reference: Optional[List[dict]] = None
        for engine in engines:
            kwargs = dict(engine=engine, pure=pure, **series)
            if profile:
                (runs, wall, solve_seconds), profile_text = _profiled(kwargs)
            else:
                runs, wall, solve_seconds = run_series(**kwargs)
            key = config_key(engine, pure)
            row = {
                "name": key,
                "engine": engine,
                "pure_literals": pure,
                **_aggregate(runs, wall, solve_seconds),
                "runs": runs,
            }
            if profile:
                row["profile"] = profile_text
            if reference is None:
                reference = runs
            else:
                mismatches += _identity_mismatches(key, reference, runs)
            rows.append(row)

    gates = [gate("decision_identity", mismatches)]
    summary: dict = {"native_speedup_vs_counters": _native_speedups(rows)}
    if not quick:
        baseline = {"label": PR3_BASELINE_LABEL}
        pinned = []
        for row in rows:
            base = PR3_BASELINE.get(row["name"])
            if base is None:
                continue
            baseline[row["name"]] = dict(
                base, wall_speedup=base["wall_seconds"] / row["wall_seconds"]
            )
            if row["decisions"] != base["decisions"]:
                pinned.append({"config": row["name"], "expected": base["decisions"],
                               "got": row["decisions"]})
        summary["baseline"] = baseline
        gates.append(gate("pinned_decisions", pinned))
    return SuiteResult(
        series={"family": "counter", **series},
        rows=rows,
        summary=summary,
        gates=gates,
        kernel_fallback=None if native_available() else "counters",
    )


def _native_speedups(rows: List[dict]) -> Optional[Dict[str, float]]:
    """decisions/sec ratio of the native rows over the counters rows.

    Same decisions by the identity contract, so the throughput ratio IS the
    speedup of the solving itself. None when native didn't run.
    """
    by_key = {r["name"]: r for r in rows}
    out = {}
    for row in rows:
        if row["engine"] != "native":
            continue
        counters = by_key.get(config_key("counters", row["pure_literals"]))
        if counters and counters["decisions_per_second"] > 0:
            out[row["name"]] = (
                row["decisions_per_second"] / counters["decisions_per_second"]
            )
    return out or None


# -- cube --------------------------------------------------------------------

#: (family, size, bounds) triples. The full series is the Figure-6 pair: the
#: counter family around its eccentricity (one TRUE and one FALSE bound) plus
#: the semaphore family; quick mode is a small member of each family.
CUBE_FULL: Tuple[Tuple[str, int, Tuple[int, ...]], ...] = (
    ("counter", 3, (6, 7)),
    ("semaphore", 2, (4,)),
)
CUBE_QUICK: Tuple[Tuple[str, int, Tuple[int, ...]], ...] = (
    ("counter", 2, (4,)),
    ("semaphore", 2, (4,)),
)
CUBE_FULL_JOBS: Tuple[int, ...] = (1, 2, 4)
CUBE_QUICK_JOBS: Tuple[int, ...] = (1, 2)
#: split-tree tie-breaking seed; the only one any committed report used.
CUBE_SEED = 0


def _cube_row(instance: str, formula, jobs: int) -> dict:
    start = time.perf_counter()
    report = run_cube(formula, jobs=jobs, seed=CUBE_SEED)
    wall = time.perf_counter() - start
    return {
        "name": "%s/jobs=%d" % (instance, jobs),
        "instance": instance,
        "jobs": jobs,
        "outcome": report.outcome.value,
        "wall_seconds": wall,
        "decisions": report.total_decisions,
        "leaves": report.leaves,
        "escalations": report.escalations,
        "resplits": report.resplits,
        "cancelled": report.cancelled,
        "share": report.share,
    }


def cube(quick: bool = False) -> SuiteResult:
    """Parallel vs sequential cube-and-conquer; verdicts must agree.

    Speedup is recorded, never gated: wall-clock from shared CI runners
    would gate on scheduler noise.
    """
    series = CUBE_QUICK if quick else CUBE_FULL
    job_counts = CUBE_QUICK_JOBS if quick else CUBE_FULL_JOBS
    rows: List[dict] = []
    disagreements: List[dict] = []
    for family, size, bounds in series:
        model = model_by_name(family, size)
        for n in bounds:
            formula = diameter_qbf(model, n, form="tree")
            instance = "%s%d/n=%d" % (family, size, n)
            sequential = None
            for jobs in job_counts:
                row = _cube_row(instance, formula, jobs)
                if sequential is None:
                    sequential = row
                row["speedup"] = (
                    sequential["wall_seconds"] / row["wall_seconds"]
                    if row["wall_seconds"] > 0 else float("nan")
                )
                if row["outcome"] != sequential["outcome"]:
                    disagreements.append({
                        "instance": instance, "jobs": jobs,
                        "outcome": row["outcome"],
                        "sequential": sequential["outcome"],
                    })
                rows.append(row)
    return SuiteResult(
        series={"instances": [list(s) for s in series],
                "jobs": list(job_counts), "seed": CUBE_SEED},
        rows=rows,
        summary={"verdicts": {r["instance"]: r["outcome"]
                              for r in rows if r["jobs"] == 1}},
        gates=[gate("verdict_agreement", disagreements)],
    )


# -- portfolio ---------------------------------------------------------------

#: the acceptance bound: portfolio wall-clock vs best single lane.
PORTFOLIO_BOUND = 1.15

#: full mode covers the fig6 counter and semaphore families; quick mode is
#: the CI smoke — one family, one size, short budget, same stopping rule.
PORTFOLIO_FULL = dict(
    families=(("counter", (2, 3)), ("semaphore", (1, 2))),
    max_n_cap=4,
    budget_decisions=3000,
)
PORTFOLIO_QUICK = dict(
    families=(("counter", (2,)),),
    max_n_cap=2,
    budget_decisions=1500,
)
PORTFOLIO_STRATEGY = "eu_au"


def _single_lane(name: str, formula, instance: str, budget: Budget) -> Tuple[Measurement, float]:
    """One lane alone, timed like a race (task build + execution)."""
    start = time.perf_counter()
    task = ENTRANTS[name].task(formula, instance, budget, PORTFOLIO_STRATEGY, "counters")
    m = execute_task(task)
    return m, time.perf_counter() - start


def portfolio(quick: bool = False, jobs: int = 2) -> SuiteResult:
    """Each entrant alone, then the race, per instance.

    A family's series stops at the first length where the race itself comes
    back UNKNOWN (every lane budget-exhausted), like ``run_dia_scaling``.
    """
    series = PORTFOLIO_QUICK if quick else PORTFOLIO_FULL
    budget = Budget(decisions=series["budget_decisions"])
    rows: List[dict] = []
    families: Dict[str, dict] = {}
    over: List[dict] = []
    for family, sizes in series["families"]:
        winners: Dict[str, int] = {}
        single_seconds = {name: 0.0 for name in DEFAULT_ENTRANTS}
        single_decisions = {name: 0 for name in DEFAULT_ENTRANTS}
        portfolio_seconds = 0.0
        for size in sizes:
            model = model_by_name(family, size)
            for n in range(min(eccentricity(model), series["max_n_cap"]) + 1):
                phi = diameter_qbf(model, n, "tree")
                label = "%s-n%d" % (model.name, n)
                singles = {}
                for name in DEFAULT_ENTRANTS:
                    m, wall = _single_lane(name, phi, label, budget)
                    single_seconds[name] += wall
                    single_decisions[name] += m.decisions
                    singles[name] = {"outcome": m.outcome.value,
                                     "decisions": m.decisions,
                                     "wall_seconds": wall}
                result = race(phi, label, budget, jobs=jobs,
                              entrants=DEFAULT_ENTRANTS,
                              strategy=PORTFOLIO_STRATEGY)
                portfolio_seconds += result.seconds
                if result.winner is not None:
                    winners[result.winner] = winners.get(result.winner, 0) + 1
                rows.append({
                    "name": label,
                    "family": family,
                    "outcome": result.outcome.value,
                    "winner": result.winner,
                    "wall_seconds": result.seconds,
                    # every lane's work the race paid for, cancelled ones too
                    "decisions": sum(m.decisions for m in result.measurements),
                    "jobs": result.jobs,
                    "singles": singles,
                })
                if result.outcome.value == "unknown":
                    break
        best = min(single_seconds, key=lambda k: single_seconds[k])
        ratio = (portfolio_seconds / single_seconds[best]
                 if single_seconds[best] > 0 else float("nan"))
        families[family] = {
            "winners": winners,
            "single_wall_seconds": single_seconds,
            "single_decisions": single_decisions,
            "portfolio_wall_seconds": portfolio_seconds,
            "best_single": {"entrant": best, "wall_seconds": single_seconds[best]},
            "portfolio_vs_best_single": ratio,
        }
        if not ratio <= PORTFOLIO_BOUND:
            over.append({"family": family, "portfolio_vs_best_single": ratio})
    return SuiteResult(
        series={"families": [[f, list(s)] for f, s in series["families"]],
                "max_n_cap": series["max_n_cap"],
                "budget_decisions": series["budget_decisions"],
                "entrants": list(DEFAULT_ENTRANTS),
                "strategy": PORTFOLIO_STRATEGY,
                "jobs_requested": jobs,
                "bound": PORTFOLIO_BOUND},
        rows=rows,
        summary={"families": families},
        gates=[gate("within_bound", over)],
    )


# -- incremental -------------------------------------------------------------

#: (family, size) pairs; chosen to stay seconds-fast.
INCREMENTAL_QUICK = (("counter", 2), ("dme", 5), ("ring", 4))
INCREMENTAL_FULL = INCREMENTAL_QUICK + (("dme", 4), ("ring", 3), ("semaphore", 2))


def _sweep_row(family: str, size: int) -> dict:
    model = model_by_name(family, size)
    start = time.perf_counter()
    inc = incremental_diameter(model)
    inc_seconds = time.perf_counter() - start
    start = time.perf_counter()
    scratch = scratch_diameter(model)
    scratch_seconds = time.perf_counter() - start
    saved = scratch.total_decisions - inc.total_decisions
    return {
        "name": model.name,
        "wall_seconds": inc_seconds,
        "decisions": inc.total_decisions,
        "scratch_wall_seconds": scratch_seconds,
        "scratch_decisions": scratch.total_decisions,
        "decisions_saved": saved,
        "savings_pct": round(100.0 * saved / max(1, scratch.total_decisions), 2),
        "retained_per_bound": inc.retained_per_bound,
        "diameter": {"bfs": eccentricity(model), "incremental": inc.diameter,
                     "scratch": scratch.diameter},
    }


def incremental(quick: bool = False) -> SuiteResult:
    """Incremental vs from-scratch diameter sweeps on identical formulas."""
    series = INCREMENTAL_QUICK if quick else INCREMENTAL_FULL
    rows = [_sweep_row(family, size) for family, size in series]
    return SuiteResult(
        series={"models": [list(s) for s in series]},
        rows=rows,
        summary={
            "incremental_decisions": sum(r["decisions"] for r in rows),
            "scratch_decisions": sum(r["scratch_decisions"] for r in rows),
        },
        gates=[
            gate("diameter_matches_bfs", [
                dict(r["diameter"], model=r["name"]) for r in rows
                if len(set(r["diameter"].values())) != 1
            ]),
            gate("incremental_strictly_fewer", [
                {"model": r["name"], "incremental": r["decisions"],
                 "scratch": r["scratch_decisions"]}
                for r in rows if not r["decisions"] < r["scratch_decisions"]
            ]),
        ],
    )


# -- the shared core ---------------------------------------------------------

SUITES: Dict[str, Callable[..., SuiteResult]] = {
    "kernels": kernels,
    "cube": cube,
    "portfolio": portfolio,
    "incremental": incremental,
}


def run_suite(suite: str, quick: bool = False, **options) -> dict:
    """Run one suite; returns its ``repro-bench/3`` report."""
    result = SUITES[suite](quick=quick, **options)
    env = environment()
    if result.kernel_fallback:
        env["kernel"]["fallback"] = result.kernel_fallback
    return {
        "schema": SCHEMA,
        "suite": suite,
        "mode": "quick" if quick else "full",
        "env": env,
        "series": result.series,
        "rows": result.rows,
        "summary": result.summary,
        "gates": result.gates,
        "ok": all(g["ok"] for g in result.gates),
    }


def _rounded(value):
    if isinstance(value, float):
        return round(value, 3)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def render_report(report: dict) -> str:
    """Human-readable summary of any suite's report (stdout companion)."""
    env = report["env"]
    kernel = env["kernel"]
    if kernel["available"]:
        kernel_text = "native kernel v%s (%s)" % (kernel["version"], kernel["path"])
    else:
        kernel_text = "native kernel UNAVAILABLE (%s)%s" % (
            kernel["import_error"],
            ", fell back to %s" % kernel["fallback"] if kernel.get("fallback") else "",
        )
    lines = [
        "repro bench %s — %s mode" % (report["suite"], report["mode"]),
        "env: commit %s%s, %s, %s, %s CPUs, %s" % (
            (env["commit"] or "unknown")[:12],
            " (uncommitted changes)" if env["dirty"] else "",
            env["python"], env["platform"], env["cpu_count"], kernel_text),
        "series: %s" % json.dumps(report["series"]),
        "",
        "  %-28s %8s %10s %12s" % ("row", "outcome", "wall", "decisions"),
    ]
    for row in report["rows"]:
        lines.append("  %-28s %8s %9.3fs %12d" % (
            row["name"], row.get("outcome", "-"), row["wall_seconds"],
            row["decisions"]))
    lines.append("")
    for key, value in report["summary"].items():
        lines.append("%s: %s" % (key, json.dumps(_rounded(value))))
    for g in report["gates"]:
        lines.append("gate %s: %s" % (
            g["name"], "ok" if g["ok"] else "FAILED (%d)" % len(g["failures"])))
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
