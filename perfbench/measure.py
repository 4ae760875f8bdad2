"""One benchmark run of one workload, in its own process (see run.py).

``measure.py KERNEL --workload W --seed N --seconds S --trace T`` prepares the
workload, repeats passes over its fixed item set until the next pass would
overrun ``S`` seconds, checks every verdict against the workload's oracle,
times five fresh set-ups, and prints the metrics. Untraced runs probe the
host's pace around set-ups and between items, and report those times
scaled to the reference pace (pace.py).
``--setup-only`` is the fresh set-up those five timings run: it prints
``READY`` when the first timed item could start, then tears down and exits.

With ``--trace 1`` passes alternate between untraced and traced; per-layer metrics come from the traced passes and the tracing
overhead is traced over untraced pass wall. Every run leaves a report with
the env block, per-pass decision totals and the per-layer table in
``.bench_build/perfbench/reports`` (and, when traced, the spans).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from common import (BENCH_DIR, BUILD_DIR, REPORT_DIR, ROOT, WORKLOADS, BenchError, median, no_tick,
                    percentile, use_source_tree)
from kernel import env_block, preload

MODULES = {
    "fig6-search": "wl_fig6",
    "table1-cli": "wl_table1",
    "serve-mix": "wl_serve",
    "parallel": "wl_parallel",
}
SETUP_REPEATS = 5
#: pace probes before each fresh set-up and after the last one.
SETUP_PROBES = 3

#: (name, unit) of every end-to-end metric, printed by untraced runs.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, printed by traced runs.
PER_LAYER = (
    ("smv.encode.self_s", "s"), ("smv.encode.calls", "count"), ("formulas.cnf.self_s", "s"),
    ("generators.self_s", "s"), ("generators.calls", "count"),
    ("io.read.self_s", "s"), ("io.read.calls", "count"), ("io.read.bytes", "bytes"),
    ("prenexing.prenex.self_s", "s"), ("prenexing.prenex.calls", "count"),
    ("cli.self_s", "s"), ("evalx.runner.self_s", "s"),
    ("core.engine.install.self_s", "s"), ("core.engine.install.calls", "count"),
    ("core.engine.propagate.self_s", "s"), ("core.engine.propagate.calls", "count"),
    ("core.engine.propagations", "count"), ("core.engine.clause_visits", "count"),
    ("core.engine.backtrack.self_s", "s"), ("core.engine.backtrack.calls", "count"),
    ("core.engine.add_learned.self_s", "s"), ("core.engine.add_learned.calls", "count"),
    ("core.engine.learned_lits", "count"),
    ("core.engine.decide.self_s", "s"), ("core.engine.decide.calls", "count"),
    ("core.engine.decisions", "count"), ("core.engine.decisions_per_s", "1/s"),
    ("core.engine.search.self_s", "s"),
    ("core.heuristics.recompute.self_s", "s"), ("core.heuristics.recompute.calls", "count"),
    ("core.heuristics.recompute_per_decision", "ratio"),
    ("core.learning.analyze_solution.self_s", "s"), ("core.learning.analyze_solution.calls", "count"),
    ("core.learning.analyze_conflict.self_s", "s"), ("core.learning.analyze_conflict.calls", "count"),
    ("core.learning.model_cube.self_s", "s"), ("core.learning.model_cube.calls", "count"),
    ("core.learning.backjump_share", "ratio"),
    ("certify.proof.self_s", "s"), ("certify.checker.self_s", "s"), ("certify.checker.steps", "count"),
    ("serve.solve_miss.latency_p50_ms", "ms"), ("serve.solve_hit.latency_p50_ms", "ms"),
    ("serve.smv.latency_p50_ms", "ms"), ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_share", "ratio"), ("serve.shed", "count"),
    ("incremental.retained", "count"), ("incremental.decisions", "count"),
    ("cube.wall_s.counter3_n7", "s"), ("cube.wall_s.semaphore2_n4", "s"),
    ("cube.leaves", "count"), ("cube.escalations", "count"), ("cube.resplits", "count"),
    ("cube.cancelled", "count"), ("cube.decisions", "count"),
    ("cube.share.imported", "count"), ("cube.share.rejected", "count"),
    ("cube.self_s", "s"), ("portfolio.self_s", "s"),
    ("portfolio.wall_s", "s"), ("portfolio.best_lane_s", "s"), ("portfolio.cancelled", "count"),
    ("trace.overhead", "ratio"), ("trace.attributed_share", "ratio"), ("trace.unattributed_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("kernel")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    use_source_tree()
    preload(args.kernel)
    wl = importlib.import_module(MODULES[args.workload])
    if wl.ENGINE == "native":
        # Processes forked by the workload (cube workers, portfolio lanes)
        # build their own SolverConfig; this makes theirs strict as well.
        os.environ["REPRO_REQUIRE_NATIVE"] = "1"
    workdir = os.path.join(BUILD_DIR, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        if args.setup_only:
            state = wl.prepare(args.seed, workdir, args.kernel)
            print("READY", flush=True)
            wl.close(state)
            return 0
        return measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_passes(wl, state, seconds: float, tracer, pace) -> List[dict]:
    """Passes until the next one would overrun ``seconds`` (at least two
    when tracing: one untraced and one traced). Untraced runs probe the
    host's pace between items; a pass's wall leaves the probes out."""
    passes: List[dict] = []
    tick = pace.tick if pace is not None else no_tick
    began = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced passes, so both see the
        # same warm-up and drift
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.open_root("pass")
        tick()
        probed = pace.probe_s if pace is not None else 0.0
        t0 = time.perf_counter()
        items = wl.run_pass(state, len(passes), tick)
        t1 = time.perf_counter()
        wall = t1 - t0 - ((pace.probe_s - probed) if pace is not None else 0.0)
        if traced:
            tracer.close_root()
            tracer.uninstall()
        passes.append({"wall": wall, "items": items, "traced": traced, "t0": t0, "t1": t1, "factor": 1.0})
        next_traced = tracer is not None and len(passes) % 2 == 1
        estimate = median([p["wall"] for p in passes if p["traced"] == next_traced] or [wall])
        done = len(passes) >= (2 if tracer is not None else 1)
        if done and time.perf_counter() - began + estimate > seconds:
            break
    if pace is not None:
        for p in passes:
            p["factor"] = pace.factor(p["t0"], p["t1"])
            for it in p["items"]:
                it.pace = pace.factor(it.started, it.started + it.seconds)
    return passes


def check(wl, state, passes) -> Dict[str, object]:
    """Verdicts against the oracle, plus decision identity across passes."""
    truths = wl.truths(state)
    failures: List[str] = []
    attempted = failed = decided = 0
    for p in passes:
        for it in p["items"]:
            attempted += 1
            reason = it.error
            if reason is None and it.outcome in ("true", "false") and it.truth_key is not None:
                truth = truths.get(it.truth_key)
                if truth is None:
                    reason = "no oracle verdict for %s" % it.truth_key
                elif (it.outcome == "true") != truth:
                    reason = "wrong verdict %s (oracle: %s)" % (it.outcome, truth)
            if reason is not None:
                failed += 1
                if len(failures) < 20:
                    failures.append("%s: %s" % (it.key, reason))
            elif it.decided:
                decided += 1
    decisions = [sum(it.decisions for it in p["items"]) for p in passes]
    identical = not wl.DETERMINISTIC or len(set(
        tuple((it.key, it.decisions) for it in p["items"]) for p in passes
    )) == 1
    if not identical:
        failures.append("decision totals differ between passes: %s" % decisions)
    return {"attempted": attempted, "failed": failed, "decided": decided,
            "failures": failures, "pass_decisions": decisions, "decisions_identical": identical}


def end_to_end(wl, passes, verdicts, setup_samples, peak_rss_kb) -> Dict[str, float]:
    """Every time is scaled by the host pace around it (see pace.py)."""
    items = [it for p in passes for it in p["items"]]
    if getattr(wl, "CONCURRENT", False):
        # a cycle's requests overlap: its wall is the cycle's, and every
        # request is a latency sample
        wall = median([p["wall"] * p["factor"] for p in passes])
        lat = [it.seconds * it.pace * 1000.0 for it in items]
    else:
        # The same items every pass, each counted as often as a pass runs
        # it, at its median time over the passes.
        by_key = defaultdict(list)
        for it in items:
            by_key[it.key].append(it.seconds * it.pace)
        wall = sum(median(v) * len(v) / len(passes) for v in by_key.values())
        lat = [median(v) * 1000.0 for v in by_key.values()]
    return {
        "setup_s": median(setup_samples),
        "wall_s": wall,
        "latency_p50_ms": percentile(lat, 0.50),
        "latency_p90_ms": percentile(lat, 0.90),
        "latency_p99_ms": percentile(lat, 0.99),
        "req_per_s": len(items) / len(passes) / wall,
        "decided_share": verdicts["decided"] / max(1, verdicts["attempted"]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(wl, state, passes, tracer) -> Dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    summary = tracer.summary()
    setup = summary.get("setup", {"self_s": {}, "calls": {}})
    run = summary.get("pass", {"self_s": {}, "calls": {}, "root_s": 0.0})

    def self_s(layer):  # per pass, plus the one-off set-up share
        return run["self_s"].get(layer, 0.0) / n + setup["self_s"].get(layer, 0.0)

    def calls(layer):
        return run["calls"].get(layer, 0) / n + setup["calls"].get(layer, 0)

    counts = tracer.counts.get("pass", {})

    def count(name):
        return counts.get(name, 0.0) / n

    out: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s(name[: -len(".self_s")])
        elif name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
    out["io.read.bytes"] = count("io.read.bytes") + tracer.counts.get("setup", {}).get("io.read.bytes", 0.0)
    for name in ("core.engine.propagations", "core.engine.clause_visits", "core.engine.learned_lits",
                 "core.engine.decisions", "certify.checker.steps"):
        out[name] = count(name)
    search_s = sum(
        (tracer.end[i] - tracer.start[i]) / 1e9
        for i in range(len(tracer.start))
        if tracer.layers[tracer.layer[i]] == "core.engine.search"
    ) / n
    decisions = count("core.engine.decisions")
    out["core.engine.decisions_per_s"] = decisions / search_s if search_s else 0.0
    out["core.heuristics.recompute_per_decision"] = (
        calls("core.heuristics.recompute") / decisions if decisions else 0.0)
    backtracks = count("core.engine.conflicts") + count("core.engine.solutions")
    out["core.learning.backjump_share"] = count("core.engine.backjumps") / backtracks if backtracks else 0.0
    for name, _ in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(wl.layer_counts(state, [it for p in traced for it in p["items"]], n))
    untraced = median([p["wall"] for p in passes if not p["traced"]])
    traced_wall = median([p["wall"] for p in traced])
    out["trace.overhead"] = traced_wall / untraced
    root_s = run["root_s"]
    unattributed = run["self_s"].get("bench", 0.0)
    out["trace.attributed_share"] = 1.0 - unattributed / root_s if root_s else 0.0
    out["trace.unattributed_s"] = unattributed / n
    return {name: out[name] for name, _ in PER_LAYER}


def _item_seconds(wl, passes) -> Dict[str, List[float]]:
    """Every sample of every item (every cycle wall for concurrent workloads)."""
    if getattr(wl, "CONCURRENT", False):
        return {"cycle": [p["wall"] for p in passes]}
    out: Dict[str, List[float]] = defaultdict(list)
    for p in passes:
        for it in p["items"]:
            out[it.key].append(it.seconds)
    return out


def time_setups(args, pace) -> Tuple[List[float], List[float]]:
    """Wall time of fresh set-ups, each in a new interpreter, to READY,
    scaled by the pace probed around them; returns (scaled, raw)."""
    raw, spans = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            pace.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "measure.py"), args.kernel,
             "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"READY" or code != 0:
            raise BenchError("set-up run failed (exit %s)" % code)
        raw.append(t1 - t0)
        spans.append((t0, t1))
    for _ in range(SETUP_PROBES):
        pace.probe()
    return [s * pace.factor(t0, t1) for s, (t0, t1) in zip(raw, spans)], raw


def measure(wl, args, workdir: str) -> int:
    tracer = pace = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.open_root("setup")
    state = wl.prepare(args.seed, workdir, args.kernel)
    if tracer is not None:
        tracer.close_root()
        tracer.uninstall()
    else:
        from pace import Pace

        pace = Pace()
    try:
        passes = run_passes(wl, state, args.seconds, tracer, pace)
    finally:
        wl.close(state)
    # before the oracles run: their memory is not the program's
    peak_rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    verdicts = check(wl, state, passes)
    env = env_block(args.kernel)
    env["engines_requested"] = wl.ENGINE
    env["engines_used"] = wl.engines_used(state)
    if tracer is None:
        setup_samples, setup_raw = time_setups(args, pace)
        metrics = end_to_end(wl, passes, verdicts, setup_samples, peak_rss_kb)
        units = dict(END_TO_END)
    else:
        setup_samples = setup_raw = []
        metrics = per_layer(wl, state, passes, tracer)
        units = dict(PER_LAYER)
    correct = verdicts["failed"] == 0 and verdicts["decisions_identical"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct,
        "passes": [{"wall_s": p["wall"], "pace_factor": p["factor"], "traced": p["traced"],
                    "items": len(p["items"]), "decisions": d}
                   for p, d in zip(passes, verdicts["pass_decisions"])],
        "setup_samples_s": setup_samples,
        "setup_raw_s": setup_raw,
        "pace_probes_s": [s for _, s in pace.samples] if pace is not None else [],
        "item_seconds": _item_seconds(wl, passes),
        "attempted": verdicts["attempted"], "failed": verdicts["failed"],
        "failures": verdicts["failures"], "metrics": metrics,
    }
    os.makedirs(REPORT_DIR, exist_ok=True)
    stem = os.path.join(REPORT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(stem + ".spans.tsv")
    print("workload %s  seed %d  passes %d  engines %s  kernel %s" % (
        args.workload, args.seed, len(passes), ",".join(env["engines_used"]),
        env["native_kernel_path"]))
    for failure in verdicts["failures"]:
        print("FAILED %s" % failure)
    for name, value in metrics.items():
        print("  %-42s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts["attempted"],
        "failed": verdicts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
