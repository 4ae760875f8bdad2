"""Sample, trace and compare benchmark runs.

Run from the root of a checkout::

    python3 perfbench/tool.py sample [--runs N] [--seed S] [--seconds T] [-o OUT.json]
    python3 perfbench/tool.py trace [--seed S] [--seconds T] [-o OUT.json]
    python3 perfbench/tool.py compare OLD.json NEW.json

``sample`` runs every workload (or ``--workload`` ones) ``N`` times, seeds
S..S+N-1, untraced, and prints each end-to-end metric's median, quartiles
and quartile spread against the bound in BENCHMARK.json. ``trace`` runs each
workload untraced and traced on the same seed; it prints the per-layer
table, the tracing overhead, the share of traced wall attributed to named
layers, and fails unless the decision totals of the two runs are identical
(for the workloads whose decisions are deterministic). ``compare`` prints,
per workload, both sides' medians and quartiles of every end-to-end metric
and the per-layer self-time deltas, from two files written by ``sample``
(add ``--traced`` there to include a traced run per workload).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from typing import Dict, List

from common import BENCH_DIR, REPORT_DIR, ROOT, WORKLOADS, quartiles
from measure import MODULES


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py invocation; returns its result line plus its report."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s" % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    with open(os.path.join(REPORT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))) as handle:
        result["report"] = json.load(handle)
    return result


def cmd_sample(args) -> int:
    contract = load_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    out = {"workloads": {}}
    ok = True
    for workload in args.workload or WORKLOADS:
        runs = [run_once(workload, args.seed + i, args.seconds, 0) for i in range(args.runs)]
        entry = {"runs": [{"seed": args.seed + i, "correct": r["correct"], "failed": r["failed"],
                           "attempted": r["attempted"],
                           "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                          for i, r in enumerate(runs)]}
        entry["env"] = runs[-1]["report"]["env"]
        print("%s (%d runs, seeds %d..%d)" % (workload, args.runs, args.seed, args.seed + args.runs - 1))
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in entry["runs"]]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = "" if name == "setup_s" or spread <= bound else "  SPREAD ABOVE BOUND"
            print("  %-16s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f (bound %.2f)%s"
                  % (name, q2, q1, q3, spread, bound, flag))
        failed = sum(r["failed"] for r in entry["runs"])
        correct = all(r["correct"] for r in entry["runs"])
        print("  failed %d of %d items, correct=%s" % (failed, sum(r["attempted"] for r in entry["runs"]), correct))
        ok = ok and correct
        if args.traced:
            traced = run_once(workload, args.seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
    return 0 if ok else 1


def layer_table(metrics: Dict[str, float]) -> List[str]:
    selfs = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(selfs.values()) + metrics.get("trace.unattributed_s", 0.0)
    rows = []
    for layer, secs in sorted(selfs.items(), key=lambda kv: -kv[1]):
        if secs > 0:
            calls = metrics.get(layer + ".calls")
            rows.append("    %-36s %9.4f s  %5.1f%%  %s" % (
                layer, secs, 100.0 * secs / total if total else 0.0,
                "" if calls is None else "%d calls" % calls))
    rows.append("    %-36s %9.4f s  %5.1f%%" % (
        "(not attributed)", metrics.get("trace.unattributed_s", 0.0),
        100.0 * metrics.get("trace.unattributed_s", 0.0) / total if total else 0.0))
    return rows


def cmd_trace(args) -> int:
    ok = True
    out = {}
    for workload in args.workload or WORKLOADS:
        deterministic = importlib.import_module(MODULES[workload]).DETERMINISTIC
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        plain_decisions = {p["decisions"] for p in plain["report"]["passes"]}
        traced_decisions = {p["decisions"] for p in traced["report"]["passes"]}
        identical = plain_decisions == traced_decisions and len(plain_decisions) == 1
        print("%s: overhead %.3fx (traced over untraced pass wall), %.1f%% of traced wall in named layers"
              % (workload, metrics["trace.overhead"], 100.0 * metrics["trace.attributed_share"]))
        if deterministic:
            print("  decision totals untraced %s, traced %s: %s" % (
                sorted(plain_decisions), sorted(traced_decisions), "identical" if identical else "DIFFERENT"))
            ok = ok and identical
        else:
            print("  decision totals are not deterministic on this workload (concurrent solves)")
        ok = ok and plain["correct"] and traced["correct"]
        print("  per pass:")
        for row in layer_table(metrics):
            print(row)
        out[workload] = {"overhead": metrics["trace.overhead"],
                         "attributed_share": metrics["trace.attributed_share"],
                         "decisions_identical": identical if deterministic else None,
                         "per_layer": metrics}
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
    return 0 if ok else 1


def cmd_compare(args) -> int:
    contract = load_contract()
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]]
    with open(args.old) as handle:
        old = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    for workload in WORKLOADS:
        if workload not in old["workloads"] or workload not in new["workloads"]:
            continue
        o, n = old["workloads"][workload], new["workloads"][workload]
        print("%s (%d old runs, %d new runs)" % (workload, len(o["runs"]), len(n["runs"])))
        for name, unit, better, bound in metrics:
            ov = [r["metrics"][name] for r in o["runs"]]
            nv = [r["metrics"][name] for r in n["runs"]]
            oq, nq = quartiles(ov), quartiles(nv)
            delta = (nq[1] - oq[1]) / oq[1] if oq[1] else 0.0
            worse = delta > bound if better == "lower" else -delta > bound
            print("  %-16s old %10.4g [%10.4g, %10.4g]  new %10.4g [%10.4g, %10.4g] %s  %+6.1f%%%s"
                  % (name, oq[1], oq[0], oq[2], nq[1], nq[0], nq[2], unit, 100 * delta,
                     "  WORSE THAN BOUND" if worse else ""))
        if "per_layer" in o and "per_layer" in n:
            print("  per-layer self time per pass (old -> new):")
            keys = [k for k in o["per_layer"] if k.endswith(".self_s")]
            for key in sorted(keys, key=lambda k: -(abs(n["per_layer"].get(k, 0) - o["per_layer"][k]))):
                a, b = o["per_layer"][key], n["per_layer"].get(key, 0.0)
                if a or b:
                    print("    %-40s %9.4f -> %9.4f s  (%+.4f)" % (key[: -len(".self_s")], a, b, b - a))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Sample, trace and compare benchmark runs.")
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sample", help="run workloads untraced and report medians and spreads")
    s.add_argument("--runs", type=int, default=1)
    s.add_argument("--traced", action="store_true", help="add one traced run per workload")
    t = sub.add_parser("trace", help="per-layer table, overhead and decision identity")
    for q in (s, t):
        q.add_argument("--workload", action="append", choices=WORKLOADS)
        q.add_argument("--seed", type=int, default=1)
        q.add_argument("--seconds", type=float, default=float(load_contract()["run_seconds"]))
        q.add_argument("-o", "--output", default=None)
    c = sub.add_parser("compare", help="compare two files written by sample")
    c.add_argument("old")
    c.add_argument("new")
    args = p.parse_args(argv)
    return {"sample": cmd_sample, "trace": cmd_trace, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
