"""table1-cli: a downsized Table I slice solved through the real CLI path.

Set-up generates the slice and writes it as QTREE/QDIMACS files: seeded NCF
games (rows 1-4), FPV encodings (row 5) and QBFEVAL'06-style probabilistic
and fixed instances (rows 7-8, miniscoped to a tree for the PO side), and
the fixed small DIA models (row 6). Every instance is then solved
in-process through ``repro.cli.main``: a PO item solves the tree, a TO item
passes ``--to --strategy`` with the strategy rotating through the four of
the paper. Every other DIA instance also runs ``certify emit`` followed by
``certify check``. No ``--engine`` is passed, so this measures the CLI's default
engine, which each invocation reports and the run records.

Oracles, computed after the timed phase: the explicit-state BFS for DIA
items, ``core.expansion.evaluate`` (capped at 40 variables) for small
instances, and otherwise a certificate the independent ``certify.checker``
accepts.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import time
from typing import Dict, List

from common import Item, no_tick

ENGINE = "CLI default"
DETERMINISTIC = True
BUDGET_DECISIONS = 2000
CERT_BUDGET_DECISIONS = 4000
ORACLE_CERT_DECISIONS = 50000
#: (family, size, largest n) of the DIA rows. They are the same for every
#: seed and hold the heavier items, certified ones included, so the cost of
#: the slice does not swing with the seed; the seeded rows vary the inputs.
DIA_SLICE = (("counter", 2, 3), ("counter", 3, 4), ("ring", 2, 2), ("ring", 3, 2),
             ("dme", 3, 3), ("semaphore", 1, 2))
#: one DIA instance in CERT_EVERY also runs certify emit + certify check.
CERT_EVERY = 2

_LINE = re.compile(r"^(\w+)\s+(.*)$")


def generate(seed: int):
    """The instance slice: ``[(label, kind, phi, po_phi)]``.

    ``phi`` is the instance as generated; ``po_phi`` is what the PO side
    solves (the miniscoped tree for the prenex eval06 classes, else phi).
    """
    from repro.generators.fixed import FixedParams, generate_fixed
    from repro.generators.fpv import FpvParams, generate_fpv
    from repro.generators.ncf import NcfParams, generate_ncf
    from repro.generators.random_qbf import random_clustered_qbf
    from repro.prenexing.miniscoping import miniscope
    from repro.prenexing.strategies import prenex
    from repro.smv.diameter import diameter_qbf
    from repro.smv.models import model_by_name

    rng = random.Random(seed)
    out = []
    for i in range(8):
        var = 3 + i % 2
        params = NcfParams(dep=4, var=var, cls=3 * var, lpc=4 + (i // 2) % 2, seed=rng.randrange(1 << 30))
        phi = generate_ncf(params)
        out.append((params.label, "ncf", phi, phi))
    for i in range(6):
        params = FpvParams(
            config_bits=3, requirements=2, levels=3, env_bits=2,
            run_bits=4, ratio=rng.choice((2.5, 3.0)), clause_len=4,
            seed=rng.randrange(1 << 30),
        )
        phi = generate_fpv(params)
        out.append((params.label, "fpv", phi, phi))
    for i in range(4):
        if i % 2 == 0:
            var = rng.randint(3, 4)
            params = NcfParams(dep=4, var=var, cls=3 * var, lpc=5, seed=rng.randrange(1 << 30))
            phi = prenex(generate_ncf(params), "eu_au")
            label = "prob-ncf-%d" % params.seed
        else:
            phi = random_clustered_qbf(
                rng, clusters=rng.randint(2, 3), num_blocks=3,
                block_size=rng.randint(1, 2), clauses_per_cluster=rng.randint(6, 12),
                clause_len=3, coupling=rng.choice((0.0, 0.2, 0.6, 0.9)),
            )
            label = "prob-rnd-%d-%d" % (seed, i)
        out.append((label, "prob", phi, miniscope(phi)))
    for i in range(4):
        if i % 2 == 0:
            params = NcfParams(dep=4, var=3, cls=9, lpc=5, seed=rng.randrange(1 << 30))
            phi = prenex(generate_ncf(params), "eu_au")
            label = "fixed-ncf-%d" % params.seed
        else:
            fixed = FixedParams(
                family="interleaved" if i % 4 == 1 else "chained",
                groups=rng.randint(2, 3), blocks_per_group=3,
                block_size=rng.randint(1, 2), clauses_per_group=rng.randint(6, 12),
                clause_len=3, seed=rng.randrange(1 << 30),
            )
            phi = generate_fixed(fixed)
            label = fixed.label
        out.append((label, "fixed", phi, miniscope(phi)))
    for family, size, max_n in DIA_SLICE:
        model = model_by_name(family, size)
        for n in range(max_n + 1):
            phi = diameter_qbf(model, n, "tree")
            out.append(("dia-%s-n%d" % (model.name, n), "dia", phi, phi))
    return out


def prepare(seed: int, workdir: str, kernel_path: str) -> Dict[str, object]:
    from repro import cli
    from repro.io import qdimacs, qtree
    from repro.prenexing.strategies import STRATEGIES

    instances = generate(seed)
    invocations = []
    dia_index = 0
    for idx, (label, kind, phi, po_phi) in enumerate(instances):
        base = os.path.join(workdir, "%03d" % idx)
        tree_path = base + ".qtree"
        qtree.dump(po_phi, tree_path)
        if kind in ("prob", "fixed"):
            to_path = base + ".qdimacs"
            qdimacs.dump(phi, to_path)
        else:
            to_path = tree_path
        strategy = STRATEGIES[idx % len(STRATEGIES)]
        budget = ["--max-decisions", str(BUDGET_DECISIONS)]
        invocations.append(("%s:PO" % label, label, ["solve", tree_path, "--paradigm", "search"] + budget))
        invocations.append((
            "%s:TO(%s)" % (label, strategy), label,
            ["solve", to_path, "--to", "--strategy", strategy, "--paradigm", "search"] + budget,
        ))
        if kind != "dia":
            continue
        if dia_index % CERT_EVERY == 0:
            proof = base + ".proof.jsonl"
            cert_budget = ["--max-decisions", str(CERT_BUDGET_DECISIONS)]
            to_flags = ["--to", "--strategy", strategy] if dia_index % (2 * CERT_EVERY) else []
            invocations.append(("%s:emit" % label, label,
                                ["certify", "emit", tree_path, "-o", proof, "--no-check"]
                                + to_flags + cert_budget))
            invocations.append(("%s:check" % label, label, ["certify", "check", tree_path, proof]))
        dia_index += 1
    return {
        "cli": cli,
        "instances": instances,
        "invocations": invocations,
        "engines": set(),
    }


def _invoke(cli, argv: List[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    fields = {}
    for line in out.getvalue().splitlines():
        match = _LINE.match(line)
        if match:
            fields.setdefault(match.group(1), match.group(2).strip())
    return code, fields


def run_pass(state, index: int, tick=no_tick) -> List[Item]:
    cli = state["cli"]
    items = []
    for key, label, argv in state["invocations"]:
        tick()
        t0 = time.perf_counter()
        try:
            code, fields = _invoke(cli, argv)
        except Exception as exc:
            items.append(Item(key, time.perf_counter() - t0, error="%s: %s" % (type(exc).__name__, exc), started=t0))
            continue
        item = _item(state, key, label, argv, time.perf_counter() - t0, code, fields)
        item.started = t0
        items.append(item)
    return items


def _item(state, key, label, argv, seconds, code, fields) -> Item:
    decisions = int(fields.get("decisions", "0").split()[0] or 0)
    if argv[:2] == ["certify", "check"]:
        status = fields.get("status", "")
        if status == "invalid" or not status:
            return Item(key, seconds, error="certificate %s" % (status or "unreadable"))
        outcome = fields.get("outcome", "unknown").lower() if status == "verified" else "unknown"
        return Item(key, seconds, outcome, truth_key=label, extra={"steps": int(fields.get("steps", 0))})
    outcome = fields.get("result", "").lower()
    if outcome not in ("true", "false", "unknown"):
        return Item(key, seconds, error="no verdict (exit %s)" % code)
    error = None
    engine = fields.get("engine")
    if engine is not None:
        state["engines"].add(engine)
        if "FELL BACK" in engine:
            error = "engine fallback: %s" % engine
    if argv[0] == "solve" and code not in (10, 20, 2):
        error = "exit code %s" % code
    return Item(key, seconds, outcome, decisions, error, truth_key=label)


def truths(state) -> Dict[str, bool]:
    from repro.certify import MemorySink, ProofLogger, certifying_config, check_certificate
    from repro.core.expansion import evaluate
    from repro.core.solver import SolverConfig, solve
    from repro.smv.models import model_by_name
    from repro.smv.reachability import eccentricity

    diameters = {}
    for family, size, _ in DIA_SLICE:
        model = model_by_name(family, size)
        diameters[model.name] = eccentricity(model)
    out = {}
    for label, kind, phi, _ in state["instances"]:
        if kind == "dia":
            name, n = label[len("dia-"):].rsplit("-n", 1)
            out[label] = int(n) < diameters[name]
        elif phi.num_vars <= 40:
            out[label] = evaluate(phi)
        else:
            sink = MemorySink()
            config = certifying_config(SolverConfig(engine="counters", max_decisions=ORACLE_CERT_DECISIONS))
            solve(phi, config, proof=ProofLogger(sink))
            report = check_certificate(phi, sink)
            if report.ok:
                out[label] = report.outcome == "true"
    return out


def engines_used(state) -> List[str]:
    return sorted(state["engines"])


def layer_counts(state, items: List[Item], passes: int) -> Dict[str, float]:
    return {}


def close(state) -> None:
    pass
