"""fig6-search: the Figure-6 diameter series, encoded and solved item by item.

Each item is one ``(model, n, form)`` triple: ``smv.diameter_qbf`` encodes
phi_n of the model in the tree form (QUBE(PO)'s input) or the prenex form of
equation (16) (QUBE(TO)'s input), and ``evalx.runner.solve_po`` solves it on
the native kernel with pure literals on and a decision budget. The series
are counter<N> (the diameter grows with N) and semaphore<N> (the model grows
with N), each tested for n = 0..d, as the paper's diameter loop does.

The oracle is the explicit-state BFS of ``smv.reachability.eccentricity``:
phi_n is true exactly when n < d.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import Item, no_tick

ENGINE = "native"
DETERMINISTIC = True
SERIES = (("counter", 2), ("counter", 3), ("semaphore", 1), ("semaphore", 2), ("semaphore", 3))
BUDGET_DECISIONS = 8000
FORMS = ("tree", "prenex")


def prepare(seed: int, workdir: str, kernel_path: str) -> Dict[str, object]:
    """The item list; the series is fixed, so ``seed`` does not enter it."""
    from repro.evalx import runner
    from repro.smv import diameter
    from repro.smv.models import model_by_name
    from repro.smv.reachability import eccentricity

    items = []
    for family, size in SERIES:
        model = model_by_name(family, size)
        for n in range(eccentricity(model) + 1):
            for form in FORMS:
                items.append((model, n, form))
    return {
        "items": items,
        "runner": runner,
        "diameter": diameter,
        "budget": runner.Budget(decisions=BUDGET_DECISIONS),
        "engines": set(),
    }


def item_key(model, n: int, form: str) -> str:
    return "%s/n=%d/%s" % (model.name, n, form)


def run_pass(state, index: int, tick=no_tick) -> List[Item]:
    runner = state["runner"]
    diameter = state["diameter"]
    out = []
    for model, n, form in state["items"]:
        tick()
        key = item_key(model, n, form)
        t0 = time.perf_counter()
        try:
            phi = diameter.diameter_qbf(model, n, form)
            m = runner.solve_po(
                phi, instance=key, budget=state["budget"], engine=ENGINE,
                paradigm="search", pure_literals=True, require_native=True,
            )
        except Exception as exc:  # a crash is a counted failure, not an abort
            out.append(Item(key, time.perf_counter() - t0, error="%s: %s" % (type(exc).__name__, exc), started=t0))
            continue
        seconds = time.perf_counter() - t0
        error = None
        if m.stats.engine_fallback:
            error = "engine fell back to %s" % m.stats.engine_fallback
        state["engines"].add(m.stats.engine_fallback or ENGINE)
        out.append(Item(key, seconds, m.outcome.value, m.decisions, error,
                        truth_key="%s/n=%d" % (model.name, n), started=t0))
    return out


def truths(state) -> Dict[str, bool]:
    from repro.smv.reachability import eccentricity

    out = {}
    for model in {id(m): m for m, _, _ in state["items"]}.values():
        d = eccentricity(model)
        for n in range(d + 2):
            out["%s/n=%d" % (model.name, n)] = n < d
    return out


def engines_used(state) -> List[str]:
    return sorted(state["engines"])


def layer_counts(state, items: List[Item], passes: int) -> Dict[str, float]:
    return {}


def close(state) -> None:
    pass
