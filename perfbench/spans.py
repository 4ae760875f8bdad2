"""Outside-in tracing: spans around the public entry points of each layer.

Nothing in the program changes. :class:`Tracer` replaces each entry point
listed in :data:`ENTRY_POINTS` with a wrapper that records a span (layer,
parent span, start, end) in flat in-memory arrays, and restores the
originals when uninstalled. Module-level functions are replaced in every
loaded ``repro`` module that imported them by name; methods are replaced on
the class that defines them and on every subclass that overrides them.

A layer's self time is the duration of its spans minus the time their child
spans cover. Counts are read at the same boundaries from the values the
entry points return (``SolverStats`` from ``SearchEngine.solve``, the
``CheckReport`` of the certificate checker, the text handed to the readers).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("smv.encode", "repro.smv.diameter", "diameter_qbf"),
    ("formulas.cnf", "repro.formulas.cnf", "to_qbf"),
    ("generators", "repro.generators.ncf", "generate_ncf"),
    ("generators", "repro.generators.fpv", "generate_fpv"),
    ("generators", "repro.generators.fixed", "generate_fixed"),
    ("generators", "repro.generators.random_qbf", "random_clustered_qbf"),
    ("io.read", "repro.io.qdimacs", "load"),
    ("io.read", "repro.io.qdimacs", "loads"),
    ("io.read", "repro.io.qtree", "load"),
    ("io.read", "repro.io.qtree", "loads"),
    ("prenexing.prenex", "repro.prenexing.strategies", "prenex"),
    ("cli", "repro.cli", "main"),
    ("evalx.runner", "repro.evalx.runner", "solve_po"),
    ("core.engine.install", "repro.core.engine.search", "SearchEngine.__init__"),
    ("core.engine.search", "repro.core.engine.search", "SearchEngine.solve"),
    ("core.engine.decide", "repro.core.engine.search", "SearchEngine._decide"),
    ("core.engine.propagate", "repro.core.engine.backend", "PropagationBackend.propagate"),
    ("core.engine.backtrack", "repro.core.engine.backend", "PropagationBackend.backtrack"),
    ("core.engine.add_learned", "repro.core.engine.backend", "PropagationBackend.add_learned_clause"),
    ("core.engine.add_learned", "repro.core.engine.backend", "PropagationBackend.add_learned_cube"),
    ("core.heuristics.recompute", "repro.core.heuristics", "ScoreKeeper._recompute"),
    ("core.learning.analyze_conflict", "repro.core.learning", "analyze_conflict"),
    ("core.learning.analyze_solution", "repro.core.learning", "analyze_solution"),
    ("core.learning.model_cube", "repro.core.learning", "build_model_cube"),
    ("core.learning.model_cube", "repro.core.engine.native", "NativeBackend.native_model_cube"),
    ("certify.proof", "repro.certify.proof", "ProofLogger.register_formula"),
    ("certify.proof", "repro.certify.proof", "ProofLogger.initial_cube"),
    ("certify.proof", "repro.certify.proof", "ProofLogger.emit_resolution"),
    ("certify.proof", "repro.certify.proof", "ProofLogger.emit_reduction"),
    ("certify.proof", "repro.certify.proof", "ProofLogger.bind"),
    ("certify.proof", "repro.certify.proof", "ProofLogger.conclude"),
    ("certify.proof", "repro.certify.proof", "ProofLogger._emit"),
    ("certify.checker", "repro.certify.checker", "check_certificate"),
    ("cube", "repro.cube.coordinator", "run_cube"),
    ("portfolio", "repro.portfolio.race", "race"),
)

ROOT_LAYER = "bench"


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.layers: List[str] = [ROOT_LAYER]
        self._layer_id: Dict[str, int] = {ROOT_LAYER: 0}
        self.layer = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = [-1]
        #: boundary counts, keyed by phase ("setup" or "pass").
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self._patches: List[Tuple[object, str, object]] = []
        self._roots: List[Tuple[str, int]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, lid: int) -> int:
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def open_root(self, phase: str) -> None:
        """Start a root span: the set-up, or one pass of the workload."""
        self.phase = phase
        self._roots.append((phase, self._open(0)))

    def close_root(self) -> None:
        self._close(self._roots[-1][1])

    def count(self, name: str, value: float) -> None:
        self.counts[self.phase][name] += value

    def _wrapper(self, layer: str, fn: Callable, post: Optional[Callable]) -> Callable:
        lid = self._layer_id.setdefault(layer, len(self.layers))
        if lid == len(self.layers):
            self.layers.append(layer)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for layer, module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            post = _POST.get(path)
            if "." in path:
                cls_name, attr = path.split(".")
                for cls in _with_subclasses(getattr(module, cls_name)):
                    original = cls.__dict__.get(attr)
                    if callable(original):
                        self._patch(cls, attr, original, self._wrapper(layer, original, post))
            else:
                original = getattr(module, path)
                wrapper = self._wrapper(layer, original, post)
                for mod in list(sys.modules.values()):
                    if not (getattr(mod, "__name__", "") or "").startswith("repro"):
                        continue
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis ------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per phase: layer self seconds and calls, plus root coverage.

        ``calls`` counts spans whose parent belongs to another layer, so a
        reader that delegates to its sibling counts once.
        """
        n = len(self.start)
        child = [0] * n
        phase_of = [""] * n
        roots = dict((idx, phase) for phase, idx in self._roots)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                phase_of[i] = phase_of[p]
            else:
                phase_of[i] = roots.get(i, "")
        out: Dict[str, Dict[str, object]] = {}
        for i in range(n):
            phase = out.setdefault(phase_of[i], {"self_s": defaultdict(float), "calls": defaultdict(int),
                                                 "root_s": 0.0, "roots": 0})
            lid = self.layer[i]
            name = self.layers[lid]
            dur = self.end[i] - self.start[i]
            phase["self_s"][name] += (dur - child[i]) / 1e9
            p = self.parent[i]
            if p < 0:
                phase["root_s"] += dur / 1e9
                phase["roots"] += 1
            elif self.layer[p] != lid:
                phase["calls"][name] += 1
        return out

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line: id, parent, layer, start, end."""
        with open(path, "w") as handle:
            handle.write("id\tparent\tlayer\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                handle.write("%d\t%d\t%s\t%d\t%d\n" % (
                    i, self.parent[i], self.layers[self.layer[i]], self.start[i], self.end[i]))


def _with_subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def _after_search(tracer: Tracer, args, result) -> None:
    stats = result.stats
    for name, value in (
        ("core.engine.decisions", stats.decisions),
        ("core.engine.propagations", stats.propagations),
        ("core.engine.clause_visits", stats.clause_visits),
        ("core.engine.conflicts", stats.conflicts),
        ("core.engine.solutions", stats.solutions),
        ("core.engine.backjumps", stats.backjumps),
        ("core.engine.learned_lits", stats.learned_clause_lits + stats.learned_cube_lits),
    ):
        tracer.count(name, value)


def _after_check(tracer: Tracer, args, result) -> None:
    tracer.count("certify.checker.steps", result.steps)


def _after_read(tracer: Tracer, args, result) -> None:
    tracer.count("io.read.bytes", len(args[0]))


_POST = {
    "SearchEngine.solve": _after_search,
    "check_certificate": _after_check,
    "loads": _after_read,
}
