"""Native-kernel specifics: fallback policy, strict mode, paranoid replay,
the version guard and the compiled learn step.

Decision identity between the native backend and the reference is covered
by ``test_engine_equivalence.py``; this
module pins everything *around* the kernel — what happens when the compiled
extension is missing or stale (loud fallback or structured error, never a
silent engine change), that the paranoid-mode replay path (which routes
every kernel assignment back through ``Trail.push`` and its invariant
guards) still matches the reference decision for decision, and that the
kernel's clause/term resolution analysis (used by untraced runs) equals the
Python analysis (used whenever a proof is logged).
"""

import collections
import dataclasses
import random
import sys
import types
import warnings
from unittest import mock

import pytest

from repro.certify import MemorySink, ProofLogger
from repro.core import learning
from repro.core.engine import native as native_mod
from repro.core.engine.backend import PURE
from repro.core.engine.native import (
    NativeBackend,
    NativeFallbackWarning,
    NativeUnavailableError,
    kernel_path,
    kernel_version,
    native_available,
    native_import_error,
)
from repro.core.engine.counters import CounterBackend
from repro.core.engine.search import resolve_backend
from repro.core.formula import QBF, paper_example
from repro.core.learning import Backjump, Fallback, Terminal, TrailView
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix
from repro.core.result import SolverStats
from repro.core.solver import QdpllSolver, SolverConfig, solve
from repro.generators.random_qbf import random_prenex_qbf, random_qbf
from repro.prenexing import prenex

needs_native = pytest.mark.skipif(
    not native_available(), reason="compiled kernel (repro._native) not built"
)


def _without_kernel():
    """Context: the extension looks unimportable, whatever the build did."""
    return mock.patch.multiple(
        native_mod, _native=None, _IMPORT_ERROR="simulated: no compiled kernel"
    )


class TestFallback:
    # The simulated-missing-kernel cases pin require_native=False: the
    # REPRO_REQUIRE_NATIVE knob sets the config default, and a strict run
    # (the native CI leg) would turn the fallback under test into an error.

    def test_resolves_to_counters_with_warning_and_stats_notice(self):
        stats = SolverStats()
        config = SolverConfig(engine="native", require_native=False)
        with _without_kernel():
            with pytest.warns(NativeFallbackWarning, match="falling back"):
                cls = resolve_backend(config, stats)
        assert cls is CounterBackend
        assert stats.engine_fallback == "counters"

    def test_full_solve_lands_on_counters_and_records_it(self):
        with _without_kernel():
            with pytest.warns(NativeFallbackWarning):
                solver = QdpllSolver(
                    paper_example(),
                    SolverConfig(engine="native", require_native=False),
                )
            result = solver.solve()
        ref = solve(paper_example(), SolverConfig(engine="counters"))
        assert result.outcome is ref.outcome
        assert result.stats.engine_fallback == "counters"
        # the run really executed on the counters backend, not a half-built
        # native one: the backend is the reference class, and every stat
        # (visit counters included) matches a plain counters run.
        assert type(solver.backend) is CounterBackend
        assert dataclasses.replace(result.stats, engine_fallback="") == ref.stats

    def test_never_set_when_engine_is_pure_python(self):
        result = solve(paper_example(), SolverConfig(engine="counters"))
        assert result.stats.engine_fallback == ""

    @needs_native
    def test_never_set_when_kernel_is_present(self):
        result = solve(paper_example(), SolverConfig(engine="native"))
        assert result.stats.engine_fallback == ""


class TestRequireNative:
    def test_config_flag_turns_fallback_into_error(self):
        config = SolverConfig(engine="native", require_native=True)
        with _without_kernel():
            with pytest.raises(NativeUnavailableError) as exc_info:
                resolve_backend(config, SolverStats())
        # the error is actionable: names the build command and the escapes.
        message = str(exc_info.value)
        assert "build_ext" in message
        assert "simulated: no compiled kernel" in message
        assert exc_info.value.reason == "simulated: no compiled kernel"

    def test_env_knob_sets_the_config_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_REQUIRE_NATIVE", "1")
        assert SolverConfig().require_native is True
        monkeypatch.setenv("REPRO_REQUIRE_NATIVE", "0")
        assert SolverConfig().require_native is False

    def test_direct_construction_without_kernel_raises(self):
        # backend_override paths skip resolve_backend(); the constructor
        # itself must refuse rather than half-initialise.
        class Pinned(QdpllSolver):
            backend_override = NativeBackend

        with _without_kernel():
            with pytest.raises(NativeUnavailableError):
                Pinned(paper_example(), SolverConfig())


class TestIntrospection:
    def test_availability_and_version_agree(self):
        if native_available():
            assert native_import_error() is None
            assert kernel_version() == native_mod.KERNEL_VERSION
            assert kernel_path() == native_mod._native.__file__
        else:
            assert native_import_error()
            assert kernel_version() is None
            assert kernel_path() is None

    def test_simulated_absence_reports_reason(self):
        with _without_kernel():
            assert not native_available()
            assert native_import_error() == "simulated: no compiled kernel"
            assert kernel_version() is None


class TestStaleKernel:
    """A kernel built from another ``_native.c`` version must not load: it
    would fail mid-solve on the first call its wrapper no longer matches."""

    def _stale(self, monkeypatch):
        stale = types.ModuleType("repro._native")
        stale.KERNEL_VERSION = native_mod.KERNEL_VERSION - 1
        stale.__file__ = "/old/build/_native.so"
        monkeypatch.setitem(sys.modules, "repro._native", stale)
        module, reason = native_mod.load_kernel()
        assert module is None
        return reason

    def test_version_mismatch_is_an_unavailable_kernel(self, monkeypatch):
        reason = self._stale(monkeypatch)
        expected = native_mod.KERNEL_VERSION
        assert "KERNEL_VERSION %d" % (expected - 1) in reason
        assert "expects %d" % expected in reason
        assert "/old/build/_native.so" in reason
        assert "python setup.py build_ext --inplace" in reason

    def test_mismatch_falls_back_loudly(self, monkeypatch):
        reason = self._stale(monkeypatch)
        stats = SolverStats()
        config = SolverConfig(engine="native", require_native=False)
        with mock.patch.multiple(native_mod, _native=None, _IMPORT_ERROR=reason):
            with pytest.warns(NativeFallbackWarning, match="stale kernel"):
                assert resolve_backend(config, stats) is CounterBackend
        assert stats.engine_fallback == "counters"

    def test_mismatch_under_require_native_is_an_error(self, monkeypatch):
        reason = self._stale(monkeypatch)
        config = SolverConfig(engine="native", require_native=True)
        with mock.patch.multiple(native_mod, _native=None, _IMPORT_ERROR=reason):
            with pytest.raises(NativeUnavailableError) as exc_info:
                resolve_backend(config, SolverStats())
        assert "expects %d" % native_mod.KERNEL_VERSION in str(exc_info.value)

    @needs_native
    def test_matching_version_loads(self):
        module, reason = native_mod.load_kernel()
        assert module is native_mod._native and reason is None


@needs_native
class TestParanoidReplay:
    """Paranoid mode swaps the fused in-kernel trail replay for the two-step
    path through ``Trail.push``; both must be invisible to the search."""

    @pytest.mark.parametrize("pure", [True, False], ids=["pure-on", "pure-off"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_decisions(self, seed, pure):
        rng = random.Random(7000 + seed)
        phi = random_qbf(
            rng,
            prenex=False,
            depth=2,
            branching=2,
            block_size=rng.randint(1, 2),
            clauses_per_scope=2,
            clause_len=3,
        )
        ref = solve(
            phi,
            SolverConfig(engine="counters", pure_literals=pure, max_decisions=3000),
        )
        par = solve(
            phi,
            SolverConfig(
                engine="native",
                pure_literals=pure,
                paranoid=True,
                max_decisions=3000,
            ),
        )
        assert par.outcome is ref.outcome
        assert par.stats.decisions == ref.stats.decisions
        assert par.stats.conflicts == ref.stats.conflicts
        assert par.stats.solutions == ref.stats.solutions
        assert par.stats.propagations == ref.stats.propagations

    def test_flag_selects_the_replay_path(self):
        fast = QdpllSolver(paper_example(), SolverConfig(engine="native"))
        slow = QdpllSolver(
            paper_example(), SolverConfig(engine="native", paranoid=True)
        )
        assert fast.backend._fast_replay is True
        assert slow.backend._fast_replay is False


@needs_native
def test_backtrack_into_checks_trail_lists_before_indexing():
    solver = QdpllSolver(paper_example(), SolverConfig(engine="native"))
    core, trail = solver.backend._core, solver.trail
    lit = min(solver.prefix.variables)
    trail.open_level(lit, flipped=False)
    solver.backend.assign(lit, None)
    lists = [trail.value, trail.lit_val, trail.reason, trail.block_index,
             trail.block_unassigned, trail.block_blockers, trail._deeper_desc]
    for position, bad in ((3, []), (4, []), (6, None), (6, ())):
        args = list(lists)
        args[position] = bad
        with pytest.raises((ValueError, TypeError)):
            core.backtrack_into(0, *args)


def _decision_log(solver):
    """Record every decision and chronological flip (reason-less assigns)."""
    log = []
    assign = solver.backend.assign

    def logged(lit, reason):
        if reason is None:
            log.append((solver.trail.current_level, lit))
        assign(lit, reason)

    solver.backend.assign = logged
    return log


def _run(formula, config, traced):
    proof = ProofLogger(MemorySink()) if traced else None
    solver = QdpllSolver(formula, config, proof=proof)
    log = _decision_log(solver)
    result = solver.solve()
    backend = solver.backend
    return (
        result.outcome,
        log,
        list(backend.learned_clauses),
        list(backend.learned_cubes),
        dataclasses.asdict(result.stats),
    )


@needs_native
class TestNativeAnalysis:
    """Untraced native runs learn through the kernel's ``analyze``; a run
    with a proof logger attached takes the Python reference analysis."""

    @pytest.mark.parametrize("backjump", ["assert", "shallow"])
    @pytest.mark.parametrize("pure", [True, False], ids=["pure-on", "pure-off"])
    @pytest.mark.parametrize("seed", range(8))
    def test_traced_and_untraced_runs_identical(self, seed, pure, backjump):
        rng = random.Random(5000 + seed)
        tree = random_qbf(
            rng,
            prenex=False,
            depth=3,
            branching=2,
            block_size=rng.randint(1, 3),
            clauses_per_scope=rng.randint(2, 4),
            clause_len=rng.randint(3, 5),
        )
        flat = random_prenex_qbf(
            rng,
            num_blocks=rng.randint(3, 6),
            block_size=rng.randint(2, 5),
            num_clauses=rng.randint(20, 70),
            clause_len=rng.randint(3, 5),
        )
        # tree (QUBE(PO)), its prenexing (QUBE(TO)) and a random prenex QBF
        for formula in (tree, prenex(tree), flat):
            config = SolverConfig(
                engine="native",
                pure_literals=pure,
                backjump=backjump,
                max_decisions=2000,
                require_native=True,
            )
            untraced = _run(formula, config, traced=False)
            traced = _run(formula, config, traced=True)
            assert untraced == traced

    #: random prenex QBFs whose search reaches a clause analysis that bans a
    #: tautological pivot and then falls back to chronological backtracking
    BAN_SEEDS = (249, 416, 1016, 1303)

    @pytest.mark.parametrize("pure", [True, False], ids=["pure-on", "pure-off"])
    def test_kernel_matches_python_mid_search(self, pure, monkeypatch):
        kinds = collections.Counter()
        _count_bans(monkeypatch, kinds)
        for seed in self.BAN_SEEDS:
            rng = random.Random(seed)
            formula = random_prenex_qbf(
                rng,
                num_blocks=rng.randint(3, 6),
                block_size=rng.randint(2, 5),
                num_clauses=rng.randint(20, 70),
                clause_len=rng.randint(3, 5),
            )
            solver = QdpllSolver(
                formula,
                SolverConfig(engine="native", pure_literals=pure, max_decisions=2000),
            )
            _compare_analyses(solver, kinds)
            solver.solve()
        assert kinds["clause", "Terminal"] and kinds["clause", "Backjump"]
        assert kinds["clause", "Fallback"] and kinds["ban"]
        assert kinds["cube", "Terminal"] and kinds["cube", "Backjump"]

    def _scripted(self, prefix, monkeypatch):
        """A live native engine whose trail the test sets up by hand, with
        its analysis slots checked against the Python reference."""
        variables = sorted(prefix.variables)
        solver = QdpllSolver(
            QBF(prefix, [tuple(variables)]), SolverConfig(engine="native")
        )
        kinds = collections.Counter()
        _compare_analyses(solver, kinds)
        _count_bans(monkeypatch, kinds)
        return solver, kinds

    def test_clause_ban_then_resolution_on(self, monkeypatch):
        # ∃1 5 ∀2 ∃3 4: resolving 3 away would clash on 2, so 3 is banned
        # and 4, the next pivot, resolves to an asserting clause.
        prefix = Prefix.linear([(EXISTS, [1, 5]), (FORALL, [2]), (EXISTS, [3, 4])])
        solver, kinds = self._scripted(prefix, monkeypatch)
        backend, trail = solver.backend, solver.trail
        r4 = backend.add_learned_clause((1, -4))
        r3 = backend.add_learned_clause((-2, -3))
        trail.open_level(-1, flipped=False)
        backend.assign(-1, None)
        backend.assign(-2, PURE)
        trail.open_level(-5, flipped=False)
        backend.assign(-5, None)
        backend.assign(-4, r4)
        backend.assign(-3, r3)
        out = learning.analyze_conflict((2, 3, 4), solver._view)
        assert out == Backjump((1, 2, 3), 1, 3, 1)
        assert kinds["ban"] == 1

    def test_clause_shallow_level_capped_by_true_universal(self, monkeypatch):
        # ∃1 4 ∀2 ∃3: the true universal 2 (decided at level 2) does not
        # block 1 but caps the least destructive backjump level at 1.
        prefix = Prefix.linear([(EXISTS, [1, 4]), (FORALL, [2]), (EXISTS, [3])])
        solver, kinds = self._scripted(prefix, monkeypatch)
        backend, trail = solver.backend, solver.trail
        backend.assign(-3, PURE)
        for lit in (-4, 2, -1):
            trail.open_level(lit, flipped=False)
            backend.assign(lit, None)
        out = learning.analyze_conflict((1, 2, 3), solver._view)
        assert out == Backjump((1, 2, 3), 0, 1, 1)

    def test_cube_fallback_and_tautology_ban(self, monkeypatch):
        # ∀1 ∃3 ∀2: the cube-side branches random search does not reach.
        prefix = Prefix.linear([(FORALL, [1]), (EXISTS, [3]), (FORALL, [2])])
        solver, kinds = self._scripted(prefix, monkeypatch)
        backend, trail, view = solver.backend, solver.trail, solver._view
        trail.open_level(1, flipped=False)
        backend.assign(1, None)
        backend.assign(2, PURE)
        # two reason-less universals at the deepest level: no asserting cube
        assert learning.analyze_solution((1, 2), view) == Fallback()
        backend.backtrack(0)
        reason = backend.add_learned_cube((-3, -2))
        trail.open_level(1, flipped=False)
        backend.assign(1, None)
        trail.open_level(3, flipped=False)
        backend.assign(3, None)
        backend.assign(2, reason)
        # resolving 2 away would clash on 3: banned, then no pivot is left
        assert learning.analyze_solution((1, 2, 3), view) == Fallback()
        assert kinds["ban"] == 1
        assert learning.analyze_solution((1,), view) == Backjump((1,), 0, 1, 0)
        assert learning.analyze_solution((3,), view) == Terminal()
        assert kinds["cube", "Fallback"] == 2


@needs_native
def test_returned_literals_share_one_int_object():
    # learned constraints keep the kernel's tuples: one int object per
    # literal, not one per occurrence (ints above 256 are not cached)
    prefix = Prefix.linear([(EXISTS, [300, 301])])
    solver = QdpllSolver(QBF(prefix, [(300, 301)]), SolverConfig(engine="native"))
    core = solver.backend._core
    first = core.reduce([300, -301], 0)
    again = core.reduce([int("300")], 0)
    assert first == (300, -301) and again == (300,)
    assert first[0] is again[0]


def _compare_analyses(solver, kinds):
    """Make the engine's compiled analysis slots also run the Python
    reference (over plain trail callables, no compiled reduction) and
    assert both agree; count the outcome kinds seen."""
    view = solver._view
    reference = TrailView(
        value=view.value,
        level_of=view.level_of,
        pos_of=view.pos_of,
        reason_of=view.reason_of,
        prefix=view.prefix,
    )
    fast_clause, fast_cube = view.analyze_clause, view.analyze_cube

    def clause(lits):
        got = fast_clause(lits)
        assert got == learning.analyze_conflict(lits, reference)
        kinds["clause", type(got).__name__] += 1
        return got

    def cube(lits):
        got = fast_cube(lits)
        assert got == learning.analyze_solution(lits, reference)
        kinds["cube", type(got).__name__] += 1
        return got

    view.analyze_clause = clause
    view.analyze_cube = cube


def _count_bans(monkeypatch, kinds):
    """Count tautological resolvents (banned pivots) of the Python path."""
    resolve = learning.resolve

    def counting_resolve(a, b, pivot):
        out = resolve(a, b, pivot)
        if out is None:
            kinds["ban"] += 1
        return out

    monkeypatch.setattr(learning, "resolve", counting_resolve)


def test_fallback_warning_is_a_runtime_warning():
    # warning filters keyed on RuntimeWarning (the pytest default setup,
    # most CI configs) surface the fallback instead of swallowing it.
    assert issubclass(NativeFallbackWarning, RuntimeWarning)
    assert issubclass(NativeUnavailableError, RuntimeError)
