"""Propagation backends: the interface and the shared machinery.

A backend owns everything derived from the matrix — occurrence lists,
satisfaction counters, the learned-constraint stores — and
exposes four operations to the search layer: ``assign``, ``backtrack``,
``propagate`` and ``add_learned_clause``/``add_learned_cube``. The search
layer never looks past this interface.

**The equivalence contract.** Every backend must be *decision-for-decision
identical* to the reference counter backend: same trail, in the same order,
with the same reasons, the same conflict/solution/model events on the same
constraint records, and the same learned constraints — given the same
formula, config and heuristic tie-breaks. Backends may only differ in the
*cost* of reaching those events (tracked by the ``clause_visits`` and
``cube_visits`` stats, which are explicitly backend-dependent). The
contract is what makes the reference backend a free differential-testing
oracle for any new one.

The contract is stricter than it may look: conflicts and units must fire
while scanning the occurrence list of the *currently dequeued* literal, in
installation order, under eager value semantics (assignments made mid-scan
are visible to later records in the same scan). That rules out the classic
inverted two-watched-literal lists: a unit assigned mid-scan can falsify a
clause that contains the dequeued literal without watching it, and a watch
list would detect that conflict dequeues later, reordering the trail.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.constraints import (
    Clause,
    Constraint,
    Cube,
    sanitize_lits,
    universal_reduce,
)
from repro.core.literals import var_of

#: sentinel reason for pure-literal assignments (decision-like in analyses).
PURE = object()

CONFLICT = "conflict"
SOLUTION = "solution"
MODEL = "model"


class Rec:
    """Backend-private record of one clause or cube.

    ``n_true``/``n_false`` are the eager satisfaction counters.

    ``prim``/``sec`` are the constraint's literals split by the primary
    quantifier of its kind (existential for clauses, universal for cubes),
    each preserving literal order. They are immutable once installed; the
    examine scan iterates them instead of re-testing the quantifier of
    every literal on every visit.

    ``rid`` is the record's id in a compiled backend's own store (-1 when
    the backend keeps none).
    """

    __slots__ = (
        "constraint",
        "n_true",
        "n_false",
        "original",
        "prim",
        "sec",
        "rid",
    )

    def __init__(self, constraint: Constraint, original: bool):
        self.constraint = constraint
        self.n_true = 0
        self.n_false = 0
        self.original = original
        self.prim: Tuple[int, ...] = ()
        self.sec: Tuple[int, ...] = ()
        self.rid = -1

    @property
    def lits(self) -> Tuple[int, ...]:
        return self.constraint.lits

    @property
    def is_cube(self) -> bool:
        return self.constraint.is_cube

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Rec(%r, T=%d, F=%d)" % (self.constraint, self.n_true, self.n_false)


class PropagationBackend:
    """Base class: matrix installation, the duality-parameterized examine,
    the pure-literal rule, and the learned-constraint bookkeeping."""

    name = "?"

    #: Optional acceleration slots the search layer probes at init. A
    #: backend that owns compiled equivalents of the analysis-layer hot
    #: functions overrides these (see the native backend); None means "use
    #: the pure-Python reference" — :func:`~repro.core.constraints.
    #: universal_reduce` / ``existential_reduce``, :func:`~repro.core.
    #: learning.build_model_cube` and the untraced :func:`~repro.core.
    #: learning.analyze_conflict` / ``analyze_solution``. Overrides must be
    #: exact ports: they sit on the learning path, so any deviation breaks
    #: decision identity.
    reduce_clause_fast = None
    reduce_cube_fast = None
    native_model_cube = None
    analyze_conflict_fast = None
    analyze_solution_fast = None

    def accelerated_picker(self, policy, keeper):
        """A compiled branching closure for ``policy``, or None for the
        pure-Python :func:`~repro.core.heuristics.make_picker` ranking."""
        return None

    def accelerated_frontier_picker(self, policy, keeper, trail):
        """A compiled decision function fusing ``trail.available_vars()``
        with the ``policy`` ranking (no candidate list materialized), or
        None for the two-step Python path. Fusion is only sound because
        every ranking ends in a strict ``-v`` tiebreak, making the result
        independent of frontier enumeration order."""
        return None

    def __init__(self, formula, prefix, config, stats, trail, keeper):
        self.formula = formula
        self.prefix = prefix
        self.config = config
        self.stats = stats
        self.trail = trail
        self.keeper = keeper
        self._lit_value = trail.lit_value
        self._tab = prefix.tables()
        self._track_pure = config.pure_literals
        self.clause_occ: Dict[int, List[Rec]] = {}
        self.cube_occ: Dict[int, List[Rec]] = {}
        self.occ_unsat: Dict[int, int] = {}
        self.cube_count: Dict[int, int] = {}
        for v in prefix.variables:
            for lit in (v, -v):
                self.clause_occ[lit] = []
                self.cube_occ[lit] = []
                self.occ_unsat[lit] = 0
                self.cube_count[lit] = 0
        self.orig_clauses: List[Rec] = []
        self.learned_clauses: Dict[Tuple[int, ...], Rec] = {}
        self.learned_cubes: Dict[Tuple[int, ...], Rec] = {}
        self.n_unsat_orig = 0
        self.pure_candidates: Set[int] = set()
        self.trivially_false = False
        self.install_matrix()

    # -- setup ---------------------------------------------------------------

    def install_matrix(self) -> None:
        """Install the matrix: sanitize, universally reduce, deduplicate.

        Sanitization handles raw input once, here, so no per-propagation
        code ever has to: duplicate literals within a clause are dropped and
        a same-clause tautology (``v`` and ``-v``) skips the whole clause —
        it is satisfied by every assignment, so installing it would only
        slow propagation down (canonical :class:`Clause` inputs are already
        clean; this covers duck-typed clauses and tolerant readers).
        """
        seen: Set[Tuple[int, ...]] = set()
        for clause in self.formula.clauses:
            lits = sanitize_lits(clause.lits)
            if lits is None:
                continue  # tautological: true in every assignment
            # Canonical clause order (a no-op for Clause inputs, which are
            # already sorted) so the duplicate check below sees raw clauses
            # that differ only in literal order as equal.
            lits = tuple(sorted(lits, key=lambda l: (var_of(l), l)))
            reduced = universal_reduce(lits, self.prefix)
            if not reduced:
                self.trivially_false = True
                return
            if reduced in seen:
                continue
            seen.add(reduced)
            rec = Rec(Clause(reduced), original=True)
            self._split_primaries(rec)
            self.orig_clauses.append(rec)
            self._install_clause(rec)
        self.n_unsat_orig = len(self.orig_clauses)
        self.keeper.bump_initial([r.lits for r in self.orig_clauses])
        self.pure_candidates.update(self.prefix.variables)

    def _split_primaries(self, rec: Rec) -> None:
        """Precompute the record's primary/secondary literal tuples, in
        literal order, so no examine scan ever re-tests a quantifier."""
        is_exist = self._tab.is_exist
        exist: List[int] = []
        univ: List[int] = []
        for l in rec.lits:
            (exist if is_exist[l if l > 0 else -l] else univ).append(l)
        if rec.is_cube:
            rec.prim, rec.sec = tuple(univ), tuple(exist)
        else:
            rec.prim, rec.sec = tuple(exist), tuple(univ)

    def _install_clause(self, rec: Rec) -> None:
        raise NotImplementedError

    # -- the backend interface ------------------------------------------------

    def assign(self, lit: int, reason: object) -> None:
        raise NotImplementedError

    def backtrack(self, to_level: int) -> None:
        raise NotImplementedError

    def propagate(self) -> Optional[Tuple[str, object]]:
        raise NotImplementedError

    def _install_learned_clause(self, rec: Rec) -> None:
        raise NotImplementedError

    def _install_learned_cube(self, rec: Rec) -> None:
        raise NotImplementedError

    def add_learned_clause(self, lits: Tuple[int, ...]) -> Rec:
        rec = self.learned_clauses.get(lits)
        if rec is not None:
            return rec
        rec = Rec(Clause(lits, learned=True), original=False)
        self._split_primaries(rec)
        self.learned_clauses[lits] = rec
        self._install_learned_clause(rec)
        self.stats.learned_clauses += 1
        self.stats.learned_clause_lits += len(lits)
        self.keeper.on_learned(lits)
        return rec

    def add_learned_cube(self, lits: Tuple[int, ...]) -> Rec:
        rec = self.learned_cubes.get(lits)
        if rec is not None:
            return rec
        rec = Rec(Cube(lits, learned=True), original=False)
        self._split_primaries(rec)
        self.learned_cubes[lits] = rec
        self._install_learned_cube(rec)
        self.stats.learned_cubes += 1
        self.stats.learned_cube_lits += len(lits)
        self.keeper.on_learned(lits)
        return rec

    # -- the examine routine ----------------------------------------------------

    def _examine(self, rec: Rec, is_cube: bool) -> Optional[Tuple[str, object]]:
        """One full-body scan: Lemmas 4/5 for clauses, their duals for cubes.

        A clause conflicts with no unassigned existential left and
        propagates its single unassigned existential ``e`` when no
        unassigned universal precedes ``e``; a cube triggers a solution with
        no unassigned universal left and propagates (the negation of) its
        single unassigned universal ``u`` when no unassigned existential
        precedes ``u``. One routine covers both by picking the *primary*
        quantifier (existential for clauses, universal for cubes) and the
        *defusing* value (a true literal satisfies a clause; a false literal
        kills a cube).

        Self-guarding: a defused constraint returns None immediately (the
        counter backend pre-guards with its eager counters, so the bail is
        a safety net, not a hot path).

        The scan runs on the flat kernels: literal truth is one probe of the
        trail's literal-indexed value array, the primary/secondary split is
        precomputed per record (``rec.prim``/``rec.sec``), and the blocking
        test inlines ``prec`` over the prefix's flat level/DFS-interval
        tables. Scanning primaries before secondaries never changes the
        produced events.
        """
        lit_val = self.trail.lit_val
        base = self.trail.base
        if is_cube:
            self.stats.cube_visits += 1
            defused = -1  # a false literal kills a cube
        else:
            self.stats.clause_visits += 1
            defused = 1  # a true literal satisfies a clause
        unassigned_p: List[int] = []
        for lit in rec.prim:
            val = lit_val[base + lit]
            if val == 0:
                unassigned_p.append(lit)
            elif val == defused:
                return None
        unassigned_s: List[int] = []
        for lit in rec.sec:
            val = lit_val[base + lit]
            if val == 0:
                unassigned_s.append(lit)
            elif val == defused:
                return None
        if not unassigned_p:
            return (SOLUTION if is_cube else CONFLICT, rec)
        if len(unassigned_p) == 1:
            p = unassigned_p[0]
            tab = self._tab
            level = tab.level
            din = tab.din
            pv = p if p > 0 else -p
            p_level = level[pv]
            p_din = din[pv]
            dout = tab.dout
            for s in unassigned_s:
                sv = s if s > 0 else -s
                if level[sv] < p_level and din[sv] <= p_din <= dout[sv]:
                    break  # an unassigned secondary precedes p: not unit
            else:
                self.stats.propagations += 1
                self.assign(-p if is_cube else p, rec)
        return None

    # -- sidecar bookkeeping (occ_unsat / purity candidates) ---------------------

    def _on_clause_sat(self, rec: Rec) -> None:
        if rec.original:
            self.n_unsat_orig -= 1
        occ_unsat = self.occ_unsat
        for lit in rec.lits:
            occ_unsat[lit] -= 1
            if occ_unsat[lit] == 0:
                self.pure_candidates.add(var_of(lit))

    def _on_clause_unsat(self, rec: Rec) -> None:
        if rec.original:
            self.n_unsat_orig += 1
        for lit in rec.lits:
            self.occ_unsat[lit] += 1

    # -- the pure-literal rule ---------------------------------------------------

    def apply_pure_literals(self) -> bool:
        """Assign currently pure literals; True when anything was assigned.

        Existential rule: assign ``l`` when ``l̄`` occurs in no unsatisfied
        clause. Universal rule: assign ``l`` when ``l`` itself occurs in no
        unsatisfied clause. Both additionally require that the assigned
        literal occurs in no *live* learned cube (one not yet killed by a
        false literal) — the guard against the monotone-literal/learning
        interaction analysed in [24]: a pure assignment must never be able
        to turn a learned good true out of prefix order. Cubes already dead
        on this branch cannot become true, so they do not block purity.

        Counter-driven by design: the rule reads the ``occ_unsat`` index
        and the cubes' ``n_false`` sidecar, which every backend maintains
        whenever ``config.pure_literals`` is on.
        """
        assigned = False
        candidates = sorted(self.pure_candidates)
        self.pure_candidates.clear()
        value = self.trail.value
        is_exist = self._tab.is_exist
        occ_unsat = self.occ_unsat
        cube_count = self.cube_count
        cube_occ = self.cube_occ
        for v in candidates:
            if value[v] != 0:
                continue
            if is_exist[v]:
                options = [l for l in (v, -v) if occ_unsat[-l] == 0]
            else:
                options = [l for l in (v, -v) if occ_unsat[l] == 0]
            options = [
                l
                for l in options
                if cube_count[l] == 0
                or all(rec.n_false > 0 for rec in cube_occ[l])
            ]
            if options:
                self.stats.pure_literals += 1
                self.assign(options[0], PURE)
                assigned = True
        return assigned
