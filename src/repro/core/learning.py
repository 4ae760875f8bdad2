"""Nogood and good learning (Sections III, V and [23]).

Conflict analysis derives a new clause (*nogood*) by Q-resolution: starting
from the falsified clause, the most recently propagated existential literal
is resolved with its reason clause, applying universal reduction (Lemma 3)
after every step, until the clause is *asserting* — unit, under the
generalized Section IV unit rule, at some earlier decision level.

Solution analysis is the exact dual: starting from a satisfied cube (either a
learned good that became true, or a fresh *model cube* covering every matrix
clause), cube-propagated universal literals are resolved with their reason
cubes, applying existential reduction, until the cube is unit at an earlier
level, which flips a universal decision.

Two non-standard situations are handled conservatively:

* a resolution step that would produce a tautological resolvent is skipped —
  the offending literal is kept in the derived constraint as if it were a
  decision (soundness is preserved because the working constraint is always
  a genuine Q-resolvent of database constraints);
* when no asserting constraint can be derived, analysis reports *fallback*
  and the engine reverts to chronological backtracking for that conflict or
  solution (plain Figure-1 Q-DLL behaviour).

The asymmetry tested by the paper lives in the two ``reduce`` calls: with a
tree prefix, fewer literal pairs satisfy ``|l| ≺ |l'|``, so reductions delete
more literals and learned constraints are stronger (the Section VII-C worked
example: good ``{y1_0}`` under the tree vs ``{x1_0, x2_0, x1_1, x2_1, y1_0}``
under the total order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.core.constraints import (
    Clause,
    Constraint,
    Cube,
    existential_reduce,
    resolve,
    universal_reduce,
)
from repro.core.literals import var_of


@dataclass
class Terminal:
    """The analysis proves the whole QBF: FALSE (clauses) or TRUE (cubes)."""


@dataclass
class Backjump:
    """Learn ``lits`` and backtrack, making the constraint assert ``assert_lit``.

    For a clause, ``assert_lit`` is the existential literal that becomes unit
    (to be assigned true); for a cube, it is the universal literal whose
    *negation* must be assigned. The constraint is unit at every level in
    ``[level, shallow_level]``: ``level`` is the classical asserting level
    (deepest jump), ``shallow_level`` the least destructive one; the engine
    picks according to its configuration.
    """

    lits: Tuple[int, ...]
    level: int
    assert_lit: int
    shallow_level: int = -1

    def __post_init__(self) -> None:
        if self.shallow_level < self.level:
            self.shallow_level = self.level


@dataclass
class Fallback:
    """No asserting constraint derivable; use chronological backtracking."""


AnalysisOutcome = Union[Terminal, Backjump, Fallback]


class TrailView:
    """The slice of engine state the analyses need (duck-typed by the solver).

    Attributes (all callables):
        value: literal -> True/False/None under the current assignment.
        level_of: variable -> decision level (meaningful only if assigned).
        pos_of: variable -> trail position (meaningful only if assigned).
        reason_of: variable -> Constraint | None ("None" covers decisions and
            pure literals — anything that cannot be resolved away).

    The engine additionally supplies the flat kernels backing those
    callables — the trail's literal-indexed value array (``lit_val`` +
    ``base``) and its level/position arrays — which the hot analyses index
    directly. They are optional: views built over plain callables (unit
    tests, tools) leave them None and the analyses fall back to calling.
    """

    def __init__(
        self,
        value,
        level_of,
        pos_of,
        reason_of,
        prefix,
        lit_val=None,
        base=0,
        level_arr=None,
        pos_arr=None,
        reduce_clause=None,
        reduce_cube=None,
        analyze_clause=None,
        analyze_cube=None,
    ):
        self.value = value
        self.level_of = level_of
        self.pos_of = pos_of
        self.reason_of = reason_of
        self.prefix = prefix
        self.lit_val = lit_val
        self.base = base
        self.level_arr = level_arr
        self.pos_arr = pos_arr
        #: optional compiled reductions (exact ports of universal_reduce /
        #: existential_reduce over this prefix) supplied by the engine when
        #: its backend carries them; None falls back to the Python reference.
        self.reduce_clause = reduce_clause
        self.reduce_cube = reduce_cube
        #: optional compiled analyses (exact ports of analyze_conflict /
        #: analyze_solution without a trace, reading the engine's trail);
        #: used only for untraced runs, so certified runs always take the
        #: Python path below and log every resolution step.
        self.analyze_clause = analyze_clause
        self.analyze_cube = analyze_cube


def _clause_backjump(work: Sequence[int], view: TrailView) -> Optional[AnalysisOutcome]:
    """Asserting-level computation for a (reduced) working clause.

    Returns Terminal when the clause proves FALSE outright, a Backjump when
    some earlier level makes it unit, or None when further resolution is
    needed.

    Quantifier tests and the ``≺`` comparisons run on the prefix's flat
    lookup tables; level/position/value reads go through the view's arrays
    when the engine supplied them, else through its callables.
    """
    tab = view.prefix.tables()
    is_exist = tab.is_exist
    existentials = []
    universals = []
    for l in work:
        if is_exist[l if l > 0 else -l]:
            existentials.append(l)
        else:
            universals.append(l)
    if not existentials:
        return Terminal()
    level_arr = view.level_arr
    if level_arr is not None:
        level_of = level_arr.__getitem__
        pos_of = view.pos_arr.__getitem__
    else:
        level_of = view.level_of
        pos_of = view.pos_of
    value = view.value
    # All existential literals of a working clause are false on the trail,
    # so their (level, pos) keys are distinct and the plain > scan matches
    # max()'s first-of-ties semantics.
    estar = existentials[0]
    ev = estar if estar > 0 else -estar
    estar_level = level_of(ev)
    estar_pos = pos_of(ev)
    for l in existentials:
        v = l if l > 0 else -l
        lv = level_of(v)
        if lv > estar_level or (lv == estar_level and pos_of(v) > estar_pos):
            estar = l
            estar_level = lv
            estar_pos = pos_of(v)
    if estar_level == 0:
        blocked = any(
            value(u) is True and level_of(u if u > 0 else -u) == 0 for u in universals
        )
        return None if blocked else Terminal()
    b_lo = 0
    b_hi = estar_level - 1
    for e in existentials:
        if e is not estar:
            lv = level_of(e if e > 0 else -e)
            if lv > b_lo:
                b_lo = lv
    level = tab.level
    din = tab.din
    dout = tab.dout
    ev = estar if estar > 0 else -estar
    e_level = level[ev]
    e_din = din[ev]
    for u in universals:
        uv = u if u > 0 else -u
        val = value(u)
        blocking = level[uv] < e_level and din[uv] <= e_din <= dout[uv]
        if val is None:
            if blocking:
                return None
        elif val is False:
            if blocking:
                lv = level_of(uv)
                if lv > b_lo:
                    b_lo = lv
        else:  # val is True: must be unassigned at the target level
            if blocking:
                return None
            b_hi = min(b_hi, level_of(uv) - 1)
    if b_lo <= b_hi:
        return Backjump(tuple(work), b_lo, estar, b_hi)
    return None


def _cube_backjump(work: Sequence[int], view: TrailView) -> Optional[AnalysisOutcome]:
    """Dual of :func:`_clause_backjump` for a (reduced) working cube."""
    tab = view.prefix.tables()
    is_exist = tab.is_exist
    universals = []
    existentials = []
    for l in work:
        if is_exist[l if l > 0 else -l]:
            existentials.append(l)
        else:
            universals.append(l)
    if not universals:
        return Terminal()
    level_arr = view.level_arr
    if level_arr is not None:
        level_of = level_arr.__getitem__
        pos_of = view.pos_arr.__getitem__
    else:
        level_of = view.level_of
        pos_of = view.pos_of
    value = view.value
    # All universal literals of a working cube are true on the trail.
    ustar = universals[0]
    uv = ustar if ustar > 0 else -ustar
    ustar_level = level_of(uv)
    ustar_pos = pos_of(uv)
    for l in universals:
        v = l if l > 0 else -l
        lv = level_of(v)
        if lv > ustar_level or (lv == ustar_level and pos_of(v) > ustar_pos):
            ustar = l
            ustar_level = lv
            ustar_pos = pos_of(v)
    if ustar_level == 0:
        blocked = any(
            value(e) is False and level_of(e if e > 0 else -e) == 0 for e in existentials
        )
        return None if blocked else Terminal()
    b_lo = 0
    b_hi = ustar_level - 1
    for u in universals:
        if u is not ustar:
            lv = level_of(u if u > 0 else -u)
            if lv > b_lo:
                b_lo = lv
    level = tab.level
    din = tab.din
    dout = tab.dout
    uv = ustar if ustar > 0 else -ustar
    u_level = level[uv]
    u_din = din[uv]
    for e in existentials:
        sv = e if e > 0 else -e
        val = value(e)
        blocking = level[sv] < u_level and din[sv] <= u_din <= dout[sv]
        if val is None:
            if blocking:
                return None
        elif val is True:
            if blocking:
                lv = level_of(sv)
                if lv > b_lo:
                    b_lo = lv
        else:  # val is False: the cube would be dead unless e is unassigned
            if blocking:
                return None
            b_hi = min(b_hi, level_of(sv) - 1)
    if b_lo <= b_hi:
        return Backjump(tuple(work), b_lo, ustar, b_hi)
    return None


def analyze_conflict(
    conflict: Sequence[int], view: TrailView, trace=None
) -> AnalysisOutcome:
    """Derive a learned clause from a falsified clause (nogood learning).

    ``trace``, when given, is a :class:`repro.certify.proof.DerivationTrace`
    mirroring every resolution/reduction step into a certificate. Tracing is
    passive — it never changes which constraint is derived. Without a trace
    the view's compiled ``analyze_clause`` runs instead, when it has one.
    """
    if trace is None:
        fast = getattr(view, "analyze_clause", None)
        if fast is not None:
            return fast(conflict)
    prefix = view.prefix
    is_exist = prefix.tables().is_exist
    value = view.value
    reason_of = view.reason_of
    pos_of = view.pos_arr.__getitem__ if view.pos_arr is not None else view.pos_of
    reduce_c = getattr(view, "reduce_clause", None)
    if reduce_c is None:
        def reduce_c(ls):
            return universal_reduce(ls, prefix)
    work: Tuple[int, ...] = reduce_c(tuple(conflict))
    if trace is not None:
        trace.reduced(work)
    banned: Set[int] = set()
    while True:
        outcome = _clause_backjump(work, view)
        if outcome is not None:
            if trace is not None and isinstance(outcome, Terminal):
                _finish_clause_refutation(work, view, trace)
            return outcome
        # The deepest (max trail position) resolvable existential; positions
        # are unique, so the scan matches max() over the filtered list.
        pivot = 0
        pivot_pos = -1
        for l in work:
            v = l if l > 0 else -l
            if (
                is_exist[v]
                and l not in banned
                and value(l) is False
                and isinstance(reason_of(v), Clause)
            ):
                p = pos_of(v)
                if p > pivot_pos:
                    pivot = l
                    pivot_pos = p
        if pivot_pos < 0:
            return Fallback()
        pivot_var = pivot if pivot > 0 else -pivot
        reason = reason_of(pivot_var)
        resolvent = resolve(work, reason.lits, pivot_var)
        if resolvent is None:
            banned.add(pivot)
            continue
        work = reduce_c(resolvent)
        if trace is not None:
            trace.resolved(reason.lits, pivot_var, work)


def analyze_solution(
    model_cube: Sequence[int], view: TrailView, trace=None
) -> AnalysisOutcome:
    """Derive a learned cube from a satisfied cube (good learning).

    ``trace`` mirrors the derivation into a certificate, as in
    :func:`analyze_conflict`; without one the view's compiled
    ``analyze_cube`` runs instead, when it has one.
    """
    if trace is None:
        fast = getattr(view, "analyze_cube", None)
        if fast is not None:
            return fast(model_cube)
    prefix = view.prefix
    is_exist = prefix.tables().is_exist
    value = view.value
    reason_of = view.reason_of
    pos_of = view.pos_arr.__getitem__ if view.pos_arr is not None else view.pos_of
    reduce_t = getattr(view, "reduce_cube", None)
    if reduce_t is None:
        def reduce_t(ls):
            return existential_reduce(ls, prefix)
    work: Tuple[int, ...] = reduce_t(tuple(model_cube))
    if trace is not None:
        trace.reduced(work)
    banned: Set[int] = set()
    while True:
        outcome = _cube_backjump(work, view)
        if outcome is not None:
            if trace is not None and isinstance(outcome, Terminal):
                _finish_cube_confirmation(work, view, trace)
            return outcome
        # The deepest resolvable universal, as in analyze_conflict.
        pivot = 0
        pivot_pos = -1
        for l in work:
            v = l if l > 0 else -l
            if (
                not is_exist[v]
                and l not in banned
                and value(l) is True
                and isinstance(reason_of(v), Cube)
            ):
                p = pos_of(v)
                if p > pivot_pos:
                    pivot = l
                    pivot_pos = p
        if pivot_pos < 0:
            return Fallback()
        pivot_var = pivot if pivot > 0 else -pivot
        reason = reason_of(pivot_var)
        resolvent = resolve(work, reason.lits, pivot_var)
        if resolvent is None:
            banned.add(pivot)
            continue
        work = reduce_t(resolvent)
        if trace is not None:
            trace.resolved(reason.lits, pivot_var, work)


def _finish_clause_refutation(work: Tuple[int, ...], view: TrailView, trace) -> None:
    """Resolve a Terminal working clause down to the empty clause.

    A Terminal clause either is empty already, or has every existential
    literal falsified at decision level 0 (and no true universal there, or
    the backjump computation would have blocked). Resolving those literals
    with their level-0 unit reasons in reverse trail order terminates and
    cannot produce a tautology: every literal involved is false on the
    trail, and no two false literals clash. The only unresolvable case is a
    literal assigned by the pure-literal rule (reason is not a clause),
    which marks the certificate incomplete.
    """
    while work and trace.ok:
        candidates = [
            l
            for l in work
            if view.prefix.is_existential(l)
            and isinstance(view.reason_of(var_of(l)), Clause)
        ]
        if not candidates:
            trace.fail("terminal clause blocked on a reason-less literal")
            return
        pivot = max(candidates, key=lambda l: view.pos_of(var_of(l)))
        reason = view.reason_of(var_of(pivot))
        resolvent = resolve(work, reason.lits, var_of(pivot))
        if resolvent is None:  # pragma: no cover - impossible on a real trail
            trace.fail("tautological resolvent in terminal derivation")
            return
        work = universal_reduce(resolvent, view.prefix)
        trace.resolved(reason.lits, var_of(pivot), work)


def _finish_cube_confirmation(work: Tuple[int, ...], view: TrailView, trace) -> None:
    """Dual of :func:`_finish_clause_refutation`: derive the empty cube."""
    while work and trace.ok:
        candidates = [
            l
            for l in work
            if view.prefix.is_universal(l)
            and isinstance(view.reason_of(var_of(l)), Cube)
        ]
        if not candidates:
            trace.fail("terminal cube blocked on a reason-less literal")
            return
        pivot = max(candidates, key=lambda l: view.pos_of(var_of(l)))
        reason = view.reason_of(var_of(pivot))
        resolvent = resolve(work, reason.lits, var_of(pivot))
        if resolvent is None:  # pragma: no cover - impossible on a real trail
            trace.fail("tautological resolvent in terminal derivation")
            return
        work = existential_reduce(resolvent, view.prefix)
        trace.resolved(reason.lits, var_of(pivot), work)


def build_model_cube(
    clauses: Sequence[Constraint],
    view: TrailView,
    trail: Sequence[int],
) -> Tuple[int, ...]:
    """Construct the initial good of Section III point 1.

    Picks, for every matrix clause, one satisfying literal of the current
    assignment (preferring literals already chosen, then the earliest
    assigned), producing a set ``S`` with ``C ∩ S ≠ ∅`` for every clause
    ``C``. The caller passes the result to :func:`analyze_solution`, which
    existentially reduces it.

    This runs once per solution over the whole matrix, making it one of the
    hottest call sites on true-heavy instances; when the view carries the
    trail's flat arrays, each literal costs one ``lit_val`` probe and the
    per-clause min folds positions inline (positions are unique, so the
    fold matches ``min()``'s first-of-ties semantics).
    """
    chosen: Set[int] = set()
    lit_val = view.lit_val
    if lit_val is not None:
        base = view.base
        pos = view.pos_arr
        for clause in clauses:
            best = 0
            best_pos = -1
            already = False
            for l in clause.lits:
                if lit_val[base + l] == 1:
                    if l in chosen:
                        already = True
                        break
                    p = pos[l if l > 0 else -l]
                    if best_pos < 0 or p < best_pos:
                        best = l
                        best_pos = p
            if already:
                continue
            if best_pos < 0:
                raise ValueError("matrix clause not satisfied: %r" % (clause,))
            chosen.add(best)
    else:
        for clause in clauses:
            sats = [l for l in clause.lits if view.value(l) is True]
            if not sats:
                raise ValueError("matrix clause not satisfied: %r" % (clause,))
            if any(l in chosen for l in sats):
                continue
            chosen.add(min(sats, key=lambda l: view.pos_of(var_of(l))))
    return tuple(sorted(chosen, key=lambda l: (var_of(l), l)))
