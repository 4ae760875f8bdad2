"""Branching heuristics (Section VI of the paper).

Both QUBE variants keep a per-literal *counter* of the number of constraints
(matrix clauses plus learned nogoods/goods) the literal occurs in, bumped on
learning and periodically decayed — the VSIDS-flavoured scheme the paper
attributes to ZCHAFF.

* ``QUBE(TO)`` sorts literals by (prefix level, counter, id). In a prenex
  formula only the outermost unfinished block is branchable, so the level
  key simply restricts the choice to that block.
* ``QUBE(PO)`` cannot sort by level (the prefix is a partial order). The
  paper's solution: the *score* of a literal is its counter plus the maximum
  score of the literals one alternation deeper in its scope. This guarantees
  that ``|l| ≺ |l'|`` implies ``score(l) > score(l')`` (so outer variables
  are branched first) while reducing to plain VSIDS on SAT instances.

Both are implemented by :class:`ScoreKeeper` + a pick policy; the engine asks
for the best literal among *available* variables (those whose ``≺``
predecessors are all assigned), so every policy is sound for every prefix —
the policies differ only in ranking.

Storage layout: the counters live in two flat lists indexed by variable
(``score_pos[v]`` for literal ``v``, ``score_neg[v]`` for ``-v``), and the
per-block maxima in three lists indexed by block DFS index: ``block_max``
(the largest raw counter of the block's literals), ``child_max`` (the
largest score one alternation deeper) and ``subtree_max`` (``block_max +
child_max``: the block's best augmented score). ``keeper.score`` remains
available as a dict-like signed-literal view (:class:`_ScoreView`) for
checkpoints and tests; hot paths read the arrays directly.

**Incremental maxima.** ``_recompute`` folds every block bottom-up and is
the reference; it runs only when the keeper is dirty — on the first pick
after the matrix counters are set, and after a checkpoint restore rewrote
the scores. Between those, :meth:`ScoreKeeper.on_learned` keeps the three
arrays current itself: a bump only raises one counter, so it raises
``block_max`` of that literal's block and climbs the parent chain, raising
``subtree_max``/``child_max`` until a maximum does not rise; a decay halves
all three arrays. Both updates are bit-identical to a fresh
``_recompute``:

* the recompute evaluates ``max(s_i + kid)`` over a block's counters
  ``s_i``; IEEE rounding is monotone, so that equals ``max(s_i) + kid``,
  which is ``block_max + child_max``;
* halving is monotone, so it commutes with every ``max``: halving
  ``block_max`` and ``child_max`` equals recomputing them from halved
  counters, always. ``subtree_max`` is a sum, ``fl(block_max +
  child_max)``; halving it equals the sum of the halves when all three
  halvings are exact, i.e. when each nonzero operand is at least
  ``2**-1021`` (its half is still a normal float; the sum is no smaller).
  Each decay checks that precondition on the block arrays first and, if
  it fails (a subtree left unbumped for ~1000 decays), marks the keeper
  dirty so the reference recompute rebuilds the maxima.

A child at the same alternation level passes its ``child_max``, not its
``subtree_max``, to the parent — the recompute's two cases, kept exactly.
Blocks are never empty (:class:`~repro.core.prefix.Prefix` splices empty
blocks out), so every block's ``subtree_max`` is ``block_max +
child_max``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.prefix import Prefix

#: pick policy names accepted by the solver configuration.
POLICIES = ("levelsub", "subtree", "counter", "naive")


class _ScoreView:
    """Dict-like signed-literal facade over the flat score arrays.

    Supports exactly what the cold paths need: indexing by signed literal,
    iteration over the signed literals of the prefix (insertion order of the
    historical dict: ``v, -v`` per variable, ascending), ``dict(view)`` for
    checkpoint capture and ``view.update(mapping)`` for restore.
    """

    __slots__ = ("_keeper",)

    def __init__(self, keeper: "ScoreKeeper"):
        self._keeper = keeper

    def __getitem__(self, lit: int) -> float:
        k = self._keeper
        return k.score_pos[lit] if lit > 0 else k.score_neg[-lit]

    def __setitem__(self, lit: int, value: float) -> None:
        k = self._keeper
        if lit > 0:
            k.score_pos[lit] = value
        else:
            k.score_neg[-lit] = value

    def __iter__(self) -> Iterator[int]:
        for v in self._keeper.prefix.variables:
            yield v
            yield -v

    def __len__(self) -> int:
        return 2 * len(self._keeper.prefix.variables)

    def __contains__(self, lit: int) -> bool:
        v = lit if lit > 0 else -lit
        return v in self._keeper.prefix.variables

    def keys(self) -> List[int]:
        return list(self)

    def items(self) -> List[Tuple[int, float]]:
        return [(lit, self[lit]) for lit in self]

    def values(self) -> List[float]:
        return [self[lit] for lit in self]

    def update(self, other) -> None:
        items = other.items() if hasattr(other, "items") else other
        for lit, value in items:
            self[lit] = value


class ScoreKeeper:
    """Literal activity counters with periodic decay and subtree maxima."""

    #: decay factor applied every :attr:`decay_interval` learned constraints
    #: ("halving the old score", Section VI).
    DECAY = 0.5

    #: the smallest positive float whose half is still a normal float, so
    #: halving it (and any larger value) is exact.
    _EXACT_HALVING_MIN = 2.0 ** -1021

    def __init__(self, prefix: Prefix, decay_interval: int = 64):
        self.prefix = prefix
        tab = prefix.tables()
        self.score_pos: List[float] = [0.0] * tab.num_slots
        self.score_neg: List[float] = [0.0] * tab.num_slots
        self._is_exist = tab.is_exist
        self._level = tab.level
        self._block_index = tab.block_index
        blocks = prefix.blocks
        n_blocks = len(blocks)
        self._block_max: List[float] = [0.0] * n_blocks
        self._subtree_max: List[float] = [0.0] * n_blocks
        self._child_max: List[float] = [0.0] * n_blocks
        #: per block: parent block index (-1 under the virtual root), and
        #: whether the parent sits at a strictly lower level (then it reads
        #: this block's subtree_max, else its child_max).
        self._parent: List[int] = [-1] * n_blocks
        self._deeper: List[bool] = [False] * n_blocks
        for block in blocks:
            parent = block.parent
            if parent is not None and not parent.is_root:
                self._parent[block.index] = parent.index
                self._deeper[block.index] = block.level > parent.level
        self.decay_interval = decay_interval
        self._since_decay = 0
        self._dirty = True
        self.score = _ScoreView(self)

    def _bump(self, lit: int) -> float:
        """Raise ``lit``'s counter by one and return the raised value."""
        # Section VI: an existential literal counts the constraints it
        # occurs in; a universal literal counts the constraints its
        # *complement* occurs in (the universal player branches to falsify).
        if lit > 0:
            if self._is_exist[lit]:
                s = self.score_pos[lit] = self.score_pos[lit] + 1.0
            else:
                s = self.score_neg[lit] = self.score_neg[lit] + 1.0
        else:
            v = -lit
            if self._is_exist[v]:
                s = self.score_neg[v] = self.score_neg[v] + 1.0
            else:
                s = self.score_pos[v] = self.score_pos[v] + 1.0
        return s

    def bump_initial(self, clauses: Iterable[Sequence[int]]) -> None:
        """Initialize counters from matrix occurrences."""
        for clause in clauses:
            for lit in clause:
                self._bump(lit)
        self._dirty = True

    def on_learned(self, lits: Sequence[int]) -> None:
        """Bump the literals of a freshly learned constraint and maybe decay.

        The per-block maxima are raised in place: see the module docstring
        for why the result equals :meth:`_recompute` bit for bit. While the
        keeper is dirty the climb runs over stale maxima, which is harmless:
        the pending recompute overwrites all three arrays.
        """
        bump = self._bump
        block_index = self._block_index
        block_max = self._block_max
        subtree_max = self._subtree_max
        child_max = self._child_max
        parent = self._parent
        deeper = self._deeper
        for lit in lits:
            s = bump(lit)
            b = block_index[lit if lit > 0 else -lit]
            if s <= block_max[b]:
                continue
            block_max[b] = s
            # Climb while a maximum rises: block b's block_max or child_max
            # just rose; refresh its subtree_max and hand the value its
            # parent reads upwards.
            while True:
                kid = child_max[b]
                subtree_max[b] = block_max[b] + kid
                p = parent[b]
                if p < 0:
                    break
                up = subtree_max[b] if deeper[b] else kid
                if up <= child_max[p]:
                    break
                child_max[p] = up
                b = p
        self._since_decay += 1
        if self._since_decay >= self.decay_interval:
            self._since_decay = 0
            self._decay()

    def _decay(self) -> None:
        # Halving the maxima matches a recompute from halved counters only
        # while every halving is exact: once a nonzero block_max/child_max
        # falls below 2**-1021 (the sums in subtree_max are no smaller), the
        # reference recompute takes over (see the module docstring).
        tiny = self._EXACT_HALVING_MIN
        for arr in (self._block_max, self._child_max):
            for x in arr:
                if 0.0 < x < tiny:
                    self._dirty = True
                    break
        decay = self.DECAY
        # In-place (the arrays are captured by picker closures and must
        # never be rebound). Unused slots stay 0.0, same as before.
        for arr in (
            self.score_pos,
            self.score_neg,
            self._block_max,
            self._subtree_max,
            self._child_max,
        ):
            for i in range(len(arr)):
                arr[i] *= decay

    # -- PO subtree scores ---------------------------------------------------

    def _recompute(self) -> None:
        """Bottom-up pass computing, per block, the max augmented score.

        ``subtree_max(b)`` is the maximum over literals ``l`` of block ``b``
        of ``score(l) + child_max(b)``, where ``child_max(b)`` is the largest
        ``subtree_max`` among the children of ``b`` (0 for leaves). This is
        precisely the Section VI definition, evaluated per block since all
        variables of a block share the same children.

        The reference for the incremental maxima kept by :meth:`on_learned`;
        it runs only while the keeper is dirty.
        """
        block_max = self._block_max
        subtree_max = self._subtree_max
        child_max = self._child_max
        score_pos = self.score_pos
        score_neg = self.score_neg
        for block in reversed(self.prefix.blocks):
            kid = 0.0
            level = block.level
            for child in block.children:
                if child.level > level:
                    # One alternation deeper: the child's own literals are
                    # the "prefix level k+1" literals of the definition.
                    kid = max(kid, subtree_max[child.index])
                else:
                    # Same-level child (branch point without alternation):
                    # only its strictly deeper descendants count.
                    kid = max(kid, child_max[child.index])
            child_max[block.index] = kid
            raw = 0.0
            best = 0.0
            for v in block.variables:
                raw = max(raw, score_pos[v], score_neg[v])
                best = max(best, score_pos[v] + kid, score_neg[v] + kid)
            block_max[block.index] = raw
            subtree_max[block.index] = best
        self._dirty = False

    def effective(self, lit: int) -> float:
        """The PO score of ``lit``: counter plus deeper-subtree maximum."""
        if self._dirty:
            self._recompute()
        v = lit if lit > 0 else -lit
        s = self.score_pos[v] if lit > 0 else self.score_neg[v]
        return s + self._child_max[self._block_index[v]]


def make_picker(
    policy: str,
    keeper: ScoreKeeper,
) -> Callable[[Sequence[int]], Optional[int]]:
    """Build the branching function for ``policy`` once, at solver init.

    Historically :func:`pick_literal` rebuilt its key lambda on every
    decision; the engine now hoists that construction here and calls the
    returned closure per decision. The ranking is unchanged:

    ``levelsub`` — rank by (prefix level, subtree score): Section VI's
    requirement that the queue account for "both their position in the
    prefix and their score", taking the position key literally. The
    reproduction's default: it keeps branching freedom across incomparable
    same-level blocks while never diving below an unfinished shallower
    block, which our backjumping engine rewards (see the heuristic ablation
    bench); ``subtree`` — the pure Section VI score formula (counter plus
    deeper-subtree maximum), whose ≺-monotonicity is the only ordering
    constraint; ``counter`` — raw counters, ignoring the tree (ablation);
    ``naive`` — smallest variable id, positive phase (ablation).

    Every key ends in ``-v``, a strict tiebreak, so the result never depends
    on the order of ``available``. The returned function maps an available
    list to a literal, or None when the list is empty.
    """
    if policy == "naive":
        def pick_naive(available: Sequence[int]) -> Optional[int]:
            if not available:
                return None
            return min(available)

        return pick_naive

    score_pos = keeper.score_pos
    score_neg = keeper.score_neg
    if policy == "counter":
        def key(v: int) -> Tuple:
            a = score_pos[v]
            b = score_neg[v]
            return (a if a >= b else b, -v)
    elif policy == "subtree":
        effective = keeper.effective

        def key(v: int) -> Tuple:
            a = effective(v)
            b = effective(-v)
            return (a if a >= b else b, -v)
    elif policy == "levelsub":
        level = keeper._level
        effective = keeper.effective

        def key(v: int) -> Tuple:
            a = effective(v)
            b = effective(-v)
            return (-level[v], a if a >= b else b, -v)
    else:
        raise ValueError("unknown branching policy %r" % policy)

    def pick(available: Sequence[int]) -> Optional[int]:
        if not available:
            return None
        var = max(available, key=key)
        return var if score_pos[var] >= score_neg[var] else -var

    return pick


def pick_literal(
    policy: str,
    keeper: ScoreKeeper,
    available: Sequence[int],
) -> Optional[int]:
    """One-shot convenience wrapper over :func:`make_picker`.

    Kept for tests and exploratory code; the engine builds its picker once
    at init instead. Returns a literal, or None when ``available`` is empty.
    """
    if not available:
        return None
    return make_picker(policy, keeper)(available)
