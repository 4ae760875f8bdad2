"""Unit tests for the branching heuristics (Section VI)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.formula import paper_example
from repro.core.heuristics import POLICIES, ScoreKeeper, make_picker, pick_literal
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix


def keeper_for(prefix, clauses=()):
    keeper = ScoreKeeper(prefix)
    keeper.bump_initial(clauses)
    return keeper


class TestScoreKeeper:
    def test_initial_counts_existential(self):
        p = Prefix.linear([(EXISTS, [1, 2])])
        k = keeper_for(p, [(1, -2), (1, 2)])
        assert k.score[1] == 2.0
        assert k.score[-2] == 1.0 and k.score[2] == 1.0

    def test_universal_counts_complement(self):
        # Universal literal 1 occurring positively bumps score[-1]: the
        # universal player branches to falsify.
        p = Prefix.linear([(FORALL, [1]), (EXISTS, [2])])
        k = keeper_for(p, [(1, 2)])
        assert k.score[-1] == 1.0
        assert k.score[1] == 0.0

    def test_decay(self):
        p = Prefix.linear([(EXISTS, [1])])
        k = ScoreKeeper(p, decay_interval=1)
        k.bump_initial([(1,)])
        assert k.score[1] == 1.0
        k.on_learned((1,))
        # bump then immediate decay: (1 + 1) * 0.5
        assert k.score[1] == 1.0

    def test_subtree_scores_monotone_in_order(self):
        """If |l| ≺ |l'| then effective(l) > effective(l') with positive
        deeper scores — the Section VI guarantee."""
        phi = paper_example()
        k = keeper_for(phi.prefix, [c.lits for c in phi.clauses])
        for a in phi.prefix.variables:
            for b in phi.prefix.variables:
                if phi.prefix.prec(a, b):
                    assert max(k.effective(a), k.effective(-a)) >= max(
                        k.effective(b), k.effective(-b)
                    ), (a, b)

    def test_effective_on_sat_instance_equals_counter(self):
        """Paper: on a SAT instance the PO score degenerates to the counter."""
        p = Prefix.exists_only([1, 2, 3])
        k = keeper_for(p, [(1, 2), (-1, 3)])
        for lit in (1, -1, 2, -2, 3, -3):
            assert k.effective(lit) == k.score[lit]


class TestPickLiteral:
    def test_empty_available(self):
        p = Prefix.exists_only([1])
        assert pick_literal("levelsub", keeper_for(p), []) is None

    def test_naive_picks_smallest(self):
        p = Prefix.exists_only([1, 2, 3])
        assert pick_literal("naive", keeper_for(p), [3, 1, 2]) == 1

    def test_counter_picks_hottest(self):
        p = Prefix.exists_only([1, 2])
        k = keeper_for(p, [(2,), (2,), (-1,)])
        assert pick_literal("counter", k, [1, 2]) == 2

    def test_polarity_follows_score(self):
        p = Prefix.exists_only([1])
        k = keeper_for(p, [(-1,), (-1,)])
        assert pick_literal("counter", k, [1]) == -1

    def test_levelsub_prefers_outer_levels(self):
        phi = paper_example()
        k = keeper_for(phi.prefix, [c.lits for c in phi.clauses])
        # x0 (level 1) must beat any deeper variable, whatever the counters.
        lit = pick_literal("levelsub", k, [1, 3, 6])
        assert abs(lit) == 1

    def test_unknown_policy_rejected(self):
        p = Prefix.exists_only([1])
        with pytest.raises(ValueError):
            pick_literal("sideways", keeper_for(p), [1])

    def test_all_policies_return_valid_literal(self):
        phi = paper_example()
        k = keeper_for(phi.prefix, [c.lits for c in phi.clauses])
        available = [1, 3, 4]
        for policy in POLICIES:
            lit = pick_literal(policy, k, available)
            assert abs(lit) in available


# -- incremental PO maxima ---------------------------------------------------


@st.composite
def tree_prefixes(draw):
    """Random quantifier forests: empty block specs (spliced out by the
    prefix normalizer), same-quantifier siblings at branch points (children
    at the parent's level) and deep alternations."""
    next_var = [1]

    def block(depth):
        n = draw(st.integers(min_value=0, max_value=3))
        variables = tuple(range(next_var[0], next_var[0] + n))
        next_var[0] += n
        quant = draw(st.sampled_from([EXISTS, FORALL]))
        kids = []
        if depth < 4:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                kids.append(block(depth + 1))
        return (quant, variables, tuple(kids))

    roots = [block(0) for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return Prefix.tree(roots)


def _maxima(keeper):
    return (list(keeper._block_max), list(keeper._subtree_max), list(keeper._child_max))


class TestIncrementalMaxima:
    """``on_learned`` keeps the per-block maxima current in place; they must
    equal a fresh ``_recompute`` exactly (``==`` on floats, not approx)."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bumps_and_decays_match_recompute(self, data):
        prefix = data.draw(tree_prefixes())
        variables = sorted(prefix.variables)
        if not variables:
            return
        keeper = ScoreKeeper(
            prefix, decay_interval=data.draw(st.integers(min_value=1, max_value=5))
        )
        lit = st.sampled_from(variables).flatmap(
            lambda v: st.sampled_from([v, -v])
        )
        keeper.bump_initial(data.draw(st.lists(st.lists(lit, max_size=4), max_size=6)))
        keeper._recompute()
        steps = data.draw(
            st.lists(
                st.one_of(
                    st.lists(lit, min_size=1, max_size=5),
                    st.just("restore"),
                ),
                max_size=120,
            )
        )
        pick = make_picker("levelsub", keeper)
        for step in steps:
            if step == "restore":
                # the checkpoint path: scores overwritten, keeper flagged
                # dirty; the next pick recomputes before ranking
                keeper.score.update({l: keeper.score[l] * 0.75 for l in keeper.score})
                keeper._dirty = True
                pick(variables)
                assert not keeper._dirty
            else:
                keeper.on_learned(step)
            got = _maxima(keeper)
            keeper._recompute()
            assert got == _maxima(keeper)

    def test_long_decay_chains_stay_exact(self):
        # Many decays between bumps push counters through every binary
        # exponent the rounding can touch; the maxima must still match.
        phi = paper_example()
        keeper = ScoreKeeper(phi.prefix, decay_interval=1)
        keeper.bump_initial([c.lits for c in phi.clauses])
        keeper._recompute()
        lits = sorted(keeper.score)
        for i in range(300):
            keeper.on_learned((lits[i % len(lits)], lits[(7 * i) % len(lits)]))
            got = _maxima(keeper)
            keeper._recompute()
            assert got == _maxima(keeper)

    def test_unbumped_subtree_decayed_into_subnormals_stays_exact(self):
        # ∃1 ( ∀2 (∃3) , ∀4 (∃5) ): the 4/5 subtree is never bumped again,
        # so ~1100 decays drive its maxima through the subnormal range,
        # where halving a sum no longer equals summing the halves.
        prefix = Prefix.tree(
            [
                (
                    EXISTS,
                    (1,),
                    ((FORALL, (2,), ((EXISTS, (3,)),)), (FORALL, (4,), ((EXISTS, (5,)),))),
                )
            ]
        )
        keeper = ScoreKeeper(prefix, decay_interval=1)
        keeper.bump_initial([(-4, 5), (-4, 5, -4), (5, -4, 5, 5, 5)])
        keeper._recompute()
        hot = (1, -2, 3)
        for i in range(1100):
            keeper.on_learned((hot[i % 3],))
            # a failed exactness precondition shows as a pending recompute,
            # which the next read performs
            keeper.effective(1)
            got = _maxima(keeper)
            keeper._recompute()
            assert got == _maxima(keeper), "diverged after %d decays" % (i + 1)
        assert keeper.score[5] == 0.0  # the cold subtree decayed away

    def test_same_level_child_passes_its_child_max(self):
        # ∃1 ( ∃2 (∀3) , ∃4 ): 2 and 4 are same-level children of 1.
        prefix = Prefix.tree(
            [(EXISTS, (1,), ((EXISTS, (2,), ((FORALL, (3,)),)), (EXISTS, (4,))))]
        )
        keeper = ScoreKeeper(prefix)
        keeper.bump_initial([])
        keeper._recompute()
        keeper.on_learned((2, 2))
        # a same-level sibling's own counters never reach the parent
        assert keeper.effective(1) == 0.0
        keeper.on_learned((-3,))
        # ...but its deeper descendants do
        assert keeper.effective(1) == 1.0
        got = _maxima(keeper)
        keeper._recompute()
        assert got == _maxima(keeper)

    def test_recompute_runs_only_when_dirty(self, monkeypatch):
        phi = paper_example()
        keeper = ScoreKeeper(phi.prefix, decay_interval=2)
        keeper.bump_initial([c.lits for c in phi.clauses])
        calls = []
        real = keeper._recompute
        monkeypatch.setattr(keeper, "_recompute", lambda: (calls.append(1), real()))
        pick = make_picker("levelsub", keeper)
        available = sorted(phi.prefix.variables)
        pick(available)
        for lit in (1, -3, 6, 2, -1):
            keeper.on_learned((lit,))
            pick(available)
        assert len(calls) == 1
