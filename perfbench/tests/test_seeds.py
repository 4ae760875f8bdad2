"""The workload seed alone fixes the inputs, and through them the decisions."""

import os

import wl_fig6
import wl_parallel
import wl_serve
import wl_table1


def _instance_set(seed):
    return [(label, kind, tuple(c.lits for c in phi.clauses)) for label, kind, phi, _ in wl_table1.generate(seed)]


def test_table1_same_seed_same_instances():
    assert _instance_set(7) == _instance_set(7)


def test_table1_other_seed_other_instances():
    a, b = _instance_set(7), _instance_set(8)
    assert a != b
    # the fixed DIA rows stay; the generated rows change
    assert {x for x in a if x[1] == "dia"} == {x for x in b if x[1] == "dia"}
    assert {x for x in a if x[1] == "ncf"}.isdisjoint({x for x in b if x[1] == "ncf"})


def test_table1_same_seed_same_decisions(tmp_path):
    runs = []
    for i in range(2):
        workdir = tmp_path / str(i)
        os.makedirs(workdir)
        state = wl_table1.prepare(3, str(workdir), None)
        runs.append([(it.key, it.outcome, it.decisions) for it in wl_table1.run_pass(state, 0)])
    assert runs[0] == runs[1]
    assert sum(d for _, _, d in runs[0]) > 0


def test_serve_requests_follow_the_seed():
    hit_a, miss_a = wl_serve.formulas(5)
    hit_b, miss_b = wl_serve.formulas(5)
    assert [label for label, _ in hit_a + miss_a] == [label for label, _ in hit_b + miss_b]
    assert [label for label, _ in wl_serve.formulas(6)[0]] != [label for label, _ in hit_a]
    state = {"seed": 5, "miss": [(l, "", None) for l, _ in miss_a],
             "hit": [(l, "", None) for l, _ in hit_a], "sweeps": [("counter", 2, 3)]}
    order = [label for _, label, _ in wl_serve.cycle_requests(state, 0)]
    assert order == [label for _, label, _ in wl_serve.cycle_requests(state, 0)]
    assert order != [label for _, label, _ in wl_serve.cycle_requests(dict(state, seed=6), 0)]


def test_cube_splitter_seeds_follow_the_seed():
    a = [wl_parallel.split_seeds(4, i) for i in range(6)]
    assert a == [wl_parallel.split_seeds(4, i) for i in range(6)]
    assert a != [wl_parallel.split_seeds(5, i) for i in range(6)]
    assert len({s for seeds in a for s in seeds}) > 1
    # every two passes cover the whole pool
    assert {s for seeds in a[:2] for s in seeds} == set(wl_parallel.SPLIT_POOL)


def test_fig6_items_are_fixed():
    a = [wl_fig6.item_key(*it) for it in wl_fig6.prepare(1, "", None)["items"]]
    b = [wl_fig6.item_key(*it) for it in wl_fig6.prepare(2, "", None)["items"]]
    assert a == b and len(a) == 42


def test_fig6_decisions_repeat(tmp_path):
    state = wl_fig6.prepare(1, str(tmp_path), None)
    state["items"] = [it for it in state["items"] if it[0].name == "counter2"]
    first = [(it.key, it.decisions) for it in wl_fig6.run_pass(state, 0)]
    assert first == [(it.key, it.decisions) for it in wl_fig6.run_pass(state, 1)]
    assert state["engines"] == {"native"}


def test_fig6_verdicts_match_the_oracle(tmp_path):
    state = wl_fig6.prepare(1, str(tmp_path), None)
    state["items"] = [it for it in state["items"] if it[0].name in ("counter2", "semaphore1")]
    truths = wl_fig6.truths(state)
    for it in wl_fig6.run_pass(state, 0):
        assert it.error is None
        assert (it.outcome == "true") == truths[it.truth_key], it.key
