"""The portfolio racer: first verdict wins, disagreements get triaged."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.formula import paper_example
from repro.core.result import Outcome
from repro.evalx.runner import Budget
from repro.generators.random_qbf import random_qbf
from repro.portfolio import DEFAULT_ENTRANTS, ENTRANTS, race
from repro.robustness.faults import FaultPlan


def test_serial_race_wins_on_the_paper_example():
    result = race(paper_example(), "paper", Budget(decisions=4000), jobs=1)
    assert result.outcome in (Outcome.TRUE, Outcome.FALSE)
    assert result.winner == DEFAULT_ENTRANTS[0]  # first lane settles it
    assert result.jobs == 1
    # the remaining lanes never ran
    assert set(result.cancelled) == set(DEFAULT_ENTRANTS[1:])


def test_run_all_cross_checks_every_lane():
    result = race(
        paper_example(), "paper", Budget(decisions=4000), jobs=1, run_all=True
    )
    assert result.disagreement is None
    assert len(result.measurements) == len(DEFAULT_ENTRANTS)
    assert {m.outcome for m in result.measurements} == {result.outcome}


def test_unknown_entrant_is_rejected():
    # the retired expansion lane, by name or as a custom triple, and a
    # triple with an unknown mode are all refused before any lane runs
    for bad in ("nope", "EXP", "mine:po:expansion", "mine:sideways:search"):
        with pytest.raises(ValueError, match="unknown entrant"):
            race(paper_example(), entrants=("PO", bad), jobs=1)


def test_custom_entrant_triple():
    result = race(
        paper_example(),
        "paper",
        Budget(decisions=4000),
        jobs=1,
        entrants=("mine:po:qdll",),
    )
    assert result.winner == "mine"
    assert result.outcome in (Outcome.TRUE, Outcome.FALSE)


def test_flip_verdict_forces_triage_and_certificate_wins():
    # CI's forced-disagreement check: flip the TO lane's verdict; the
    # certificate triage must side with the PO lane's verdict and name the
    # flipped lane as the loser.
    plan = FaultPlan(assignments={"paper|TO": "flip-verdict"})
    honest = race(paper_example(), "paper", Budget(decisions=4000), jobs=1)
    result = race(
        paper_example(),
        "paper",
        Budget(decisions=4000),
        jobs=1,
        run_all=True,
        faults=plan,
    )
    assert result.disagreement is not None
    assert result.triage is not None and result.triage["resolved"]
    assert result.outcome is honest.outcome
    assert result.triage["losers"] == ["TO"]


@given(st.integers(min_value=0, max_value=10_000_000))
@settings(max_examples=15, deadline=None)
def test_serial_race_is_deterministic(seed):
    # --jobs 1 is the reproducible mode: identical winner, outcome, and
    # per-lane decision counts on every rerun.
    phi = random_qbf(random.Random(seed))
    first = race(phi, "rand", Budget(decisions=4000), jobs=1)
    second = race(phi, "rand", Budget(decisions=4000), jobs=1)
    assert first.outcome is second.outcome
    assert first.winner == second.winner
    assert first.cancelled == second.cancelled
    assert [(m.solver, m.outcome, m.decisions) for m in first.measurements] == [
        (m.solver, m.outcome, m.decisions) for m in second.measurements
    ]


def test_pool_race_cancels_siblings():
    # Pool mode needs >= 2 cores to engage (the racer refuses to
    # oversubscribe); on smaller machines the serial path is the contract.
    import os

    result = race(paper_example(), "paper", Budget(decisions=4000), jobs=2)
    if (os.cpu_count() or 1) < 2:
        assert result.jobs == 1
        return
    assert result.jobs == 2
    assert result.outcome in (Outcome.TRUE, Outcome.FALSE)
    assert result.winner in ENTRANTS

