"""Figure 6: scaling on counter<N> (growing diameter) and semaphore<N>
(growing model at constant diameter).

Paper shape: QUBE(PO) solves larger instances than QUBE(TO) before the
budget bites, and its cost curve grows more slowly with the tested length.
"""

from common import save
from repro.evalx.runner import Budget, solve_po
from repro.evalx.suites import run_dia_scaling
from repro.evalx.report import render_scaling
from repro.smv.diameter import diameter_qbf
from repro.smv.models import CounterModel

# Decision-only, like the common.py budgets: the Figure-6 series stay
# serial (each point decides whether the series stops), so keeping the
# wall-clock cap off is what makes the curves machine-independent.
SCALING_BUDGET = Budget(decisions=8000)


def test_fig6_counter_scaling(benchmark):
    phi = diameter_qbf(CounterModel(3), 5, "tree")
    benchmark.pedantic(lambda: solve_po(phi, budget=SCALING_BUDGET), rounds=1, iterations=1)

    po_series, to_series = run_dia_scaling(
        "counter", sizes=(2, 3), budget=SCALING_BUDGET, max_n_cap=8
    )
    text = render_scaling(
        po_series + to_series,
        title="Figure 6 (left): diameter-test cost vs length, counter<N>",
    )
    save("fig6_counter_scaling.txt", text)

    for po_s, to_s in zip(po_series, to_series):
        po_total = sum(c for _, c, _ in po_s.points)
        to_total = sum(c for _, c, _ in to_s.points)
        # Shape: PO at least as cheap in total and never solving fewer
        # lengths than TO.
        assert po_total <= to_total * 1.3, (po_s.model_name, po_total, to_total)
        assert (po_s.largest_solved or -1) >= (to_s.largest_solved or -1)


def test_fig6_semaphore_scaling(benchmark):
    phi = diameter_qbf(CounterModel(2), 2, "tree")
    benchmark.pedantic(lambda: solve_po(phi, budget=SCALING_BUDGET), rounds=1, iterations=1)

    po_series, to_series = run_dia_scaling(
        "semaphore", sizes=(1, 2, 3), budget=SCALING_BUDGET, max_n_cap=4
    )
    text = render_scaling(
        po_series + to_series,
        title="Figure 6 (right): diameter-test cost vs length, semaphore<N>",
    )
    save("fig6_semaphore_scaling.txt", text)

    po_total = sum(c for s in po_series for _, c, _ in s.points)
    to_total = sum(c for s in to_series for _, c, _ in s.points)
    assert po_total <= to_total * 1.3, (po_total, to_total)
