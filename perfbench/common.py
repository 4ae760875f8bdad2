"""Paths, statistics and the item record shared by every benchmark module.

The benchmark runs from the root of a checkout: the program under test is
``src/repro`` there, and everything the benchmark builds or writes lives
under ``.bench_build/perfbench`` (ignored by git).
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
NATIVE_SOURCE = os.path.join(SRC, "repro", "_native.c")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REPORT_DIR = os.path.join(BUILD_DIR, "reports")

WORKLOADS = ("fig6-search", "table1-cli", "serve-mix", "parallel")

#: environment knobs that would silently change what is measured; the
#: benchmark refuses to start while any of them is set.
PINNED_KNOBS = ("REPRO_ENGINE", "REPRO_PARADIGM", "REPRO_PARANOID", "REPRO_REQUIRE_NATIVE")


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


def refuse_env_knobs(environ=os.environ) -> None:
    set_knobs = [k for k in PINNED_KNOBS if environ.get(k, "") != ""]
    if set_knobs:
        raise BenchError(
            "refusing to run with %s set: the benchmark pins engine, paradigm "
            "and strictness itself" % ", ".join(set_knobs)
        )


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError("no program to measure: %s is missing" % os.path.join(SRC, "repro"))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@dataclass
class Item:
    """One timed unit of work: a solve, a CLI invocation or a request."""

    key: str
    seconds: float
    outcome: str = "unknown"  # "true" / "false" / "unknown"
    decisions: int = 0
    #: why the item failed (crash, structured refusal, engine fallback);
    #: None when it ran. Wrong verdicts are found later, against the oracle.
    error: Optional[str] = None
    #: what the oracle must confirm: the instance key whose truth the
    #: outcome is checked against (None: nothing to check).
    truth_key: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)
    #: ``time.perf_counter()`` when the item began, so its time can be
    #: scaled by the host pace measured around it (pace.py).
    started: Optional[float] = None
    #: that scale, set by the run once its passes are done.
    pace: float = 1.0

    @property
    def decided(self) -> bool:
        return self.error is None and self.outcome in ("true", "false")


def no_tick() -> None:
    """The pace hook of ``run_pass`` when nothing probes the host."""


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile (0 < q < 1): a
    weighted mean of all order statistics, beta-distributed weights around
    rank ``q * n``. Unlike interpolating between the two nearest values it
    does not jump when a sample crosses a gap in the distribution."""
    if not values:
        return float("nan")
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(xs))


def betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300

    def clamp(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / clamp(1.0 + num * d)
            c = clamp(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
