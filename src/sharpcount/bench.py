"""Benchmark records and runtime-exponent fitting.

The scaling diagnostic fits a least-squares line through (n, log2 of the
median wall time over trials) and reports the slope next to the theoretical
exponent of the mode under test. Medians, not means: the randomized
subroutines have heavy upper tails.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RunRecord:
    n: int
    m: int
    k: int
    seed: int
    command: str
    params: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    wall_time: float = 0.0


@dataclass(frozen=True)
class ScalingFit:
    points: tuple[tuple[int, float], ...]  # (n, median wall time)
    slope: float
    intercept: float
    residual: float


def fit_exponent(records) -> ScalingFit:
    """Least-squares slope of log2(median time) against n.

    Needs at least 4 distinct n values with at least 3 trials each.
    """
    by_n: dict[int, list[float]] = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec.wall_time)
    if len(by_n) < 4:
        raise ValueError(f"need >= 4 distinct n values, got {len(by_n)}")
    thin = [n for n, times in by_n.items() if len(times) < 3]
    if thin:
        raise ValueError(f"need >= 3 trials per n, too few at n={sorted(thin)}")
    points = tuple((n, statistics.median(times)) for n, times in sorted(by_n.items()))
    ns = np.array([p[0] for p in points], dtype=float)
    logs = np.log2([max(p[1], 1e-12) for p in points])
    (slope, intercept), residuals, *_ = np.polyfit(ns, logs, 1, full=True)
    residual = float(residuals[0]) if len(residuals) else 0.0
    return ScalingFit(points=points, slope=float(slope), intercept=float(intercept), residual=residual)
