"""The hybrid counting scheme: enumerate exactly below the cutoff, Monte
Carlo sample above it.

The cutoff N = ceil(2^{fn}) with f = (1-beta)/(2-beta) balances the two
phases' exponents. A MoreThan verdict from the enumeration certifies
#F > N. The sampled phase then runs the stopping rule of Dagum, Karp, Luby
and Ross ("An optimal algorithm for Monte Carlo estimation", SIAM J.
Comput. 29(5), 2000): it draws uniform assignments until it has a fixed
number of hits. It needs about 2^n/#F samples per hit in expectation,
which the certified floor keeps below 2^n/N.

`sample_estimate` is the paper's fixed-T estimator: T = ceil(8 * 2^n /
(eps^2 N)) uniform samples keep the relative error within e^eps with
probability >= 3/4 (Chebyshev with the explicit constant 8).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    BETA_ANALYSIS,
    SolverConfig,
    beta_for,
    check_width,
    split_seed,
)
from .enumeration import count_up_to
from .formula import SLICE_WORDS, CnfFormula, GuardError
from .upper import upper_bound

EXACT_MODE = "exact_enumeration"
SAMPLED_MODE = "monte_carlo_sampled"

# The Chebyshev constant of the sample size T.
MC_CONSTANT = 8.0
# Failure probability of the sampled phase, the paper's 1/4.
MC_DELTA = 0.25
# Most samples either estimator draws in one call.
SAMPLE_CEILING = 50_000_000


@dataclass(frozen=True)
class SchemeConfig:
    beta: float | None = None  # default: analysis constant of the call's k
    enum_delta: float = 1.0 / 12.0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def resolved_beta(self, k: int) -> float:
        beta = self.beta if self.beta is not None else beta_for(k, BETA_ANALYSIS)
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0,1), got {beta}")
        return beta


@dataclass(frozen=True)
class ApproxResult:
    """`certified` is False when an exact count rests on a SAT query whose
    walk boost count was capped (best effort); a sampled estimate rests on
    a certain MoreThan verdict and is always certified."""

    estimate: float
    mode: str
    cutoff: int
    epsilon: float
    seed: int
    sample_count: int | None
    elapsed: float
    certified: bool


def _pow2(exponent: float) -> float:
    """2.0**exponent; GuardError where that leaves the float range."""
    try:
        return 2.0**exponent
    except OverflowError:
        raise GuardError(
            f"2^{exponent:g} exceeds the float range (floats end below 2^{sys.float_info.max_exp})"
        ) from None


def crossover_fraction(beta: float) -> float:
    """f = (1-beta)/(2-beta): the unique f with beta + f(1-beta) = 1 - f."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    return (1.0 - beta) / (2.0 - beta)


def cutoff(k: int, beta: float, n: int) -> int:
    """Enumeration/sampling threshold N = ceil(2^{fn}), saturating at 2^n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    f = crossover_fraction(beta)
    exponent = f * n
    if exponent >= n:
        return 1 << n
    return min(math.ceil(_pow2(exponent)), 1 << n)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def sample_size(n: int, epsilon: float, n_floor: int) -> int:
    return math.ceil(MC_CONSTANT * _pow2(n) / (epsilon**2 * n_floor))


def sample_estimate(formula: CnfFormula, epsilon: float, n_floor: int, seed: int) -> float:
    """X * 2^n / T for X hits among T uniform assignments, drawn bit-sliced
    as uniform words (the last word's unused bits masked off).

    The caller guarantees #F > n_floor; T is sized so the result is an
    e^epsilon-approximation with probability >= 3/4 under that guarantee.
    """
    _check_epsilon(epsilon)
    if n_floor < 1:
        raise ValueError(f"n_floor must be >= 1, got {n_floor}")
    n = formula.n
    scale = _pow2(n)
    # T > ceiling, compared without dividing by an eps^2 that may underflow.
    if MC_CONSTANT * scale > SAMPLE_CEILING * epsilon**2 * n_floor:
        raise GuardError(f"sample size T exceeds the ceiling of {SAMPLE_CEILING} samples")
    trials = sample_size(n, epsilon, n_floor)
    rng = np.random.default_rng(seed % 2**64)
    words = -(-trials // 64)
    hits = 0
    for start in range(0, words, SLICE_WORDS):
        width = min(SLICE_WORDS, words - start)
        block = rng.integers(0, 2**64, size=(n, width), dtype=np.uint64)
        sat = formula.satisfying_words(block)
        if start + width == words and trials % 64:
            sat[-1] &= np.uint64((1 << trials % 64) - 1)
        hits += int(np.bitwise_count(sat).sum())
    return hits / trials * scale


def stopping_rule_estimate(formula: CnfFormula, epsilon: float, seed: int) -> tuple[float, int]:
    """(Upsilon * 2^n / tau, tau): the Dagum-Karp-Luby-Ross stopping rule.

    Uniform assignments are drawn in the blocks of `sample_estimate`, with
    assignment 64w+t at bit t of word w. tau is the 1-based index of the
    ceil(Upsilon)-th satisfying one, for Upsilon = 1 + (1+r) 4(e-2)
    ln(2/delta) / r^2 with r = 1 - exp(-epsilon) and delta = `MC_DELTA`.
    Since [1-r, 1+r] lies inside [e^-epsilon, e^epsilon], the rule's theorem
    makes the estimate an e^epsilon-approximation of #F with probability
    > 3/4, and bounds E[tau] <= Upsilon * 2^n / #F. Behind a certified
    #F > N, E[tau] < Upsilon * 2^n / N: at epsilon = 0.2 (216 hits) that is
    about 1.08 times the paper's T = 8 * 2^n / (eps^2 N) at worst, and
    typically 1.08 T N / #F.

    Raises GuardError up front when 2^n leaves the float range or the hit
    target alone exceeds `SAMPLE_CEILING`, and when tau would exceed it.
    """
    _check_epsilon(epsilon)
    n = formula.n
    scale = _pow2(n)
    r = -math.expm1(-epsilon)
    spread = (1.0 + r) * 4.0 * (math.e - 2.0) * math.log(2.0 / MC_DELTA)
    # Upsilon > ceiling, compared without dividing by an r^2 that may underflow.
    if spread > (SAMPLE_CEILING - 1) * r**2:
        raise GuardError(f"epsilon={epsilon} needs more than {SAMPLE_CEILING} hits")
    upsilon = 1.0 + spread / r**2
    target = math.ceil(upsilon)
    need = target
    rng = np.random.default_rng(seed % 2**64)
    for drawn in range(0, SAMPLE_CEILING, 64 * SLICE_WORDS):
        block = rng.integers(0, 2**64, size=(n, SLICE_WORDS), dtype=np.uint64)
        sat = formula.satisfying_words(block)
        hits = np.cumsum(np.bitwise_count(sat), dtype=np.int64)
        if hits[-1] < need:
            need -= int(hits[-1])
            continue
        w = int(np.searchsorted(hits, need))
        word = int(sat[w])
        for _ in range(need - 1 - (int(hits[w - 1]) if w else 0)):
            word &= word - 1  # clear the hits before the one sought
        tau = drawn + 64 * w + (word & -word).bit_length()
        if tau <= SAMPLE_CEILING:
            return upsilon / tau * scale, tau
        break
    raise GuardError(f"fewer than {target} hits in {SAMPLE_CEILING} samples")


def approximate_count(
    formula: CnfFormula,
    k: int,
    epsilon: float,
    seed: int,
    config: SchemeConfig | None = None,
) -> ApproxResult:
    """Randomized e^epsilon-approximation of #F (success >= 3/4 less the
    enumeration delta budget).

    The enumeration counts #F exactly up to the cutoff N. Above it, its
    MoreThan verdict is certain and `stopping_rule_estimate` samples;
    `sample_count` is then the number of samples it drew: at epsilon = 0.2
    about 216 * 2^n / #F in expectation, which #F > N keeps below
    216 * 2^n / N.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    _check_epsilon(epsilon)
    cfg = config or SchemeConfig()
    started = time.perf_counter()
    threshold = cutoff(k, cfg.resolved_beta(k), formula.n)
    result, _stats = count_up_to(
        formula, k, threshold, cfg.enum_delta, split_seed(seed, 1), cfg.solver
    )
    if result.is_exact:
        return ApproxResult(
            estimate=float(result.count),
            mode=EXACT_MODE,
            cutoff=threshold,
            epsilon=epsilon,
            seed=seed,
            sample_count=None,
            elapsed=time.perf_counter() - started,
            certified=result.certified,
        )
    estimate, drawn = stopping_rule_estimate(formula, epsilon, split_seed(seed, 2))
    return ApproxResult(
        estimate=estimate,
        mode=SAMPLED_MODE,
        cutoff=threshold,
        epsilon=epsilon,
        seed=seed,
        sample_count=drawn,
        elapsed=time.perf_counter() - started,
        certified=True,
    )


def sixteen_approx(
    formula: CnfFormula,
    k: int,
    mu: int,
    seed: int,
    config: SchemeConfig | None = None,
) -> float:
    """Factor-16 approximation: the linear-system upper bound when it landed
    strictly above mu, otherwise exact enumeration up to 2^{mu+3}."""
    check_width(formula, k)
    cfg = config or SchemeConfig()
    ub = upper_bound(formula, mu, split_seed(seed, 1))
    if ub.u > mu:
        return _pow2(ub.u)
    budget = 1 << (mu + 3)
    result, _stats = count_up_to(
        formula, k, budget, cfg.enum_delta, split_seed(seed, 2), cfg.solver
    )
    if result.is_exact:
        return float(result.count)
    return float(budget)
