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
import random
import sys
import time
from dataclasses import dataclass

from .engine import BETA_ANALYSIS, beta_for, check_width, split_seed
from .enumeration import count_up_to
from .formula import SLICE_BITS, CnfFormula, GuardError
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

    def resolved_beta(self, k: int) -> float:
        """The configured beta, else the analysis constant of k. `cutoff`
        checks its range."""
        return self.beta if self.beta is not None else beta_for(k, BETA_ANALYSIS)


@dataclass(frozen=True, slots=True)
class ApproxResult:
    """`certified` is False when an exact count rests on a SAT query whose
    walk boost count was capped (best effort); a sampled estimate rests on
    a certain MoreThan verdict and is always certified. An exact count's
    `estimate` is the count itself, an int; a sampled one is a float."""

    estimate: int | float
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
    """Enumeration/sampling threshold N = ceil(2^{fn}), at most 2^n since
    f < 1/2."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return math.ceil(_pow2(crossover_fraction(beta) * n))


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def sample_size(n: int, epsilon: float, n_floor: int) -> int:
    return math.ceil(MC_CONSTANT * _pow2(n) / (epsilon**2 * n_floor))


def sample_estimate(formula: CnfFormula, epsilon: float, n_floor: int, seed: int) -> float:
    """X * 2^n / T for X hits among T uniform assignments, drawn bit-sliced:
    each column of a block of width W is `getrandbits(W)` of one stream.

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
    rng = random.Random(seed % 2**64)
    hits = 0
    for start in range(0, trials, SLICE_BITS):
        width = min(SLICE_BITS, trials - start)
        columns = [rng.getrandbits(width) for _ in range(n)]
        hits += formula.satisfying_bits(columns, width).bit_count()
    return hits / trials * scale


def stopping_rule_estimate(formula: CnfFormula, epsilon: float, seed: int) -> tuple[float, int]:
    """(Upsilon * 2^n / tau, tau): the Dagum-Karp-Luby-Ross stopping rule.

    Uniform assignments are drawn in blocks of SLICE_BITS, each column a
    `getrandbits` of one stream. tau is the 1-based index of the
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
    rng = random.Random(seed % 2**64)
    for drawn in range(0, SAMPLE_CEILING, SLICE_BITS):
        columns = [rng.getrandbits(SLICE_BITS) for _ in range(n)]
        sat = formula.satisfying_bits(columns, SLICE_BITS)
        hits = sat.bit_count()
        if hits < need:
            need -= hits
            continue
        # Bisect for the shortest prefix of the block that holds `need` hits.
        low, high = 1, SLICE_BITS
        while low < high:
            mid = (low + high) // 2
            if (sat & ((1 << mid) - 1)).bit_count() < need:
                low = mid + 1
            else:
                high = mid
        tau = drawn + low
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
    check_width(formula, k)
    _check_epsilon(epsilon)
    cfg = config or SchemeConfig()
    started = time.perf_counter()
    threshold = cutoff(k, cfg.resolved_beta(k), formula.n)
    result, _stats = count_up_to(formula, k, threshold, cfg.enum_delta, split_seed(seed, 1))
    if result.is_exact:
        estimate, drawn, mode = result.count, None, EXACT_MODE
    else:
        estimate, drawn = stopping_rule_estimate(formula, epsilon, split_seed(seed, 2))
        mode = SAMPLED_MODE
    # A MoreThan result is certain, so its `certified` is always True.
    return ApproxResult(
        estimate=estimate,
        mode=mode,
        cutoff=threshold,
        epsilon=epsilon,
        seed=seed,
        sample_count=drawn,
        elapsed=time.perf_counter() - started,
        certified=result.certified,
    )


def sixteen_approx(formula: CnfFormula, k: int, mu: int, seed: int) -> int | float:
    """Factor-16 approximation: the linear-system upper bound when it landed
    strictly above mu, otherwise exact enumeration up to 2^{mu+3} with the
    default `SchemeConfig.enum_delta`. At mu = 0 a scan that ends at u = 0
    without `all_sat` has found prefix 0, F itself, unsatisfiable, so the
    answer is 0 without an enumeration. An exact enumeration's answer is its
    integer count. GuardError when the scan's search needs more than
    `upper.MAX_SEARCH_NODES` nodes."""
    check_width(formula, k)
    ub = upper_bound(formula, mu, split_seed(seed, 1))
    if ub.u > mu:
        return _pow2(ub.u)
    if mu == 0 and not ub.all_sat:
        return 0.0
    budget = 1 << (mu + 3)
    result, _stats = count_up_to(formula, k, budget, SchemeConfig.enum_delta, split_seed(seed, 2))
    if result.is_exact:
        return result.count
    return float(budget)
