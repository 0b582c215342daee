"""k-SAT decision: complete search within a budget, boosted random walk
beyond it.

`decide` first propagates unit clauses, then runs a DPLL search on the
residual under a node budget equal to the walk's boost count for the same
query. A search that completes is exact in both directions: NoSolutionFound
is certain and a witness satisfies the formula by construction. When the
budget runs out, the query falls back to the paper's subroutine, the boosted
walk: `walk_try` is a single random-walk attempt (uniform start, then up to
walk_length_factor * n steps, each flipping a uniformly chosen variable of a
uniformly chosen unsatisfied clause), and enough independent tries run that
the miss probability drops below a caller-chosen delta, using the walk's
per-try success bound (k / (2(k-1)))^n. A walk witness is verified against
the formula before it leaves this module, so a Solution outcome is never
wrong; a walk NoSolutionFound may be a miss.

Also hosts the exponent constants: the series mu_k and the subroutine
exponents beta_k used for cutoff computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from .formula import (
    Assignment,
    CnfFormula,
    GuardError,
    bits_to_assignment,
    evaluate_bits,
    is_tautology,
    restrict_clauses,
    unit_propagate,
    _branch_variable,
)

BETA_ANALYSIS = "analysis"
BETA_DETERMINISTIC = "deterministic"
BETA_SUBROUTINE = "subroutine"

# Moser-Scheder derandomized-walk exponent for 3-SAT.
MOSER_SCHEDER_BETA3 = 0.4151

# Which stage settled a query (SatOutcome.decider).
PROPAGATION = "propagation"
SEARCH = "search"
WALK = "walk"


@dataclass(frozen=True)
class SolverConfig:
    walk_length_factor: int = 3
    # Boost-count ceiling: above it decide degrades to best-effort and says so.
    # The complete search gets the same budget in nodes.
    max_tries: int = 500_000

    def __post_init__(self):
        if self.max_tries < 1 or self.walk_length_factor < 1:
            raise ValueError("walk_length_factor and max_tries must be >= 1")


@dataclass(frozen=True)
class SatOutcome:
    """Solution(witness) when `witness` is set, NoSolutionFound otherwise.

    `decider` names the stage that settled the query: PROPAGATION, SEARCH or
    WALK. Only a WALK answer can be wrong, and `tries_used` counts the walk
    tries it was given (0 for the other deciders). `rigorous` is False when
    the walk's boost count was capped, i.e. the miss probability of a
    NoSolutionFound answer may exceed the requested delta.
    """

    witness: Assignment | None
    decider: str
    tries_used: int = 0
    rigorous: bool = True

    @property
    def found(self) -> bool:
        return self.witness is not None


DEFAULT_CONFIG = SolverConfig()


def compute_mu(k: int, tol: float) -> float:
    """Partial sum of sum_{j>=1} 1/(j(j + 1/(k-1))) truncated at
    J = ceil(1/tol) terms, so the dropped tail is below 1/J <= tol.

    The J-term partial sum telescopes to a digamma difference, which is what
    is evaluated here; the value is identical to term-by-term summation.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = 1.0 / (k - 1)
    j_stop = math.ceil(1.0 / tol)
    partial = (k - 1) * (
        digamma(j_stop + 1) - digamma(j_stop + 1 + a) + digamma(1 + a) + np.euler_gamma
    )
    return float(partial)


def schoening_success_bound(k: int, n: int) -> float:
    """Worst-case per-try success probability of the walk on a satisfiable
    k-CNF with n variables: (k / (2(k-1)))^n."""
    if n <= 0:
        return 1.0
    return (k / (2.0 * (k - 1))) ** n


def beta_for(k: int, kind: str = BETA_ANALYSIS, tol: float = 1e-12) -> float:
    """Subroutine running-time exponent beta_k (time O*(2^{beta_k n})).

    "analysis": 1 - mu_k/(k-1), the PPSZ-type constant used for cutoff
    optimization. "deterministic": the derandomized-walk constant, 0.4151
    for k=3 and log2(2(k-1)/k) in general. "subroutine": the honest exponent
    of the implemented random walk, log2(2(k-1)/k).
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if kind == BETA_ANALYSIS:
        return 1.0 - compute_mu(k, tol) / (k - 1)
    if kind == BETA_DETERMINISTIC:
        if k == 3:
            return MOSER_SCHEDER_BETA3
        return math.log2(2.0 * (k - 1) / k)
    if kind == BETA_SUBROUTINE:
        return math.log2(2.0 * (k - 1) / k)
    raise ValueError(f"unknown beta kind {kind!r}")


def split_seed(seed: int, salt: int) -> int:
    """Deterministic 63-bit child seed (splitmix64-style mix)."""
    z = (seed * 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9 + 1) & (2**64 - 1)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return (z ^ (z >> 31)) & (2**63 - 1)


def _clause_tables(clauses, n: int):
    """Numpy tables for the vectorized walk; requires n <= 62."""
    if n > 62:
        raise GuardError(f"random walk fast path supports n <= 62, got n={n}")
    m = len(clauses)
    pos = np.zeros(m, dtype=np.uint64)
    neg = np.zeros(m, dtype=np.uint64)
    kmax = max(len(c) for c in clauses)
    vars0 = np.zeros((m, kmax), dtype=np.uint64)
    lens = np.zeros(m, dtype=np.int64)
    for i, clause in enumerate(clauses):
        for j, lit in enumerate(clause):
            vars0[i, j] = abs(lit) - 1
            if lit > 0:
                pos[i] |= np.uint64(1 << (abs(lit) - 1))
            else:
                neg[i] |= np.uint64(1 << (abs(lit) - 1))
        lens[i] = len(clause)
    return pos, neg, vars0, lens


def _walk_batch(clauses, tries: int, steps: int, rng, rand_mask: int, fixed_bits: int):
    """Run `tries` independent walks in lockstep; first satisfying assignment
    wins. Returns its packed bits, or None when every try ran out of steps."""
    n_bits = max(rand_mask.bit_length(), fixed_bits.bit_length(), 1)
    pos, neg, vars0, lens = _clause_tables(clauses, n_bits)
    mask = np.uint64(rand_mask)
    fixed = np.uint64(fixed_bits)
    assigns = (rng.integers(0, 2**63, size=tries, dtype=np.uint64) & mask) | fixed
    one = np.uint64(1)
    for step in range(steps + 1):
        sat = ((assigns[:, None] & pos) != 0) | ((~assigns[:, None] & neg) != 0)
        all_sat = sat.all(axis=1)
        hit = int(np.argmax(all_sat))
        if all_sat[hit]:
            return int(assigns[hit])
        if step == steps:
            break
        unsat = ~sat
        counts = unsat.sum(axis=1)
        pick = (rng.random(tries) * counts).astype(np.int64)
        chosen = (unsat.cumsum(axis=1) > pick[:, None]).argmax(axis=1)
        slot = (rng.random(tries) * lens[chosen]).astype(np.int64)
        flip_var = vars0[chosen, slot]
        assigns ^= one << flip_var
    return None


def _dpll_witness(clauses, budget: int) -> tuple[dict[int, int] | None, bool]:
    """Depth-first DPLL search with unit propagation for one satisfying
    assignment of a clause list (tautologies assumed filtered), visiting at
    most `budget` nodes. Returns (choices, complete): the forcing/branching
    choices of a solution, or None; `complete` says whether the search
    finished, i.e. whether None proves the clauses unsatisfiable."""
    # A node still to visit: its parent's residual, the choices that led to
    # the parent, and the branch to apply to it. Branch 0 is visited first.
    stack = [(clauses, {}, {})]
    for _ in range(budget):
        if not stack:
            return None, True
        parent, choices, branch = stack.pop()
        residual, forced, conflict = unit_propagate(restrict_clauses(parent, branch))
        if conflict:
            continue
        choices = {**choices, **branch, **forced}
        if not residual:
            return choices, True
        var = _branch_variable(residual)
        stack.append((residual, choices, {var: 1}))
        stack.append((residual, choices, {var: 0}))
    return None, not stack


def _assemble_witness(n: int, base: dict[int, int], bits: int = 0) -> int:
    x = bits
    for var, val in base.items():
        if val:
            x |= 1 << (var - 1)
        else:
            x &= ~(1 << (var - 1))
    return x


def walk_try(
    formula: CnfFormula, k: int, seed: int, config: SolverConfig = DEFAULT_CONFIG
) -> SatOutcome:
    """One random-walk attempt. Never wrong when it reports a Solution."""
    if formula.n < 1:
        raise ValueError("walk needs at least one variable")
    live = [c for c in formula.clauses if not is_tautology(c)]
    rng = np.random.default_rng(seed)
    if not live:
        bits = int(rng.integers(0, 1 << formula.n)) if formula.n <= 62 else 0
        return SatOutcome(bits_to_assignment(bits, formula.n), WALK, tries_used=1)
    if any(len(c) == 0 for c in live):
        return SatOutcome(None, PROPAGATION)
    bits = _walk_batch(
        live,
        tries=1,
        steps=config.walk_length_factor * formula.n,
        rng=rng,
        rand_mask=(1 << formula.n) - 1,
        fixed_bits=0,
    )
    if bits is None:
        return SatOutcome(None, WALK, tries_used=1)
    assert evaluate_bits(formula, bits)
    return SatOutcome(bits_to_assignment(bits, formula.n), WALK, tries_used=1)


def boost_count(k: int, n_active: int, delta: float, config: SolverConfig) -> tuple[int, bool]:
    """Tries needed so the walk's miss bound (1-q)^M drops below delta,
    capped at the configured ceiling. Returns (tries, rigorous)."""
    q = schoening_success_bound(k, n_active)
    if q >= 1.0:
        return 1, True
    need = math.log(1.0 / delta) / -math.log1p(-q)
    tries = max(1, math.ceil(need))
    if tries > config.max_tries:
        return config.max_tries, False
    return tries, True


def decide(
    formula: CnfFormula,
    k: int,
    delta: float,
    seed: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> SatOutcome:
    """SAT decision, exact when a complete search fits the budget.

    Unit propagation runs first: a conflict is a certain NoSolutionFound,
    and an empty residual a solution. The residual then gets a DPLL search
    of at most as many nodes as the walk's boost count for this query; if
    it completes, the answer is exact either way and `rigorous` is True.
    Otherwise the boosted walk decides the residual with one-sided error:
    unsatisfiable input is never reported satisfiable, and satisfiable
    input yields a verified witness with probability >= 1 - delta, provided
    the boost count was not capped (outcome.rigorous says so).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    return _decide_clauses(list(formula.clauses), formula.n, k, delta, seed, config, formula)


def _solution(n, bits, check_formula, decider, tries_used=0, rigorous=True) -> SatOutcome:
    if check_formula is not None:
        assert evaluate_bits(check_formula, bits)
    return SatOutcome(bits_to_assignment(bits, n), decider, tries_used, rigorous)


def _decide_clauses(clauses, n, k, delta, seed, config, check_formula=None) -> SatOutcome:
    live = [c for c in clauses if not is_tautology(c)]
    if any(len(c) == 0 for c in live):
        return SatOutcome(None, PROPAGATION)
    live, forced, conflict = unit_propagate(live)
    if conflict:
        return SatOutcome(None, PROPAGATION)
    if not live:
        return _solution(n, _assemble_witness(n, forced), check_formula, PROPAGATION)

    active = sorted({abs(l) for c in live for l in c})
    # One search node costs about one walk try, so the search gets the
    # walk's budget.
    tries, rigorous = boost_count(k, len(active), delta, config)
    found, complete = _dpll_witness(live, tries)
    if complete:
        if found is None:
            return SatOutcome(None, SEARCH)
        bits = _assemble_witness(n, {**forced, **found})
        return _solution(n, bits, check_formula, SEARCH)

    rand_mask = 0
    for var in active:
        rand_mask |= 1 << (var - 1)
    fixed_bits = _assemble_witness(n, forced)
    rng = np.random.default_rng(seed)
    bits = _walk_batch(
        live,
        tries=tries,
        steps=config.walk_length_factor * len(active),
        rng=rng,
        rand_mask=rand_mask,
        fixed_bits=fixed_bits & ~rand_mask,
    )
    if bits is None:
        return SatOutcome(None, WALK, tries_used=tries, rigorous=rigorous)
    return _solution(n, bits, check_formula, WALK, tries, rigorous)


def constants_row(k: int) -> dict:
    """One row of the (k, mu_k, beta) constants table."""
    mu = compute_mu(k, 1e-9)
    beta = beta_for(k, BETA_ANALYSIS)
    return {
        "k": k,
        "mu": mu,
        "beta_analysis": beta,
        "beta_deterministic": beta_for(k, BETA_DETERMINISTIC),
        "beta_subroutine": beta_for(k, BETA_SUBROUTINE),
        "growth": 2.0 ** (1.0 / (2.0 - beta)),
    }
