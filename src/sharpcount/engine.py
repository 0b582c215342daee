"""k-SAT decision: complete search within a budget, boosted random walk
beyond it.

`decide` first propagates unit clauses, then runs a DPLL search on the
residual under a node budget equal to the walk's boost count for the same
query. A search that completes is exact in both directions: NoSolutionFound
is certain and a witness satisfies the formula by construction. Propagation
and search run on a `SearchState`, which the enumeration shares: the clause
list stays fixed, and a trail of true literals with per-clause counters and
occurrence lists stands for the residual, so a node costs an assignment, its
propagation and an undo, in time proportional to the clauses its literals
occur in, instead of a new clause list. When the
budget runs out, the query falls back to the paper's subroutine, the boosted
walk: `walk_try` is a single random-walk attempt (uniform start, then up to
WALK_STEPS_PER_VAR * n = 3n steps, each flipping a uniformly chosen variable
of a uniformly chosen unsatisfied clause), and enough independent tries run
that the miss probability drops below a caller-chosen delta, using the walk's
per-try success bound (k / (2(k-1)))^n. The walk numbers the variables that
occur in its clauses itself, so it takes up to 62 of them whatever their
numbers; it gets the residual as a clause list. A `SearchState` drops
tautologies when it is built, and restriction never creates one. `decide`
and `walk_try` check every witness they return against the formula, so a
Solution outcome is never wrong; a walk NoSolutionFound may be a miss. The
enumeration's witnesses need no check: the walk checks every residual
clause, and the state's assignment satisfies the closed ones. The success
bound holds for k-CNF only, so a formula with a clause wider than k is
rejected where it enters.

Also hosts the exponent constants: the series mu_k, whose partial sum is a
digamma difference evaluated by `_digamma` here (the package needs numpy
only), and the subroutine exponents beta_k used for cutoff computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formula import (
    Assignment,
    CnfFormula,
    GuardError,
    evaluate,
    is_tautology,
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


# Walk length: steps per active variable of a try.
WALK_STEPS_PER_VAR = 3


@dataclass(frozen=True)
class SolverConfig:
    # Boost-count ceiling: above it decide degrades to best-effort and says so.
    # The complete search gets the same budget in nodes.
    max_tries: int = 500_000

    def __post_init__(self):
        if self.max_tries < 1:
            raise ValueError("max_tries must be >= 1")


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


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence psi(x) = psi(x+1) - 1/x up to
    x >= 16, then the asymptotic series ln x - 1/(2x) - sum B_2j/(2j x^2j)
    through the x^-10 term (Abramowitz-Stegun 6.3.18)."""
    shift = 0.0
    while x < 16.0:
        shift -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 * (1 / 240 - inv2 / 132))))
    return shift + math.log(x) - 0.5 / x - series


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
    return (k - 1) * (
        _digamma(j_stop + 1) - _digamma(j_stop + 1 + a) + _digamma(1 + a) + np.euler_gamma
    )


def schoening_success_bound(k: int, n: int) -> float:
    """Worst-case per-try success probability of the walk on a satisfiable
    k-CNF with n variables: (k / (2(k-1)))^n."""
    if n <= 0:
        return 1.0
    return (k / (2.0 * (k - 1))) ** n


def beta_for(k: int, kind: str = BETA_ANALYSIS) -> float:
    """Subroutine running-time exponent beta_k (time O*(2^{beta_k n})).

    "analysis": 1 - mu_k/(k-1), the PPSZ-type constant used for cutoff
    optimization. "deterministic": the derandomized-walk constant, 0.4151
    for k=3 and log2(2(k-1)/k) in general. "subroutine": the honest exponent
    of the implemented random walk, log2(2(k-1)/k).
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if kind == BETA_ANALYSIS:
        return 1.0 - compute_mu(k, 1e-12) / (k - 1)
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


def _walk_batch(clauses, tries: int, steps: int, rng) -> dict[int, int] | None:
    """Run `tries` independent walks in lockstep, each from a uniform start
    over the variables that occur in `clauses`; the first satisfying
    assignment wins. Returns it as {var: value} over those variables, or
    None when every try ran out of steps."""
    # The walk numbers the active variables 0..a-1 and packs each try's
    # assignment into one uint64.
    active = sorted({abs(l) for c in clauses for l in c})
    if len(active) > 62:
        raise GuardError(f"random walk supports <= 62 active variables, got {len(active)}")
    index = {var: i for i, var in enumerate(active)}
    m = len(clauses)
    pos = np.zeros(m, dtype=np.uint64)
    neg = np.zeros(m, dtype=np.uint64)
    lens = np.array([len(c) for c in clauses], dtype=np.int64)
    vars0 = np.zeros((m, lens.max(initial=1)), dtype=np.uint64)
    for i, clause in enumerate(clauses):
        for j, lit in enumerate(clause):
            vars0[i, j] = index[abs(lit)]
            if lit > 0:
                pos[i] |= np.uint64(1 << index[lit])
            else:
                neg[i] |= np.uint64(1 << index[-lit])
    mask = np.uint64((1 << len(active)) - 1)
    assigns = rng.integers(0, 2**63, size=tries, dtype=np.uint64) & mask
    one = np.uint64(1)
    for step in range(steps + 1):
        sat = ((assigns[:, None] & pos) != 0) | ((~assigns[:, None] & neg) != 0)
        all_sat = sat.all(axis=1)
        hit = int(np.argmax(all_sat))
        if all_sat[hit]:
            bits = int(assigns[hit])
            return {var: (bits >> i) & 1 for i, var in enumerate(active)}
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


class SearchState:
    """One clause list under a partial assignment that grows and shrinks on a
    trail, for the complete search and the enumeration.

    Inside, literal l is the code 2|l| + (l < 0), so -l is code ^ 1 and codes
    sort like variables. The clauses (each sorted by variable) are kept as
    code tuples without the tautologies; what changes is bookkeeping over
    them:
    - `value[code]` is True, False or None (unassigned);
    - `occ[code]` lists the clauses that hold the literal;
    - `rank[c]` packs clause c's counts: t true literals, and for an open
      clause (t = 0) f unassigned ones with x the first of them, into
      t * satisfied + f * width + x; 0 marks an empty (falsified) clause.
      A satisfied clause keeps the lower part it had when its first true
      literal was set, so undoing that literal restores it, and min(rank)
      is the branch clause;
    - `n_open` and `n_empty` count open and empty clauses;
    - `units` holds every open clause with one unassigned literal, plus
      stale entries that `propagate` skips;
    - `trail` holds the codes of the true literals in assignment order.

    `assign` and `undo_to` update all of it in time proportional to the
    clauses the literal occurs in.
    """

    def __init__(self, n: int, clauses):
        self.n = n
        self.width = width = 2 * n + 2
        self.clauses = [
            tuple(_code(l) for l in clause) for clause in clauses if not is_tautology(clause)
        ]
        self.satisfied = (max(map(len, self.clauses), default=0) + 1) * width
        self.value: list[bool | None] = [None] * width
        self.occ: list[list[int]] = [[] for _ in range(width)]
        for c, clause in enumerate(self.clauses):
            for x in clause:
                self.occ[x].append(c)
        self.rank = [len(clause) * width + clause[0] if clause else 0 for clause in self.clauses]
        self.n_open = len(self.clauses)
        self.n_empty = self.rank.count(0)
        self.units = [c for c, clause in enumerate(self.clauses) if len(clause) == 1]
        self.trail: list[int] = []

    def assign(self, lit: int) -> None:
        """Make the unassigned literal `lit` true."""
        self._set(_code(lit))

    def _set(self, x: int) -> None:
        value, rank, satisfied = self.value, self.rank, self.satisfied
        value[x] = True
        value[x ^ 1] = False
        self.trail.append(x)
        closed = 0
        for c in self.occ[x]:
            r = rank[c]
            if r < satisfied:
                closed += 1
            rank[c] = r + satisfied
        self.n_open -= closed
        width = self.width
        y = x ^ 1
        for c in self.occ[y]:
            r = rank[c]
            if r >= satisfied:
                continue
            r -= width
            if r < width:
                rank[c] = 0
                self.n_empty += 1
                continue
            if r % width == y:
                # The first unassigned literal went; the next one is first.
                for first in self.clauses[c]:
                    if value[first] is None:
                        break
                r += first - y
            rank[c] = r
            if r < 2 * width:
                self.units.append(c)

    def undo_to(self, length: int) -> None:
        """Unassign the trail's literals back to its first `length`."""
        value, rank, satisfied = self.value, self.rank, self.satisfied
        width, trail, units = self.width, self.trail, self.units
        opened = emptied = 0
        for x in reversed(trail[length:]):
            y = x ^ 1
            value[x] = value[y] = None
            for c in self.occ[y]:
                r = rank[c]
                if r >= satisfied:
                    continue
                if r < width:
                    # Back to a unit whose queue entry is still there:
                    # `propagate` pops nothing while a clause is empty.
                    emptied += 1
                    rank[c] = width + y
                elif r % width > y:
                    rank[c] = r + width - r % width + y
                else:
                    rank[c] = r + width
            for c in self.occ[x]:
                r = rank[c] - satisfied
                rank[c] = r
                if r < satisfied:
                    opened += 1
                    if r < 2 * width:
                        units.append(c)
        del trail[length:]
        self.n_open += opened
        self.n_empty -= emptied

    def propagate(self) -> bool:
        """Assign the literal of every unit clause until none is left.
        Returns True on a conflict (an empty clause), which may leave units
        unassigned."""
        units, rank, width = self.units, self.rank, self.width
        while not self.n_empty:
            if not units:
                return False
            x = rank[units.pop()] - width
            if 0 < x < width:
                self._set(x)
        return True

    def branch_variable(self) -> int:
        """`_branch_variable` of the residual: the smallest variable of a
        shortest open clause. Needs an open clause and no empty one."""
        return min(self.rank) % self.width >> 1

    def residual(self) -> list[tuple[int, ...]]:
        """The open clauses without their false literals, as
        `restrict_clauses` gives them."""
        value, satisfied = self.value, self.satisfied
        return [
            tuple(-(x >> 1) if x & 1 else x >> 1 for x in clause if value[x] is None)
            for clause, r in zip(self.clauses, self.rank)
            if r < satisfied
        ]

    def active_count(self) -> int:
        """How many unassigned variables occur in open clauses."""
        satisfied = self.satisfied
        codes: set[int] = set()
        for clause, r in zip(self.clauses, self.rank):
            if r < satisfied:
                codes.update(clause)
        return len({x >> 1 for x in codes if self.value[x] is None})

    def witness(self, extra=None) -> Assignment:
        """The assignment with `extra` ({var: value}) on top; unset variables
        read 0."""
        values = [1 if self.value[2 * var] else 0 for var in range(self.n + 1)]
        for var, val in (extra or {}).items():
            values[var] = val
        return tuple(values[1:])


def _code(lit: int) -> int:
    return 2 * lit if lit > 0 else 1 - 2 * lit


def _dpll_search(state: SearchState, budget: int) -> tuple[bool, bool]:
    """Depth-first DPLL search with unit propagation from the state's
    (propagated) assignment, visiting at most `budget` nodes; branch 0 is
    visited first. Returns (found, complete): on a find the state holds the
    solution, and `complete` says whether the search finished, i.e. whether
    no find proves the residual unsatisfiable."""
    # A node still to visit: the trail length of its parent and the branch
    # literal to assign on top of it; None is the root.
    stack: list[tuple[int, int] | None] = [None]
    for _ in range(budget):
        if not stack:
            return False, True
        node = stack.pop()
        if node is not None:
            state.undo_to(node[0])
            state.assign(node[1])
            if state.propagate():
                continue
        if not state.n_open:
            return True, True
        var = state.branch_variable()
        length = len(state.trail)
        stack.append((length, var))
        stack.append((length, -var))
    return False, not stack


def walk_try(formula: CnfFormula, seed: int) -> SatOutcome:
    """One random-walk attempt. Never wrong when it reports a Solution."""
    if formula.n < 1:
        raise ValueError("walk needs at least one variable")
    live = [c for c in formula.clauses if not is_tautology(c)]
    rng = np.random.default_rng(seed % 2**64)
    # Variables that occur in no live clause keep their uniform start.
    start = rng.integers(0, 2, size=formula.n).tolist()
    hit = _walk_batch(live, tries=1, steps=WALK_STEPS_PER_VAR * formula.n, rng=rng)
    if hit is None:
        return SatOutcome(None, WALK, tries_used=1)
    witness = tuple(hit.get(var, value) for var, value in enumerate(start, 1))
    assert evaluate(formula, witness)
    return SatOutcome(witness, WALK, tries_used=1)


def check_width(formula: CnfFormula, k: int) -> None:
    """Reject a clause wider than k: the walk's boost count assumes k-CNF."""
    if formula.k > k:
        raise ValueError(f"formula has a clause of width {formula.k} > k={k}")


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
    check_width(formula, k)
    outcome = _decide_clauses(SearchState(formula.n, formula.clauses), k, delta, seed, config)
    assert not outcome.found or evaluate(formula, outcome.witness)
    return outcome


def _decide_clauses(state, k, delta, seed, config) -> SatOutcome:
    """`decide` on the state's clauses under its assignment, which a
    witness extends. The state is back at that assignment on return."""
    mark = len(state.trail)
    try:
        if state.propagate():
            return SatOutcome(None, PROPAGATION)
        if not state.n_open:
            return SatOutcome(state.witness(), PROPAGATION)

        root = len(state.trail)
        n_active = state.active_count()
        # The search gets the walk's budget in nodes. One node costs about a
        # fifth of a walk try (n=20, m=85: 17-21 us against 80-95 us), so a
        # spent budget adds at most about a fifth to the walk it falls back to.
        tries, rigorous = boost_count(k, n_active, delta, config)
        found, complete = _dpll_search(state, tries)
        if complete:
            if not found:
                return SatOutcome(None, SEARCH)
            return SatOutcome(state.witness(), SEARCH)

        state.undo_to(root)
        rng = np.random.default_rng(seed % 2**64)
        steps = WALK_STEPS_PER_VAR * n_active
        hit = _walk_batch(state.residual(), tries=tries, steps=steps, rng=rng)
        if hit is None:
            return SatOutcome(None, WALK, tries_used=tries, rigorous=rigorous)
        return SatOutcome(state.witness(hit), WALK, tries, rigorous)
    finally:
        state.undo_to(mark)


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
