"""k-SAT decision: complete search within a budget, boosted random walk
beyond it.

`decide` first propagates unit clauses, then runs a DPLL search on the
residual with a node budget equal to the walk's boost count for the query's
free variables. A search that completes is exact in both directions:
NoSolutionFound is certain and a witness satisfies the formula by
construction. Propagation and search run on a `SearchState`, shared with the
enumeration and the upper scan: the clause list stays fixed, and a trail of
true literals stands for the residual. The state keeps sets of clauses as
Python ints, one bit per clause, and each clause's count of unassigned
literals bit-sliced over a few such ints. Its one node step, `enter` (undo
to the parent's trail, assign the branch literal, propagate), costs a few
operations on those ints per literal; undoing restores the ints saved when
the literal was assigned. Every search branches through its
`branch_literal`, the two-sided Jeroslow-Wang rule (Jeroslow and Wang, Ann.
Math. AI 1, 1990): the unassigned variable whose open clauses weigh most, a
clause with f unassigned literals weighing 4^-f, scored afresh at each
branch from the counts. The same pass lists A, the free variables that occur
in open clauses. When |A| <= SWEEP_VARS, `sweep` settles the node, the
small-residual leaf of counting DPLL (Birnbaum and Lozinskii, JAIR 10,
1999), with `open_bits`, the formula's one clause kernel run over the open
clauses, on all 2^|A| assignments of A at once: the search answers with the
model of the lowest set bit and the node's count of models, or, with no bit
set, has refuted the node exactly. When the budget runs out, the query falls
back to the paper's subroutine, the boosted walk, and this fallback is the
only way into it: each try starts uniformly and takes up to
WALK_STEPS_PER_VAR * n = 3n steps, each flipping a uniformly chosen variable
of a uniformly chosen unsatisfied clause, and enough independent tries run
that the miss probability drops below a caller-chosen delta, using the
walk's per-try success bound (k / (2(k-1)))^n over the n variables of the
residual's clauses. Callers pass ln(1/delta), so a delta below the float
range still sizes a boost count. The tries are capped at MAX_TRIES; a capped
answer says so (`rigorous`). The tries run one after another until the first
hit, so the walk's memory does not depend on their number. The walk assigns
the variables that occur in its clauses, however many and whatever their
numbers; it gets the residual as a clause list. A `SearchState` drops
tautologies when it is built, and restriction never creates one; it counts a
literal repeated in a clause once, in propagation and in the branch rule.
`decide` checks every witness it returns against the formula, so a Solution
outcome is never wrong; a walk NoSolutionFound may be a miss. The
enumeration gets its witnesses without that check: the walk checks every
residual clause, and the state's assignment satisfies the closed ones, so a
witness is a model: the enumeration's propagation at its nodes cannot
conflict, nor a sweep there miss the witness (it raises RuntimeError if
either happens). The success bound holds for k-CNF only, so a formula with a
clause wider than k is rejected where it enters.

Also hosts the exponent constants: the series mu_k, whose partial sum is a
digamma difference evaluated by `_digamma` here (the package needs only the
standard library), and the subroutine exponents beta_k used for cutoffs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_

from .formula import _INDEX_PATTERNS, Assignment, CnfFormula, clause_bits, evaluate

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


# Boost-count ceiling: above it decide degrades to best-effort and says so.
# The complete search gets the same budget in nodes. Read at call time.
MAX_TRIES = 500_000


# The most free variables a node's open clauses may touch for `sweep` to
# settle it in one bit-sliced check of 2^V assignments. Read at call time;
# at 0 nothing is swept.
SWEEP_VARS = 12


@dataclass(frozen=True, slots=True)
class SatOutcome:
    """Solution(witness) when `witness` is set, NoSolutionFound otherwise.

    `decider` names the stage that settled the query: PROPAGATION, SEARCH or
    WALK. Only a WALK answer can be wrong, and `tries_used` counts the walk
    tries it was given (0 for the other deciders). `rigorous` is False when
    the walk's boost count was capped, i.e. the miss probability of a
    NoSolutionFound answer may exceed the requested delta. `models` counts
    the models certified at the node where a PROPAGATION or SEARCH witness
    was found, which the query leaves on the state: 2^free at a leaf, the
    sweep's popcount * 2^(free - |A|) at a swept node. It is 0 for a walk's
    witness, which certifies itself alone, and without a witness.
    """

    witness: Assignment | None
    decider: str
    tries_used: int = 0
    rigorous: bool = True
    models: int = 0

    @property
    def found(self) -> bool:
        return self.witness is not None


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
    # psi(1) = -0.5772156649015329, minus the Euler-Mascheroni constant.
    return (k - 1) * (
        _digamma(j_stop + 1) - _digamma(j_stop + 1 + a) + _digamma(1 + a) + 0.5772156649015329
    )


def schoening_success_bound(k: int, n: int) -> float:
    """Worst-case per-try success probability of the walk on a satisfiable
    k-CNF with n variables: (k / (2(k-1)))^n."""
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
    """Run up to `tries` independent walks one after another, each from a
    uniform start over the variables that occur in `clauses` (none empty);
    the first satisfying assignment wins. Returns it as {var: value} over
    those variables, or None when every try ran out of steps. `rng` is a
    `random.Random`."""
    # Per-clause true-literal counts and the list of unsatisfied clauses
    # follow each flip through the occurrence lists of the two literals.
    active = sorted({abs(l) for c in clauses for l in c})
    occ: dict[int, list[int]] = {lit: [] for var in active for lit in (var, -var)}
    for c, clause in enumerate(clauses):
        for lit in clause:
            occ[lit].append(c)
    for _ in range(tries):
        value = {}
        true = [0] * len(clauses)
        for var in active:
            value[var] = rng.getrandbits(1)
            for c in occ[var if value[var] else -var]:
                true[c] += 1
        unsat = [c for c, t in enumerate(true) if not t]
        for _ in range(steps):
            if not unsat:
                break
            var = abs(rng.choice(clauses[rng.choice(unsat)]))
            value[var] ^= 1
            made = var if value[var] else -var
            for c in occ[made]:
                true[c] += 1
                if true[c] == 1:
                    unsat.remove(c)
            for c in occ[-made]:
                true[c] -= 1
                if not true[c]:
                    unsat.append(c)
        if not unsat:
            return value
    return None


class SearchState:
    """One clause list under a partial assignment that grows and shrinks on a
    trail, for the complete search, the enumeration and the upper scan.

    Literal l is the code 2|l| + (l < 0), so -l is code ^ 1 and codes sort
    like variables; the searches keep codes on their stacks, and `code[l]`
    reads a literal's code. The clauses are kept as the given literal tuples,
    without the tautologies. Sets of clauses are Python ints, bit c for
    clause c:
    - `value[code]` is True, False or None (unassigned);
    - `occ[code]` is the set of clauses that hold the literal, and
      `var_occ` pairs the code 2v of each variable v that occurs with the
      set of clauses that hold v or -v;
    - `sat` is the set of satisfied clauses; the others are open;
    - `planes[i]` holds bit i of every clause's count of unassigned distinct
      literals, so a literal repeated in a clause counts once. An open
      clause is a unit at count 1 and empty (falsified) at count 0. The
      count of a satisfied clause is not kept up to date;
    - `trail` holds the codes of the true literals in assignment order, and
      `saved[i]` the (sat, planes) from before `trail[i]` was assigned.

    `enter`, the one node step of every search, and `undo_to` cost a few
    operations on m-bit ints per literal, none per clause: assigning x adds
    occ[x] to `sat` and subtracts one, through a borrow chain over the
    planes, from the open clauses of occ[x ^ 1]; undoing restores a saved
    pair. The saved pairs hold at most len(planes) + 1 ints of m bits per
    trail literal: for 3-CNF (two planes) over a full trail, 54 KB at n=140,
    m=596 and 7.0 MB at n=2000, m=8520 (tracemalloc). `branch_literal`, the
    branch rule of every search, splits the open clauses into one set per
    count that occurs, so their number does not grow with the widest clause.
    In the same pass it lists in `active` the codes 2v of A, the free
    variables of the open clauses. The open clauses are read through
    `open_clauses`, and `open_bits` runs the clause kernel over them for
    `sweep` and the upper scan's blocks.
    """

    def __init__(self, n: int, clauses):
        self.n = n
        # Literal l reads code[l]: 2l for l > 0 and, through a negative
        # index, 1 - 2l for l < 0 (|l| <= n).
        self.code = code = [0, *range(2, 2 * n + 1, 2), *range(2 * n + 1, 2, -2)]
        self.clauses = clauses = list(clauses)
        occ = self._occurrences()
        # A tautology holds some x and x ^ 1.
        tautologies = reduce(or_, map(and_, occ[2::2], occ[3::2]), 0)
        if tautologies:
            bits = f"{tautologies:0{len(clauses)}b}"[::-1]
            self.clauses = [c for c, bit in zip(clauses, bits) if bit == "0"]
            occ = self._occurrences()
        self.occ = occ
        self.var_occ = [
            (x, occ[x] | occ[x + 1]) for x in range(2, 2 * n + 2, 2) if occ[x] | occ[x + 1]
        ]
        self.full = (1 << len(self.clauses)) - 1
        self.sat = 0
        # The counts, summed bit-sliced over the variables' clause sets: a
        # clause holds each of its variables once.
        self.width = max(map(len, self.clauses), default=0)
        planes = [0] * (self.width.bit_length() or 1)
        for _, carry in self.var_occ:
            for i, plane in enumerate(planes):
                if not carry:
                    break
                planes[i] = plane ^ carry
                carry &= plane
        self.planes = planes
        self.value: list[bool | None] = [None] * (2 * n + 2)
        self.trail: list[int] = []
        self.saved: list[tuple[int, list[int]]] = []
        self.active: list[int] = []

    def _occurrences(self) -> list[int]:
        """The set of clauses that hold each literal code."""
        code = self.code
        occ = [0] * (2 * self.n + 2)
        bit = 1
        for clause in self.clauses:
            for lit in clause:
                occ[code[lit]] |= bit
            bit <<= 1
        return occ

    @property
    def n_open(self) -> int:
        """The number of open clauses."""
        return (self.full ^ self.sat).bit_count()

    def open_clauses(self):
        """The open clauses, in order."""
        return compress(self.clauses, map("1".__eq__, f"{self.full ^ self.sat:b}"[::-1]))

    def open_bits(self, rows, full: int) -> int:
        """`clause_bits` over the open clauses: F's check on points extending the assignment."""
        return clause_bits(self.open_clauses(), rows, full)

    def _set(self, x: int) -> None:
        value = self.value
        value[x] = True
        value[x ^ 1] = False
        self.trail.append(x)
        sat, planes = self.sat, self.planes
        self.saved.append((sat, planes))
        self.sat = sat = sat | self.occ[x]
        borrow = self.occ[x ^ 1] & ~sat
        if borrow:
            # A new list: the saved pair keeps the old one.
            self.planes = new = []
            for plane in planes:
                plane ^= borrow
                new.append(plane)
                # Where the borrow flipped a 0 bit to 1, it goes on.
                borrow &= plane

    def undo_to(self, length: int) -> None:
        """Unassign the trail's literals back to its first `length`."""
        trail = self.trail
        if length < len(trail):
            value = self.value
            for x in trail[length:]:
                value[x] = value[x ^ 1] = None
            self.sat, self.planes = self.saved[length]
            del trail[length:], self.saved[length:]

    def enter(self, start: int, x: int) -> bool:
        """Undo the trail to its first `start` literals, make the unassigned
        literal code `x` true unless it is 0, and propagate. Returns True on
        a conflict."""
        self.undo_to(start)
        if x:
            self._set(x)
        return self.propagate()

    def propagate(self) -> bool:
        """Assign the literal of the lowest unit clause until none is left.
        Returns True on a conflict (an empty clause), which may leave units
        unassigned."""
        clauses, code, value = self.clauses, self.code, self.value
        while True:
            planes = self.planes
            # The open clauses of count 0 or 1.
            low = self.full ^ self.sat
            for plane in planes[1:]:
                low &= ~plane
            units = low & planes[0]
            if units != low:
                return True
            if not units:
                return False
            for lit in clauses[(units & -units).bit_length() - 1]:
                if value[code[lit]] is None:
                    self._set(code[lit])
                    break

    def branch_literal(self) -> int:
        """The code 2 * var of the unassigned variable of greatest two-sided
        Jeroslow-Wang weight, the smallest such variable on ties: each open
        clause with f unassigned literals adds 4^-f to the variable of each
        of them. Sets `active` to the codes of the variables of weight above
        0, in order. Needs an open clause and no empty one."""
        # The open clauses by count, from the top plane down: one set per
        # count that occurs, each with its weight 4^(width - f), 4^width
        # times 4^-f so that ties are exact.
        parts = [(self.full ^ self.sat, 0)]
        for i in range(len(self.planes) - 1, -1, -1):
            plane, split = self.planes[i], []
            for part, f in parts:
                high = part & plane
                if high:
                    split.append((high, f | 1 << i))
                if high != part:
                    split.append((part ^ high, f))
            parts = split
        weighted = [(part, 1 << 2 * (self.width - f)) for part, f in parts]
        value = self.value
        self.active = active = []
        add = active.append
        best = pick = 0
        for x, occ in self.var_occ:
            if value[x] is None:
                score = 0
                for part, weight in weighted:
                    score += weight * (occ & part).bit_count()
                if score:
                    add(x)
                    if score > best:
                        best, pick = score, x
        return pick

    def sweep(self) -> int | None:
        """Which assignments of A, the last `branch_literal` call's `active`,
        satisfy every open clause: bit t is set when A's variable j set to
        bit j of t, for each j, does; None when |A| > SWEEP_VARS. Variable j
        reads index pattern j, as in `affine_slices`, and every other literal
        reads 0, since A holds every free variable of an open clause."""
        active = self.active
        if len(active) > SWEEP_VARS:
            return None
        full = (1 << (1 << len(active))) - 1
        rows = [0] * (2 * self.n + 1)
        for j, x in enumerate(active):
            rows[x >> 1] = pattern = _INDEX_PATTERNS[j] & full
            rows[-(x >> 1)] = pattern ^ full
        return self.open_bits(rows, full)

    def swept_models(self, bits: int) -> int:
        """The models of the node that `sweep` returned `bits` for: each
        assignment of A it keeps, times every value of the other free
        variables."""
        return bits.bit_count() << (self.n - len(self.trail) - len(self.active))

    def residual(self) -> list[tuple[int, ...]]:
        """The open clauses without their false literals, as
        `restrict_clauses` gives them."""
        code, value = self.code, self.value
        return [
            tuple(lit for lit in clause if value[code[lit]] is None)
            for clause in self.open_clauses()
        ]

    def witness(self, extra=None) -> Assignment:
        """The assignment with `extra` ({var: value}) on top; unset variables
        read 0."""
        values = [1 if self.value[2 * var] else 0 for var in range(self.n + 1)]
        for var, val in (extra or {}).items():
            values[var] = val
        return tuple(values[1:])


def check_width(formula: CnfFormula, k: int) -> None:
    """Reject k < 3 and a clause wider than k: the walk's boost count
    assumes k-CNF with k >= 3 (at k = 2 its bound reads 1, one try)."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if formula.k > k:
        raise ValueError(f"formula has a clause of width {formula.k} > k={k}")


def boost_count(k: int, n_active: int, log_inv_delta: float) -> tuple[int, bool]:
    """Tries needed so the walk's miss bound (1-q)^M drops below delta,
    given as ln(1/delta), capped at MAX_TRIES. Returns (tries, rigorous)."""
    q = schoening_success_bound(k, n_active)
    if q >= 1.0:
        return 1, True
    # q underflows to 0.0 from about 2,600 active variables at k = 3, and
    # the quotient overflows a little below: no finite count is enough.
    need = log_inv_delta / -math.log1p(-q) if q else math.inf
    if need > MAX_TRIES:
        return MAX_TRIES, False
    return max(1, math.ceil(need)), True


def decide(formula: CnfFormula, k: int, delta: float, seed: int) -> SatOutcome:
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
    state = SearchState(formula.n, formula.clauses)
    outcome = _decide_clauses(state, 0, 0, k, -math.log(delta), seed)
    # An explicit check, not an assert: it must hold under `python -O` too.
    if outcome.found and not evaluate(formula, outcome.witness):
        raise RuntimeError("the SAT engine returned a witness that is not a model")
    return outcome


def _decide_clauses(state, start, x, k, log_inv_delta, seed) -> SatOutcome:
    """`decide` on the state's clauses at the node that
    `state.enter(start, x)` makes, which a witness extends, for
    delta = exp(-log_inv_delta). Three stages, each of which returns its own
    outcome: entering the node (PROPAGATION); a depth-first DPLL search from
    it with unit propagation, of at most the walk's boost count in nodes,
    which visits a variable's false side before its true side and settles a
    node whose open clauses touch at most SWEEP_VARS free variables by its
    sweep (SEARCH); and, when that search does not finish, the boosted walk
    on the node's residual (WALK). Propagation or the search leaves the node
    where it found its model on the state, a leaf with no open clause or a
    swept node, and reports that node's models; the walk leaves the query's
    node. The caller's next `enter` undoes what it must."""
    if state.enter(start, x):
        return SatOutcome(None, PROPAGATION)
    if not state.n_open:
        return SatOutcome(state.witness(), PROPAGATION, models=1 << (state.n - len(state.trail)))

    root = len(state.trail)
    # The node budget is the boost count for the free variables, read off
    # the trail without a scan and never below the walk's own. A node costs
    # about an eighth of a walk try (n=20, m=85, unsatisfiable, 2-core Xeon,
    # Python 3.11, medians over 8 formulas: 14 us against 110 us).
    budget, _ = boost_count(k, state.n - root, log_inv_delta)
    # A node still to visit: the trail length of its parent and the branch
    # literal code to assign on top of it, 0 at the query's node. The
    # enumeration relies on the order: x ^ 1 is visited before x. A swept
    # node is one node of the budget; a sweep of no bits refutes it exactly.
    stack = [(root, 0)]
    while stack and budget:
        budget -= 1
        if state.enter(*stack.pop()):
            continue
        if not state.n_open:
            return SatOutcome(state.witness(), SEARCH, models=1 << (state.n - len(state.trail)))
        x = state.branch_literal()
        bits = state.sweep()
        if bits:
            # The model of the lowest set bit t.
            t = (bits & -bits).bit_length() - 1
            model = {y >> 1: t >> j & 1 for j, y in enumerate(state.active)}
            return SatOutcome(state.witness(model), SEARCH, models=state.swept_models(bits))
        if bits is None:
            length = len(state.trail)
            stack += (length, x), (length, x ^ 1)
    if not stack:
        return SatOutcome(None, SEARCH)

    state.undo_to(root)
    clauses = state.residual()
    n_active = len({abs(l) for clause in clauses for l in clause})
    tries, rigorous = boost_count(k, n_active, log_inv_delta)
    rng = random.Random(seed % 2**64)
    steps = WALK_STEPS_PER_VAR * n_active
    hit = _walk_batch(clauses, tries=tries, steps=steps, rng=rng)
    if hit is None:
        return SatOutcome(None, WALK, tries_used=tries, rigorous=rigorous)
    return SatOutcome(state.witness(hit), WALK, tries, rigorous)
