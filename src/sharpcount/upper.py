"""Upper bound on #F via random GF(2) constraints.

One random n x n system is drawn; F_nu pairs F with the first nu rows. The
scan walks nu downward from n: satisfiability of a prefix implies
satisfiability of every shorter prefix (deterministically), so the first
satisfiable F_nu fixes u = nu + 1 and the scan stops. Output U = 2^{u+3}
upper-bounds #F with constant probability, and 2^u is a 16-approximation
whenever u ended strictly above the floor mu.

Let nu* be the most leading rows that one model of F satisfies. F_nu is
satisfiable exactly when nu <= nu*, so the scan's whole result (u, the
trace and the rank where it stops) follows from nu* alone, and two methods
find it, run side by side:
- the sweep checks every solution of each prefix against F in bit-sliced
  blocks, from nu = n downward; it settles a prefix with few solutions in
  one block, and wins when F has many models;
- a branch-and-bound search over F's models (`_ModelSearch`) bounds, at
  each node, the rows that any model below it can satisfy by the longest
  row prefix consistent with the node's assignment, prunes nodes whose
  bound cannot beat the best model found, and settles an unsatisfiable F,
  which the sweep pays about 2^n for, in a few hundred nodes.

Before each prefix is swept, the search runs until its node count reaches
`RATE` times the blocks of all prefixes swept or about to be, so neither
method spends much more than the other. The scan stops at the first of:
- the sweep finds a satisfiable prefix;
- the search finishes, so nu* is its best model's bound, or below mu;
- the search's best model satisfies the prefix about to be swept.
Each fixes the first satisfiable prefix at or below that one, and the sweep
has found every prefix above it unsatisfiable, so the result is exactly the
sweep's alone. One `RowBasis` of the system serves both: the sweep reads
each prefix's echelon form from it, and the search copies it per node. The
budgets count nodes and blocks, not wall time, so the result and both
counters are deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import SearchState
from .formula import SLICE_BITS, CnfFormula
from .gf2 import RowBasis, random_system, solution_blocks

# Search nodes per swept block of SLICE_BITS = 32,768 solutions. On random
# 3-CNF at n = 20-40 and density 1.5-4.8 a block costs as much time as 9-35
# nodes (medians 11-27, 11 at n = 20, m = 85), so at 16 neither method
# spends much more than the other. Only the scan's speed depends on RATE:
# its result is the sweep's whatever the budget.
RATE = 16


@dataclass(frozen=True)
class UpperResult:
    """`search_nodes` counts the nodes the search visited and `swept` the
    solutions the sweep checked against F."""

    u: int
    mu: int
    n: int
    all_sat: bool
    rank_at_stop: int
    trace: tuple[tuple[int, bool], ...] = field(default_factory=tuple)
    search_nodes: int = 0
    swept: int = 0

    @property
    def bound(self) -> int:
        """U = 2^{u+3}."""
        return 1 << (self.u + 3)


def _constrained_witness(formula: CnfFormula, echelon):
    """(witness, checked): a solution of the echelon system that satisfies
    F, packed, or None; and how many solutions were checked, a whole block
    at a time."""
    checked = 0
    for columns, width in solution_blocks(echelon):
        checked += width
        sat = formula.satisfying_bits(columns, width)
        if sat:
            t = (sat & -sat).bit_length() - 1
            return sum((column >> t & 1) << i for i, column in enumerate(columns)), checked
    return None, checked


def _block_count(echelon) -> int:
    """How many blocks `solution_blocks` yields for the echelon system."""
    if not echelon.consistent:
        return 0
    return max(1, echelon.solution_count // SLICE_BITS)


class _ModelSearch:
    """Depth-first branch and bound over F's models for nu*, resumable.

    A node assigns one literal on top of its parent and propagates. Its
    bound, the longest row prefix consistent with its assignment, caps the
    leading rows any model below it satisfies; a node whose bound is <=
    `best` is pruned. A node with no open clause is a cube of models whose
    free variables F does not constrain, so its bound is attained there and
    becomes `best`. `best` starts at the floor: only models above it
    matter."""

    def __init__(self, formula: CnfFormula, basis: RowBasis, floor: int):
        self.state = SearchState(formula.n, formula.clauses)
        self.best = floor
        self.nodes = 0
        # A node still to visit: the trail length of its parent, the branch
        # literal to assign on top of it (0 at the root) and the parent's
        # basis, which the node copies before adding its units.
        self.stack = [(0, 0, basis)]

    @property
    def finished(self) -> bool:
        return not self.stack

    def advance(self, limit: int, frontier: int) -> None:
        """Visit nodes until `limit` have been visited in all, the search
        has finished or `best` reaches `frontier`."""
        state, stack, trail = self.state, self.stack, self.state.trail
        while stack and self.nodes < limit and self.best < frontier:
            start, lit, parent = stack.pop()
            self.nodes += 1
            if lit:
                state.undo_to(start)
                state.assign(lit)
            if state.propagate():
                continue
            basis = parent.copy()
            for x in trail[start:]:
                basis.assign(x >> 1, 1 - (x & 1))
            bound = basis.consistent_prefix()
            if bound <= self.best:
                continue
            if not state.n_open:
                self.best = bound
                continue
            var = state.branch_variable()
            length = len(trail)
            stack.append((length, var, basis))
            stack.append((length, -var, basis))


def upper_bound(formula: CnfFormula, mu: int, seed: int) -> UpperResult:
    """Scan F_n, F_{n-1}, ..., F_mu downward; u is the threshold index.

    With all prefixes unsatisfiable u = mu; if even the full n-row system
    admits a satisfying solution of F, u = n with the all_sat flag set (the
    bound U = 2^{n+3} >= #F then holds unconditionally).
    """
    n = formula.n
    if not 0 <= mu <= n:
        raise ValueError(f"mu={mu} outside [0, {n}]")
    basis = RowBasis(random_system(n, seed))
    search = _ModelSearch(formula, basis, mu - 1)
    blocks = swept = 0
    # The satisfiable prefix the scan stops at; below mu when there is none.
    stop = mu - 1
    for nu in range(n, mu - 1, -1):
        echelon = basis.echelon(nu)
        blocks += _block_count(echelon)
        search.advance(RATE * blocks, nu)
        if search.finished or search.best >= nu:
            stop = min(nu, search.best)
            break
        hit, checked = _constrained_witness(formula, echelon)
        swept += checked
        if hit is not None:
            stop = nu
            break
    # Every prefix above `end` is unsatisfiable; `end` is too unless it is
    # the one the scan stopped at.
    end = max(stop, mu)
    if stop < mu:
        u = mu
    else:
        u = n if stop == n else stop + 1
    return UpperResult(
        u=u,
        mu=mu,
        n=n,
        all_sat=stop == n,
        rank_at_stop=basis.echelon(end).rank,
        trace=tuple((nu, nu == stop) for nu in range(n, end - 1, -1)),
        search_nodes=search.nodes,
        swept=swept,
    )
