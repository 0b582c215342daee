"""Upper bound on #F via random GF(2) constraints.

One random n x n system is drawn; F_nu pairs F with the first nu rows. The
scan walks nu downward from n: satisfiability of a prefix implies
satisfiability of every shorter prefix (deterministically), so the first
satisfiable F_nu fixes u = nu + 1 and the scan stops. Output U = 2^{u+3}
upper-bounds #F with constant probability, and 2^u is a 16-approximation
whenever u ended strictly above the floor mu.

Let nu* be the most leading rows that one model of F satisfies. F_nu is
satisfiable exactly when nu <= nu*, so the scan's whole result (u, the
trace and the rank where it stops) follows from nu* alone. A depth-first
branch and bound over F's models finds it. A node assigns one literal on
top of its parent and propagates. Its bound, the longest row prefix
consistent with its assignment, caps the leading rows any model below it
satisfies, and a node whose bound cannot beat the best model found is
pruned. A node with no open clause is a cube of models whose free
variables F does not constrain, so its bound is attained there.

Once a model has been found, a node is settled as one bit-sliced block
when at most 2^15 points extend its assignment and satisfy the first
best + 1 rows. Those points hold every model below the node that could
raise the best, so the search stays exact: F is checked on all of them at
once, and the later rows are ANDed in while some model is left. Before the
first model F may be unsatisfiable, and a conflict refutes a subtree in
fewer steps than a block. One `RowBasis` of the system serves the whole
search, as its units follow the trail: a node undoes the basis to its
parent's trail length and adds its own literals, and a block is read off
its solutions. At mu = 0 no bound can prune and no block be swept before
the first model, so the system is drawn and the basis built only at the
first model leaf, with the whole trail as units. An unsatisfiable F at
mu = 0 thus costs no GF(2) work; with mu > 0 the root's bound needs the
basis, which is built before the search. The system is the same function
of the seed either way, and the result and both counters, nodes and
points, are deterministic per seed.

The search's worst case is exponential, so it visits at most
MAX_SEARCH_NODES nodes and raises GuardError beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import SearchState
from .formula import SLICE_BITS, CnfFormula, GuardError
from .gf2 import RowBasis, random_system, solution_blocks

# The most nodes one search visits, read at call time. On a 2-core Xeon
# with Python 3.11, the worst of formula seeds s = 1-3 (system seed s + 100)
# at mu = 0 took 647 nodes (0.2 s) at n=60, d=3.0, and 3,985 nodes (0.8-1.2 s)
# at n=80, d=3.0.
MAX_SEARCH_NODES = 1 << 16


@dataclass(frozen=True, slots=True)
class UpperResult:
    """`search_nodes` counts the nodes the search visited and `swept` the
    points its blocks checked against F."""

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


def upper_bound(formula: CnfFormula, mu: int, seed: int) -> UpperResult:
    """The scan of F_n, F_{n-1}, ..., F_mu downward; u is the threshold index.

    With all prefixes unsatisfiable u = mu; if even the full n-row system
    admits a satisfying solution of F, u = n with the all_sat flag set (the
    bound U = 2^{n+3} >= #F then holds unconditionally). GuardError when the
    search would visit more than MAX_SEARCH_NODES nodes.
    """
    n = formula.n
    if not 0 <= mu <= n:
        raise ValueError(f"mu={mu} outside [0, {n}]")
    state = SearchState(n, formula.clauses)
    trail = state.trail
    # nu* once the search ends; only models above the floor matter.
    best = mu - 1
    found = False
    nodes = swept = 0
    # At mu = 0 no bound can prune and no block be swept before the first
    # model, so the system is drawn at the first model leaf.
    system = basis = None
    if mu:
        system = random_system(n, seed)
        basis = RowBasis(system)
    # A node still to visit: the trail length of its parent and the branch
    # literal code to assign on top of it, 0 at the root.
    stack = [(0, 0)]
    while stack:
        start, x = stack.pop()
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise GuardError(
                f"the upper scan's model search needs more than {MAX_SEARCH_NODES} nodes"
            )
        if state.enter(start, x):
            continue
        if basis is None and not state.n_open:
            # The first model leaf: the whole trail goes onto a new basis.
            system = random_system(n, seed)
            basis, start = RowBasis(system), 0
        if basis is None:
            bound = n  # nothing to bound before the first model
        else:
            # The units are the trail of the last node bounded, which
            # extends the parent's: undo to the parent's, add the node's.
            basis.undo_to(start)
            for y in trail[start:]:
                basis.assign(y >> 1, 1 - (y & 1))
            bound = basis.consistent_prefix()
        if not state.n_open:
            best, found = max(best, bound), True
        elif bound <= best:
            continue
        elif found and 1 << (n - basis.rank(best + 1)) <= SLICE_BITS:
            columns, width = next(solution_blocks(basis.solutions(best + 1)))
            swept += width
            # The block's models satisfy the first nu rows; AND in the
            # later rows' parities while some model is left.
            sat = formula.satisfying_bits(columns, width)
            nu = best + 1
            while sat:
                best = nu
                if nu == bound:
                    break
                row, parity = system.rows[nu], 0
                for i, column in enumerate(columns):
                    if row >> i & 1:
                        parity ^= column
                sat &= parity if system.rhs[nu] else ~parity
                nu += 1
        else:
            x = state.branch_literal()
            length = len(trail)
            stack.append((length, x))
            stack.append((length, x ^ 1))
    # Every prefix above `end` is unsatisfiable; `end` is too unless it is
    # the one the scan stopped at.
    end = max(best, mu)
    rank = 0
    if basis is not None:
        basis.undo_to(0)  # the rank of the rows alone
        rank = basis.rank(end)
    if best < mu:
        u = mu
    else:
        u = n if best == n else best + 1
    return UpperResult(
        u=u,
        mu=mu,
        n=n,
        all_sat=best == n,
        rank_at_stop=rank,
        trace=tuple((nu, nu == best) for nu in range(n, end - 1, -1)),
        search_nodes=nodes,
        swept=swept,
    )
