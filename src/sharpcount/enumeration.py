"""Exact counting up to a threshold by SAT-query-driven search.

Builds a depth-first tree over partial assignments whose residual formulas
are satisfiable: at each node one child is certified for free by the node's
own witness, the other is submitted to the SAT engine. The engine settles a
query by complete search when the search fits the query's budget, and by
the one-sided boosted walk otherwise. A node whose residual has no
(non-tautological) clauses left bundles 2^v solutions for its v unassigned
variables. The nodes are assignments on one engine `SearchState`: a child
is one literal assigned on top of its parent's trail, and a SAT query
propagates and searches on top of that and undoes its own work on return.
The traversal stops with a MoreThan verdict as soon as it has found more
than N solutions, each a model by construction (see the engine), which is
why that verdict is certain; an ExactCount can only err through walk NO
answers that missed a solution, whose total failure probability is kept
below delta_total by a per-query budget of delta_total / (2 n (N+1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    DEFAULT_CONFIG,
    SearchState,
    SolverConfig,
    _decide_clauses,
    check_width,
    split_seed,
)
from .formula import CnfFormula, assignment_to_bits


@dataclass(frozen=True)
class EnumResult:
    """ExactCount(count, certified) when `more_than` is None, else
    MoreThan(more_than). `certified` is set when no SAT query was answered by
    a walk whose boost count was capped (best effort)."""

    count: int | None
    more_than: int | None
    certified: bool = True

    @property
    def is_exact(self) -> bool:
        return self.more_than is None

    @classmethod
    def exact(cls, count: int, certified: bool = True) -> "EnumResult":
        return cls(count=count, more_than=None, certified=certified)

    @classmethod
    def exceeded(cls, threshold: int) -> "EnumResult":
        return cls(count=None, more_than=threshold)


@dataclass
class TreeStats:
    nodes_visited: int = 0
    solution_leaves: int = 0
    sat_queries: int = 0
    max_depth: int = 0


def count_up_to(
    formula: CnfFormula,
    k: int,
    threshold: int,
    delta_total: float,
    seed: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> tuple[EnumResult, TreeStats]:
    """Count solutions exactly while at most `threshold` of them exist,
    report MoreThan(threshold) (with certainty) otherwise."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if not 0.0 < delta_total < 1.0:
        raise ValueError(f"delta_total must lie in (0,1), got {delta_total}")
    check_width(formula, k)

    n = formula.n
    delta_q = delta_total / (2.0 * max(n, 1) * (threshold + 1))
    stats = TreeStats()
    certified = True
    query_index = 0

    def query():
        nonlocal query_index, certified
        query_index += 1
        stats.sat_queries += 1
        outcome = _decide_clauses(state, k, delta_q, split_seed(seed, query_index), config)
        certified = certified and outcome.rigorous
        return outcome

    state = SearchState(n, formula.clauses)
    root = query()
    if not root.found:
        return EnumResult.exact(0, certified), stats

    count = 0
    witnesses: set[int] = set()

    # Stack entries: (depth, branch literal, witness bits). A node is its
    # parent's assignment plus the branch literal (0 at the root); nothing
    # is propagated, so the trail is the path of branch literals and its
    # length the depth. A witness extends its node's assignment, so it is a
    # model of the input formula.
    stack = [(0, 0, assignment_to_bits(root.witness))]
    budget_bits = (threshold + 1).bit_length()

    while stack:
        depth, lit, wbits = stack.pop()
        if lit:
            state.undo_to(depth - 1)
            state.assign(lit)
        stats.nodes_visited += 1
        stats.max_depth = max(stats.max_depth, depth)

        if not state.n_open:
            free = n - depth
            stats.solution_leaves += 1
            # min(2^free, remaining budget + 1): enough to trip the verdict
            # without materializing huge powers.
            count += (1 << free) if free < budget_bits + 1 else threshold + 1
            if count > threshold:
                return EnumResult.exceeded(threshold), stats
            continue

        # More than `threshold` distinct witnesses trip the certain verdict
        # early.
        witnesses.add(wbits)
        if len(witnesses) > threshold:
            return EnumResult.exceeded(threshold), stats

        var = state.branch_variable()
        wval = (wbits >> (var - 1)) & 1
        for lit in (-var, var):
            if (lit > 0) == wval:
                stack.append((depth + 1, lit, wbits))
            else:
                state.assign(lit)
                outcome = query()
                state.undo_to(depth)
                if outcome.found:
                    stack.append((depth + 1, lit, assignment_to_bits(outcome.witness)))

    return EnumResult.exact(count, certified), stats

