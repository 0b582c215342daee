"""Exact counting up to a threshold by SAT-query-driven search.

Builds a depth-first tree over partial assignments whose residual formulas
are satisfiable: at each node one child is certified for free by the node's
own witness, the other is submitted to the SAT engine. The engine settles a
query by complete search when the search fits the query's budget, and by
the one-sided boosted walk otherwise. A node whose residual has no
(non-tautological) clauses left bundles 2^v solutions for its v unassigned
variables. The traversal stops with a MoreThan verdict as soon as more than
N verified solutions exist, which is why that verdict is certain; an
ExactCount can only err through walk NO answers that missed a solution,
whose total failure probability is kept below delta_total by a per-query
budget of delta_total / (2 n (N+1)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import DEFAULT_CONFIG, SolverConfig, _decide_clauses, split_seed
from .formula import (
    CnfFormula,
    assignment_to_bits,
    is_tautology,
    restrict_clauses,
    _branch_variable,
)


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

    def to_json(self) -> str:
        return json.dumps(self.__dict__)


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

    n = formula.n
    delta_q = delta_total / (2.0 * max(n, 1) * (threshold + 1))
    stats = TreeStats()
    certified = True
    query_index = 0

    def query(clauses):
        nonlocal query_index, certified
        query_index += 1
        stats.sat_queries += 1
        outcome = _decide_clauses(
            clauses, n, k, delta_q, split_seed(seed, query_index), config
        )
        certified = certified and outcome.rigorous
        return outcome

    # Restriction never creates a tautology, so one filter at the root covers
    # every node.
    live = [c for c in formula.clauses if not is_tautology(c)]
    root = query(live)
    if not root.found:
        return EnumResult.exact(0, certified), stats

    count = 0
    witnesses: set[int] = set()

    # Stack entries: (live clauses, assigned-vars mask, assigned-values bits,
    # residual witness bits, depth).
    stack = [(live, 0, 0, assignment_to_bits(root.witness), 0)]
    budget_bits = (threshold + 1).bit_length()

    while stack:
        clauses, assigned_mask, alpha_bits, wbits, depth = stack.pop()
        stats.nodes_visited += 1
        stats.max_depth = max(stats.max_depth, depth)

        if not clauses:
            free = n - assigned_mask.bit_count()
            stats.solution_leaves += 1
            # min(2^free, remaining budget + 1): enough to trip the verdict
            # without materializing huge powers.
            count += (1 << free) if free < budget_bits + 1 else threshold + 1
            if count > threshold:
                return EnumResult.exceeded(threshold), stats
            continue

        # The residual witness plus the partial assignment is a verified
        # solution of the input formula; more than `threshold` distinct ones
        # trip the certain verdict early.
        witnesses.add((wbits & ~assigned_mask) | alpha_bits)
        if len(witnesses) > threshold:
            return EnumResult.exceeded(threshold), stats

        var = _branch_variable(clauses)
        var_bit = 1 << (var - 1)
        wval = (wbits >> (var - 1)) & 1
        for value in (0, 1):
            child = restrict_clauses(clauses, {var: value})
            child_alpha = alpha_bits | (var_bit if value else 0)
            if value == wval:
                stack.append(
                    (child, assigned_mask | var_bit, child_alpha, wbits, depth + 1)
                )
            else:
                outcome = query(child)
                if outcome.found:
                    stack.append(
                        (
                            child,
                            assigned_mask | var_bit,
                            child_alpha,
                            assignment_to_bits(outcome.witness),
                            depth + 1,
                        )
                    )

    return EnumResult.exact(count, certified), stats


def lower_bound_report(
    formula: CnfFormula,
    k: int,
    threshold: int,
    delta_total: float,
    seed: int,
    config: SolverConfig = DEFAULT_CONFIG,
) -> dict:
    """Two-verdict wrapper: either the count exceeds the threshold (certain
    verdict) or the exact count is reported (holds up to delta_total)."""
    result, stats = count_up_to(formula, k, threshold, delta_total, seed, config)
    return {
        "threshold": threshold,
        "exceeds_threshold": not result.is_exact,
        "exact_count": result.count,
        "verdict_certain": not result.is_exact,
        "certified_queries": result.certified,
        "stats": stats.__dict__,
    }
