"""Exact counting up to a threshold by SAT-query-driven search.

Builds a depth-first tree over partial assignments whose residual formulas
are satisfiable: at each node one child is certified for free by the node's
own witness. The other child holds that witness with the branch variable
flipped when the flip keeps it a model; otherwise it is submitted to the
SAT engine. The engine settles a query by complete search when the search
fits the query's budget, and by the one-sided boosted walk otherwise. Every
node is closed under unit propagation, as in counting DPLL (Birnbaum and
Lozinskii, JAIR 10, 1999): its forced literals are derived once, on the
node, and not again by every query below it. A node whose residual has no
(non-tautological) clauses left bundles 2^v solutions for its v unassigned
variables. A node whose open clauses touch a set A of at most
`engine.SWEEP_VARS` free variables is settled by the state's `sweep`, one
bit-sliced check of the 2^|A| assignments of A: it holds popcount *
2^(v - |A|) models, and it is a leaf too. The nodes are assignments on one
engine `SearchState`: a child is one literal assigned on top of its
parent's trail, plus the literals that forces (the state's `enter` step). A
SAT query takes its node as the same (parent's trail length, literal) pair
and enters it itself; it leaves the state where it ended, and the next
`enter` undoes what it must. The tree branches on the state's
`branch_literal`, as the complete search does, and that search visits a
variable's false side before its true side and sweeps as the tree does. A
query that propagation or the complete search answered ended inside the
node it decided, at a leaf or a swept node, and that node, and each node
below it on its witness's side, keeps the trail of that end node as its
path. At a node inside a path the path came from a search that entered
this node's assignment as the enumeration did and branched there on the
same state, so the path's literal at the node's depth names the branch
variable, with no `branch_literal` call and no sweep. If that literal sets
the variable true, the search refuted the false side, and that child gets
no query and no flip test: it holds no model, so counts, verdicts and
visited nodes are those of querying it, and only the query count falls.
The node where a path ends is a leaf. Paths stay exact with sweeps: A only
shrinks along a trail, every path node above the end had more than
SWEEP_VARS variables in A when the search branched there, so the tree
branches there too, and a sweep that keeps no assignment is an exact
refutation, so a side the search refuted holds no model. A flipped witness
is a model when every clause that holds the witness's literal on the
branch variable has another true literal; the child it certifies is a node
like any other, and the query it saves changes no count either. The
traversal stops with a MoreThan verdict as soon as the counted leaves and
the pending nodes prove more than N solutions. Every node carries a credit
of models it certifies, the models of the cube its query ended in: 2^free
at a leaf, the sweep's count at a swept node (the leaf rule of counting
DPLL, and the lifting of a model to a partial assignment of Ravi and
Somenzi, TACAS 2004), its witness alone for a walk's or a flipped witness. The witness side of a node keeps the node's path and so its
credit, since the path's end lies on that side. Those sets of models are
pairwise disjoint: the leaves' models are counted exactly, every credited
set lies inside its own node, the nodes on the stack are disjoint, and the
current node holds its exact count at a leaf and its credit otherwise. So
one rule, count + here + (the stack's credits) > N for the current node's
`here`, serves leaves and inner nodes alike, and the verdict is certain. A
witness agrees with every literal its node's assignment implies, so
propagation never conflicts at a node and a node's sweep keeps the
witness's assignment of A; otherwise a witness is not a model, and the
enumeration raises RuntimeError. An ExactCount can only err through walk
NO answers that missed a solution, whose total failure probability is kept
below delta_total by a per-query budget of delta_total / (2 n (N+1)), taken
in log space so that any threshold and any positive delta_total size it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import SearchState, _decide_clauses, check_width, split_seed
from .formula import CnfFormula


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class TreeStats:
    """Counts of one enumeration. A node is a propagated node, so a forced
    literal costs none; `max_depth` is the longest trail, forced literals
    included (at most n). Of the two children of a node, the one its
    witness lies in is free. The other needs no query when a complete search
    already refuted it; otherwise it holds the witness with the branch
    variable flipped, when that is still a model (counted in
    `witness_flips`), or is queried. `sat_queries` counts the queries made:
    the root's and those children's. `sweeps` counts the leaves settled by
    a sweep, the enumeration's own or its query's; they are among the
    `solution_leaves`. Credited cubes enter the MoreThan rule, so a verdict
    may come before every pending node is visited."""

    nodes_visited: int = 0
    solution_leaves: int = 0
    sat_queries: int = 0
    max_depth: int = 0
    witness_flips: int = 0
    sweeps: int = 0


def count_up_to(
    formula: CnfFormula,
    k: int,
    threshold: int,
    delta_total: float,
    seed: int,
) -> tuple[EnumResult, TreeStats]:
    """Count solutions exactly while at most `threshold` of them exist,
    report MoreThan(threshold) (with certainty) otherwise. Every SAT query,
    the root's included, enters the node it decides; a root without a model
    leaves nothing to visit and ends in ExactCount(0)."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if not 0.0 < delta_total < 1.0:
        raise ValueError(f"delta_total must lie in (0,1), got {delta_total}")
    check_width(formula, k)

    n = formula.n
    # ln(1/delta_q), on the integer threshold.
    log_inv_delta = math.log(2 * max(n, 1) * (threshold + 1)) - math.log(delta_total)
    stats = TreeStats()
    certified = True

    def query(start, x):
        # A query that propagation or the complete search answered leaves the
        # state at the node where it found its model, a leaf or a swept node,
        # and reports that node's models: the entry keeps its trail as its
        # path and those models as its credit. A walk witness leaves the
        # query's node and certifies itself alone.
        nonlocal certified
        stats.sat_queries += 1
        query_seed = split_seed(seed, stats.sat_queries)
        outcome = _decide_clauses(state, start, x, k, log_inv_delta, query_seed)
        certified = certified and outcome.rigorous
        if outcome.found:
            path = state.trail[:] if outcome.models else None
            push(start, x, outcome.witness, path, outcome.models or 1)

    def push(start, x, witness, path, credit):
        nonlocal pending
        stack.append((start, x, witness, path, credit))
        pending += credit

    def flip_keeps_model(witness, y):
        # The witness with y's variable flipped is a model when every clause
        # that holds its literal w = y ^ 1 has another true literal. A clause
        # the node's assignment satisfies has one on the trail. The state is
        # still at the node: a node tests or queries one side only.
        w = y ^ 1
        lit = -(w >> 1) if w & 1 else w >> 1
        at_risk = state.occ[w] & ~state.sat
        while at_risk:
            low = at_risk & -at_risk
            for l in state.clauses[low.bit_length() - 1]:
                if l != lit and witness[abs(l) - 1] == (l > 0):
                    break
            else:
                return False
            at_risk ^= low
        return True

    state = SearchState(n, formula.clauses)
    count = 0
    # Stack entries: (parent's trail length, branch literal code, witness,
    # path, credit); the root's code is 0, and a root without a model leaves
    # the stack empty. A witness is a model that extends its node's
    # assignment; propagation assigns only literals that assignment implies,
    # so the witness extends the propagated node too. `path` is the trail of
    # the node that the witness's query ended at, from this node or from an
    # ancestor whose witness side leads here, and None for a walk's or a
    # flipped witness. `pending` sums the stack's credits.
    stack = []
    pending = 0
    query(0, 0)

    while stack:
        start, x, witness, path, credit = stack.pop()
        pending -= credit
        # An explicit check, not an assert: it must hold under `python -O`.
        if state.enter(start, x):
            raise RuntimeError("an enumeration node's witness is not a model")
        depth = len(state.trail)
        stats.nodes_visited += 1
        stats.max_depth = max(stats.max_depth, depth)

        # A leaf is a node with no open clause, holding 2^free models, or a
        # swept node, holding its sweep's count; either is counted exactly.
        # A path ends at its query's leaf or swept node, whose models are
        # its credit; a node inside a path branches on it, with no sweep.
        # Any other node holds its credit, disjoint from the counted leaves
        # and the pending nodes.
        here = credit
        if path is not None:
            leaf = len(path) == depth
            stats.sweeps += leaf and state.n_open > 0
        elif not state.n_open:
            leaf, here = True, 1 << (n - depth)
        else:
            x = state.branch_literal()
            bits = state.sweep()
            leaf = bits is not None
            if leaf:
                # The witness's assignment of A; an explicit check, as above.
                t = sum(witness[(y >> 1) - 1] << j for j, y in enumerate(state.active))
                if not bits >> t & 1:
                    raise RuntimeError("an enumeration node's witness is not a model")
                here = state.swept_models(bits)
                stats.sweeps += 1
        stats.solution_leaves += leaf
        if count + here + pending > threshold:
            return EnumResult.exceeded(threshold), stats
        if leaf:
            count += here
            continue

        # The witness's side needs no query, and keeps the path and credit:
        # its node lies on that side. A path off an inner node came from a
        # complete search that branched here on the same state, so it names
        # the branch variable; the search visits x ^ 1 before x, so a path
        # through x means it refuted the x ^ 1 side. The other side holds
        # the witness with the branch variable flipped when that is still a
        # model, and is queried otherwise; the query enters it, so a child
        # that propagation refutes is a query settled by PROPAGATION.
        if path is not None:
            x = path[depth] & ~1
        for y in (x ^ 1, x):
            if witness[(y >> 1) - 1] != y & 1:
                push(depth, y, witness, path, credit)
            elif path is not None and y & 1:
                continue
            elif flip_keeps_model(witness, y):
                stats.witness_flips += 1
                v = y >> 1
                push(depth, y, (*witness[: v - 1], 1 - witness[v - 1], *witness[v:]), None, 1)
            else:
                query(depth, y)

    return EnumResult.exact(count, certified), stats
