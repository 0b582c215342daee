"""The benchmark's three workloads: instance sets, the operation, and the
check of every answer against the exact count.

Every workload draws random 3-CNF instances from `random_kcnf`, hands them to
the library as DIMACS text, and calls one public entry point per instance in
a closed loop with one caller. A workload seed fixes the instances and the
seed of each operation, so a seed always replays the same work.

The cost of one operation swings with the instance's model count by orders
of magnitude (a full GF(2) scan of an unsatisfiable instance takes about
100 times longer than a scan that stops early). A plain random draw of a few
dozen instances would therefore move the totals by tens of percent from one
seed to the next. Instances are instead drawn in strata of the model count,
each stratum filled to a fixed share of the set, so every seed yields the
same mix of easy and hard instances. The reference count that sorts an
instance into its stratum is computed once, before any timing starts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from sharpcount import (
    CnfFormula,
    approximate_count,
    beta_for,
    cutoff,
    dpll_count,
    random_kcnf,
    sixteen_approx,
    to_dimacs,
)
from sharpcount.scheme import EXACT_MODE, SAMPLED_MODE

K = 3
EPSILON = 0.2
MU = 0
# The acceptance suite asks for at least 70 of 100 answers within their
# guarantee; a run whose share of wrong answers exceeds this is not correct.
MAX_WRONG_FRAC = 0.3

OK, WRONG, FAILED = "ok", "wrong", "failed"

N_VARS = 20
# Above this many models approximate_count samples, at or below it counts.
CUTOFF = cutoff(K, beta_for(K), N_VARS)

# Shares of the model count of random 3-CNF at n=20, m=85 (density 4.26),
# by octave of the count, measured on 1500 instances: strata start at the
# count on the left and run up to the next stratum's start. About 0.3% of
# these instances have more models than the scheme's cutoff N and would be
# sampled; they are left out (share 0), since one of them more or less would
# move peak_rss_mb by a third between seeds.
_THRESHOLD_OCTAVES = (
    (0, 0.303),
    (1, 0.061),
    (2, 0.105),
    (4, 0.147),
    (8, 0.163),
    (16, 0.111),
    (32, 0.085),
    (64, 0.022),
    (CUTOFF + 1, 0.0),
)


def _with_unsat_share(strata, share):
    """The same strata with the unsatisfiable one (count 0) set to `share`
    and the satisfiable ones scaled to fill the rest."""
    sat = sum(s for _, s in strata[1:])
    return ((0, share),) + tuple((low, s * (1 - share) / sat) for low, s in strata[1:])


def _count(formula, seed: int):
    return approximate_count(formula, K, EPSILON, seed)


def _sixteen(formula, seed: int):
    return sixteen_approx(formula, K, MU, seed)


def _within(estimate: float, true_count: int, factor: float) -> str:
    if true_count == 0:
        return OK if estimate == 0 else WRONG
    return OK if true_count / factor <= estimate <= true_count * factor else WRONG


def _check_count(answer, true_count: int) -> str:
    if answer.mode == SAMPLED_MODE and true_count <= answer.cutoff:
        return FAILED  # a MoreThan(N) verdict while #F <= N
    if answer.mode == EXACT_MODE and answer.estimate > min(answer.cutoff, true_count):
        return FAILED  # enumeration counts verified models only, at most N
    return _within(answer.estimate, true_count, math.exp(EPSILON))


def _check_sixteen(answer, true_count: int) -> str:
    if true_count == 0 and answer != 0:
        return FAILED  # a positive answer rests on a verified model
    return _within(answer, true_count, 16.0)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    # (lowest model count of the stratum, share of the instance set)
    strata: tuple[tuple[int, float], ...]
    # Wall time of one operation on the reference machine (2-core Xeon),
    # used only to size the instance set to the run length.
    nominal_op_s: float
    op: Callable
    # answer, exact count -> OK, WRONG (outside the probabilistic guarantee)
    # or FAILED (a broken guarantee that should be certain)
    check: Callable

    def set_size(self, seconds: float) -> int:
        """Instances per pass: one pass fills about 0.8 of the run."""
        return max(2, round(0.8 * seconds / self.nominal_op_s))


WORKLOADS = {
    w.name: w
    for w in (
        # Exact mode throughout: the SAT engine's walk answering NO with its
        # full boost count takes almost all of the time.
        Workload("threshold_exact", N_VARS, 85, _THRESHOLD_OCTAVES, 0.28, _count, _check_count),
        # Sampled mode throughout: enumeration stops early on a certain
        # MoreThan verdict (its SAT queries answer YES), then the Monte Carlo
        # sampler draws about 1.07M assignments.
        Workload("sparse_sampled", N_VARS, 40, ((CUTOFF + 1, 1.0),), 0.30, _count, _check_count),
        # The GF(2) upper-bound scan. 60% of the instances are unsatisfiable,
        # so the scan runs all n prefixes, a fixed amount of work; the median
        # operation is such a full scan instead of a satisfiable instance
        # whose scan length varies tenfold with the random system drawn.
        Workload(
            "hash_sixteen",
            N_VARS,
            85,
            _with_unsat_share(_THRESHOLD_OCTAVES, 0.6),
            1.0,
            _sixteen,
            _check_sixteen,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    text: str  # DIMACS, as handed to the program
    formula: CnfFormula  # the generated formula the parsed text must equal
    op_seed: int
    true_count: int


def quotas(strata, size: int) -> list[int]:
    """Instances per stratum: shares of `size`, largest remainders first."""
    raw = [share * size / sum(s for _, s in strata) for _, share in strata]
    counts = [math.floor(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in order[: size - sum(counts)]:
        counts[i] += 1
    return counts


def _stratum(strata, count: int) -> int | None:
    index = None
    for i, (low, _) in enumerate(strata):
        if count >= low:
            index = i
    return index


def make_instances(workload: Workload, seed: int, size: int) -> list[Instance]:
    """The instance set for one seed: candidates in seed order, each kept
    while its stratum still has room."""
    rng = random.Random(f"sharpcount-bench/{workload.name}/{seed}")
    room = quotas(workload.strata, size)
    chosen = []
    while len(chosen) < size:
        formula = random_kcnf(workload.n, workload.m, K, rng.getrandbits(63))
        op_seed = rng.getrandbits(63)
        true_count = dpll_count(formula)
        stratum = _stratum(workload.strata, true_count)
        if stratum is None or room[stratum] == 0:
            continue
        room[stratum] -= 1
        chosen.append(Instance(to_dimacs(formula), formula, op_seed, true_count))
    return chosen
