"""Upper bound on #F via random GF(2) constraints.

One random n x n system is drawn; F_nu pairs F with the first nu rows. The
scan walks nu downward from n: satisfiability of a prefix implies
satisfiability of every shorter prefix (deterministically), so the first
satisfiable F_nu fixes u = nu + 1 and the scan stops. Output U = 2^{u+3}
upper-bounds #F with constant probability, and 2^u is a 16-approximation
whenever u ended strictly above the floor mu.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .formula import CnfFormula, GuardError
from .gf2 import eliminate, prefix, random_system, solution_blocks


@dataclass(frozen=True)
class UpperResult:
    u: int
    mu: int
    n: int
    all_sat: bool
    rank_at_stop: int
    trace: tuple[tuple[int, bool], ...] = field(default_factory=tuple)

    @property
    def bound(self) -> int:
        """U = 2^{u+3}."""
        return 1 << (self.u + 3)

    def to_json(self) -> str:
        return json.dumps(
            {
                "u": self.u,
                "U": self.bound,
                "mu": self.mu,
                "n": self.n,
                "all_sat": self.all_sat,
                "rank_at_stop": self.rank_at_stop,
                "trace": [{"nu": nu, "sat": sat} for nu, sat in self.trace],
            }
        )


def _constrained_witness(formula: CnfFormula, echelon):
    """A solution of the echelon system that satisfies F, packed, or None."""
    for block in solution_blocks(echelon):
        words = formula.satisfying_words(block)
        hits = np.flatnonzero(words)
        if hits.size:
            word = int(words[hits[0]])
            t = (word & -word).bit_length() - 1
            return sum((int(v) >> t & 1) << i for i, v in enumerate(block[:, hits[0]]))
    return None


def upper_bound(
    formula: CnfFormula, mu: int, seed: int, enumeration_guard: int | None = None
) -> UpperResult:
    """Scan F_n, F_{n-1}, ..., F_mu downward; u is the threshold index.

    With all prefixes unsatisfiable u = mu; if even the full n-row system
    admits a satisfying solution of F, u = n with the all_sat flag set (the
    bound U = 2^{n+3} >= #F then holds unconditionally).
    """
    n = formula.n
    if not 0 <= mu <= n:
        raise ValueError(f"mu={mu} outside [0, {n}]")
    if enumeration_guard is not None and n - mu > enumeration_guard:
        raise GuardError(
            f"scan would enumerate up to 2^{n - mu} solutions "
            f"(guard 2^{enumeration_guard})"
        )
    system = random_system(n, seed)
    trace = []
    u = mu
    all_sat = False
    rank_at_stop = 0
    for nu in range(n, mu - 1, -1):
        sub = prefix(system, nu)
        echelon = eliminate(sub)
        rank_at_stop = echelon.rank
        sat = _constrained_witness(formula, echelon) is not None
        trace.append((nu, sat))
        if sat:
            if nu == n:
                u = n
                all_sat = True
            else:
                u = nu + 1
            break
    else:
        u = mu
    return UpperResult(
        u=u,
        mu=mu,
        n=n,
        all_sat=all_sat,
        rank_at_stop=rank_at_stop,
        trace=tuple(trace),
    )
