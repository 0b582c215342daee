"""CNF data model: DIMACS parsing, restriction semantics, random instances,
and the exact-counting oracles everything else is checked against.

Variables are 1-based (DIMACS convention) in all public interfaces. A clause
is a tuple of signed integers sorted by variable index, with no variable
repeated with the same sign. A clause containing both x and -x is tautological
and kept as-is; the empty clause is representable and marks unsatisfiability.

Assignments are tuples of 0/1 of length n. `evaluate` checks one assignment
clause by clause; `clause_bits`, the one kernel, checks a bit-sliced block.
Where an assignment is packed into an integer, bit i holds variable i+1; a
bit-sliced block of width W is n such integers, column i holding variable
i+1 across the block with assignment t at bit t.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

Clause = tuple[int, ...]
Assignment = tuple[int, ...]

BRUTE_FORCE_VAR_LIMIT = 30
# Most assignments in one bit-sliced block, for every block source.
SLICE_BITS = 1 << 15


def _index_pattern(j: int) -> int:
    """Bit t is bit j of t, for t < SLICE_BITS: 2^j zeros then 2^j ones,
    doubled by shift-or up to the block width."""
    pattern, span = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
    while span < SLICE_BITS:
        pattern |= pattern << span
        span *= 2
    return pattern


_INDEX_PATTERNS = tuple(_index_pattern(j) for j in range(SLICE_BITS.bit_length() - 1))


class ParseError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GuardError(RuntimeError):
    """Instance too large for the requested desk-scale operation."""


def make_clause(literals) -> Clause:
    """Canonical clause: deduplicated, sorted by (variable, sign)."""
    seen = set()
    for lit in literals:
        lit = int(lit)
        if lit == 0:
            raise ValueError("literal 0 is reserved as the clause terminator")
        seen.add(lit)
    return tuple(sorted(seen, key=lambda l: (abs(l), l)))


def is_tautology(clause: Clause) -> bool:
    lits = set(clause)
    return any(-l in lits for l in lits)


@dataclass(frozen=True)
class CnfFormula:
    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range for n={self.n}")

    @cached_property
    def k(self) -> int:
        """Maximum clause width; 0 for the empty formula. Computed on the
        first read and kept, outside the fields that equality compares."""
        return max((len(c) for c in self.clauses), default=0)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def satisfying_bits(self, columns, width: int) -> int:
        """Which assignments of a bit-sliced block satisfy F: bit t of the
        result is set when assignment t of the block of `width` does."""
        if len(columns) != self.n:
            raise ValueError(f"block has {len(columns)} columns, formula has n={self.n}")
        return clause_bits(self.clauses, *literal_rows(columns, width))


def literal_rows(columns, width: int) -> tuple[list[int], int]:
    """(rows, full): rows[v] is column v - 1, rows[-v] its negation; full is `width` ones."""
    full = (1 << width) - 1
    return [0, *columns, *[column ^ full for column in reversed(columns)]], full


def clause_bits(clauses, rows, full: int) -> int:
    """The one clause kernel: `full` ANDed, per clause, with the OR of its literals' rows."""
    sat = full
    for clause in clauses:
        hit = 0
        for lit in clause:
            hit |= rows[lit]
        sat &= hit
        if not sat:
            break
    return sat


def restrict_clauses(clauses, assignment: dict[int, int]) -> list[Clause]:
    """Clause-list restriction: drop satisfied clauses, delete falsified
    literals, keep emptied clauses as the unsatisfiable marker."""
    out = []
    for clause in clauses:
        reduced = []
        satisfied = False
        for lit in clause:
            val = assignment.get(abs(lit))
            if val is None:
                reduced.append(lit)
            elif (lit > 0) == (val == 1):
                satisfied = True
                break
        if not satisfied:
            out.append(tuple(reduced))
    return out


def bits_to_assignment(x: int, n: int) -> Assignment:
    return tuple((x >> i) & 1 for i in range(n))


def assignment_to_bits(a) -> int:
    x = 0
    for i, v in enumerate(a):
        if v:
            x |= 1 << i
    return x


def evaluate(formula: CnfFormula, a) -> bool:
    """True iff every clause has a satisfied literal under the total
    assignment a (sequence of 0/1, length n)."""
    if len(a) != formula.n:
        raise ValueError(f"assignment has {len(a)} values, formula has n={formula.n}")
    return all(
        any((lit > 0) == bool(a[abs(lit) - 1]) for lit in clause) for clause in formula.clauses
    )


def random_kcnf(n: int, m: int, k: int, seed: int) -> CnfFormula:
    """m independent width-k clauses: k distinct variables drawn uniformly,
    signs fair coins. Deterministic per seed; duplicate clauses allowed."""
    if k < 1:
        raise ValueError(f"clause width k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"clause width k={k} exceeds variable count n={n}")
    if m < 0:
        raise ValueError(f"clause count m must be >= 0, got {m}")
    rng = random.Random(seed)
    clauses = []
    variables = range(1, n + 1)
    for _ in range(m):
        chosen = rng.sample(variables, k)
        clauses.append(make_clause(v if rng.getrandbits(1) else -v for v in chosen))
    return CnfFormula(n, tuple(clauses))


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF. Duplicate literals inside a clause are deduplicated;
    tautological clauses are retained. A line that is exactly `%` ends the
    clause data, as in SATLIB's benchmark files, which follow it with a
    stray `0`. Errors carry line numbers."""
    n = None
    declared_m = None
    clauses: list[Clause] = []
    current: list[int] = []
    clause_start_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped == "%":
            break
        if stripped.startswith("p"):
            if n is not None:
                raise ParseError("duplicate header", lineno)
            fields = stripped.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise ParseError(f"malformed header {stripped!r}", lineno)
            try:
                n = int(fields[2])
                declared_m = int(fields[3])
            except ValueError:
                raise ParseError(f"malformed header {stripped!r}", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError(f"malformed header {stripped!r}", lineno)
            continue
        if n is None:
            raise ParseError("clause data before header", lineno)
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"non-integer token {token!r}", lineno) from None
            if lit == 0:
                if len(clauses) == declared_m:
                    raise ParseError(
                        f"more clauses than the declared {declared_m}", lineno
                    )
                clauses.append(make_clause(current))
                current = []
                clause_start_line = None
            else:
                if abs(lit) > n:
                    raise ParseError(f"literal {lit} out of range (n={n})", lineno)
                if clause_start_line is None:
                    clause_start_line = lineno
                current.append(lit)

    last = len(text.splitlines())
    if n is None:
        raise ParseError("missing header", max(last, 1))
    if current:
        raise ParseError("unterminated clause at end of input", clause_start_line)
    if len(clauses) != declared_m:
        raise ParseError(
            f"got {len(clauses)} clauses, header declared {declared_m}", max(last, 1)
        )
    return CnfFormula(n, tuple(clauses))


def to_dimacs(formula: CnfFormula, comments=()) -> str:
    lines = ["c generated-by sharpcount"]
    lines.extend(f"c {c}" for c in comments)
    lines.append(f"p cnf {formula.n} {formula.m}")
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def affine_slices(n: int, origin: int, basis) -> Iterator[tuple[list[int], int]]:
    """The 2^d points origin XOR (XOR of basis[j] over the bits j of s), s in
    binary order, as bit-sliced blocks (columns, width) of width
    2^min(d, 15): bit t of column i of block b is bit i of the point
    s = b * width + t. The low bits of s are the index patterns, the rest
    the block index b, constant across the block."""
    width = min(1 << len(basis), SLICE_BITS)
    low_bits = width.bit_length() - 1
    full = (1 << width) - 1
    low = [full if origin >> i & 1 else 0 for i in range(n)]
    high = [0] * n
    for j, vector in enumerate(basis):
        if j < low_bits:
            target, pattern = low, _INDEX_PATTERNS[j] & full
        else:
            target, pattern = high, 1 << (j - low_bits)
        for i in range(n):
            if vector >> i & 1:
                target[i] ^= pattern
    for block in range(1 << len(basis) >> low_bits):
        yield [x ^ full if (h & block).bit_count() & 1 else x for x, h in zip(low, high)], width


def brute_force_count(formula: CnfFormula) -> int:
    """|sat(F)| by sweeping all 2^n assignments in bit-sliced blocks."""
    n = formula.n
    if n > BRUTE_FORCE_VAR_LIMIT:
        raise GuardError(f"brute force limited to n <= {BRUTE_FORCE_VAR_LIMIT}, got n={n}")
    return sum(
        formula.satisfying_bits(columns, width).bit_count()
        for columns, width in affine_slices(n, 0, [1 << i for i in range(n)])
    )


def unit_propagate(clauses) -> tuple[list[Clause], dict[int, int], bool]:
    """Propagate unit clauses to fixpoint.

    Returns (residual clauses, forced assignment, conflict). Tautological
    clauses must be filtered out by the caller beforehand.
    """
    clauses = list(clauses)
    forced: dict[int, int] = {}
    while True:
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is None:
            return clauses, forced, any(len(c) == 0 for c in clauses)
        lit = unit[0]
        forced[abs(lit)] = 1 if lit > 0 else 0
        clauses = restrict_clauses(clauses, {abs(lit): forced[abs(lit)]})
        if any(len(c) == 0 for c in clauses):
            return clauses, forced, True


def _branch_variable(clauses) -> int:
    """The oracle's own rule: the smallest variable of a shortest clause."""
    shortest = min(len(c) for c in clauses)
    return min(abs(l) for c in clauses if len(c) == shortest for l in c)


def dpll_count(formula: CnfFormula) -> int:
    """Exact #F by branching with unit propagation; a satisfied residual
    with v free variables contributes 2^v."""
    live = [c for c in formula.clauses if not is_tautology(c)]

    def go(clauses, free: int) -> int:
        clauses, forced, conflict = unit_propagate(clauses)
        if conflict:
            return 0
        free -= len(forced)
        if not clauses:
            return 1 << free
        var = _branch_variable(clauses)
        return go(restrict_clauses(clauses, {var: 0}), free - 1) + go(
            restrict_clauses(clauses, {var: 1}), free - 1
        )

    return go(live, formula.n)
