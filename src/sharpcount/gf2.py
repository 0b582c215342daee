"""Random GF(2) linear systems with bit-packed rows.

A row is a Python integer whose bit i is the coefficient of variable i+1; the
right-hand side is one bit per row. Elimination XORs whole rows, solution
enumeration sweeps the free variables in Gray-code order (one XOR per
solution) or yields them in bit-sliced blocks, and sampling assigns free
variables fair coins and back-substitutes the pivots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .formula import Assignment, affine_slices, bits_to_assignment


@dataclass(frozen=True)
class Gf2System:
    """m x n system A x = b; rows[i] holds row i of A bit-packed."""

    n: int
    rows: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise ValueError("rows and rhs length mismatch")
        full = (1 << self.n) - 1
        for row in self.rows:
            if row & ~full:
                raise ValueError("row has bits beyond column count")
        for bit in self.rhs:
            if bit not in (0, 1):
                raise ValueError("rhs entries must be bits")

    @property
    def m(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class EchelonForm:
    n: int
    rank: int
    pivot_cols: tuple[int, ...]
    rows: tuple[int, ...]
    rhs: tuple[int, ...]
    consistent: bool
    free_cols: tuple[int, ...]
    particular: int | None

    @property
    def solution_count(self) -> int:
        return (1 << (self.n - self.rank)) if self.consistent else 0


def random_system(n: int, seed: int) -> Gf2System:
    """n x n system with every entry of A and b an independent fair coin;
    the empty system for n = 0."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    rng = random.Random(seed)
    rows = tuple(rng.getrandbits(n) for _ in range(n))
    rhs = tuple(rng.getrandbits(1) for _ in range(n))
    return Gf2System(n, rows, rhs)


def prefix(system: Gf2System, nu: int) -> Gf2System:
    """The first nu rows (and rhs entries) of the system."""
    if not 0 <= nu <= system.m:
        raise ValueError(f"prefix length {nu} outside [0, {system.m}]")
    return Gf2System(system.n, system.rows[:nu], system.rhs[:nu])


def eliminate(system: Gf2System) -> EchelonForm:
    """Gauss-Jordan elimination to reduced row echelon form."""
    rows = list(system.rows)
    rhs = list(system.rhs)
    n = system.n
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(n):
        bit = 1 << col
        src = next((i for i in range(pivot_row, len(rows)) if rows[i] & bit), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        rhs[pivot_row], rhs[src] = rhs[src], rhs[pivot_row]
        for i in range(len(rows)):
            if i != pivot_row and rows[i] & bit:
                rows[i] ^= rows[pivot_row]
                rhs[i] ^= rhs[pivot_row]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    rank = pivot_row
    consistent = not any(rows[i] == 0 and rhs[i] for i in range(rank, len(rows)))
    pivots = set(pivot_cols)
    free_cols = tuple(c for c in range(n) if c not in pivots)
    particular = None
    if consistent:
        # Free variables at 0: each pivot takes its own rhs bit.
        particular = 0
        for i, col in enumerate(pivot_cols):
            if rhs[i]:
                particular |= 1 << col
    return EchelonForm(
        n=n,
        rank=rank,
        pivot_cols=tuple(pivot_cols),
        rows=tuple(rows[:rank]),
        rhs=tuple(rhs[:rank]),
        consistent=consistent,
        free_cols=free_cols,
        particular=particular,
    )


def _free_deltas(echelon: EchelonForm) -> list[int]:
    """Per free column: the XOR pattern a unit change of that free variable
    induces on the full solution (the free bit plus dependent pivots)."""
    deltas = []
    for col in echelon.free_cols:
        bit = 1 << col
        delta = bit
        for i, pcol in enumerate(echelon.pivot_cols):
            if echelon.rows[i] & bit:
                delta |= 1 << pcol
        deltas.append(delta)
    return deltas


def solution_bits(echelon: EchelonForm) -> Iterator[int]:
    """All solutions as packed integers, Gray-code order over free columns."""
    if not echelon.consistent:
        return
    deltas = _free_deltas(echelon)
    x = echelon.particular
    yield x
    total = 1 << len(deltas)
    gray = 0
    for i in range(1, total):
        g = i ^ (i >> 1)
        x ^= deltas[(gray ^ g).bit_length() - 1]
        gray = g
        yield x


def solution_blocks(echelon: EchelonForm) -> Iterator[np.ndarray]:
    """All solutions as bit-sliced blocks (see `CnfFormula.satisfying_words`),
    in binary order of the free variables; nothing when inconsistent."""
    if echelon.consistent:
        yield from affine_slices(echelon.n, echelon.particular, _free_deltas(echelon))


def sample_solution(echelon: EchelonForm, seed: int) -> Assignment | None:
    """Uniform solution, or None when the system is inconsistent."""
    if not echelon.consistent:
        return None
    rng = random.Random(seed)
    x = echelon.particular
    for delta in _free_deltas(echelon):
        if rng.getrandbits(1):
            x ^= delta
    return bits_to_assignment(x, echelon.n)


def satisfies(system: Gf2System, bits: int) -> bool:
    """Bitwise recheck of A x = b for a packed assignment."""
    return all(
        (row & bits).bit_count() & 1 == b for row, b in zip(system.rows, system.rhs)
    )
