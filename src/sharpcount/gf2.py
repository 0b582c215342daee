"""Random GF(2) linear systems with bit-packed rows.

A row is a Python integer whose bit i is the coefficient of variable i+1; the
right-hand side is one bit per row. Elimination inserts the rows one by one
into a stamped basis (`RowBasis`), which reads out the solutions of any row
prefix as one affine form (`SolutionSpace`): a particular solution and one
XOR pattern per free variable. Unit equations x_v = value go on top of the
rows along a trail that the basis undoes, so a search keeps one basis in
step with its assignment. Solution enumeration sweeps the free
variables in Gray-code order (one XOR per solution) or yields them in
bit-sliced blocks, and sampling XORs in the pattern of each free variable
that a fair coin sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

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
class SolutionSpace:
    """The solutions of A x = b as particular ^ (any XOR of deltas), packed.

    deltas[j] is what setting the j-th free variable, in increasing column
    order, flips: its own bit and those of the pivots that depend on it.
    `particular` has every free variable at 0; it is None when the system
    is inconsistent, and the deltas still give the rank."""

    n: int
    particular: int | None
    deltas: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.n - len(self.deltas)

    @property
    def consistent(self) -> bool:
        return self.particular is not None

    @property
    def solution_count(self) -> int:
        return (1 << len(self.deltas)) if self.consistent else 0


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


class RowBasis:
    """An incremental basis of the equations of A x = b, the package's one
    elimination kernel.

    An equation is packed as row | rhs << n, so 0 = 1 is the vector 1 << n.
    Each vector is keyed by its lowest set bit, its pivot, so the basis is
    in echelon form, and carries a stamp: the index of the last row it
    combines, -1 for a unit equation x_v = value alone. Of two vectors that
    compete for one key the basis keeps the lower stamp, so for every t its
    vectors stamped <= t span the rows up to t with the units.
    Rows are inserted in order at construction and never displace each
    other; only units do. The units form a trail, as the upper scan's
    search assigns and backtracks them: `saved[i]` holds the (key, vector,
    stamp) of each slot that unit i overwrote, and `undo_to` restores them."""

    def __init__(self, system: Gf2System):
        self.n = system.n
        self.m = system.m
        self.vectors = [0] * (system.n + 1)  # by lowest set bit
        self.stamps = [0] * (system.n + 1)
        self.saved: list[list[tuple[int, int, int]]] = []
        for i, (row, b) in enumerate(zip(system.rows, system.rhs)):
            self._insert(row | b << system.n, i, [])

    def assign(self, var: int, value: int) -> None:
        """Add the unit equation x_var = value on top of the trail."""
        writes = []
        self.saved.append(writes)
        self._insert(1 << (var - 1) | value << self.n, -1, writes)

    def undo_to(self, length: int) -> None:
        """Take back the units after the trail's first `length`, latest
        first, as `SearchState.undo_to` does."""
        vectors, stamps = self.vectors, self.stamps
        for writes in reversed(self.saved[length:]):
            for key, x, stamp in writes:
                vectors[key], stamps[key] = x, stamp
        del self.saved[length:]

    def consistent_prefix(self) -> int:
        """The most leading rows that stay consistent with the units."""
        return self.stamps[self.n] if self.vectors[self.n] else self.m

    def rank(self, nu: int) -> int:
        """The rank of the first nu rows with the units, without reading out
        their solutions."""
        return sum(1 for x, stamp in zip(self.vectors[: self.n], self.stamps) if x and stamp < nu)

    def solutions(self, nu: int) -> SolutionSpace:
        """The solutions of the first nu rows with the units:
        back-substitution over the vectors stamped below nu, O(rank^2) XORs.
        A reduced vector holds its pivot and free bits above it, so each of
        its free bits adds the pivot to that free variable's delta."""
        n, vectors, stamps = self.n, self.vectors, self.stamps
        full = (1 << n) - 1
        reduced = [0] * n
        deltas = [0] * n  # by column, 0 for a pivot
        pivots = particular = 0
        for col in range(n - 1, -1, -1):
            x = vectors[col]
            if not (x and stamps[col] < nu):
                deltas[col] = 1 << col
                continue
            higher = x & pivots
            while higher:
                low = higher & -higher
                x ^= reduced[low.bit_length() - 1]
                higher ^= low
            reduced[col] = x
            pivots |= 1 << col
            particular |= (x >> n) << col
            free = x & full & ~pivots
            while free:
                low = free & -free
                deltas[low.bit_length() - 1] |= 1 << col
                free ^= low
        consistent = not (vectors[n] and stamps[n] < nu)
        return SolutionSpace(
            n, particular if consistent else None, tuple([d for d in deltas if d])
        )

    def _insert(self, x: int, stamp: int, writes: list) -> None:
        """Reduce x into the basis; `writes` gets the old (key, vector,
        stamp) of each slot it overwrites, at rising keys."""
        vectors, stamps = self.vectors, self.stamps
        while x:
            key = (x & -x).bit_length() - 1
            pivot = vectors[key]
            if not pivot:
                writes.append((key, 0, stamps[key]))
                vectors[key] = x
                stamps[key] = stamp
                return
            if stamps[key] > stamp:
                # Keep the lower stamp; reduce the vector it displaces.
                writes.append((key, pivot, stamps[key]))
                vectors[key], x = x, pivot
                stamps[key], stamp = stamp, stamps[key]
            x ^= vectors[key]


def eliminate(system: Gf2System) -> SolutionSpace:
    """The solutions of the whole system."""
    return RowBasis(system).solutions(system.m)


def solution_bits(space: SolutionSpace) -> Iterator[int]:
    """All solutions as packed integers, Gray-code order over free columns."""
    if not space.consistent:
        return
    deltas = space.deltas
    x = space.particular
    yield x
    total = 1 << len(deltas)
    gray = 0
    for i in range(1, total):
        g = i ^ (i >> 1)
        x ^= deltas[(gray ^ g).bit_length() - 1]
        gray = g
        yield x


def solution_blocks(space: SolutionSpace) -> Iterator[tuple[list[int], int]]:
    """All solutions as the bit-sliced blocks of `affine_slices`, in binary
    order of the free variables; nothing when inconsistent."""
    if space.consistent:
        yield from affine_slices(space.n, space.particular, space.deltas)


def sample_solution(space: SolutionSpace, seed: int) -> Assignment | None:
    """Uniform solution, or None when the system is inconsistent."""
    if not space.consistent:
        return None
    rng = random.Random(seed)
    x = space.particular
    for delta in space.deltas:
        if rng.getrandbits(1):
            x ^= delta
    return bits_to_assignment(x, space.n)
