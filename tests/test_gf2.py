import random

import pytest
from scipy.stats import chisquare

from sharpcount.formula import SLICE_BITS, assignment_to_bits
from sharpcount.gf2 import (
    Gf2System,
    RowBasis,
    eliminate,
    prefix,
    random_system,
    sample_solution,
    solution_bits,
    solution_blocks,
)


def satisfies(system: Gf2System, bits: int) -> bool:
    """Bitwise recheck of A x = b for a packed assignment."""
    return all(
        (row & bits).bit_count() & 1 == b for row, b in zip(system.rows, system.rhs)
    )


def brute_solutions(system):
    # independent oracle: test all 2^n assignments against A x = b
    return {
        x
        for x in range(1 << system.n)
        if all(
            bin(row & x).count("1") % 2 == b
            for row, b in zip(system.rows, system.rhs)
        )
    }


def reference_eliminate(system):
    """Gauss-Jordan from scratch, column by column, independent of the row
    basis: (rank, pivot_cols, rows, rhs, consistent)."""
    rows = list(system.rows)
    rhs = list(system.rhs)
    pivot_cols = []
    pivot_row = 0
    for col in range(system.n):
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
    return rank, tuple(pivot_cols), tuple(rows[:rank]), tuple(rhs[:rank]), consistent


def random_dependent_system(rng, n):
    """Up to n + 4 rows, some sparse and a third XORs of earlier rows, so
    dependent rows and inconsistent systems are common."""
    rows = []
    for _ in range(rng.randint(0, n + 4)):
        if rows and rng.random() < 0.35:
            row = 0
            for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                row ^= earlier
        elif rng.random() < 0.3:
            row = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        else:
            row = rng.getrandbits(n)
        rows.append(row)
    return Gf2System(n, tuple(rows), tuple(rng.getrandbits(1) for _ in rows))


class TestConstruction:
    def test_deterministic(self):
        assert random_system(8, 1) == random_system(8, 1)

    def test_one_by_one(self):
        s = random_system(1, 3)
        assert s.m == 1 and s.rows[0] in (0, 1) and s.rhs[0] in (0, 1)

    def test_no_variables(self):
        assert random_system(0, 1) == Gf2System(0, (), ())
        with pytest.raises(ValueError):
            random_system(-1, 1)

    def test_bit_balance(self):
        ones = 0
        n = 64
        seeds = 300
        for seed in range(seeds):
            s = random_system(n, seed)
            ones += sum(row.bit_count() for row in s.rows)
        mean = ones / (seeds * n * n)
        assert 0.45 < mean < 0.55


class TestPrefix:
    def test_full_prefix_identity(self):
        s = random_system(6, 2)
        assert prefix(s, s.m) == s

    def test_empty_prefix(self):
        s = random_system(4, 2)
        p = prefix(s, 0)
        assert p.m == 0
        assert eliminate(p).solution_count == 16

    def test_first_rows(self):
        s = random_system(5, 7)
        p = prefix(s, 2)
        assert p.rows == s.rows[:2] and p.rhs == s.rhs[:2]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prefix(random_system(4, 1), 5)

    def test_nesting(self):
        s = random_system(8, 11)
        outer = brute_solutions(prefix(s, 5))
        inner = brute_solutions(prefix(s, 3))
        assert outer <= inner


class TestEliminate:
    def test_identity_system(self):
        n = 5
        rows = tuple(1 << i for i in range(n))
        rhs = (1, 0, 1, 1, 0)
        e = eliminate(Gf2System(n, rows, rhs))
        assert e.rank == n and e.consistent
        assert list(solution_bits(e)) == [0b01101]

    def test_inconsistent_zero_row(self):
        e = eliminate(Gf2System(3, (0,), (1,)))
        assert not e.consistent and e.solution_count == 0

    def test_two_by_three(self):
        # x1 xor x2 = 1, x2 xor x3 = 0; solutions checked exhaustively
        s = Gf2System(3, (0b011, 0b110), (1, 0))
        assert brute_solutions(s) == {0b001, 0b110}
        e = eliminate(s)
        assert e.rank == 2
        assert set(solution_bits(e)) == {0b001, 0b110}

    def test_matches_brute_oracle(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(1, 10)
            m = rng.randint(0, n + 2)
            rows = tuple(rng.getrandbits(n) for _ in range(m))
            rhs = tuple(rng.getrandbits(1) for _ in range(m))
            s = Gf2System(n, rows, rhs)
            e = eliminate(s)
            expected = brute_solutions(s)
            assert set(solution_bits(e)) == expected
            assert e.solution_count == len(expected)

    def test_matches_gauss_jordan(self):
        rng = random.Random(12)
        inconsistent = 0
        for _ in range(1200):
            s = random_dependent_system(rng, rng.randint(0, 64))
            e = eliminate(s)
            rank, pivot_cols, rows, rhs, consistent = reference_eliminate(s)
            assert (e.n, e.rank, e.consistent) == (s.n, rank, consistent)
            # A free column's delta is its own bit and the pivots whose
            # reduced row holds it.
            free_cols = [c for c in range(s.n) if c not in pivot_cols]
            assert e.deltas == tuple(
                1 << f | sum(1 << p for p, row in zip(pivot_cols, rows) if row >> f & 1)
                for f in free_cols
            )
            if consistent:
                assert e.particular == sum(b << c for c, b in zip(pivot_cols, rhs))
            else:
                # An inconsistent system does not determine the rhs bits.
                assert e.particular is None
                inconsistent += 1
        assert 100 <= inconsistent <= 1100


class TestRowBasisReadOut:
    def test_every_prefix_matches_brute_solutions(self):
        rng = random.Random(4)
        for _ in range(40):
            s = random_dependent_system(rng, rng.randint(0, 12))
            basis = RowBasis(s)
            for nu in range(s.m + 1):
                e = basis.solutions(nu)
                assert set(solution_bits(e)) == brute_solutions(prefix(s, nu))
                assert e == eliminate(prefix(s, nu))


class TestEnumerate:
    def test_empty_system(self):
        e = eliminate(Gf2System(3, (), ()))
        sols = list(solution_bits(e))
        assert len(sols) == 8 and len(set(sols)) == 8

    def test_count_law(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 14)
            s = prefix(random_system(n, rng.getrandbits(32)), rng.randint(0, n))
            e = eliminate(s)
            sols = list(solution_bits(e))
            assert len(sols) == len(set(sols)) == e.solution_count
            for x in sols[:8]:
                assert satisfies(s, x)

    def test_gray_order_single_bit_free_change(self):
        s = prefix(random_system(10, 3), 6)
        e = eliminate(s)
        # A free column is the top bit of its delta, since a reduced pivot
        # row holds free columns only above its pivot.
        free_mask = sum(1 << d.bit_length() - 1 for d in e.deltas)
        assert free_mask.bit_count() == len(e.deltas)
        sols = list(solution_bits(e))
        for a, b in zip(sols, sols[1:]):
            assert ((a ^ b) & free_mask).bit_count() == 1


def decode_blocks(blocks, n):
    """Packed assignments of bit-sliced blocks, bit t of each column at t."""
    out = []
    for columns, width in blocks:
        assert len(columns) == n > 0 and all(column >> width == 0 for column in columns)
        # Column n first, each in binary with bit 0 last: the characters at
        # one position spell one assignment, and the last position is t = 0.
        rows = [format(column, f"0{width}b") for column in reversed(columns)]
        out.extend(reversed([int("".join(bits), 2) for bits in zip(*rows)]))
    return out


class TestBlocks:
    def test_match_solutions_in_binary_order(self):
        rng = random.Random(9)
        cases = [prefix(random_system(n, rng.getrandbits(32)), rng.randint(0, n))
                 for n in (1, 3, 5, 8, 10, 12, 14) for _ in range(4)]
        # 17 free variables: 2^17 solutions over several blocks
        assert 1 << 17 >= 2 * SLICE_BITS
        cases.append(Gf2System(18, (0b11,), (1,)))
        for s in cases:
            e = eliminate(s)
            sols = decode_blocks(solution_blocks(e), s.n)
            if not e.consistent:
                assert sols == []
                continue
            d = len(e.deltas)
            assert len(sols) == 1 << d
            assert set(sols) == set(solution_bits(e))
            free_cols = [delta.bit_length() - 1 for delta in e.deltas]
            free_mask = sum(1 << c for c in free_cols)
            for index in range(0, 1 << d, max(1, (1 << d) >> 10)):
                expected = sum(1 << c for j, c in enumerate(free_cols) if index >> j & 1)
                assert sols[index] & free_mask == expected

    def test_across_the_block_width(self):
        # 2^14 and 2^15 solutions fill one block, 2^16 and 2^17 two and four.
        rng = random.Random(5)
        for d in (14, 15, 16, 17):
            rows = tuple(1 << i | rng.getrandbits(d) << 3 for i in range(3))
            e = eliminate(Gf2System(d + 3, rows, (1, 0, 1)))
            assert len(e.deltas) == d
            blocks = list(solution_blocks(e))
            width = min(1 << d, SLICE_BITS)
            assert [w for _, w in blocks] == [width] * ((1 << d) // width)
            # Solution i of the Gray-code order has free pattern i ^ (i >> 1).
            expected = [0] * (1 << d)
            for i, x in enumerate(solution_bits(e)):
                expected[i ^ (i >> 1)] = x
            sols = decode_blocks(blocks, e.n)
            assert set(sols) == set(solution_bits(e))
            assert sols == expected


class TestSample:
    def test_unique_solution(self):
        rows = tuple(1 << i for i in range(4))
        e = eliminate(Gf2System(4, rows, (1, 1, 0, 0)))
        for seed in range(10):
            assert assignment_to_bits(sample_solution(e, seed)) == 0b0011

    def test_inconsistent(self):
        e = eliminate(Gf2System(3, (0,), (1,)))
        assert sample_solution(e, 1) is None

    def test_uniform_two_solutions(self):
        e = eliminate(Gf2System(3, (0b011, 0b110), (1, 0)))
        counts = {0b001: 0, 0b110: 0}
        trials = 8000
        for seed in range(trials):
            counts[assignment_to_bits(sample_solution(e, seed))] += 1
        assert abs(counts[0b001] / trials - 0.5) < 0.03

    def test_chi_square_uniformity(self):
        rng = random.Random(9)
        for fixture_seed in (1, 2, 3):
            n = 8
            s = prefix(random_system(n, fixture_seed), n - 3)
            e = eliminate(s)
            if not e.consistent:
                continue
            support = list(solution_bits(e))
            counts = {x: 0 for x in support}
            trials = 400 * len(support)
            for i in range(trials):
                counts[assignment_to_bits(sample_solution(e, rng.getrandbits(48)))] += 1
            result = chisquare(list(counts.values()))
            assert result.pvalue > 0.001
