import math
import random

import pytest

from sharpcount.formula import (
    CnfFormula,
    GuardError,
    ParseError,
    affine_slices,
    bits_to_assignment,
    brute_force_count,
    dpll_count,
    evaluate,
    is_tautology,
    make_clause,
    parse_dimacs,
    random_kcnf,
    restrict_clauses,
    to_dimacs,
)


def F(n, *clauses):
    return CnfFormula(n, tuple(make_clause(c) for c in clauses))


class TestParse:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f.n == 2
        assert f.clauses == ((1, -2),)

    def test_empty_formula(self):
        f = parse_dimacs("p cnf 3 0\n")
        assert f.n == 3 and f.m == 0 and f.k == 0

    def test_width_kept_out_of_equality(self):
        f, g = F(4, [1, -2, 3], [4], []), F(4, [1, -2, 3], [4], [])
        assert f.k == 3
        # Reading k on one formula and not the other changes neither
        # equality nor the hash.
        assert f == g and hash(f) == hash(g) and g.k == 3
        assert f != F(4, [1, -2, 4], [4], [])

    def test_comments_and_multiline_clause(self):
        f = parse_dimacs("c hi\np cnf 3 1\nc mid\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_duplicate_literals_deduplicated(self):
        f = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
        assert f.clauses == ((1, -2),)

    def test_tautology_retained(self):
        f = parse_dimacs("p cnf 2 1\n1 -1 0\n")
        assert is_tautology(f.clauses[0])

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_dimacs("p cnf 2 1\n3 0\n")
        assert exc.value.line == 2

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("p dnf 2 1\n1 0\n")
        with pytest.raises(ParseError):
            parse_dimacs("p cnf two 1\n1 0\n")

    def test_wrong_clause_count(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 2\n1 0\n")
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 0\n2 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_satlib_end_marker(self):
        # SATLIB's uf*/uuf* files end their clause data with `%`, then `0`.
        f = parse_dimacs("c SATLIB\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n")
        assert f.clauses == ((1, -2, 3), (-1, 2))
        # Any other non-integer token is still an error, with its line.
        cases = (("p cnf 3 1\n1 -2 0\n% 0\n", 3), ("p cnf 3 1\n1 % 0\n", 2), ("p cnf 3 1\nx 0\n", 2))
        for text, line in cases:
            with pytest.raises(ParseError, match="non-integer token") as exc:
                parse_dimacs(text)
            assert exc.value.line == line

    def test_roundtrip_identity(self):
        for seed in range(20):
            f = random_kcnf(9, 25, 3, seed)
            assert parse_dimacs(to_dimacs(f)) == f


class TestRestrict:
    def test_satisfied_clause_removed(self):
        f = F(2, [1, -2])
        assert restrict_clauses(f.clauses, {2: 0}) == []

    def test_all_literals_falsified(self):
        f = F(2, [1, 2])
        assert restrict_clauses(f.clauses, {1: 0, 2: 0}) == [()]

    def test_literal_removed(self):
        f = F(3, [1, 2, 3])
        assert restrict_clauses(f.clauses, {1: 0}) == [(2, 3)]

    def test_restriction_commutes(self):
        # order of application does not matter on disjoint assignments
        import random

        for seed in range(30):
            rng = random.Random(seed)
            f = random_kcnf(10, 30, 3, seed)
            variables = rng.sample(range(1, 11), 4)
            alpha = {v: rng.getrandbits(1) for v in variables[:2]}
            beta = {v: rng.getrandbits(1) for v in variables[2:]}
            both = restrict_clauses(restrict_clauses(f.clauses, alpha), beta)
            merged = restrict_clauses(f.clauses, {**alpha, **beta})
            assert both == merged


class TestEvaluate:
    def test_contradiction(self):
        f = F(1, [1], [-1])
        assert not evaluate(f, (0,)) and not evaluate(f, (1,))

    def test_empty_formula_vacuous(self):
        f = CnfFormula(2, ())
        assert evaluate(f, (0, 0)) and evaluate(f, (1, 1))

    def test_direct(self):
        f = F(2, [1, -2])
        assert not evaluate(f, (0, 1))
        assert evaluate(f, (1, 1))

    def test_consistency_with_restriction(self):
        import random

        for seed in range(25):
            f = random_kcnf(8, 20, 3, seed)
            a = tuple(random.Random(seed).getrandbits(1) for _ in range(8))
            residual = restrict_clauses(f.clauses, {i + 1: v for i, v in enumerate(a)})
            # under a total assignment every clause is either removed or empty
            assert evaluate(f, a) == (residual == [])


class TestRandomKcnf:
    def test_deterministic(self):
        assert random_kcnf(10, 42, 3, 7) == random_kcnf(10, 42, 3, 7)

    def test_empty(self):
        f = random_kcnf(3, 0, 3, 0)
        assert f.m == 0

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            random_kcnf(2, 1, 3, 0)

    def test_k_below_one(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"clause width k must be >= 1, got {k}"):
                random_kcnf(10, 5, k, 0)

    def test_negative_m(self):
        with pytest.raises(ValueError):
            random_kcnf(5, -2, 3, 0)

    def test_shape(self):
        f = random_kcnf(10, 42, 3, 1)
        assert f.m == 42
        assert all(len(c) == 3 for c in f.clauses)
        assert all(len({abs(l) for l in c}) == 3 for c in f.clauses)


class TestCounting:
    def test_brute_examples(self):
        assert brute_force_count(F(2, [1, 2])) == 3
        assert brute_force_count(CnfFormula(5, ())) == 32
        assert brute_force_count(F(4, [1], [-1])) == 0

    def test_brute_guard(self):
        with pytest.raises(GuardError):
            brute_force_count(CnfFormula(31, ()))

    def test_dpll_examples(self):
        assert dpll_count(F(3, [1, 2, 3])) == 7
        assert dpll_count(F(3, [1, 2], [])) == 0
        assert dpll_count(F(2, [1, -1])) == 4  # tautology counts as satisfied

    def test_dpll_matches_brute_force(self):
        for seed in range(40):
            n = 6 + seed % 9
            f = random_kcnf(n, int(3.5 * n), 3, seed)
            assert dpll_count(f) == brute_force_count(f)


class TestSliceKernel:
    def _random_formula(self, rng, n):
        clauses = []
        for _ in range(rng.randint(0, 3 * n)):
            chosen = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
            clauses.append(make_clause(v if rng.getrandbits(1) else -v for v in chosen))
        if n and rng.random() < 0.3:
            clauses.append((-1, 1))  # tautology
        if rng.random() < 0.1:
            clauses.append(())  # empty clause
        rng.shuffle(clauses)
        return CnfFormula(n, tuple(clauses))

    def test_matches_evaluate_on_every_assignment(self):
        rng = random.Random(3)
        for _ in range(80):
            # one block of width 2^n, down to a single assignment at n = 0
            n = rng.choice((0, 1, 2, 3, 5, 6, 7, 9))
            f = self._random_formula(rng, n)
            bits = []
            for columns, width in affine_slices(n, 0, [1 << i for i in range(n)]):
                sat = f.satisfying_bits(columns, width)
                assert sat >> width == 0
                bits.extend(bool(sat >> t & 1) for t in range(width))
            expected = [evaluate(f, bits_to_assignment(x, n)) for x in range(1 << n)]
            assert bits == expected
            assert brute_force_count(f) == sum(expected)

    def test_arbitrary_slices(self):
        rng = random.Random(4)
        for seed in range(20):
            f = self._random_formula(rng, 12)
            # A width that is no multiple of 64 and over three words of 64.
            width = 200
            draw = random.Random(seed)
            columns = [draw.getrandbits(width) for _ in range(12)]
            sat = f.satisfying_bits(columns, width)
            assert sat >> width == 0
            for t in range(width):
                x = sum((column >> t & 1) << i for i, column in enumerate(columns))
                assert bool(sat >> t & 1) == evaluate(f, bits_to_assignment(x, 12))

    def test_block_shape_checked(self):
        with pytest.raises(ValueError):
            F(3, [1]).satisfying_bits([0] * 4, 1)
