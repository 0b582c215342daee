import json
import math

import pytest

from sharpcount.cli import main
from sharpcount.formula import (
    SLICE_WORDS,
    CnfFormula,
    bits_to_assignment,
    brute_force_count,
    evaluate,
    make_clause,
    random_kcnf,
    to_dimacs,
)
from sharpcount.gf2 import Gf2System, eliminate, prefix, random_system, satisfies, solution_bits
from sharpcount.upper import _constrained_witness, upper_bound


def F(n, *clauses):
    return CnfFormula(n, tuple(make_clause(c) for c in clauses))


def upper_report(tmp_path, capsys, formula, mu, seed):
    """(exit code, stdout) of `sharpcount upper` on `formula`."""
    path = tmp_path / "f.cnf"
    path.write_text(to_dimacs(formula))
    code = main(["upper", "--mu", str(mu), "--seed", str(seed), str(path)])
    return code, capsys.readouterr().out


def witness(formula, system):
    return _constrained_witness(formula, eliminate(system))


class TestConstrainedSat:
    def test_unsat_formula(self):
        assert witness(F(3, [1], [-1]), prefix(random_system(3, 1), 2)) is None

    def test_empty_formula_consistent_system(self):
        system = Gf2System(3, (0b011,), (1,))
        assert satisfies(system, witness(CnfFormula(3, ()), system))

    def test_witness_from_derived_solutions(self):
        # linear system solutions are (1,0,0) and (0,1,1); both satisfy F
        f = F(3, [1, 2])
        system = Gf2System(3, (0b011, 0b110), (1, 0))
        assert witness(f, system) in (0b001, 0b110)

    def test_witness_satisfies_both(self):
        for seed in range(25):
            f = random_kcnf(10, 20, 3, seed)
            s = prefix(random_system(10, seed), 4)
            hit = witness(f, s)
            if hit is None:
                solutions = solution_bits(eliminate(s))
                assert not any(evaluate(f, bits_to_assignment(x, f.n)) for x in solutions)
            else:
                assert satisfies(s, hit) and evaluate(f, bits_to_assignment(hit, f.n))

    def test_witness_in_a_later_block(self):
        # x1 = 1 leaves 19 free variables, 2^19 solutions over several blocks;
        # F's one model among them, all ones, is the last in binary order.
        n = 20
        assert 1 << 19 >= 4 * 64 * SLICE_WORDS
        system = Gf2System(n, (0b1,), (1,))
        f = F(n, *[[v] for v in range(2, n + 1)])
        assert witness(f, system) == (1 << n) - 1
        # The first hit, x19 = x20 = 1 and the rest 0, is solution 2^17 + 2^18,
        # the first assignment of a block past the first.
        g = F(n, [19], [20], [-18])
        hit = witness(g, system)
        assert satisfies(system, hit) and evaluate(g, bits_to_assignment(hit, g.n))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            witness(F(3, [1]), Gf2System(4, (0b0011,), (1,)))


class TestUpperBound:
    def test_unsat_formula_hits_floor(self):
        result = upper_bound(F(6, [1], [-1]), 2, 7)
        assert result.u == 2 and result.bound == 32
        assert all(not sat for _, sat in result.trace)

    def test_mu_equals_n(self):
        f = CnfFormula(6, ())
        for seed in range(5):
            result = upper_bound(f, 6, seed)
            assert result.u == 6
            assert result.bound == 1 << 9

    def test_trace_is_monotone_step(self):
        for seed in range(40):
            f = random_kcnf(10, 20, 3, seed)
            result = upper_bound(f, 0, seed)
            sats = [sat for _, sat in result.trace]
            # scan stops at the first satisfiable prefix: all False then one True
            assert all(not s for s in sats[:-1])
            assert result.mu <= result.u <= result.n
            assert result.bound == 1 << (result.u + 3)

    def test_unconditional_envelope(self):
        # u = n means U = 2^{n+3} >= 2^n >= #F always
        result = upper_bound(CnfFormula(4, ()), 4, 0)
        assert result.bound >= brute_force_count(CnfFormula(4, ()))

    def test_statistical_contract_empty_formula(self):
        f = CnfFormula(12, ())  # #F = 4096, log2 = 12
        in_band = 0
        bound_ok = 0
        for seed in range(100):
            result = upper_bound(f, 0, seed)
            if result.bound >= 4096:
                bound_ok += 1
            if 9 <= result.u <= 15:
                in_band += 1
        assert bound_ok >= 60
        assert in_band >= 60

    def test_no_variables(self):
        result = upper_bound(CnfFormula(0, ()), 0, 1)
        assert result.u == 0 and result.all_sat
        result = upper_bound(CnfFormula(0, ((),)), 0, 1)
        assert result.u == 0 and not result.all_sat

    def test_mu_validation_and_guard(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            upper_bound(F(3, [1]), 4, 0)
        # The CLI guards the scan at 2^26 solutions, after checking mu.
        assert upper_report(tmp_path, capsys, CnfFormula(40, ()), 0, 0) == (2, "")
        assert upper_report(tmp_path, capsys, CnfFormula(40, ()), -1, 0) == (1, "")

    def test_json_schema(self, tmp_path, capsys):
        code, out = upper_report(tmp_path, capsys, F(4, [1]), 0, 3)
        payload = json.loads(out)
        assert code == 0 and payload["seed"] == 3
        assert set(payload) == {"u", "U", "mu", "n", "all_sat", "rank_at_stop", "trace", "seed"}
        assert payload["U"] == 2 ** (payload["u"] + 3)
        result = upper_bound(F(4, [1]), 0, 3)
        assert payload["trace"] == [{"nu": nu, "sat": sat} for nu, sat in result.trace]
