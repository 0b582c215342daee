import json
import math
import random

import pytest

from sharpcount import upper
from sharpcount.cli import main
from sharpcount.formula import (
    SLICE_BITS,
    CnfFormula,
    GuardError,
    bits_to_assignment,
    brute_force_count,
    dpll_count,
    evaluate,
    make_clause,
    random_kcnf,
    to_dimacs,
)
from sharpcount.gf2 import (
    Gf2System,
    RowBasis,
    eliminate,
    prefix,
    random_system,
    solution_bits,
    solution_blocks,
)
from sharpcount.upper import upper_bound
from test_gf2 import satisfies


def F(n, *clauses):
    return CnfFormula(n, tuple(make_clause(c) for c in clauses))


def upper_report(tmp_path, capsys, formula, mu, seed):
    """(exit code, stdout) of `sharpcount upper` on `formula`."""
    path = tmp_path / "f.cnf"
    path.write_text(to_dimacs(formula))
    code = main(["upper", "--mu", str(mu), "--seed", str(seed), str(path)])
    return code, capsys.readouterr().out


def constrained_witness(formula, space):
    """A solution of the linear system that satisfies F, packed, or None:
    every solution is checked against F, a bit-sliced block at a time."""
    for columns, width in solution_blocks(space):
        sat = formula.satisfying_bits(columns, width)
        if sat:
            t = (sat & -sat).bit_length() - 1
            return sum((column >> t & 1) << i for i, column in enumerate(columns))
    return None


def witness(formula, system):
    return constrained_witness(formula, eliminate(system))


def reference_scan(formula, mu, seed):
    """The downward sweep, the reference for `upper_bound`: every prefix
    from nu = n down is swept until one is satisfiable. Returns
    (u, all_sat, rank_at_stop, trace)."""
    n = formula.n
    system = random_system(n, seed)
    trace = []
    u, all_sat, rank = mu, False, 0
    for nu in range(n, mu - 1, -1):
        space = eliminate(prefix(system, nu))
        rank = space.rank
        hit = constrained_witness(formula, space)
        trace.append((nu, hit is not None))
        if hit is not None:
            all_sat = nu == n
            u = n if all_sat else nu + 1
            break
    return u, all_sat, rank, tuple(trace)


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
        assert 1 << 19 >= 4 * SLICE_BITS
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

    def test_mu_validation_and_guard(self, tmp_path, capsys, monkeypatch):
        with pytest.raises(ValueError):
            upper_bound(F(3, [1]), 4, 0)
        assert upper_report(tmp_path, capsys, CnfFormula(40, ()), -1, 0) == (1, "")
        # n - mu = 30 is answered; the search takes 23 nodes.
        f = random_kcnf(30, 144, 3, 1)
        code, out = upper_report(tmp_path, capsys, f, 0, 1)
        assert code == 0 and json.loads(out)["search_nodes"] == 23
        # A search that needs more nodes than the bound exits 2.
        monkeypatch.setattr(upper, "MAX_SEARCH_NODES", 22)
        with pytest.raises(GuardError, match="more than 22 nodes"):
            upper_bound(f, 0, 1)
        assert upper_report(tmp_path, capsys, f, 0, 1) == (2, "")
        monkeypatch.setattr(upper, "MAX_SEARCH_NODES", 23)
        assert upper_bound(f, 0, 1).search_nodes == 23

    def test_json_schema(self, tmp_path, capsys):
        code, out = upper_report(tmp_path, capsys, F(4, [1]), 0, 3)
        payload = json.loads(out)
        assert code == 0 and payload["seed"] == 3
        assert set(payload) == {
            "u", "U", "mu", "n", "all_sat", "rank_at_stop", "trace", "seed", "search_nodes", "swept",
        }
        assert payload["U"] == 2 ** (payload["u"] + 3)
        result = upper_bound(F(4, [1]), 0, 3)
        assert payload["trace"] == [{"nu": nu, "sat": sat} for nu, sat in result.trace]


class TestAgainstSweep:
    """`upper_bound` against the sweep of every prefix: the search finds the
    same first satisfiable prefix, so every field of the result must be the
    sweep's."""

    @staticmethod
    def check(formula, mu, seed):
        result = upper_bound(formula, mu, seed)
        expected = reference_scan(formula, mu, seed)
        assert (result.u, result.all_sat, result.rank_at_stop, result.trace) == expected
        # Blocks wait for the first model, so an unsatisfiable F has none.
        if not dpll_count(formula):
            assert result.swept == 0
        return result

    def test_random_cases(self):
        rng = random.Random(11)
        blocked = unblocked = 0
        for case in range(560):
            n = rng.randint(3, 16) if case < 500 else rng.randint(17, 24)
            f = random_kcnf(n, round(rng.uniform(0.5, 6.0) * n), 3, rng.getrandbits(32))
            result = self.check(f, rng.randint(0, n), rng.getrandbits(32))
            # A block settled a node below the root, or a satisfiable F
            # was settled by branching alone.
            blocked += result.search_nodes > 1 and result.swept > 0
            unblocked += result.swept == 0 and dpll_count(f) > 0
        assert blocked >= 10 and unblocked >= 10, (blocked, unblocked)

    def test_edge_cases(self):
        for seed in range(8):
            # Prefix 0 has solutions, and the search refutes F at its root.
            assert self.check(F(1, [1], [-1]), 0, seed).search_nodes == 1
            self.check(F(1, [1], [-1]), 1, seed)
            # With no open clause the root is the one node.
            assert self.check(CnfFormula(0, ()), 0, seed).search_nodes == 1
            assert self.check(CnfFormula(0, ((),)), 0, seed).search_nodes == 1
            for n in (1, 6, 12):
                assert self.check(CnfFormula(n, ((),)), 0, seed).search_nodes == 1
                assert self.check(CnfFormula(n, ()), 0, seed).search_nodes == 1
                for mu in range(n + 1):
                    self.check(random_kcnf(max(n, 3), 2 * n, 3, seed), mu, seed)
                self.check(CnfFormula(n, ()), n, seed)

    def test_unsatisfiable_formula_is_not_swept(self):
        # The search refutes F at its root, before any block is checked.
        result = upper_bound(F(6, [1], [-1]), 0, 7)
        assert result.search_nodes == 1 and result.swept == 0
        assert result.trace == tuple((nu, False) for nu in range(6, -1, -1))

    def test_no_basis_before_the_first_model(self, monkeypatch):
        # At mu = 0 no bound can prune before the first model, so refuting
        # an unsatisfiable F over 19 nodes draws no system.
        f = random_kcnf(20, 100, 3, 7)
        expected = upper_bound(f, 0, 7)

        def unused(*args):
            raise AssertionError("the scan built GF(2) state")

        monkeypatch.setattr(upper, "RowBasis", unused)
        monkeypatch.setattr(upper, "random_system", unused)
        result = upper_bound(f, 0, 7)
        assert result == expected
        assert (result.u, result.rank_at_stop, result.search_nodes) == (0, 0, 19)
        assert result.trace == tuple((nu, False) for nu in range(20, -1, -1))

    def test_pinned_results(self):
        # At mu = 0 the basis is built at the first model leaf with 14
        # siblings pending at 14 distinct trail prefixes; each must be
        # bounded on the units of its own prefix, or it would prune or sweep
        # differently.
        f = random_kcnf(30, 30, 3, 1)
        assert upper_bound(f, 0, 101) == upper.UpperResult(
            u=24,
            mu=0,
            n=30,
            all_sat=False,
            rank_at_stop=23,
            trace=tuple((nu, nu == 23) for nu in range(30, 22, -1)),
            search_nodes=29,
            swept=122,
        )
        # With mu > 0 the root's bound needs the basis, built before the
        # search.
        f = random_kcnf(30, 60, 3, 1)
        assert upper_bound(f, 5, 101) == upper.UpperResult(
            u=19,
            mu=5,
            n=30,
            all_sat=False,
            rank_at_stop=18,
            trace=tuple((nu, nu == 18) for nu in range(30, 17, -1)),
            search_nodes=19,
            swept=3619,
        )

    def test_blocks_settle_many_models(self):
        # At density 2.0 F has about 2^30 models: branching down to single
        # models took 8,304 nodes over these five; blocks settle the
        # subspaces below a few hundred.
        results = [upper_bound(random_kcnf(50, 100, 3, s), 0, s + 100) for s in range(5)]
        assert [r.u for r in results] == [30, 29, 34, 32, 32]
        assert sum(r.search_nodes for r in results) < 1000


class TestRowBasis:
    def test_matches_elimination(self):
        """After each unit equation, the consistent prefix is the most
        leading rows that one assignment agreeing with the units satisfies,
        read off the exhaustive solution sets of the prefixes. Undoing to
        the first j units then leaves the basis that those j units, added
        in order to a fresh basis, make."""

        def prefix_solutions(system):
            # solutions[nu]: every x satisfying the first nu rows
            solutions = [range(1 << system.n)]
            for row, b in zip(system.rows, system.rhs):
                solutions.append([x for x in solutions[-1] if (row & x).bit_count() & 1 == b])
            return solutions

        def longest_consistent(solutions, assigned, values):
            return max(
                nu for nu, xs in enumerate(solutions) if any(x & assigned == values for x in xs)
            )

        def readout(basis):
            ranks = [basis.rank(nu) for nu in range(basis.n + 1)]
            return basis.vectors, basis.stamps, basis.consistent_prefix(), ranks

        rng = random.Random(3)
        displaced = 0
        for trial in range(200):
            n = rng.randint(0, 12)
            system = random_system(n, trial)
            if n and trial % 3 == 0:
                # Repeated rows make dependent prefixes common.
                rows = [rng.choice(system.rows[: i + 1]) for i in range(n)]
                system = Gf2System(n, tuple(rows), system.rhs)
            solutions = prefix_solutions(system)
            basis = RowBasis(system)
            assigned = values = 0
            units = []
            assert basis.consistent_prefix() == longest_consistent(solutions, 0, 0)
            for i in rng.sample(range(n), rng.randint(0, n)):
                value = rng.getrandbits(1)
                basis.assign(i + 1, value)
                units.append((i + 1, value))
                assigned |= 1 << i
                values |= value << i
                assert basis.consistent_prefix() == longest_consistent(solutions, assigned, values)
                assert all(basis.rank(nu) == basis.solutions(nu).rank for nu in range(n + 1))
            # Some unit displaced a row vector: a slot it wrote was not empty.
            displaced += any(old for writes in basis.saved for _, old, _ in writes)
            for j in (rng.randint(0, len(units)), 0):
                basis.undo_to(j)
                fresh = RowBasis(system)
                for var, value in units[:j]:
                    fresh.assign(var, value)
                assert readout(basis) == readout(fresh)
        assert displaced >= 100, displaced
