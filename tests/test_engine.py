import math

import pytest

from sharpcount.engine import (
    BETA_ANALYSIS,
    BETA_DETERMINISTIC,
    BETA_SUBROUTINE,
    PROPAGATION,
    SEARCH,
    WALK,
    SolverConfig,
    beta_for,
    boost_count,
    compute_mu,
    decide,
    schoening_success_bound,
    split_seed,
    walk_try,
)
from sharpcount.formula import (
    CnfFormula,
    GuardError,
    brute_force_count,
    evaluate,
    make_clause,
    random_kcnf,
)


def F(n, *clauses):
    return CnfFormula(n, tuple(make_clause(c) for c in clauses))


def with_tautologies(f, seed):
    """f with tautological clauses mixed in; it has the same models."""
    v = 1 + seed % f.n
    clauses = list(f.clauses)
    clauses.insert(seed % (len(clauses) + 1), make_clause([v, -v]))
    clauses.append(make_clause([1, -1, 2]))
    return CnfFormula(f.n, tuple(clauses))


def high_numbered(seed):
    """n=72 formula whose 12 variables are numbered 61..72."""
    base = random_kcnf(12, 30, 3, seed)
    shift = [tuple(l + 60 if l > 0 else l - 60 for l in c) for c in base.clauses]
    return CnfFormula(72, tuple(shift))


def series_sum(k, terms):
    # independent oracle: literal term-by-term summation
    a = 1.0 / (k - 1)
    return sum(1.0 / (j * (j + a)) for j in range(1, terms + 1))


class TestMu:
    def test_k3_closed_form(self):
        # sum for k=3 converges to 4 - 4 ln 2
        assert compute_mu(3, 1e-9) == pytest.approx(4 - 4 * math.log(2), abs=2e-9)

    def test_matches_direct_summation(self):
        for k in (3, 4, 5, 7):
            tol = 1e-6
            direct = series_sum(k, math.ceil(1 / tol))
            assert compute_mu(k, tol) == pytest.approx(direct, abs=1e-10)

    def test_k4_value(self):
        # closed form: 3 * (psi(4/3) + gamma); cross-checked by the k=4
        # growth constant 1.6155 in the scheme tests
        assert compute_mu(4, 1e-9) == pytest.approx(1.3355456, abs=1e-6)

    def test_tolerance_contract(self):
        assert abs(compute_mu(3, 1e-2) - compute_mu(3, 1e-9)) < 1e-2

    def test_monotone_in_truncation(self):
        values = [compute_mu(3, tol) for tol in (1e-2, 1e-3, 1e-4, 1e-6, 1e-9)]
        assert values == sorted(values)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            compute_mu(2, 1e-6)
        with pytest.raises(ValueError):
            compute_mu(3, 0.0)


class TestBeta:
    def test_k3_analysis(self):
        assert beta_for(3, BETA_ANALYSIS) == pytest.approx(0.3864, abs=1e-3)

    def test_k3_deterministic(self):
        assert beta_for(3, BETA_DETERMINISTIC) == 0.4151

    def test_k5_from_mu(self):
        assert beta_for(5, BETA_ANALYSIS) == pytest.approx(
            1 - compute_mu(5, 1e-12) / 4, abs=1e-12
        )

    def test_subroutine_is_walk_exponent(self):
        for k in (3, 4, 6):
            assert beta_for(k, BETA_SUBROUTINE) == math.log2(2 * (k - 1) / k)
            assert 2 ** -beta_for(k, BETA_SUBROUTINE) == pytest.approx(
                schoening_success_bound(k, 1)
            )


class TestWalk:
    def test_unsat_never_claims_solution(self):
        f = F(2, [1], [-1])
        for seed in range(50):
            assert not walk_try(f, 3, seed).found

    def test_empty_formula_first_assignment(self):
        out = walk_try(CnfFormula(5, ()), 3, 1)
        assert out.found and len(out.witness) == 5

    def test_empty_formula_uniform_start(self):
        # Variables in no clause keep the uniform start, also past 62.
        witnesses = [walk_try(CnfFormula(70, ()), 3, seed).witness for seed in range(4)]
        for w in witnesses:
            assert len(w) == 70 and set(w) == {0, 1}
        assert len(set(witnesses)) == 4

    def test_high_variable_numbers(self):
        # The walk numbers the residual's own variables, so 12 active
        # variables numbered up to 72 need no guard.
        for seed in range(5):
            f = high_numbered(seed)
            out = walk_try(f, 3, seed)
            assert out.decider == WALK
            if out.found:
                assert evaluate(f, out.witness)

    def test_forced_literal(self):
        f = F(2, [1], [1, 2])
        out = decide(f, 3, 0.01, 9)
        assert out.found and out.witness[0] == 1

    def test_witness_always_satisfies(self):
        for seed in range(40):
            f = random_kcnf(10, 35, 3, seed)
            for f in (f, with_tautologies(f, seed)):
                out = walk_try(f, 3, seed)
                if out.found:
                    assert evaluate(f, out.witness)


class TestDecide:
    def test_one_sided_on_unsat(self):
        found = 0
        checked = 0
        for seed in range(60):
            f = random_kcnf(8, 45, 3, seed)
            if brute_force_count(f) == 0:
                checked += 1
                assert not decide(f, 3, 0.2, seed).found
        assert checked > 5  # density 5.6 gives plenty of unsat instances

    def test_finds_satisfiable(self):
        misses = 0
        runs = 0
        for seed in range(80):
            f = random_kcnf(10, 30, 3, seed)
            if brute_force_count(f) > 0:
                runs += 1
                if not decide(f, 3, 0.05, split_seed(seed, 1)).found:
                    misses += 1
        # miss rate <= delta plus generous binomial slack
        assert misses <= 0.05 * runs + 4

    def test_deterministic_per_seed(self):
        f = random_kcnf(12, 40, 3, 3)
        a = decide(f, 3, 0.1, 77)
        b = decide(f, 3, 0.1, 77)
        assert a == b

    def test_exhaustive_mode_exact(self):
        # At delta=0.1 the budget is 30 nodes, enough for the complete
        # search to settle every one of these n=9 formulas exactly.
        for seed in range(30):
            f = random_kcnf(9, 40, 3, seed)
            for f in (f, with_tautologies(f, seed)):
                out = decide(f, 3, 0.1, seed)
                assert out.found == (brute_force_count(f) > 0)
                assert out.decider in (PROPAGATION, SEARCH) and out.rigorous
                assert out.tries_used == 0

    def test_search_budget_exhausted_falls_back_to_walk(self):
        f = random_kcnf(20, 85, 3, 1)  # no unit clauses: needs branching
        out = decide(f, 3, 1e-4, 1, SolverConfig(max_tries=1))
        assert out.decider == WALK
        assert out.tries_used == 1 and not out.rigorous

    def test_walk_fallback_high_variable_numbers(self):
        for seed in range(5):
            f = high_numbered(seed)
            out = decide(f, 3, 0.1, seed, SolverConfig(max_tries=1))
            assert out.decider == WALK
            if out.found:
                assert evaluate(f, out.witness)

    def test_walk_fallback_guards_active_variables(self):
        # More than 62 active variables left after the search budget: the
        # walk cannot pack them into one word.
        f = random_kcnf(70, 140, 3, 1)
        with pytest.raises(GuardError):
            decide(f, 3, 0.1, 1, SolverConfig(max_tries=1))

    def test_search_completes_unsat_within_budget(self):
        # Unsatisfiable, no units: branching on x1 propagates to a conflict
        # on either side, so the search finishes in 3 nodes. The boost count
        # (26) is capped at 10, yet the finished search is rigorous.
        f = F(3, [1, 2], [1, -2], [-1, 3], [-1, -3])
        out = decide(f, 3, 1e-6, 1, SolverConfig(max_tries=10))
        assert not out.found
        assert out.decider == SEARCH and out.rigorous and out.tries_used == 0

    def test_propagation_decider(self):
        assert decide(F(2, [1], [-1]), 3, 0.1, 1).decider == PROPAGATION
        out = decide(F(2, [1], [-1, 2]), 3, 0.1, 1)
        assert out.found and out.decider == PROPAGATION

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            decide(F(1, [1]), 3, 0.0, 1)
        with pytest.raises(ValueError):
            decide(F(1, [1]), 3, 1.0, 1)

    def test_boost_count_cap_flags_best_effort(self):
        cfg = SolverConfig(max_tries=10)
        tries, rigorous = boost_count(3, 30, 1e-6, cfg)
        assert tries == 10 and not rigorous
        tries, rigorous = boost_count(3, 3, 0.1, cfg)
        assert rigorous

    def test_monotone_boosting(self):
        # empirical miss rate shrinks roughly like (single-try miss)^M
        f = random_kcnf(10, 41, 3, 11)  # satisfiable, few solutions
        assert brute_force_count(f) > 0
        single = sum(
            not walk_try(f, 3, split_seed(5, i)).found for i in range(300)
        ) / 300
        cfg = SolverConfig(max_tries=500_000)
        boosted_delta = 0.02
        misses = sum(
            not decide(f, 3, boosted_delta, split_seed(7, i), cfg).found
            for i in range(120)
        )
        assert single > 0  # a single try does miss sometimes at this density
        assert misses <= boosted_delta * 120 + 4
