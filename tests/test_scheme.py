import itertools
import math
import random

import pytest

from sharpcount import scheme
from sharpcount.engine import beta_for, split_seed
from sharpcount.formula import (
    SLICE_BITS,
    CnfFormula,
    GuardError,
    brute_force_count,
    evaluate,
    make_clause,
    random_kcnf,
)
from sharpcount.scheme import (
    EXACT_MODE,
    SAMPLED_MODE,
    SchemeConfig,
    approximate_count,
    crossover_fraction,
    cutoff,
    sample_estimate,
    sample_size,
    sixteen_approx,
    stopping_rule_estimate,
)
from sharpcount.upper import UpperResult


def F(n, *clauses):
    return CnfFormula(n, tuple(make_clause(c) for c in clauses))


class TestCutoff:
    def test_paper_beta3(self):
        beta = 0.3864
        f = crossover_fraction(beta)
        assert f == pytest.approx(0.38027, abs=1e-4)
        assert cutoff(3, beta, 100) == math.ceil(2 ** (f * 100))

    def test_saturation_floor(self):
        assert cutoff(3, 0.5, 1) >= 1

    def test_saturation_at_full_space(self):
        assert cutoff(3, 1e-9, 4) <= 16

    def test_growth_rates(self):
        # time exponent 1/(2-beta) reproduces the headline growth constants
        beta3 = 0.3864
        assert 1 / (2 - beta3) == pytest.approx(0.6197, abs=1e-4)
        assert 2 ** (1 / (2 - beta3)) == pytest.approx(1.5366, abs=2e-4)

    def test_crossover_balances_exponents(self):
        for beta in (0.3864, beta_for(4), 0.5, 0.7):
            f = crossover_fraction(beta)
            assert abs((beta + f * (1 - beta)) - (1 - f)) < 1e-12

    def test_no_variables(self):
        # N = 2^0 = 1: the one (empty) assignment is all there is to count.
        assert cutoff(3, 0.5, 0) == 1
        with pytest.raises(ValueError):
            cutoff(3, 0.5, -1)

    def test_float_range(self):
        # N = ceil(2^{fn}) with f = 0.3803 stays a float up to n = 2692.
        beta = beta_for(3)
        assert cutoff(3, beta, 2692).bit_length() == 1024
        for n in (2693, 3000):
            with pytest.raises(GuardError, match="float range"):
                cutoff(3, beta, n)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            cutoff(3, 0.0, 10)
        with pytest.raises(ValueError):
            cutoff(3, 1.0, 10)


class TestSampleEstimate:
    def test_unsat_estimates_zero(self):
        f = F(4, [1], [-1])
        assert sample_estimate(f, 0.5, 4, 1) == 0.0

    def test_unbiased_mean(self):
        # E[X * 2^n / T] = #F = 8 for F = (x1) on n = 4
        f = F(4, [1])
        runs = 1000
        mean = sum(sample_estimate(f, 1.0, 4, seed) for seed in range(runs)) / runs
        assert mean == pytest.approx(8.0, abs=0.5)

    def test_within_factor_mostly(self):
        f = CnfFormula(10, ())  # #F = 1024
        hits = 0
        for seed in range(200):
            est = sample_estimate(f, 0.2, 512, seed)
            if 1024 * math.exp(-0.2) <= est <= 1024 * math.exp(0.2):
                hits += 1
        assert hits >= 150

    def test_sample_count_monotone_in_floor(self):
        assert sample_size(12, 0.2, 64) >= sample_size(12, 0.2, 128)

    def test_empty_formula_exact_with_partial_last_word(self):
        # Every sample hits, so a bit past T in the last block would count.
        # T = 13,004 fits one block, T = 273,067 spans several.
        assert 13_004 < SLICE_BITS < 273_067
        for n, eps, floor in ((10, 0.3, 7), (12, 0.2, 3)):
            assert sample_size(n, eps, floor) % 64
            assert sample_estimate(CnfFormula(n, ()), eps, floor, 1) == 2.0**n

    def test_matches_reference_stream(self):
        # T = 43,691 is no multiple of 64: one whole block, then 10,923 more.
        formula = random_kcnf(12, 24, 3, 4)
        trials = sample_size(12, 0.5, 3)
        assert trials == 43_691 and trials % 64 and SLICE_BITS < trials < 2 * SLICE_BITS
        widths = [SLICE_BITS, trials - SLICE_BITS]
        for seed in (1, 2):
            hits = sum(reference_hits(formula, seed, widths))
            assert sample_estimate(formula, 0.5, 3, seed) == hits / trials * 2.0**12

    def test_beyond_62_variables(self):
        exact = 3 * 2.0**68  # (x1 or x2) over 70 variables
        est = sample_estimate(F(70, [1, 2]), 0.5, 2**66, 5)
        assert exact * math.exp(-0.5) <= est <= exact * math.exp(0.5)

    def test_ceiling_guard(self, monkeypatch):
        monkeypatch.setattr(scheme, "SAMPLE_CEILING", 1000)
        with pytest.raises(GuardError):
            sample_estimate(CnfFormula(30, ()), 0.01, 1, 0)

    def test_epsilon_validation(self):
        for eps in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                sample_estimate(CnfFormula(4, ()), eps, 2, 0)

    def test_float_range(self):
        with pytest.raises(GuardError, match="float range"):
            sample_estimate(CnfFormula(1100, ()), 0.2, 2**1000, 1)

    def test_negative_seed(self):
        f = F(4, [1, 2])
        assert sample_estimate(f, 0.2, 8, -1) == sample_estimate(f, 0.2, 8, 2**64 - 1)

    def test_underflowing_epsilon_hits_ceiling(self):
        # eps^2 underflows to 0, so T would divide by zero.
        with pytest.raises(GuardError):
            sample_estimate(CnfFormula(4, ()), 1e-300, 2, 0)


def upsilon(epsilon):
    """Upsilon_1 at delta = 1/4, from the rule's definition."""
    r = -math.expm1(-epsilon)
    return 1 + (1 + r) * 4 * (math.e - 2) * math.log(2 / 0.25) / r**2


# Upsilon_1 = 215.8 at epsilon = 0.2.
UPSILON = upsilon(0.2)


def reference_hits(formula, seed, widths):
    """Whether each drawn assignment satisfies F, checked one by one with
    `evaluate`: each block of the given widths draws one column per variable
    from the seed's `random.Random`, and assignment t is bit t of each."""
    rng = random.Random(seed)
    for width in widths:
        columns = [rng.getrandbits(width) for _ in range(formula.n)]
        for t in range(width):
            yield evaluate(formula, [column >> t & 1 for column in columns])


def reference_tau(formula, seed, target):
    """Index of the target-th model in the seed's stream of whole blocks."""
    hits = reference_hits(formula, seed, itertools.repeat(SLICE_BITS))
    for drawn, hit in enumerate(hits, start=1):
        target -= hit
        if target == 0:
            return drawn


def units(n, count):
    return F(n, *([v] for v in range(1, count + 1)))


class TestStoppingRule:
    def test_matches_reference_stream(self):
        # p = 2^-6 stops in the first block, p = 2^-8 in a later one.
        for count, in_first_block in ((6, True), (8, False)):
            formula = units(16, count)
            estimate, tau = stopping_rule_estimate(formula, 0.2, 1)
            assert tau == reference_tau(formula, 1, 216)
            assert (tau <= SLICE_BITS) == in_first_block
            assert estimate == UPSILON * 2.0**16 / tau

    def test_stops_on_last_bit_of_block(self):
        # At seed 165 the first block of units(16, 6) holds 487 models, the
        # last of them on its last bit; epsilon = 0.124719 asks for 487 hits.
        formula, epsilon = units(16, 6), 0.124719
        assert math.ceil(upsilon(epsilon)) == 487
        estimate, tau = stopping_rule_estimate(formula, epsilon, 165)
        assert tau == SLICE_BITS == reference_tau(formula, 165, 487)
        assert estimate == upsilon(epsilon) * 2.0**16 / tau

    def test_no_clauses_stops_at_target(self):
        estimate, tau = stopping_rule_estimate(CnfFormula(12, ()), 0.2, 5)
        assert tau == 216 and estimate == UPSILON * 2.0**12 / 216

    def test_deterministic_per_seed(self):
        formula = random_kcnf(14, 28, 3, 2)
        assert stopping_rule_estimate(formula, 0.2, 9) == stopping_rule_estimate(formula, 0.2, 9)

    def test_tiny_epsilon_guard_before_sampling(self, monkeypatch):
        def unreachable(self, columns, width):
            raise AssertionError("sampled before the hit target was checked")

        monkeypatch.setattr(CnfFormula, "satisfying_bits", unreachable)
        for eps in (1e-4, 1e-300):
            with pytest.raises(GuardError):
                stopping_rule_estimate(CnfFormula(4, ()), eps, 1)

    def test_ceiling_on_samples_drawn(self, monkeypatch):
        formula = units(16, 8)
        expected = stopping_rule_estimate(formula, 0.2, 1)
        tau = expected[1]
        monkeypatch.setattr(scheme, "SAMPLE_CEILING", tau)
        assert stopping_rule_estimate(formula, 0.2, 1) == expected
        monkeypatch.setattr(scheme, "SAMPLE_CEILING", tau - 1)
        with pytest.raises(GuardError):
            stopping_rule_estimate(formula, 0.2, 1)
        monkeypatch.setattr(scheme, "SAMPLE_CEILING", 40_000)
        with pytest.raises(GuardError):
            stopping_rule_estimate(formula, 0.2, 1)

    def test_epsilon_validation(self):
        for eps in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                stopping_rule_estimate(CnfFormula(4, ()), eps, 0)

    def test_float_range(self):
        # Upsilon * 2^1023 alone would overflow; Upsilon / tau <= 1 does not.
        assert stopping_rule_estimate(CnfFormula(1023, ()), 0.2, 1) == (
            UPSILON / 216 * 2.0**1023,
            216,
        )
        with pytest.raises(GuardError, match="float range"):
            stopping_rule_estimate(CnfFormula(1024, ()), 0.2, 1)

    def test_negative_seed(self):
        f = random_kcnf(14, 28, 3, 2)
        assert stopping_rule_estimate(f, 0.2, -1) == stopping_rule_estimate(f, 0.2, 2**64 - 1)


class TestApproximateCount:
    def test_unsat_exact_zero(self):
        result = approximate_count(F(4, [1], [-1], [2, 3]), 3, 0.3, 0)
        assert result.mode == EXACT_MODE and result.estimate == 0.0

    def test_forced_sampled_path(self):
        # beta chosen so the cutoff lands at 5 < #F = 7
        cfg = SchemeConfig(beta=0.22)
        result = approximate_count(F(3, [1, 2, 3]), 3, 0.1, 2, cfg)
        assert cutoff(3, 0.22, 3) <= 7
        assert result.mode == SAMPLED_MODE
        assert result.estimate == pytest.approx(7.0, rel=0.3)
        assert (result.estimate, result.sample_count) == stopping_rule_estimate(
            F(3, [1, 2, 3]), 0.1, split_seed(2, 2)
        )
        assert result.certified  # the MoreThan verdict is certain

    def test_sampled_where_fixed_t_exceeds_ceiling(self):
        # The paper's T is 79M samples here; dpll_count gives #F = 1,213,181.
        f = random_kcnf(30, 60, 3, 7)
        assert sample_size(30, 0.2, cutoff(3, beta_for(3), 30)) > scheme.SAMPLE_CEILING
        result = approximate_count(f, 3, 0.2, 1)
        assert result.mode == SAMPLED_MODE
        assert result.sample_count < 1_000_000
        assert math.exp(-0.2) <= result.estimate / 1_213_181 <= math.exp(0.2)

    def test_exact_mode_matches_oracle(self):
        for seed in range(15):
            f = random_kcnf(11, 46, 3, seed)  # high density, few solutions
            result = approximate_count(f, 3, 0.2, seed)
            if result.mode == EXACT_MODE:
                assert result.estimate == brute_force_count(f)

    def test_exact_estimate_is_the_integer_count(self):
        for seed in range(15):
            f = random_kcnf(11, 46, 3, seed)
            result = approximate_count(f, 3, 0.2, seed)
            if result.mode == EXACT_MODE:
                assert type(result.estimate) is int
                assert result.estimate == brute_force_count(f)
        # 63 units and one clause over the other 57 variables: 2^57 - 1
        # models, which a float would round to 2^57.
        f = CnfFormula(120, (*((v,) for v in range(1, 64)), tuple(range(64, 121))))
        result = approximate_count(f, 57, 0.2, 1, SchemeConfig(beta=0.01))
        assert result.mode == EXACT_MODE and result.estimate == 2**57 - 1

    def test_exact_certified_from_enumeration(self, max_tries):
        f = random_kcnf(20, 85, 3, 1)
        assert approximate_count(f, 3, 0.2, 1).certified is True
        # One walk try per query: capped boost counts, so best effort.
        max_tries(1)
        result = approximate_count(f, 3, 0.2, 1)
        assert result.mode == EXACT_MODE
        assert result.certified is False

    def test_statistical_contract(self):
        f = random_kcnf(13, 26, 3, 21)
        exact = brute_force_count(f)
        assert exact > 0
        good = 0
        for seed in range(60):
            est = approximate_count(f, 3, 0.2, seed).estimate
            if exact * math.exp(-0.2) <= est <= exact * math.exp(0.2):
                good += 1
        assert good >= 42  # 70% of 60

    def test_default_beta_follows_k_argument(self):
        # A config without beta takes the analysis constant of the k passed
        # to the call; it once used a k of its own (3) and gave cutoff 68.
        f = random_kcnf(16, 40, 4, 3)
        result = approximate_count(f, 4, 0.2, 1, SchemeConfig(enum_delta=1 / 12))
        assert result.cutoff == cutoff(4, beta_for(4), 16)

    def test_no_variables(self):
        result = approximate_count(CnfFormula(0, ()), 3, 0.2, 1)
        assert result.mode == EXACT_MODE and result.estimate == 1.0 and result.cutoff == 1
        result = approximate_count(CnfFormula(0, ((),)), 3, 0.2, 1)
        assert result.mode == EXACT_MODE and result.estimate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            approximate_count(F(3, [1]), 2, 0.1, 0)
        for eps in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                approximate_count(F(3, [1]), 3, eps, 0)

    def test_underflowing_epsilon_hits_ceiling(self):
        # #F = 7 > N = 3 at n = 3, so the call samples; r^2 underflows to 0.
        with pytest.raises(GuardError):
            approximate_count(F(3, [1, 2, 3]), 3, 1e-300, 0)

    def test_float_range(self):
        # Exact mode needs only N = ceil(2^{fn}) as a float, up to n = 2692.
        result = approximate_count(units(1100, 1100), 3, 0.2, 1)
        assert result.mode == EXACT_MODE and result.estimate == 1.0
        for formula in (F(1100, [1, 2, 3]), units(3000, 3000)):
            with pytest.raises(GuardError, match="float range"):
                approximate_count(formula, 3, 0.2, 1)


class TestSixteenApprox:
    def test_unsat(self):
        assert sixteen_approx(F(3, [1], [-1]), 3, 0, 1) == 0.0

    def test_rejects_clause_wider_than_k(self):
        with pytest.raises(ValueError, match="width 4"):
            sixteen_approx(F(4, [1, 2, 3, 4]), 3, 0, 1)
        with pytest.raises(ValueError, match="k must be >= 3"):
            sixteen_approx(F(2, [1, 2]), 2, 0, 1)

    def test_unsat_at_mu_0_not_refuted_twice(self, monkeypatch):
        # u = mu = 0 without all_sat: the scan has found F unsatisfiable.
        formulas = [F(3, [1], [-1]), CnfFormula(0, ((),))]
        formulas += [f for f in (random_kcnf(12, 80, 3, s) for s in range(30))
                     if brute_force_count(f) == 0]
        assert len(formulas) >= 5

        def refuse(*args):
            raise AssertionError("enumeration at mu = 0")

        monkeypatch.setattr(scheme, "count_up_to", refuse)
        for f in formulas:
            assert sixteen_approx(f, 3, 0, 1) == 0.0
        # mu > 0 keeps the enumeration.
        with pytest.raises(AssertionError, match="enumeration"):
            sixteen_approx(F(3, [1], [-1]), 3, 1, 1)

    def test_more_than_falls_back_to_the_budget(self, monkeypatch):
        # A scan that stops at u = mu leaves the answer to an enumeration up
        # to 2^(mu+3): above it the answer is that budget, below the count.
        monkeypatch.setattr(
            scheme,
            "upper_bound",
            lambda f, mu, seed: UpperResult(u=mu, mu=mu, n=f.n, all_sat=False, rank_at_stop=0),
        )
        assert sixteen_approx(CnfFormula(6, ()), 3, 1, 1) == 16.0
        assert sixteen_approx(CnfFormula(3, ()), 3, 1, 1) == 8.0

    def test_mu_equals_n_exact(self):
        f = F(4, [1, 2])
        assert sixteen_approx(f, 3, 4, 3) == brute_force_count(f)

    def test_exact_enumeration_answers_an_integer(self):
        f = CnfFormula(120, (*((v,) for v in range(1, 64)), tuple(range(64, 121))))
        answer = sixteen_approx(f, 57, 58, 1)
        assert type(answer) is int and answer == 2**57 - 1

    def test_no_variables(self):
        assert sixteen_approx(CnfFormula(0, ()), 3, 0, 1) == 1.0
        assert sixteen_approx(CnfFormula(0, ((),)), 3, 0, 1) == 0.0

    def test_float_range(self):
        # The full 1100-row system admits a solution, so u = 1100.
        with pytest.raises(GuardError, match="float range"):
            sixteen_approx(CnfFormula(1100, ()), 3, 0, 1)

    def test_statistical(self):
        f = CnfFormula(10, ())  # #F = 1024
        good = 0
        for seed in range(100):
            est = sixteen_approx(f, 3, 2, seed)
            if 1024 / 16 <= est <= 1024 * 16:
                good += 1
        assert good >= 60
