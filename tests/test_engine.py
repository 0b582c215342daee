import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from sharpcount.engine import (
    BETA_ANALYSIS,
    BETA_DETERMINISTIC,
    BETA_SUBROUTINE,
    PROPAGATION,
    SEARCH,
    WALK,
    WALK_STEPS_PER_VAR,
    SearchState,
    _digamma,
    _walk_batch,
    beta_for,
    boost_count,
    compute_mu,
    decide,
    schoening_success_bound,
    split_seed,
)
from sharpcount.formula import (
    CnfFormula,
    brute_force_count,
    evaluate,
    literal_rows,
    make_clause,
    random_kcnf,
    restrict_clauses,
    unit_propagate,
)
from test_cli import child_env


EULER_GAMMA = 0.5772156649015329


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


class TestDigamma:
    def test_closed_forms(self):
        assert _digamma(1) == pytest.approx(-EULER_GAMMA, abs=1e-14)
        assert _digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-14)

    def test_recurrence(self):
        for x in (0.3, 7, 1e6):
            assert _digamma(x + 1) - _digamma(x) == pytest.approx(1 / x, abs=1e-14)


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
    """The walk behind `decide`'s fallback: a one-node search budget leaves
    every query that needs a branch to one walk try."""

    def test_unsat_never_claims_solution(self, max_tries, sweep_vars):
        sweep_vars(0)
        max_tries(1)
        # Unsatisfiable without unit clauses, so the root search branches.
        f = F(3, [1, 2], [1, -2], [-1, 3], [-1, -3])
        for seed in range(50):
            out = decide(f, 3, 0.1, seed)
            assert out.decider == WALK and not out.found

    def test_empty_formula_first_assignment(self):
        out = decide(CnfFormula(5, ()), 3, 0.1, 1)
        assert out.found and len(out.witness) == 5

    def test_forced_literal(self):
        f = F(2, [1], [1, 2])
        out = decide(f, 3, 0.01, 9)
        assert out.found and out.witness[0] == 1

    def test_witness_always_satisfies(self, max_tries, sweep_vars):
        sweep_vars(0)
        max_tries(1)
        for seed in range(40):
            f = random_kcnf(10, 35, 3, seed)
            for f in (f, with_tautologies(f, seed)):
                out = decide(f, 3, 0.1, seed)
                assert out.decider == WALK
                if out.found:
                    assert evaluate(f, out.witness)

    def test_high_variable_numbers(self, max_tries, sweep_vars):
        sweep_vars(0)
        # The walk assigns only the residual's 12 active variables, numbered
        # 61..72; the 60 variables in no clause read 0 in the witness.
        max_tries(1)
        for seed in range(5):
            f = high_numbered(seed)
            out = decide(f, 3, 0.1, seed)
            assert out.decider == WALK
            if out.found:
                assert len(out.witness) == 72 and not any(out.witness[:60])
                assert evaluate(f, out.witness)

    def test_negative_seed_wraps_modulo_2_64(self, max_tries):
        # Each negative seed draws the walk of its residue modulo 2^64, and
        # the walk's answer does depend on the seed.
        max_tries(1)
        f = random_kcnf(20, 60, 3, 3)
        outs = [decide(f, 3, 0.1, -s) for s in range(1, 6)]
        assert all(out.decider == WALK for out in outs)
        assert len({out.witness for out in outs}) > 1
        for s, out in enumerate(outs, start=1):
            assert out == decide(f, 3, 0.1, 2**64 - s)

    def test_memory_does_not_grow_with_tries(self):
        # The tries run one at a time, so 300 of them on an unsatisfiable
        # residual of 60 variables and 330 clauses trace a few tens of KiB.
        f = random_kcnf(60, 330, 3, 1)
        out = decide(f, 3, 0.1, 1)
        assert out.decider == SEARCH and not out.found
        tracemalloc.start()
        try:
            assert _walk_batch(f.clauses, 300, 60, random.Random(1)) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestDecide:
    def test_witness_check_survives_optimize(self):
        # `python -O` strips asserts; a witness that is no model must still
        # raise rather than be returned.
        script = (
            "from sharpcount import engine\n"
            "from sharpcount.formula import CnfFormula\n"
            "engine._decide_clauses = lambda *args: engine.SatOutcome((0, 0), engine.SEARCH)\n"
            "try:\n"
            "    print(engine.decide(CnfFormula(2, ((1, 2),)), 3, 0.1, 1))\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        child = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == "the SAT engine returned a witness that is not a model\n"

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

    def test_search_budget_exhausted_falls_back_to_walk(self, max_tries):
        max_tries(1)
        f = random_kcnf(20, 85, 3, 1)  # no unit clauses: needs branching
        out = decide(f, 3, 1e-4, 1)
        assert out.decider == WALK
        assert out.tries_used == 1 and not out.rigorous

    def test_negative_seed_wraps_modulo_2_64(self, max_tries):
        # A one-node search budget runs out, so the walk draws from the seed.
        max_tries(1)
        f = random_kcnf(20, 85, 3, 3)
        out = decide(f, 3, 0.1, -1)
        assert out.decider == WALK
        assert out == decide(f, 3, 0.1, 2**64 - 1)

    def test_walk_fallback_high_variable_numbers(self, max_tries, sweep_vars):
        sweep_vars(0)
        # The walk numbers the residual's own variables, so 12 active
        # variables numbered up to 72 need no guard.
        max_tries(1)
        for seed in range(5):
            f = high_numbered(seed)
            out = decide(f, 3, 0.1, seed)
            assert out.decider == WALK
            if out.found:
                assert evaluate(f, out.witness)

    def test_walk_fallback_takes_many_active_variables(self, max_tries):
        # 70 active variables left after a one-node search budget: the walk
        # takes any number of them.
        max_tries(1)
        f = random_kcnf(70, 140, 3, 1)
        for seed in range(3):
            out = decide(f, 3, 0.1, seed)
            assert out.decider == WALK
            if out.found:
                assert evaluate(f, out.witness)

    def test_search_budget_counts_free_variables(self, sweep_vars):
        sweep_vars(0)
        # All 8 sign patterns over x1..x3: refuting them takes 7 nodes. At
        # delta 0.1 the boost count is 5 for 3 variables, so the walk decides;
        # with 40 more free variables that occur in no clause the budget is
        # the boost count for 43, and the search refutes.
        clauses = tuple(
            make_clause([s * v for s, v in zip(signs, (1, 2, 3))])
            for signs in itertools.product((1, -1), repeat=3)
        )
        out = decide(CnfFormula(3, clauses), 3, 0.1, 1)
        assert out.decider == WALK and not out.found and out.tries_used == 5
        out = decide(CnfFormula(43, clauses), 3, 0.1, 1)
        assert out.decider == SEARCH and not out.found and out.rigorous

    def test_one_sweep_refutes(self):
        # The 8 sign patterns over x1..x3 again, at the default sweep limit:
        # the query's node touches 3 free variables, and its sweep of 2^3
        # assignments keeps none, so the search refutes in one node.
        clauses = tuple(
            make_clause([s * v for s, v in zip(signs, (1, 2, 3))])
            for signs in itertools.product((1, -1), repeat=3)
        )
        out = decide(CnfFormula(3, clauses), 3, 0.1, 1)
        assert out.decider == SEARCH and not out.found and out.rigorous
        assert out.tries_used == 0

    def test_swept_witness_is_a_model(self):
        # At n <= 12 every open clause touches at most 12 free variables, so
        # a query that propagation does not settle sweeps its own node: the
        # witness is a model and the models it reports are all of F's.
        swept = 0
        for seed in range(40):
            n = 6 + seed % 7
            f = random_kcnf(n, round(3.5 * n), 3, seed)
            out = decide(f, 3, 0.1, seed)
            if out.decider == SEARCH and out.found:
                swept += 1
                assert evaluate(f, out.witness)
                assert out.models == brute_force_count(f)
        assert swept > 20

    def test_search_completes_unsat_within_budget(self, max_tries):
        # Unsatisfiable, no units: branching on x1 propagates to a conflict
        # on either side, so the search finishes in 3 nodes. The boost count
        # (26) is capped at 10, yet the finished search is rigorous.
        max_tries(10)
        f = F(3, [1, 2], [1, -2], [-1, 3], [-1, -3])
        out = decide(f, 3, 1e-6, 1)
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

    def test_rejects_clause_wider_than_k(self):
        # The boost count assumes k-CNF, so a wider clause would void it.
        f = F(4, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="width 4"):
            decide(f, 3, 0.01, 1)
        assert decide(f, 4, 0.01, 1).found

    def test_boost_count_cap_flags_best_effort(self, max_tries):
        max_tries(10)
        tries, rigorous = boost_count(3, 30, math.log(1e6))
        assert tries == 10 and not rigorous
        tries, rigorous = boost_count(3, 3, math.log(10))
        assert rigorous

    def test_rejects_k_below_3(self):
        # At k = 2 the walk's bound (2/2)^n reads 1: one try, marked rigorous.
        with pytest.raises(ValueError, match="k must be >= 3, got 2"):
            decide(F(2, [1, 2]), 2, 0.01, 1)

    def test_boost_count_where_the_bound_underflows(self, max_tries):
        # (3/4)^3000 is 0.0, and at 2,550 variables the quotient overflows.
        assert schoening_success_bound(3, 3000) == 0.0
        assert boost_count(3, 3000, math.log(10)) == (500_000, False)
        assert boost_count(3, 2550, math.log(10)) == (500_000, False)
        max_tries(7)
        assert boost_count(3, 3000, math.log(10)) == (7, False)

    def test_monotone_boosting(self, max_tries, sweep_vars):
        sweep_vars(0)
        # empirical miss rate shrinks roughly like (single-try miss)^M; the
        # boosted half runs the walk itself, which the search would preempt
        f = random_kcnf(10, 41, 3, 11)  # satisfiable, few solutions
        assert brute_force_count(f) > 0
        boosted_delta = 0.02
        n_active = len({abs(l) for c in f.clauses for l in c})
        tries, _ = boost_count(3, n_active, -math.log(boosted_delta))
        steps = WALK_STEPS_PER_VAR * n_active
        misses = sum(
            _walk_batch(f.clauses, tries, steps, random.Random(split_seed(7, i))) is None
            for i in range(120)
        )
        max_tries(1)
        single = sum(
            not decide(f, 3, boosted_delta, split_seed(5, i)).found for i in range(300)
        ) / 300
        assert single > 0  # a single try does miss sometimes at this density
        assert misses <= boosted_delta * 120 + 4


def random_clauses(rng, n, m, low=1):
    """m tautology-free clauses over variables low..n of widths 1-4, and in
    one list of five an empty clause."""
    clauses = []
    for _ in range(m):
        width = min(rng.choice((1, 2, 2, 3, 3, 3, 4)), n - low + 1)
        chosen = rng.sample(range(low, n + 1), width)
        clauses.append(make_clause(v if rng.random() < 0.5 else -v for v in chosen))
    if rng.random() < 0.2:
        clauses.insert(rng.randint(0, m), ())
    return clauses


def trail_assignment(state):
    # The trail holds literal codes 2|l| + (l < 0).
    return {x >> 1: 1 - (x & 1) for x in state.trail}


def jeroslow_wang(clauses):
    """The branch rule by brute force: each clause adds 4^-len to the
    variable of each of its literals; the smallest variable of greatest
    weight."""
    score = {}
    for clause in clauses:
        for lit in clause:
            score[abs(lit)] = score.get(abs(lit), 0) + Fraction(1, 4 ** len(clause))
    best = max(score.values())
    return min(var for var, weight in score.items() if weight == best)


def clause_count(state, c):
    """Clause c's count of unassigned literals, read off the bit planes."""
    return sum((plane >> c & 1) << i for i, plane in enumerate(state.planes))


def empty_count(state):
    """The number of empty clauses: open, with a count of 0 on every plane."""
    empty = (1 << len(state.clauses)) - 1 ^ state.sat
    for plane in state.planes:
        empty &= ~plane
    return empty.bit_count()


def counters(state):
    units = 0
    for c in range(len(state.clauses)):
        if not state.sat >> c & 1 and clause_count(state, c) == 1:
            units |= 1 << c
    return (state.value, state.sat, state.planes, state.n_open, empty_count(state), state.trail, units)


class TestSearchState:
    def check(self, state, live):
        residual = restrict_clauses(live, trail_assignment(state))
        assert state.residual() == residual
        assert state.n_open == len(residual)
        assert empty_count(state) == sum(1 for c in residual if not c)
        for c, clause in enumerate(state.clauses):
            codes = [state.code[lit] for lit in clause]
            true = sum(state.value[x] is True for x in codes)
            free = len({x for x in codes if state.value[x] is None})
            # A satisfied clause's count is not kept.
            assert state.sat >> c & 1 == (true > 0)
            if not true:
                assert clause_count(state, c) == free
        if residual and all(residual):
            assert state.branch_literal() == 2 * jeroslow_wang(residual)
        return residual

    def test_matches_clause_lists(self):
        rng = random.Random(5)
        for trial in range(150):
            n = rng.choice((3, 6, 12, 70))
            # At n=70 the variables are numbered 55..70, past the 62 of a word.
            low = 55 if n == 70 else 1
            live = random_clauses(rng, n, rng.randint(0, 4 * (n - low + 1)), low)
            state = SearchState(n, live)
            for _ in range(40):
                residual = self.check(state, live)
                op = rng.random()
                free = [v for v in range(low, n + 1) if v not in trail_assignment(state)]
                if op < 0.3 and free:
                    # One literal code without propagation.
                    state._set(2 * rng.choice(free) + rng.getrandbits(1))
                elif op < 0.55:
                    state.undo_to(max(0, len(state.trail) - rng.choice((1, 1, 2, 5))))
                elif op < 0.8:
                    # A node step from a random earlier trail length, with a
                    # literal code, or 0 for propagation alone.
                    start = rng.randint(0, len(state.trail))
                    prefix = state.trail[:start]
                    fixed = {y >> 1: 1 - (y & 1) for y in prefix}
                    free = [v for v in range(low, n + 1) if v not in fixed]
                    x = 0
                    if free and rng.random() < 0.8:
                        x = 2 * rng.choice(free) + rng.getrandbits(1)
                        fixed[x >> 1] = 1 - (x & 1)
                        prefix.append(x)
                    expected, forced, conflict = unit_propagate(restrict_clauses(live, fixed))
                    assert state.enter(start, x) == conflict
                    assert state.trail[:len(prefix)] == prefix
                    if not conflict:
                        new = {y >> 1: 1 - (y & 1) for y in state.trail[len(prefix):]}
                        assert new == forced
                        assert state.residual() == expected
                else:
                    mark = len(state.trail)
                    expected, forced, conflict = unit_propagate(residual)
                    assert state.propagate() == conflict
                    if not conflict:
                        new = {x >> 1: 1 - (x & 1) for x in state.trail[mark:]}
                        assert new == forced
                        assert state.residual() == expected
            self.check(state, live)
            state.undo_to(0)
            assert counters(state) == counters(SearchState(n, live))

    def test_sweep_matches_residual(self, sweep_vars):
        # After a branch_literal call, `active` lists the residual's
        # variables and `sweep` keeps the assignments of them that satisfy
        # the residual, checked one by one; above the limit it gives None.
        rng = random.Random(13)
        checked = 0
        for trial in range(200):
            n = rng.choice((4, 8, 12, 20))
            live = random_clauses(rng, n, rng.randint(1, 3 * n))
            state = SearchState(n, live)
            conflict = state.enter(0, 0)
            for _ in range(rng.randint(0, n // 2)):
                fixed = trail_assignment(state)
                free = [v for v in range(1, n + 1) if v not in fixed]
                if conflict or not free:
                    break
                conflict = state.enter(len(state.trail), 2 * rng.choice(free) + rng.getrandbits(1))
            if not conflict:
                residual = state.residual()
                if not residual:
                    continue
                state.branch_literal()
                variables = sorted({abs(l) for c in residual for l in c})
                assert state.active == [2 * v for v in variables]
                limit = rng.choice((0, 4, 8, 12))
                sweep_vars(limit)
                bits = state.sweep()
                if len(variables) > limit:
                    assert bits is None
                    continue
                expected = 0
                for t in range(1 << len(variables)):
                    value = {v: t >> j & 1 for j, v in enumerate(variables)}
                    if not restrict_clauses(residual, value):
                        expected |= 1 << t
                assert bits == expected
                free_vars = n - len(state.trail) - len(variables)
                assert state.swept_models(bits) == expected.bit_count() << free_vars
                checked += 1
        assert checked > 30

    def test_open_bits_match_the_formula(self):
        # On a block whose points all extend the state's assignment, the
        # kernel over the open clauses is F's own check. The block's
        # assigned columns are all ones or zero to match the trail, and its
        # free columns are random. The clause lists hold tautologies, which
        # the state drops, and repeated literals.
        rng = random.Random(17)
        checked = models = 0
        for trial in range(150):
            n = rng.choice((3, 6, 12, 20))
            clauses = random_clauses(rng, n, rng.randint(0, 4 * n))
            for _ in range(rng.randint(0, 3)):
                v, w = rng.randint(1, n), rng.choice((-1, 1)) * rng.randint(1, n)
                clauses.insert(rng.randint(0, len(clauses)), rng.choice(((v, -v, w), (w, v, w))))
            formula = CnfFormula(n, tuple(clauses))
            state = SearchState(n, clauses)
            for _ in range(8):
                start = rng.randint(0, len(state.trail))
                fixed = trail_assignment(state)
                free = [v for v in range(1, n + 1) if v not in fixed]
                x = 2 * rng.choice(free) + rng.getrandbits(1) if free and rng.random() < 0.8 else 0
                if state.enter(start, x):
                    continue
                fixed = trail_assignment(state)
                width = rng.choice((1, 7, 64, 200))
                full = (1 << width) - 1
                columns = [
                    full * fixed[v] if v in fixed else rng.getrandbits(width)
                    for v in range(1, n + 1)
                ]
                sat = state.open_bits(*literal_rows(columns, width))
                assert sat == formula.satisfying_bits(columns, width)
                checked += 1
                models += sat != 0
        assert checked > 300 and models > 100, (checked, models)

    def test_drops_tautologies(self):
        live = [(1, 2), (-3,)]
        state = SearchState(3, [(-2, 2), (1, 2), (-1, 1, 3), (-3,)])
        assert state.residual() == live
        assert counters(state) == counters(SearchState(3, live))
        # Clauses need not be canonical: a repeated literal is no tautology,
        # and an unsorted tautology is still one.
        state = SearchState(3, [(2, 1, 2), (3, -1, 1), (-3, 2, -2, 1)])
        assert state.residual() == [(2, 1, 2)]

    def test_repeated_literal_counts_once(self):
        # (1, 1, 2) under x1 = 0 is a unit on x2. Counted with the repeat,
        # the clause would start at 3 and stay at 2 after x1 = 0, since the
        # false literal subtracts once, and x2 would not be forced.
        state = SearchState(2, [(1, 1, 2)])
        assert not state.enter(0, 3)
        assert state.trail == [3, 4]
        assert state.residual() == [] and not state.n_open

    def test_branch_literal_is_jeroslow_wang(self):
        # Random propagated states, with clauses of widths 1-4 and, in one
        # formula of three, a clause of width 70, whose weights run from 1
        # to 4^70.
        rng = random.Random(11)
        for trial in range(200):
            n = rng.choice((4, 10, 25, 70))
            live = random_clauses(rng, n, rng.randint(1, 4 * n))
            if n == 70 and trial % 3 == 0:
                live.append(make_clause(v if rng.random() < 0.5 else -v for v in range(1, 71)))
            state = SearchState(n, live)
            for _ in range(6):
                fixed = trail_assignment(state)
                free = [v for v in range(1, n + 1) if v not in fixed]
                if not free or state.enter(len(state.trail), 2 * rng.choice(free) + rng.getrandbits(1)):
                    break
                residual = state.residual()
                if not residual:
                    break
                assert state.branch_literal() == 2 * jeroslow_wang(residual)
        # A clause of width 2000 at n=2000 beside 2000 narrow ones: the open
        # clauses fall into a few counts, while weights run to 4^-2000.
        # Both literals entered falsify one of its literals, so it stays open.
        live = list(random_kcnf(2000, 2000, 3, 12).clauses)
        live.append(make_clause(-v if v % 2 else v for v in range(1, 2001)))
        state = SearchState(2000, live)
        for x in (0, 2 * 7, 2 * 1500 + 1):
            assert not state.enter(len(state.trail), x)
            assert state.branch_literal() == 2 * jeroslow_wang(state.residual())
