import json

import pytest

from sharpcount.engine import SolverConfig
from sharpcount.enumeration import count_up_to, lower_bound_report
from sharpcount.formula import CnfFormula, brute_force_count, make_clause, random_kcnf


def F(n, *clauses):
    return CnfFormula(n, tuple(make_clause(c) for c in clauses))


def with_tautologies(f, seed):
    """f with tautological clauses mixed in; it has the same models."""
    v = 1 + seed % f.n
    clauses = list(f.clauses)
    clauses.insert(seed % (len(clauses) + 1), make_clause([v, -v]))
    clauses.append(make_clause([1, -1, 2]))
    return CnfFormula(f.n, tuple(clauses))


class TestCountUpTo:
    def test_small_exact(self):
        result, _ = count_up_to(F(3, [1, 2, 3]), 3, 10, 1e-3, 0)
        assert result.is_exact and result.count == 7

    def test_more_than(self):
        result, _ = count_up_to(F(3, [1, 2, 3]), 3, 5, 1e-3, 0)
        assert not result.is_exact and result.more_than == 5

    def test_unsatisfiable(self):
        result, stats = count_up_to(F(2, [1], [-1]), 3, 4, 1e-3, 0)
        assert result.count == 0
        assert stats.sat_queries == 1

    def test_matches_brute_force(self):
        for seed in range(60):
            n = 8 + seed % 5
            f = random_kcnf(n, round(3.8 * n), 3, seed)
            runs = []
            for f in (f, with_tautologies(f, seed)):
                result, stats = count_up_to(f, 3, 1 << n, 1e-3, seed)
                assert result.is_exact
                assert result.count == brute_force_count(f)
                assert stats.nodes_visited <= n * stats.solution_leaves + 1
                assert stats.sat_queries <= 2 * stats.nodes_visited + 1
                runs.append(stats)
            # Tautologies are dropped at the root, so they cost no node.
            assert runs[0] == runs[1]

    def test_more_than_is_certain(self):
        # every MoreThan verdict must be true, no failure probability allowed
        for seed in range(60):
            f = random_kcnf(9, 18, 3, seed)
            threshold = 4 + seed % 20
            result, _ = count_up_to(f, 3, threshold, 0.5, seed)
            if not result.is_exact:
                assert brute_force_count(f) > threshold

    def test_walk_fallback_high_variable_numbers(self):
        # 12 active variables numbered 61..72: the walk numbers them itself.
        # Any leaf bundles 2^60 models, so the verdict is MoreThan.
        base = random_kcnf(12, 30, 3, 4)
        shift = [tuple(l + 60 if l > 0 else l - 60 for l in c) for c in base.clauses]
        f = CnfFormula(72, tuple(shift))
        result, _ = count_up_to(f, 3, 10, 0.1, 1, SolverConfig(max_tries=1))
        assert result.more_than == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            count_up_to(F(2, [1]), 3, 0, 0.1, 0)
        with pytest.raises(ValueError):
            count_up_to(F(2, [1]), 3, 4, 0.0, 0)

    def test_deterministic(self):
        f = random_kcnf(10, 25, 3, 4)
        assert count_up_to(f, 3, 64, 1e-2, 5) == count_up_to(f, 3, 64, 1e-2, 5)

    def test_walk_fallback_not_certified(self):
        f = random_kcnf(20, 85, 3, 1)
        result, _ = count_up_to(f, 3, 200, 1e-3, 1, SolverConfig(max_tries=1))
        assert not result.certified

    def test_complete_search_certified_under_small_budget(self):
        # Unsatisfiable without unit clauses; the search needs 3 nodes.
        f = F(3, [1, 2], [1, -2], [-1, 3], [-1, -3])
        result, _ = count_up_to(f, 3, 4, 1e-6, 1, SolverConfig(max_tries=10))
        assert result.is_exact and result.count == 0 and result.certified

    def test_stats_serialize(self):
        _, stats = count_up_to(F(3, [1, 2, 3]), 3, 10, 1e-3, 0)
        payload = json.loads(stats.to_json())
        assert payload["solution_leaves"] == stats.solution_leaves


class TestLowerBoundReport:
    def test_unsatisfiable(self):
        report = lower_bound_report(F(1, [1], [-1]), 3, 1, 0.1, 0)
        assert not report["exceeds_threshold"]
        assert report["exact_count"] == 0

    def test_empty_formula_exceeds(self):
        report = lower_bound_report(CnfFormula(10, ()), 3, 100, 0.1, 0)
        assert report["exceeds_threshold"] and report["verdict_certain"]

    def test_single_unit(self):
        report = lower_bound_report(F(6, [1]), 3, 40, 0.1, 0)
        assert not report["exceeds_threshold"]
        assert report["exact_count"] == 32
