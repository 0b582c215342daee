import json

import pytest

from sharpcount.cli import main
from sharpcount.engine import SolverConfig
from sharpcount.enumeration import count_up_to
from sharpcount.formula import CnfFormula, brute_force_count, make_clause, random_kcnf, to_dimacs


def F(n, *clauses):
    return CnfFormula(n, tuple(make_clause(c) for c in clauses))


def lower_report(tmp_path, capsys, formula, threshold, delta, seed):
    """The lower-bound report that `sharpcount lower` prints for `formula`."""
    path = tmp_path / "f.cnf"
    path.write_text(to_dimacs(formula))
    argv = ["lower", "--L", str(threshold), "--delta", str(delta), "--seed", str(seed)]
    assert main(argv + [str(path)]) == 0
    return json.loads(capsys.readouterr().out)


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

    def test_tree_pinned(self):
        # Totals recorded from the clause-list search that the trail-based
        # search state replaced: a change to the branching rule, to the
        # propagation or to the witnesses moves them.
        nodes = queries = 0
        for seed in range(60):
            n = 8 + seed % 5
            _, stats = count_up_to(random_kcnf(n, round(3.8 * n), 3, seed), 3, 1 << n, 1e-3, seed)
            nodes += stats.nodes_visited
            queries += stats.sat_queries
        assert (nodes, queries) == (1853, 1634)
        # One walk try per query: the walk's answers, and its misses, too.
        runs = []
        for seed in range(6):
            f = random_kcnf(12, 45, 3, seed)
            result, stats = count_up_to(f, 3, 1 << 12, 1e-3, seed, SolverConfig(max_tries=1))
            assert result.is_exact and not result.certified
            runs.append((result.count, stats.nodes_visited, stats.sat_queries))
        assert runs == [
            (4, 11, 11), (12, 65, 59), (11, 55, 50), (5, 30, 28), (8, 45, 41), (17, 41, 34)
        ]

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
        with pytest.raises(ValueError, match="width 4"):
            count_up_to(F(4, [1, 2, 3, 4]), 3, 4, 0.1, 0)

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

    def test_stats_serialize(self, tmp_path, capsys):
        # Stats reach JSON through the lower-bound report.
        f = F(3, [1, 2, 3])
        _, stats = count_up_to(f, 3, 10, 1e-3, 0)
        payload = lower_report(tmp_path, capsys, f, 10, 1e-3, 0)["stats"]
        assert payload == {
            "nodes_visited": stats.nodes_visited,
            "solution_leaves": stats.solution_leaves,
            "sat_queries": stats.sat_queries,
            "max_depth": stats.max_depth,
        }


class TestLowerBoundReport:
    def test_unsatisfiable(self, tmp_path, capsys):
        report = lower_report(tmp_path, capsys, F(1, [1], [-1]), 1, 0.1, 0)
        assert not report["exceeds_threshold"]
        assert report["exact_count"] == 0

    def test_empty_formula_exceeds(self, tmp_path, capsys):
        report = lower_report(tmp_path, capsys, CnfFormula(10, ()), 100, 0.1, 0)
        assert report["exceeds_threshold"] and report["verdict_certain"]

    def test_single_unit(self, tmp_path, capsys):
        report = lower_report(tmp_path, capsys, F(6, [1]), 40, 0.1, 0)
        assert not report["exceeds_threshold"]
        assert report["exact_count"] == 32
