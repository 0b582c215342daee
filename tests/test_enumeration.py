import json

import pytest

from sharpcount import enumeration
from sharpcount.cli import main
from sharpcount.engine import SEARCH, SatOutcome
from sharpcount.enumeration import EnumResult, TreeStats, count_up_to
from sharpcount.formula import (
    CnfFormula,
    brute_force_count,
    make_clause,
    random_kcnf,
    to_dimacs,
)
from sharpcount.scheme import sixteen_approx


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

    def test_tree_pinned(self, max_tries):
        # Totals under the two-sided Jeroslow-Wang branch rule, with every
        # node closed under unit propagation, no query on a side that the
        # search behind the node's witness refuted, and none on a side that
        # the flipped witness certifies: a change to the branching rule, to
        # the propagation or to the witnesses moves them.
        nodes = queries = 0
        for seed in range(60):
            n = 8 + seed % 5
            _, stats = count_up_to(random_kcnf(n, round(3.8 * n), 3, seed), 3, 1 << n, 1e-3, seed)
            nodes += stats.nodes_visited
            queries += stats.sat_queries
        assert (nodes, queries) == (551, 239)
        # One walk try per query: the walk's answers, and its misses, too.
        max_tries(1)
        runs = []
        for seed in range(6):
            f = random_kcnf(12, 45, 3, seed)
            result, stats = count_up_to(f, 3, 1 << 12, 1e-3, seed)
            assert result.is_exact and not result.certified
            assert result.count <= brute_force_count(f)
            runs.append((result.count, stats.nodes_visited, stats.sat_queries))
        assert runs == [(5, 6, 5), (0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1), (18, 15, 8)]

    def test_no_query_on_a_searched_refutation(self, max_tries):
        # The root's search visits x1 = 0 first, refutes it by propagation
        # and finds (1, 0): the x1 = 0 side needs no query of its own.
        f = CnfFormula(2, ((1, 2), (1, -2)))
        result, stats = count_up_to(f, 3, 4, 0.1, 1)
        assert result == EnumResult.exact(2)
        assert (stats.nodes_visited, stats.sat_queries) == (2, 1)
        # A walk's witness says nothing of the other side, which is queried.
        max_tries(1)
        result, stats = count_up_to(f, 3, 4, 0.1, 1)
        assert result.count == 2 and not result.certified
        assert (stats.nodes_visited, stats.sat_queries) == (2, 2)

    def test_flipped_witness_certifies_the_other_side(self):
        # The root's search finds (0, 1) through x1 = 0. Flipping x1 keeps
        # it a model, so the x1 = 1 side is certified without a query.
        f = CnfFormula(2, ((1, 2),))
        result, stats = count_up_to(f, 3, 4, 0.1, 1)
        assert result == EnumResult.exact(3)
        assert (stats.nodes_visited, stats.sat_queries, stats.witness_flips) == (3, 1, 1)
        # Here the witness is (0, 1) again, and flipping x1 breaks (-1, -2):
        # the x1 = 1 side is queried.
        result, stats = count_up_to(CnfFormula(2, ((1, 2), (-1, -2))), 3, 4, 0.1, 1)
        assert result == EnumResult.exact(2)
        assert (stats.nodes_visited, stats.sat_queries, stats.witness_flips) == (3, 2, 0)

    def test_sweep_against_brute_force(self, max_tries):
        # Every ExactCount is the model count (at most it, when a capped walk
        # answered), every MoreThan is true, and every exact tree keeps the
        # leaf law. Each inner node has one side off its witness, which a
        # search refuted, a flip certified or a query settled.
        def sweep(runs):
            for seed in range(runs):
                n = 6 + seed % 9
                f = random_kcnf(n, round((1.0 + seed % 5 / 2) * n), 3, 7000 + seed)
                brute = brute_force_count(f)
                for threshold in (3, 40, 1 << n):
                    result, stats = count_up_to(f, 3, threshold, 1e-2, seed)
                    if not result.is_exact:
                        assert brute > threshold
                        continue
                    assert result.count == brute if result.certified else result.count <= brute
                    assert stats.nodes_visited <= n * max(stats.solution_leaves, 1) + 1
                    inner = stats.nodes_visited - stats.solution_leaves
                    assert stats.sat_queries - 1 + stats.witness_flips <= inner

        sweep(40)
        max_tries(1)
        sweep(20)

    def test_more_than_at_a_leaf_counts_the_leaf(self):
        # The root is a leaf of 2^3 models, above the threshold 4: the leaf
        # is counted in `solution_leaves` before the verdict.
        result, stats = count_up_to(CnfFormula(3, ()), 3, 4, 0.1, 1)
        assert result == EnumResult.exceeded(4)
        assert stats == TreeStats(1, 1, 1, 0)

    def test_more_than_from_pending_nodes(self):
        # The counted leaves, this node and the nodes on the stack, each
        # holding its credit of models, prove the verdict before the leaves
        # reach it; at a leaf, the leaves and the stack's nodes do. Both
        # sides off the witnesses come from flips.
        result, stats = count_up_to(F(3, [1, 2, 3]), 3, 6, 0.1, 1)
        assert result.more_than == 6
        assert (stats.nodes_visited, stats.sat_queries) == (4, 1)
        # Run 0 of acceptance criterion 3's sweep.
        result, stats = count_up_to(random_kcnf(8, 20, 3, 5000), 3, 3, 1e-2, 0)
        assert result.more_than == 3
        assert (stats.nodes_visited, stats.sat_queries) == (2, 2)

    def test_more_than_from_a_searched_cube(self):
        # The root's search ends at x1 = 0, where x2 and x3 are forced and no
        # clause is open: that leaf's cube of 2^3 models proves more than 7
        # at the root, before any leaf is counted.
        f = F(6, [1, 2], [1, 3])
        result, stats = count_up_to(f, 3, 7, 0.1, 1)
        assert result == EnumResult.exceeded(7)
        assert (stats.nodes_visited, stats.solution_leaves, stats.sat_queries) == (1, 0, 1)
        # The cube is inside the root, and counted once at its own leaf.
        result, stats = count_up_to(f, 3, 40, 0.1, 1)
        assert result == EnumResult.exact(40)

    def test_more_than_from_a_propagated_cube(self):
        # A query that propagation settles at a leaf credits that leaf's
        # whole cube, as a searched one does, so the verdict comes before
        # the leaves are counted one by one.
        result, stats = count_up_to(random_kcnf(24, 36, 3, 8), 3, 560, 0.25, 8)
        assert result == EnumResult.exceeded(560)
        assert (
            stats.nodes_visited, stats.solution_leaves, stats.sat_queries, stats.witness_flips
        ) == (17, 4, 7, 6)

    def test_forced_literals_cost_no_node(self):
        # The root propagates 1, 2 and 3, so it is a leaf of 2^3 models.
        result, stats = count_up_to(F(6, [1], [-1, 2], [-2, 3]), 3, 64, 0.1, 1)
        assert result.count == 8
        assert (stats.nodes_visited, stats.sat_queries) == (1, 1)

    def test_non_model_witness_raises(self, monkeypatch):
        # Setting x1 = 0 forces a conflict, so the all-zero witness of the
        # node x1 = 0 is no model: the enumeration must say so, not miscount.
        monkeypatch.setattr(
            enumeration, "_decide_clauses", lambda *args: SatOutcome((0, 0, 0), SEARCH)
        )
        with pytest.raises(RuntimeError, match="not a model"):
            count_up_to(F(3, [1, 2], [1, -2]), 3, 8, 0.1, 1)

    def test_more_than_is_certain(self):
        # every MoreThan verdict must be true, no failure probability allowed
        for seed in range(60):
            f = random_kcnf(9, 18, 3, seed)
            threshold = 4 + seed % 20
            result, _ = count_up_to(f, 3, threshold, 0.5, seed)
            if not result.is_exact:
                assert brute_force_count(f) > threshold

    def test_walk_fallback_high_variable_numbers(self, max_tries):
        # 12 active variables numbered 61..72: the walk numbers them itself.
        # Any leaf bundles 2^60 models, so the verdict is MoreThan.
        base = random_kcnf(12, 30, 3, 4)
        shift = [tuple(l + 60 if l > 0 else l - 60 for l in c) for c in base.clauses]
        f = CnfFormula(72, tuple(shift))
        max_tries(1)
        result, _ = count_up_to(f, 3, 10, 0.1, 1)
        assert result.more_than == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            count_up_to(F(2, [1]), 3, 0, 0.1, 0)
        with pytest.raises(ValueError):
            count_up_to(F(2, [1]), 3, 4, 0.0, 0)
        with pytest.raises(ValueError, match="width 4"):
            count_up_to(F(4, [1, 2, 3, 4]), 3, 4, 0.1, 0)
        with pytest.raises(ValueError, match="k must be >= 3"):
            count_up_to(F(2, [1, 2]), 2, 4, 0.1, 0)

    def test_per_query_delta_outside_float_range(self):
        f = random_kcnf(20, 85, 3, 3)
        expected = count_up_to(f, 3, 2**20, 0.25, 1)[0]
        assert expected.is_exact and expected.certified
        # 2^1100 is no float; at 2^1020 the per-query delta would round to 0;
        # at delta 1e-310 it is subnormal and its inverse no float. The delta
        # is taken in log space, so each counts as a small threshold does.
        cases = ((2**1100, 0.25), (2**1020, 0.25), (2**1000, 0.25), (2**20, 1e-310))
        for threshold, delta in cases:
            assert count_up_to(f, 3, threshold, delta, 1)[0] == expected
        # sixteen_approx reaches such a threshold through its budget 2^{mu+3}.
        assert sixteen_approx(CnfFormula(1021, ((),)), 3, 1021, 1) == 0.0

    def test_deterministic(self):
        f = random_kcnf(10, 25, 3, 4)
        assert count_up_to(f, 3, 64, 1e-2, 5) == count_up_to(f, 3, 64, 1e-2, 5)

    def test_walk_fallback_not_certified(self, max_tries):
        max_tries(1)
        f = random_kcnf(20, 85, 3, 1)
        result, _ = count_up_to(f, 3, 200, 1e-3, 1)
        assert not result.certified

    def test_complete_search_certified_under_small_budget(self, max_tries):
        # Unsatisfiable without unit clauses; the search needs 3 nodes.
        max_tries(10)
        f = F(3, [1, 2], [1, -2], [-1, 3], [-1, -3])
        result, _ = count_up_to(f, 3, 4, 1e-6, 1)
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
            "witness_flips": stats.witness_flips,
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
