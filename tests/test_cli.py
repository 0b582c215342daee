import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sharpcount import scheme
from sharpcount.bench import RunRecord, ScalingFit, fit_exponent
from sharpcount.cli import main
from sharpcount.engine import beta_for
from sharpcount.formula import dpll_count, parse_dimacs, random_kcnf, to_dimacs
from sharpcount.scheme import EXACT_MODE, SAMPLED_MODE, cutoff


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 2\n1 2 3 0\n-1 2 0\n")
    return str(path)


ROOT = Path(__file__).resolve().parents[1]

# The fields of `ApproxResult`, which `count` and each `bench` record carry.
RESULT_KEYS = {
    "estimate", "mode", "cutoff", "epsilon", "seed", "sample_count", "elapsed", "certified",
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def child_env():
    """The environment for a child interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestCommands:
    def test_count(self, capsys, cnf_file):
        code, out = run(capsys, ["count", "--k", "3", "--epsilon", "0.2", "--seed", "7", cnf_file])
        assert code == 0
        report = json.loads(out)
        assert set(report) == RESULT_KEYS | {"n", "m", "k", "beta"}
        assert report["seed"] == 7
        assert report["mode"] in ("exact_enumeration", "monte_carlo_sampled")
        assert "cutoff" in report and "estimate" in report
        assert report["certified"] is True

    def test_count_cutoff_beta(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text(to_dimacs(random_kcnf(20, 85, 3, 1)))
        for spec, beta in (("subroutine", beta_for(3, "subroutine")), ("0.3", 0.3)):
            argv = ["count", "--cutoff-beta", spec, "--seed", "1", str(path)]
            code, out = run(capsys, argv)
            assert code == 0
            report = json.loads(out)
            assert report["beta"] == beta
            assert report["cutoff"] == cutoff(3, beta, 20)
        for spec in ("1.5", "nan"):
            assert main(["count", "--cutoff-beta", spec, "--seed", "1", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"sharpcount: beta must lie in (0,1), got {float(spec)}\n"

    def test_count_replay_deterministic(self, capsys, cnf_file):
        argv = ["count", "--seed", "11", cnf_file]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        a, b = json.loads(first), json.loads(second)
        a.pop("elapsed"), b.pop("elapsed")
        assert a == b

    def test_bad_env_seed_exit_1(self, capsys, monkeypatch, cnf_file):
        monkeypatch.setenv("SHARPCOUNT_SEED", "seven")
        assert main(["count", cnf_file]) == 1
        assert "SHARPCOUNT_SEED" in capsys.readouterr().err
        # commands without a seed do not read it
        code, out = run(capsys, ["constants", "--k", "3"])
        assert code == 0 and json.loads(out)["k"] == 3
        code, out = run(capsys, ["exact", cnf_file])
        assert code == 0 and json.loads(out)["count"] == 5
        assert main(["exact", "--seed", "1", cnf_file]) == 1

    def test_count_rejects_clause_wider_than_k(self, capsys, tmp_path):
        _, text = run(capsys, ["gen", "--n", "10", "--m", "30", "--k", "4", "--seed", "1"])
        path = tmp_path / "k4.cnf"
        path.write_text(text)
        assert main(["count", "--seed", "1", str(path)]) == 1
        assert "width 4 > k=3" in capsys.readouterr().err

    def test_rejects_k_below_3(self, capsys, tmp_path):
        # At k = 2 the walk's bound reads 1, so the enumeration trusted one
        # search node per query and undercounted this formula (1,126,400
        # models) as a certified 675,840.
        _, text = run(capsys, ["gen", "--n", "40", "--m", "44", "--k", "2", "--seed", "3"])
        path = tmp_path / "k2.cnf"
        path.write_text(text)
        assert main(["lower", str(path), "--k", "2", "--L", "10000000", "--seed", "3"]) == 1
        assert capsys.readouterr().err == "sharpcount: k must be >= 3, got 2\n"
        assert main(["count", "--k", "2", "--seed", "3", str(path)]) == 1
        assert "k must be >= 3" in capsys.readouterr().err

    def test_imports_no_scipy(self):
        # The package has no runtime dependency; numpy and scipy are installed
        # for the tests, so only a fresh interpreter shows a stray import.
        script = (
            "import sys\n"
            "import sharpcount, sharpcount.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == "[]\n"

    def test_runs_without_scipy(self, tmp_path):
        # 20 clauses over 20 variables leave about 2^16 models, so `count`
        # samples; the sweep of `upper` and the brute-force count read the
        # bit-sliced kernel, and `bench` fits a slope over 4 n x 3 trials.
        path = tmp_path / "sparse.cnf"
        path.write_text(to_dimacs(random_kcnf(20, 20, 3, 1)))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "sys.modules['numpy'] = None\n"
            "import sharpcount\n"
            "from sharpcount.cli import main\n"
            "f = sharpcount.random_kcnf(20, 85, 3, 1)\n"
            "print(sharpcount.approximate_count(f, 3, 0.2, 1).mode)\n"
            f"path = {str(path)!r}\n"
            "for argv in (['count', '--seed', '1', path], ['upper', '--seed', '1', path],\n"
            "             ['exact', '--method', 'brute', path],\n"
            "             ['bench', '--n-range', '8:11', '--trials', '3', '--density', '4.0',\n"
            "              '--seed', '1']):\n"
            "    assert main(argv) == 0, argv\n"
            "sys.exit(main(['constants', '--csv']))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        mode, count, upper, exact, bench, header = child.stdout.splitlines()[:6]
        assert mode == "exact_enumeration" and header.startswith("k,mu,")
        assert json.loads(count)["mode"] == "monte_carlo_sampled"
        assert json.loads(upper)["u"] > 0
        assert json.loads(exact)["count"] == dpll_count(random_kcnf(20, 20, 3, 1))
        assert len(json.loads(bench)["fit"]["points"]) == 4

    def test_closed_stdout_exits_1_without_traceback(self, cnf_file):
        # The reader of the pipe is gone before the report is written, as
        # when the output goes to `head -c` and it has read enough.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "sharpcount.cli", "upper", "--seed", "1", cnf_file],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=child_env(),
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert "Traceback" not in child.stderr

    def test_entropy_seed_replays(self, capsys, monkeypatch, cnf_file):
        monkeypatch.delenv("SHARPCOUNT_SEED", raising=False)
        _, first = run(capsys, ["count", cnf_file])
        _, second = run(capsys, ["count", cnf_file])
        a, b = json.loads(first), json.loads(second)
        assert a["seed"] != b["seed"]
        _, replay = run(capsys, ["count", "--seed", str(a["seed"]), cnf_file])
        c = json.loads(replay)
        a.pop("elapsed"), c.pop("elapsed")
        assert a == c

    def test_constants(self, capsys):
        code, out = run(capsys, ["constants", "--k", "3"])
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "k", "mu", "beta_analysis", "beta_deterministic", "beta_subroutine", "growth",
            "f", "mu_tolerance",
        }
        assert report["mu"] == pytest.approx(1.2274, abs=1e-4)
        assert report["beta_analysis"] == pytest.approx(0.3864, abs=1e-3)
        assert report["beta_deterministic"] == 0.4151
        assert report["growth"] == pytest.approx(1.5366, abs=2e-4)

    def test_constants_csv(self, capsys):
        code, out = run(capsys, ["constants", "--csv", "--max-k", "6"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,mu,")
        assert len(lines) == 5  # header + k in 3..6

    def test_constants_csv_empty_range_exit_1(self, capsys):
        assert main(["constants", "--csv", "--max-k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "sharpcount: --max-k must be >= 3, got 2"

    def test_exact(self, capsys, cnf_file):
        code, out = run(capsys, ["exact", "--method", "brute", cnf_file])
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"count", "method", "n", "m", "elapsed"}
        assert report["count"] == 5

    def test_no_variables(self, capsys, tmp_path):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 0 0\n")
        for argv, key, value in (
            (["count", "--seed", "1"], "estimate", 1),
            (["exact"], "count", 1),
            (["lower", "--L", "3", "--seed", "1"], "exact_count", 1),
            (["upper", "--seed", "1"], "u", 0),
        ):
            code, out = run(capsys, argv + [str(path)])
            assert code == 0 and json.loads(out)[key] == value

    def test_bad_epsilon(self, capsys, cnf_file, tmp_path):
        # cnf_file has #F = 5 above the cutoff 3, so it is sampled; the
        # exact-mode file has one model.
        exact_file = tmp_path / "one.cnf"
        exact_file.write_text("p cnf 3 3\n1 0\n2 0\n3 0\n")
        for eps, path, code in (
            ("inf", cnf_file, 1),
            ("nan", str(exact_file), 1),
            ("1e-300", cnf_file, 2),
        ):
            assert run(capsys, ["count", "--seed", "1", "--epsilon", eps, path]) == (code, "")

    def test_float_range_exit_2(self, capsys, tmp_path):
        # 2^1100 models are sampled, and 2^1100 is no float.
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 1100 1\n1 2 3 0\n")
        assert main(["count", "--seed", "1", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "float range" in captured.err

    def test_lower_threshold_beyond_float_range_exit_0(self, capsys, cnf_file):
        # 2^1100 is no float, but the per-query delta is sized in log space,
        # so the threshold counts like any other.
        code, out = run(capsys, ["lower", "--L", str(2**1100), "--seed", "1", cnf_file])
        assert code == 0
        report = json.loads(out)
        assert report["exact_count"] == 5 and not report["exceeds_threshold"]
        assert report["certified_queries"]

    def test_exact_guard_exit_2(self, capsys, tmp_path):
        path = tmp_path / "big.cnf"
        path.write_text("p cnf 40 1\n1 2 3 0\n")
        code, _ = run(capsys, ["exact", str(path)])
        assert code == 2

    def test_lower(self, capsys, cnf_file):
        code, out = run(capsys, ["lower", "--L", "2", "--seed", "3", cnf_file])
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "threshold", "exceeds_threshold", "exact_count", "verdict_certain",
            "certified_queries", "stats", "n", "m", "seed",
        }
        assert report["exceeds_threshold"] is True  # #F = 5 > 2

    def test_upper(self, capsys, cnf_file):
        code, out = run(capsys, ["upper", "--mu", "0", "--seed", "5", cnf_file])
        assert code == 0
        report = json.loads(out)
        assert report["U"] == 2 ** (report["u"] + 3)

    def test_gen_roundtrip(self, capsys):
        code, out = run(capsys, ["gen", "--n", "8", "--m", "20", "--k", "3", "--seed", "4"])
        assert code == 0
        formula = parse_dimacs(out)
        assert formula.n == 8 and formula.m == 20
        assert "c generated-by" in out

    def test_gen_negative_clause_count_exit_1(self, capsys):
        for flags in (["--m", "-2"], ["--density", "-1"]):
            assert run(capsys, ["gen", "--n", "5", "--seed", "1"] + flags) == (1, "")

    def test_gen_rejects_bad_width_and_density(self, capsys):
        for flags, message in (
            (["--m", "5", "--k", "0"], "clause width k must be >= 1, got 0"),
            (["--m", "5", "--k", "-1"], "clause width k must be >= 1, got -1"),
            (["--density", "inf"], "--density inf gives inf clauses at n=10"),
            (["--density", "nan"], "--density nan gives nan clauses at n=10"),
            (["--density", "1e308"], "--density 1e+308 gives inf clauses at n=10"),
        ):
            assert main(["gen", "--n", "10", "--seed", "1", *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.strip() == f"sharpcount: {message}"

    def test_gen_determinism(self, capsys):
        argv = ["gen", "--n", "8", "--density", "4.0", "--seed", "4"]
        _, a = run(capsys, argv)
        _, b = run(capsys, argv)
        assert a == b

    def test_unreadable_file_exit_1(self, capsys):
        code, _ = run(capsys, ["count", "/nonexistent/path.cnf"])
        assert code == 1

    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 2 1\n9 0\n")
        code, _ = run(capsys, ["exact", str(path)])
        assert code == 1

    def test_bench_small(self, capsys):
        code, out = run(
            capsys,
            ["bench", "--n-range", "8:11", "--trials", "3", "--density", "4.0",
             "--seed", "1"],
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"records", "theoretical_slope", "beta", "fit"}
        assert len(report["records"]) == 12
        for record in report["records"]:
            assert set(record) == {
                "n", "m", "k", "seed", "command", "params", "result", "wall_time",
            }
            assert set(record["result"]) == RESULT_KEYS
            # The record's wall time and its result's `elapsed` are one reading.
            assert record["wall_time"] == record["result"]["elapsed"]
        assert set(report["fit"]) == {"points", "slope", "intercept", "residual"}
        assert [set(p) for p in report["fit"]["points"]] == [{"n", "median_time"}] * 4
        assert [p["n"] for p in report["fit"]["points"]] == [8, 9, 10, 11]
        assert report["theoretical_slope"] == pytest.approx(0.6197, abs=1e-3)

    def test_bench_guard_run_is_a_row(self, capsys, monkeypatch, tmp_path):
        # A sample ceiling of 1 trips every sampled run; the exact runs of
        # the grid must come through as they do without the guard.
        argv = ["bench", "--n-range", "10:13", "--trials", "3", "--density", "3.0",
                "--seed", "1"]
        code, out = run(capsys, argv)
        assert code == 0
        plain = json.loads(out)["records"]
        monkeypatch.setattr(scheme, "SAMPLE_CEILING", 1)
        csv_path = tmp_path / "runs.csv"
        assert main(argv + ["--csv", str(csv_path)]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        records = report["records"]
        assert len(records) == len(plain) == 12
        guard = {"mode": "guard", "error": "epsilon=0.2 needs more than 1 hits"}
        modes = []
        for record, before in zip(records, plain):
            modes.append(record["result"]["mode"])
            if record["result"] == guard:
                assert before["result"]["mode"] == SAMPLED_MODE
                assert record["wall_time"] > 0
            else:
                assert before["result"]["mode"] == EXACT_MODE
                for row in (record, before):
                    del row["result"]["elapsed"], row["wall_time"]
                assert record == before
        assert EXACT_MODE in modes and "guard" in modes
        # Guard rows keep their time in the fit: every n keeps 3 trials.
        assert [p["n"] for p in report["fit"]["points"]] == [10, 11, 12, 13]
        assert captured.err.count("mode=guard") == modes.count("guard")
        rows = list(csv.reader(csv_path.read_text().splitlines()))[1:]
        assert [row[5] for row in rows] == modes
        assert [row[6] == "" for row in rows] == [m == "guard" for m in modes]

    def test_bench_range_end_inclusive_for_negative_step(self, capsys):
        code, out = run(
            capsys,
            ["bench", "--n-range", "12:8:-2", "--trials", "1", "--density", "4.0",
             "--seed", "1"],
        )
        assert code == 0
        assert [r["n"] for r in json.loads(out)["records"]] == [12, 10, 8]

    def test_bench_rejects_runs_that_measure_nothing(self, capsys):
        for flags, message in (
            (["--trials", "-2"], "--trials must be >= 1, got -2"),
            (["--trials", "0"], "--trials must be >= 1, got 0"),
            (["--n-range", "20:10"], "--n-range 20:10 gives no n"),
            (["--n-range", "12:14:1:3"], "--n-range 12:14:1:3 has more than three fields"),
            (["--n-range", "12:14:0"], "--n-range 12:14:0 has step 0"),
            (["--density", "1e308", "--n-range", "10:12"],
             "--density 1e+308 gives inf clauses at n=10"),
            (["--density", "nan"], "--density nan gives nan clauses at n=12"),
        ):
            assert main(["bench", "--seed", "1", *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.strip() == f"sharpcount: {message}"

    def test_bench_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "runs.csv"
        code, _ = run(
            capsys,
            ["bench", "--n-range", "8:9", "--trials", "2", "--density", "4.0",
             "--seed", "1", "--csv", str(csv_path)],
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("n,m,k,")
        assert len(lines) == 5

    def test_bench_unwritable_csv_fails_before_the_grid(self, capsys, tmp_path):
        csv_path = tmp_path / "missing" / "runs.csv"
        argv = ["bench", "--n-range", "10:12", "--trials", "1", "--seed", "1",
                "--csv", str(csv_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("sharpcount: [Errno 2]") and str(csv_path) in err
        assert "bench n=" not in err


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("sharpcount ")]
    assert len(lines) >= 7
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SHARPCOUNT_SEED", "1")
    for line in lines:
        argv = shlex.split(line)[1:]
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        if target is not None:
            Path(target).write_text(out)


class TestFitExponent:
    def _records(self, times_by_n):
        return [
            RunRecord(n=n, m=0, k=3, seed=i, command="count", wall_time=t)
            for n, times in times_by_n.items()
            for i, t in enumerate(times)
        ]

    def test_exact_line(self):
        recs = self._records({n: [2 ** (0.5 * n)] * 3 for n in (10, 12, 14, 16)})
        fit = fit_exponent(recs)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)

    def test_noisy_line(self):
        import random

        rng = random.Random(1)
        recs = self._records(
            {
                n: [2 ** (0.62 * n) * (1 + 0.05 * (rng.random() - 0.5)) for _ in range(5)]
                for n in range(10, 22, 2)
            }
        )
        fit = fit_exponent(recs)
        assert fit.slope == pytest.approx(0.62, abs=0.03)

    def test_too_few_points(self):
        recs = self._records({n: [1.0] * 3 for n in (10, 12, 14)})
        with pytest.raises(ValueError):
            fit_exponent(recs)

    def test_too_few_trials(self):
        recs = self._records({n: [1.0] * 2 for n in (10, 12, 14, 16)})
        with pytest.raises(ValueError):
            fit_exponent(recs)

    def test_median_not_mean(self):
        recs = self._records(
            {n: [2 ** (0.5 * n), 2 ** (0.5 * n), 2 ** (0.5 * n) * 100] for n in (10, 12, 14, 16)}
        )
        fit = fit_exponent(recs)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)
