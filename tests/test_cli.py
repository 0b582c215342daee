import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sharpcount.bench import RunRecord, ScalingFit, fit_exponent
from sharpcount.cli import main
from sharpcount.formula import parse_dimacs


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

    def test_count_rejects_clause_wider_than_k(self, capsys, tmp_path):
        _, text = run(capsys, ["gen", "--n", "10", "--m", "30", "--k", "4", "--seed", "1"])
        path = tmp_path / "k4.cnf"
        path.write_text(text)
        assert main(["count", "--seed", "1", str(path)]) == 1
        assert "width 4 > k=3" in capsys.readouterr().err

    def test_runs_without_scipy(self):
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import sharpcount\n"
            "from sharpcount.cli import main\n"
            "f = sharpcount.random_kcnf(20, 85, 3, 1)\n"
            "print(sharpcount.approximate_count(f, 3, 0.2, 1).mode)\n"
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
        mode, header = child.stdout.splitlines()[:2]
        assert mode == "exact_enumeration" and header.startswith("k,mu,")

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
        assert set(report["fit"]) == {"points", "slope", "intercept", "residual"}
        assert [set(p) for p in report["fit"]["points"]] == [{"n", "median_time"}] * 4
        assert [p["n"] for p in report["fit"]["points"]] == [8, 9, 10, 11]
        assert report["theoretical_slope"] == pytest.approx(0.6197, abs=1e-3)

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
