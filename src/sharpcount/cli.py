"""Command-line front end.

One JSON report per run on stdout, diagnostics on stderr. The reports are
built here from the library's result dataclasses, and the size guards of
the `exact` and `upper` commands are applied here. Exit codes:
0 success, 1 input error or a closed stdout, 2 guard violation (instance
too large for the requested mode). The master seed defaults to
$SHARPCOUNT_SEED, then to a fresh seed from system entropy; every report
carries the seed it used.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import secrets
import sys
import time
from dataclasses import asdict

from . import bench as bench_mod
from .engine import (
    BETA_ANALYSIS,
    BETA_SUBROUTINE,
    beta_for,
    compute_mu,
    constants_row,
    split_seed,
)
from .enumeration import count_up_to
from .formula import (
    BRUTE_FORCE_VAR_LIMIT,
    CnfFormula,
    GuardError,
    ParseError,
    brute_force_count,
    dpll_count,
    parse_dimacs,
    random_kcnf,
    to_dimacs,
)
from .scheme import SchemeConfig, approximate_count, crossover_fraction
from .upper import upper_bound

UPPER_ENUM_GUARD = 26  # at most 2^26 linear-system solutions per scan


def _read_formula(path: str) -> CnfFormula:
    if path == "-":
        return parse_dimacs(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dimacs(fh.read())


def _default_seed() -> int:
    env = os.environ.get("SHARPCOUNT_SEED")
    try:
        return secrets.randbits(63) if env is None else int(env)
    except ValueError:
        raise ValueError(f"SHARPCOUNT_SEED must be an integer, got {env!r}") from None


def _resolve_beta(spec: str, k: int) -> float:
    if spec == "analysis":
        return beta_for(k, BETA_ANALYSIS)
    if spec == "subroutine":
        return beta_for(k, BETA_SUBROUTINE)
    return float(spec)


def _cmd_count(args) -> dict:
    formula = _read_formula(args.file)
    beta = _resolve_beta(args.cutoff_beta, args.k)
    cfg = SchemeConfig(beta=beta, enum_delta=args.delta)
    result = approximate_count(formula, args.k, args.epsilon, args.seed, cfg)
    return {**asdict(result), "n": formula.n, "m": formula.m, "k": args.k, "beta": beta}


def _cmd_lower(args) -> dict:
    # Either the count exceeds the threshold (a certain verdict) or the exact
    # count is reported (it holds up to delta).
    formula = _read_formula(args.file)
    result, stats = count_up_to(formula, args.k, args.threshold, args.delta, args.seed)
    return {
        "threshold": args.threshold,
        "exceeds_threshold": not result.is_exact,
        "exact_count": result.count,
        "verdict_certain": not result.is_exact,
        "certified_queries": result.certified,
        "stats": asdict(stats),
        "n": formula.n,
        "m": formula.m,
        "seed": args.seed,
    }


def _cmd_upper(args) -> dict:
    formula = _read_formula(args.file)
    # A mu outside [0, n] is left to upper_bound's ValueError (exit 1).
    if args.mu >= 0 and formula.n - args.mu > UPPER_ENUM_GUARD:
        raise GuardError(
            f"scan would enumerate up to 2^{formula.n - args.mu} solutions "
            f"(guard 2^{UPPER_ENUM_GUARD})"
        )
    result = upper_bound(formula, args.mu, args.seed)
    return {
        **asdict(result),
        "U": result.bound,
        "trace": [{"nu": nu, "sat": sat} for nu, sat in result.trace],
        "seed": args.seed,
    }


def _cmd_exact(args) -> dict:
    formula = _read_formula(args.file)
    if formula.n > BRUTE_FORCE_VAR_LIMIT:
        raise GuardError(
            f"exact counting limited to n <= {BRUTE_FORCE_VAR_LIMIT}, got n={formula.n}"
        )
    started = time.perf_counter()
    if args.method == "brute":
        count = brute_force_count(formula)
    else:
        count = dpll_count(formula)
    return {
        "count": count,
        "method": args.method,
        "n": formula.n,
        "m": formula.m,
        "elapsed": time.perf_counter() - started,
    }


def _cmd_gen(args) -> str:
    if args.m is None and args.density is None:
        raise ValueError("gen needs --m or --density")
    m = args.m if args.m is not None else round(args.density * args.n)
    formula = random_kcnf(args.n, m, args.k, args.seed)
    return to_dimacs(formula, comments=[f"random k-cnf n={args.n} m={m} k={args.k} seed={args.seed}"])


def _parse_range(spec: str) -> list[int]:
    parts = [int(p) for p in spec.split(":")]
    if len(parts) == 1:
        return parts
    step = parts[2] if len(parts) == 3 else 1
    return list(range(parts[0], parts[1] + 1, step))


def _cmd_bench(args) -> dict:
    ns = _parse_range(args.n_range)
    beta = _resolve_beta(args.cutoff_beta, args.k)
    cfg = SchemeConfig(beta=beta)
    records = []
    for n in ns:
        m = round(args.density * n)
        for trial in range(args.trials):
            inst_seed = split_seed(args.seed, n * 1000 + trial)
            formula = random_kcnf(n, m, args.k, inst_seed)
            started = time.perf_counter()
            result = approximate_count(
                formula, args.k, args.epsilon, split_seed(inst_seed, 1), cfg
            )
            elapsed = time.perf_counter() - started
            records.append(
                bench_mod.RunRecord(
                    n=n,
                    m=m,
                    k=args.k,
                    seed=inst_seed,
                    command="count",
                    params={"epsilon": args.epsilon, "beta": beta},
                    result=asdict(result),
                    wall_time=elapsed,
                )
            )
            print(f"bench n={n} trial={trial} t={elapsed:.3f}s mode={result.mode}",
                  file=sys.stderr)
    report: dict = {
        "records": [asdict(r) for r in records],
        "theoretical_slope": 1.0 / (2.0 - beta),
        "beta": beta,
    }
    if len(ns) >= 4 and args.trials >= 3:
        fit = bench_mod.fit_exponent(records)
        points = [{"n": n, "median_time": t} for n, t in fit.points]
        report["fit"] = {**asdict(fit), "points": points}
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "m", "k", "seed", "wall_time", "mode", "estimate"])
            for r in records:
                writer.writerow(
                    [r.n, r.m, r.k, r.seed, r.wall_time,
                     r.result["mode"], r.result["estimate"]]
                )
    return report


def _cmd_constants(args) -> dict | str:
    if args.csv:
        if args.max_k < 3:
            raise ValueError(f"--max-k must be >= 3, got {args.max_k}")
        rows = [constants_row(k) for k in range(3, args.max_k + 1)]
        lines = [",".join(rows[0].keys())]
        lines.extend(",".join(str(v) for v in row.values()) for row in rows)
        return "\n".join(lines) + "\n"
    row = constants_row(args.k)
    beta = row["beta_analysis"]
    row["f"] = crossover_fraction(beta)
    row["mu_tolerance"] = 1e-9
    return row


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharpcount",
        description="Randomized approximate model counting for k-CNF formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="DIMACS CNF file, or - for stdin")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("count", help="hybrid approximation scheme")
    add_common(p)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=1.0 / 12.0,
                   help="enumeration-phase failure budget")
    p.add_argument("--cutoff-beta", default="analysis",
                   help="analysis | subroutine | <float>")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("lower", help="exact-count-or-exceeds verdict")
    add_common(p)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--L", dest="threshold", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.25)
    p.set_defaults(func=_cmd_lower)

    p = sub.add_parser("upper", help="GF(2)-hashing upper bound")
    add_common(p)
    p.add_argument("--mu", type=int, default=0)
    p.set_defaults(func=_cmd_upper)

    p = sub.add_parser("exact", help="exact oracle count")
    add_common(p)
    p.add_argument("--method", choices=["brute", "dpll"], default="dpll")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("gen", help="random k-CNF instance to stdout")
    add_common(p, with_file=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=_cmd_gen, raw=True)

    p = sub.add_parser("bench", help="scaling harness for the count command")
    add_common(p, with_file=False)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--density", type=float, default=4.26)
    p.add_argument("--n-range", default="12:20:2")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--cutoff-beta", default="analysis")
    p.add_argument("--csv", help="also write per-run rows to this CSV file")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("constants", help="mu_k / beta_k constants table")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--max-k", type=int, default=10)
    p.set_defaults(func=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        report = args.func(args)
    except GuardError as exc:
        print(f"sharpcount: guard violation: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as exc:
        print(f"sharpcount: {exc}", file=sys.stderr)
        return 1
    try:
        if isinstance(report, str):
            sys.stdout.write(report)
        else:
            print(json.dumps(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away. Point stdout at devnull so that the flush at
        # exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
