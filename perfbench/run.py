"""sharpcount benchmark: one run of one workload, its result as a JSON last line.

    python3 perfbench/run.py --workload threshold_exact --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
Workloads are described in `perfbench/workloads.py` and README.md there.

A run draws the workload's instance set from the seed, computes each
instance's exact count with `dpll_count` (untimed), times set-up, and then
calls the workload's entry point on every instance in turn, in this process
and one at a time. It repeats such passes while another one fits into
`--seconds`. Every answer is checked against the exact count.

With `--trace 0` the last line carries the end-to-end metrics. With
`--trace 1` the run makes one untraced pass, then one pass with the layer
hooks of `layers.py` installed, checks that both gave the same answers,
removes the hooks and reports the per-layer metrics of the traced pass.
Spans of the traced pass are written to `perfbench/out/`. A line before the
last one records the run's seeds, the machine and the exact answer tallies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# A seed kept out of every run made while tuning or optimising; a claimed
# gain is confirmed on it.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5

# Set-up is timed in fresh interpreters, because a module imports only once
# per process: import the package, then parse every instance's DIMACS text.
_SETUP_CHILD = """
import json, sys, time
texts = json.load(sys.stdin)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sharpcount
for text in texts:
    sharpcount.parse_dimacs(text)
print(time.perf_counter() - start)
"""


def _import_package():
    if not (SRC / "sharpcount" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'sharpcount'}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sharpcount

    if Path(sharpcount.__file__).resolve().parent != SRC / "sharpcount":
        sys.exit(f"perfbench: imported sharpcount from {sharpcount.__file__}")
    return sharpcount


def setup_seconds(texts: list[str]) -> float:
    """Median over fresh interpreters of importing sharpcount and parsing."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
            input=json.dumps(texts),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def run_pass(workload, formulas, instances, tracer=None):
    """One call per instance. Returns (wall time, op times, answers); an
    operation that raised leaves its exception as the answer."""
    times, answers = [], []
    started = time.perf_counter()
    for op_id, (formula, inst) in enumerate(zip(formulas, instances)):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = workload.op(formula, inst.op_seed)
            else:
                with tracer.operation(op_id):
                    answer = workload.op(formula, inst.op_seed)
        except Exception as exc:  # reported and counted as failed
            traceback.print_exc()
            answer = exc
        times.append(time.perf_counter() - t0)
        answers.append(answer)
        if tracer is not None:
            tracer.note_answer(answer)
    return time.perf_counter() - started, times, answers


def _same(a, b) -> bool:
    """Whether two answers carry the same estimate (an `ApproxResult` also
    carries its own wall time, which differs between calls)."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return False
    return getattr(a, "estimate", a) == getattr(b, "estimate", b)


def tail_percentile(set_size: int) -> int:
    """Highest whole percentile with at least ten of the set's operations
    beyond it; the median for sets of twenty or fewer."""
    return max(50, math.floor(100 * (1 - 10 / set_size)))


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, spans_path=None) -> dict:
    """One benchmark run; returns the result object plus an `info` key."""
    sharpcount = _import_package()
    import layers
    from workloads import FAILED, MAX_WRONG_FRAC, OK, WORKLOADS, WRONG, make_instances

    workload = WORKLOADS[workload_name]
    size = workload.set_size(seconds)
    instances = make_instances(workload, seed, size)
    texts = [inst.text for inst in instances]
    setup_s = None if trace else setup_seconds(texts)
    formulas = [sharpcount.parse_dimacs(text) for text in texts]
    if formulas != [inst.formula for inst in instances]:
        raise RuntimeError("parse_dimacs did not return the generated formulas")
    # Fill lazy state (numpy dispatch, scipy constants) before timing.
    warm = sharpcount.random_kcnf(8, 20, 3, seed)
    workload.op(warm, seed)

    passes = []
    measure_start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, formulas, instances))
        elapsed = time.perf_counter() - measure_start
        if trace or elapsed + passes[-1][0] > seconds:
            break

    answers = passes[0][2]
    verdicts = [FAILED if isinstance(a, Exception) else workload.check(a, inst.true_count)
                for a, inst in zip(answers, instances)]
    for _, _, again in passes[1:]:
        # Every entry point is deterministic for a fixed seed.
        verdicts = [v if _same(a, b) else FAILED for v, a, b in zip(verdicts, answers, again)]
    op_times = [t for _, times, _ in passes for t in times]
    attempted = size * len(passes)
    failed = verdicts.count(FAILED) * len(passes)
    wrong_frac = verdicts.count(WRONG) / size
    failed_frac = verdicts.count(FAILED) / size
    correct = failed == 0 and wrong_frac <= MAX_WRONG_FRAC
    tail = tail_percentile(size)
    info = {
        "workload": workload_name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "set_size": size,
        "passes": len(passes),
        "tail_percentile": tail,
        "wrong_frac": wrong_frac,
        "failed_frac": failed_frac,
        "true_counts": [inst.true_count for inst in instances],
        **machine_info(),
    }

    if not trace:
        metrics = {
            "op_s.p50": statistics.median(op_times),
            "op_s.tail": statistics.quantiles(op_times, n=100, method="inclusive")[tail - 1],
            "total_s": statistics.median(total for total, _, _ in passes),
            "ok_frac": verdicts.count(OK) / size,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = {"ok_frac": "share", "peak_rss_mb": "MB"}
        return {
            "info": info,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()},
        }

    tracer = layers.Tracer()
    tracer.install()
    try:
        traced_formulas = [sharpcount.parse_dimacs(text) for text in texts]
        traced_total, _, traced_answers = run_pass(workload, traced_formulas, instances, tracer)
    finally:
        tracer.uninstall()
    changed = sum(not _same(a, b) for a, b in zip(answers, traced_answers))
    if changed:
        print(f"perfbench: tracing changed {changed} answers", file=sys.stderr)
    metrics = layers.layer_metrics(tracer)
    metrics["trace.overhead"] = traced_total / passes[0][0]
    info.update(untraced_total_s=passes[0][0], traced_total_s=traced_total,
                answers_changed_by_tracing=changed, unhooked=tracer.missing)
    if spans_path is not None:
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
    return {
        "info": info,
        "correct": correct and changed == 0,
        "attempted": attempted,
        "failed": failed + changed,
        "metrics": {k: {"value": v, "unit": layers.unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    _import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spans = OUT / f"spans-{args.workload}-{args.seed}.json"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), spans)
    print(json.dumps({"info": result.pop("info")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
