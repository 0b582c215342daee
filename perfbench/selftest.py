"""Self-test of the benchmark, on small instance sets (about a minute):

    python3 perfbench/selftest.py

Checks that tracing leaves every answer unchanged, that the layer hooks are
gone afterwards, and that the metrics each mode emits are exactly those that
BENCHMARK.json lists, with the same units. Exits 1 and names each failed
check otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

SECONDS = 1.0  # sizes each instance set to a few instances
SEED = 1


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    run._import_package()
    import layers
    from workloads import WORKLOADS

    problems = []
    originals = {(m.__name__, a): getattr(m, a) for m, a, _, _ in layers.HOOKS}
    end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
    for name in WORKLOADS:
        traced = run.run(name, SEED, SECONDS, trace=True)
        if traced["info"]["answers_changed_by_tracing"]:
            problems.append(f"{name}: tracing changed an answer")
        if traced["info"]["unhooked"]:
            problems.append(f"{name}: no hook for {traced['info']['unhooked']}")
        wrapped = [f"{m.__name__}.{a}" for m, a, _, _ in layers.HOOKS
                   if getattr(m, a) is not originals[(m.__name__, a)]]
        if wrapped:
            # Later runs would wrap the wrappers; stop here.
            print(f"FAIL {name}: still wrapped after the run: {wrapped}")
            return 1
        if _emitted(traced) != per_layer:
            problems.append(f"{name}: traced metrics differ from BENCHMARK.json per_layer")
        plain = run.run(name, SEED, SECONDS, trace=False)
        if _emitted(plain) != end_to_end:
            problems.append(f"{name}: metrics differ from BENCHMARK.json end_to_end")
        if not (traced["correct"] and plain["correct"]):
            problems.append(f"{name}: a run reported correct=false")

    # The command line prints the result object as its last line.
    child = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "sparse_sampled",
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    last = json.loads(child.stdout.strip().splitlines()[-1]) if child.returncode == 0 else {}
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"command line: last line is not the result object ({child.returncode})")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
