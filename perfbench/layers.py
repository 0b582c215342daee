"""Spans and counts at the library's layer boundaries, taken from outside it.

A hook replaces the name that a caller module binds, such as the
`count_up_to` that `sharpcount.scheme` imported, with a wrapper that records
one span per call and reads the layer's counts off the call's arguments and
result. Nothing in the package is edited, and `Tracer.uninstall` puts every
original back. Spans stay in memory until the run writes them out.

A span is [name, start, end, parent span index or -1, operation id, tag],
where the tag sorts calls of one layer by how they ended.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import sharpcount
from sharpcount import engine, enumeration, scheme, upper


def _decide(counts, arg, outcome):
    counts["engine.decide.capped"] += not outcome.rigorous
    if outcome.tries_used == 0:
        return "settled_prop"
    return "walk_sat" if outcome.found else "walk_unsat"


def _walk(counts, arg, bits):
    # `tries` is the boost count handed to the walk. The walk returns at its
    # first hit, so the tries it really ran are not visible from outside.
    counts["engine.walk.tries_budgeted"] += arg["tries"]
    if bits is not None:
        return "hit"
    counts["engine.walk.clause_checks"] += (
        arg["tries"] * (arg["steps"] + 1) * len(arg["clauses"])
    )
    return "none"


def _count_up_to(counts, arg, returned):
    result, stats = returned
    counts["enumeration.nodes"] += stats.nodes_visited
    counts["enumeration.sat_queries"] += stats.sat_queries
    counts["enumeration.more_than"] += not result.is_exact
    counts["enumeration.uncertified"] += result.is_exact and not result.certified
    return None


def _sample(counts, arg, estimate):
    n = arg["formula"].n
    samples = scheme.sample_size(n, arg["epsilon"], arg["n_floor"], arg["mc_constant"])
    counts["scheme.samples"] += samples
    counts["scheme.hits"] += round(estimate * samples / 2.0**n)
    return None


def _upper_bound(counts, arg, result):
    counts["upper.prefixes"] += len(result.trace)
    return None


def _check(counts, arg, hit):
    counts["upper.checked"] += len(arg["chunk"])
    return None


# (module, the name it binds, span name, reader of counts and tag)
HOOKS = (
    (sharpcount, "parse_dimacs", "formula.parse_dimacs", None),
    (engine, "unit_propagate", "formula.unit_propagate", None),
    (enumeration, "_decide_clauses", "engine.decide", _decide),
    (engine, "_walk_batch", "engine.walk", _walk),
    (scheme, "count_up_to", "enumeration.count_up_to", _count_up_to),
    (scheme, "sample_estimate", "scheme.sample", _sample),
    (scheme, "upper_bound", "upper.upper_bound", _upper_bound),
    (upper, "_constrained_witness", "upper.witness", None),
    (upper, "_first_satisfying", "upper.check", _check),
    (upper, "eliminate", "gf2.eliminate", None),
)

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._open: list[int] = []
        self._op: int | None = None
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name, read in HOOKS:
            original = getattr(module, attr, None)
            if original is None:
                # The layer was renamed or removed: its metrics read 0.
                self.missing.append(f"{module.__name__}.{attr}")
                print(f"perfbench: no {module.__name__}.{attr} to trace", file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(original, name, read))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, self._op, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, original, name, read):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(span)
            if read is not None:
                arg = signature.bind(*args, **kwargs).arguments
                span[5] = read(self.counts, arg, result)
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """The span of one call of the workload's entry point."""
        self._op = op_id
        span = self._begin(OP_SPAN)
        try:
            yield
        finally:
            self._end(span)
            self._op = None

    def note_answer(self, answer) -> None:
        """Count the scheme's mode from an `approximate_count` answer."""
        mode = getattr(answer, "mode", None)
        if mode == scheme.EXACT_MODE:
            self.counts["scheme.mode.exact"] += 1
        elif mode == scheme.SAMPLED_MODE:
            self.counts["scheme.mode.sampled"] += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag"],
                       "spans": self.spans}, fh)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".share", "_ratio")):
        return "share"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass. Self time is a span's duration
    minus the time its child spans cover."""
    total = defaultdict(float)  # by name, and by (name, tag)
    calls = defaultdict(int)
    children = defaultdict(float)
    for name, start, end, parent, _op, tag in tracer.spans:
        if parent >= 0:
            children[parent] += end - start
    own = defaultdict(float)
    for index, (name, start, end, _parent, _op, tag) in enumerate(tracer.spans):
        for key in (name, (name, tag)):
            total[key] += end - start
            calls[key] += 1
        own[name] += end - start - children[index]
    c = tracer.counts
    ops_s = total[OP_SPAN]
    metrics = {
        "formula.parse_dimacs.s": total["formula.parse_dimacs"],
        "formula.unit_propagate.calls": calls["formula.unit_propagate"],
        "formula.unit_propagate.s": total["formula.unit_propagate"],
        "engine.decide.calls": calls["engine.decide"],
        "engine.decide.s": total["engine.decide"],
    }
    for tag in ("settled_prop", "walk_sat", "walk_unsat"):
        metrics[f"engine.decide.{tag}.calls"] = calls[("engine.decide", tag)]
        metrics[f"engine.decide.{tag}.s"] = total[("engine.decide", tag)]
    metrics.update({
        "engine.decide.capped": c["engine.decide.capped"],
        "engine.walk.s": total["engine.walk"],
        "engine.walk.tries_budgeted": c["engine.walk.tries_budgeted"],
        "engine.walk.clause_checks": c["engine.walk.clause_checks"],
        "engine.walk.clause_checks_per_s": _ratio(
            c["engine.walk.clause_checks"], total[("engine.walk", "none")]
        ),
        "enumeration.count_up_to.s": total["enumeration.count_up_to"],
        "enumeration.self_s": own["enumeration.count_up_to"],
        "enumeration.nodes": c["enumeration.nodes"],
        "enumeration.nodes_per_s": _ratio(
            c["enumeration.nodes"], total["enumeration.count_up_to"]
        ),
        "enumeration.sat_queries": c["enumeration.sat_queries"],
        "enumeration.more_than": c["enumeration.more_than"],
        "enumeration.uncertified": c["enumeration.uncertified"],
        "scheme.sample.s": total["scheme.sample"],
        "scheme.samples": c["scheme.samples"],
        "scheme.samples_per_s": _ratio(c["scheme.samples"], total["scheme.sample"]),
        "scheme.hits": c["scheme.hits"],
        "scheme.hit_ratio": _ratio(c["scheme.hits"], c["scheme.samples"]),
        "scheme.mode.exact": c["scheme.mode.exact"],
        "scheme.mode.sampled": c["scheme.mode.sampled"],
        "upper.upper_bound.s": total["upper.upper_bound"],
        "upper.prefixes": c["upper.prefixes"],
        "upper.witness.s": total["upper.witness"],
        "upper.check.s": total["upper.check"],
        "upper.checked": c["upper.checked"],
        "upper.checked_per_s": _ratio(c["upper.checked"], total["upper.check"]),
        "gf2.eliminate.calls": calls["gf2.eliminate"],
        "gf2.eliminate.s": total["gf2.eliminate"],
        # The witness search is Gray-code enumeration plus chunk packing
        # plus the clause check; its own time is the GF(2) part.
        "gf2.solutions.s": own["upper.witness"],
        "bench.ops.s": ops_s,
        "engine.walk.share": _ratio(total["engine.walk"], ops_s),
        "scheme.sample.share": _ratio(total["scheme.sample"], ops_s),
        "upper.upper_bound.share": _ratio(total["upper.upper_bound"], ops_s),
    })
    return metrics
