"""Per-layer metrics of a traced run, named after the package's modules.

Times are per operation: the operation's total span time for the named
call, as the fastest traced repetition per input, averaged over the inputs
(the corpus models, or the one model elsewhere).  Calls made only during set-up (compiling the
simulation problem, for instance) report their set-up total.  ``.us``
metrics are microseconds per call, ``.calls`` calls per operation, and the
ladder/equality counts are summed over the distinct inputs, each once, so
they repeat exactly for a given seed.  A layer the workload does not reach
reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

SPAN_SECONDS = (
    "modelfile.load_model",
    "lagrangian.herglotz_el_equations",
    "lagrangian.regularity",
    "lagrangian.theta",
    "hamiltonian.from_legendre",
    "hamiltonian.hhdw_equations",
    "calculus.structure_diagnostics",
    "unified.sr_field_equations",
    "unified.project_to_lagrangian",
    "unified.constraint_algorithm",
    "expr.equal",
    "expr.render",
    "numsim.compile_problem",
    "numsim.write_csv",
)
PER_CALL_US = ("numsim.step_rk4", "numsim.monitor_energy", "numsim.monitor_action_balance")
CALLS = {
    "numsim.step_rk4.calls": ("numsim.step_rk4",),
    "numsim.monitor.calls": ("numsim.monitor_energy", "numsim.monitor_action_balance"),
}
SELF_SECONDS = {"numsim.run.self_s": "numsim.run"}
COUNTS = ("unified.generations", "unified.constraints",
          "hamiltonian.image_constraints", "expr.equal.calls")
OVERHEAD = "trace.overhead_pct"


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    specs = [(f"{n}.s", "s", "lower") for n in SPAN_SECONDS]
    specs += [(f"{n}.us", "us", "lower") for n in PER_CALL_US]
    specs += [(n, "count", "lower") for n in CALLS]
    specs += [(n, "s", "lower") for n in SELF_SECONDS]
    specs += [(n, "count", "lower") for n in COUNTS]
    specs.append((OVERHEAD, "%", "lower"))
    return specs


def _per_input(values: list[tuple[int, float]], reduce) -> list[float]:
    groups: dict[int, list[float]] = defaultdict(list)
    for k, v in values:
        groups[k].append(v)
    return [reduce(g) for g in groups.values()]


def input_mean(values: list[tuple[int, float]], reduce=min) -> float:
    """Mean over the distinct inputs (corpus slots) of each input's reduced
    value (by default its fastest repetition)."""
    per_input = _per_input(values, reduce)
    return statistics.fmean(per_input) if per_input else 0.0


def input_geomean(values: list[tuple[int, float]], reduce=min) -> float:
    """Geometric mean over the distinct inputs of each input's reduced value
    (all positive; by default the fastest repetition).  For a single input it
    is that input's value.  A uniform slow-down of every input scales it by
    the same factor, and no single input decides it, unlike the median over
    inputs."""
    per_input = _per_input(values, reduce)
    return statistics.geometric_mean(per_input) if per_input else 0.0


def summarize(tracer, ops: list[dict]) -> dict[str, float]:
    per_op = tracer.per_op()
    traced = [(o["i"], o["k"]) for o in ops if o["traced"]]
    setup = per_op.get(-1, {})
    out: dict[str, float] = {}

    def per_traced_op(names, key) -> list[tuple[int, float]]:
        return [(k, sum(per_op.get(i, {}).get(n, {}).get(key, 0.0) for n in names))
                for i, k in traced]

    for name in SPAN_SECONDS:
        vals = per_traced_op([name], "total")
        if any(v for _, v in vals):
            out[f"{name}.s"] = input_mean(vals)
        else:
            out[f"{name}.s"] = setup.get(name, {}).get("total", 0.0)
    for name in PER_CALL_US:
        per_call = [(k, 1e6 * t / c) for (k, t), (_, c)
                    in zip(per_traced_op([name], "total"), per_traced_op([name], "calls")) if c]
        out[f"{name}.us"] = input_mean(per_call)
    for metric, names in CALLS.items():
        out[metric] = input_mean(per_traced_op(names, "calls"), statistics.median)
    for metric, name in SELF_SECONDS.items():
        out[metric] = input_mean(per_traced_op([name], "self"))
    first: dict[int, int] = {}
    for i, k in traced:
        first.setdefault(k, i)
    for name in COUNTS:
        out[name] = sum(tracer.counts.get((i, name), 0) for i in first.values())
    on = input_geomean([(o["k"], o["s"]) for o in ops if o["traced"]])
    off = input_geomean([(o["k"], o["s"]) for o in ops if not o["traced"] and o["i"] >= 0])
    out[OVERHEAD] = 100.0 * (on / off - 1.0) if off else 0.0
    return out
