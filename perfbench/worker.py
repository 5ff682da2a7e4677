"""One workload in one fresh process; started by run.py, not by hand.

Prints one JSON object: the monotonic time at which set-up ended (the first
timed operation starts), the per-operation timings and check failures, the
times of the reference computation run after set-up and after each
untraced operation, the peak RSS, and for traced runs the per-layer
summary.  Set-up is imports, the workload's own set-up and one discarded
operation, which carries the lazy initialisation every CLI process pays.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIBRATE_S = 1.0   # reference runs after set-up: about 0.3 s of them


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import mcfield
    if Path(mcfield.__file__).resolve().parent != ROOT / "src" / "mcfield":
        print(f"mcfield imported from {mcfield.__file__}, not this checkout", file=sys.stderr)
        return 2
    import numpy
    import sympy
    import layers
    import reference
    import spans
    from workloads import WORKLOADS

    out = Path(args.out)
    tracer = spans.Tracer() if args.trace else spans.NULL
    wl = WORKLOADS[args.workload](ROOT, args.seed, out)
    wl.setup(tracer)
    ref = reference.Reference(wl.speed_reference)
    failures: list[str] = []
    ops: list[dict] = []
    refs: list[float] = []

    def attempt(i: int, k: int, tr) -> None:
        """Operation ``i`` on input ``k`` (the corpus slot; 0 elsewhere)."""
        gc.collect()   # every operation starts from a collected heap
        tracer.op = i
        t0 = time.perf_counter()
        dt = None
        try:
            res = wl.run(k, tr)
            dt = time.perf_counter() - t0
            fails = wl.check(k, res)
        except Exception:
            # an exception in the operation or in its check fails the operation
            fails = [traceback.format_exc(limit=3)]
        failures.extend(f"op {i}: {f}" for f in fails)
        ops.append({"i": i, "k": k, "s": dt if dt is not None else time.perf_counter() - t0,
                    "traced": tr.enabled, "ok": not fails, "work": wl.work(k)})
        if i >= 0 and not args.trace:
            # the host's speed, sampled next to the operation (reference.py)
            ops[-1]["refs"] = ref.timed(ops[-1]["s"])
            refs.extend(ops[-1]["refs"])

    attempt(-1, 0, spans.NULL)       # discarded: lazy initialisation
    ready = time.monotonic()
    if not args.trace:
        refs.extend(ref.timed(CALIBRATE_S))   # the host's speed after set-up
    # this worker's share of the inputs, each at least once; traced runs run
    # each input untraced and then traced, so the pair's gap is the tracing
    # overhead
    per_input = 2 if args.trace else 1
    first = args.part * wl.inputs // args.parts
    share = (args.part + 1) * wl.inputs // args.parts - first
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < per_input * share or time.perf_counter() < deadline:
        traced = bool(args.trace) and i % 2 == 1
        attempt(i, (first + i // per_input) % wl.inputs, tracer if traced else spans.NULL)
        i += 1
    result = {
        "ready": ready,
        "ops": ops,
        "failures": failures,
        "refs": refs,
        "scale": ref.scale(refs) if refs else None,
        "inputs": wl.inputs,
        "unit": wl.unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "sympy": sympy.__version__,
                     "numpy": numpy.__version__},
    }
    if args.trace:
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.json")
        result["layers"] = layers.summarize(tracer, ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
