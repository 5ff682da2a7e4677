#!/usr/bin/env python3
"""Benchmark for mcfield: four workloads, output checks, per-layer tracing.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh single-threaded process (BLAS/OpenMP
pinned to one thread), one process at a time.  With ``--trace 0`` the run
reports the end-to-end metrics: it splits its seconds over three fresh
worker processes, one after another, each taking a third of the inputs
first, and pools their operations; set-up is the median of the three.  Both
timings are rescaled by a fixed reference computation each worker
interleaves with its work (``reference.py``), which takes out the host's
drifting speed.  With ``--trace 1`` one worker reports the per-layer metrics
from spans recorded around the calls into each module, and the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table and the run's provenance.  Full results and the
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (stdlib only; no package import in this process)

WORKLOADS = ("maxwell_derive", "singular_corpus", "wave_field", "oscillator_ode")
SYMBOLIC = ("maxwell_derive", "singular_corpus")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
WORKERS = 3   # untraced runs split their seconds over this many fresh processes
BUDGET_S = 170.0
E2E = (("setup_s", "s", "lower"),
       ("op_s.p50", "s", "lower"),
       ("peak_rss_mb", "MB", "lower"))
REQUIRED = (ROOT / "src" / "mcfield" / "__init__.py",
            ROOT / "tests" / "golden" / "maxwell.ladder.txt")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(workload: str, seed: int, seconds: float, trace: int, part: int, parts: int,
           deadline: float) -> tuple[float, dict]:
    """Run one worker process; return (set-up seconds, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--part", str(part), "--parts", str(parts), "--out", str(OUT)]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("time budget exhausted")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload} worker printed no result:\n{proc.stderr}") from None
    return result["ready"] - start, result


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    parts = 1 if trace else WORKERS
    setups, results = [], []
    for part in range(parts):
        s, r = _spawn(workload, seed, seconds / parts, trace, part, parts, deadline)
        setups.append(s)
        results.append(r)
    main = results[-1]
    ops = [o for r in results for o in r["ops"]]
    failures = [f for r in results for f in r["failures"]]
    timed = [(o["k"], o["s"]) for o in ops if o["i"] >= 0 and not o["traced"]]
    op_p50 = layers.input_geomean(timed, statistics.median)
    row = {"workload": workload, "seed": seed, "trace": trace,
           "attempted": len(ops), "failed": sum(not o["ok"] for o in ops),
           "failures": failures[:20], "ops_timed": len(timed), "inputs": main["inputs"],
           "setup_runs": setups, "versions": main["versions"],
           "ops": [r["ops"] for r in results]}
    if trace:
        row["metrics"] = {name: {"value": main["layers"][name], "unit": unit}
                          for name, unit, _ in layers.metric_specs()}
        return row
    scaled = [(o["k"], o["s"] * r["scale"]) for r in results for o in r["ops"] if o["i"] >= 0]
    row["metrics"] = {
        "setup_s": {"value": statistics.median(s * r["scale"]
                                               for s, r in zip(setups, results)),
                    "unit": "s"},
        "op_s.p50": {"value": layers.input_geomean(scaled, statistics.median), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results),
                        "unit": "MB"},
    }
    work = [o["work"] for o in ops if o["i"] >= 0]
    row["raw"] = {"setup_s": statistics.median(setups), "op_s.p50": op_p50,
                  "reference_s": [statistics.median(r["refs"]) for r in results]}
    row["refs"] = [r["refs"] for r in results]
    row["throughput"] = ((work[0] / op_p50, f"{main['unit']}/s")
                         if workload not in SYMBOLIC else (1.0 / op_p50, "models/s"))
    row["tail"] = tail_percentile([s for _, s in timed])
    return row


def provenance(seed: int, versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mcfield").rglob("*")):
        if path.suffix in (".py", ".model"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "caches": caches, "threads": THREAD_ENV, **versions}


def _format_row(row: dict) -> str:
    m = row["metrics"]
    if row["trace"]:
        return (f"{row['workload']:<16} trace overhead {m[layers.OVERHEAD]['value']:+.1f} %  "
                f"pairs {row['ops_timed']}  errors {row['failed']}/{row['attempted']}")
    tail = (f"p{row['tail'][0]} {row['tail'][1]:.4f} s" if row["tail"]
            else "tail n/a (<10 beyond p75)")
    rate, unit = row["throughput"]
    raw = row["raw"]
    return (f"{row['workload']:<16} setup_s {m['setup_s']['value']:8.3f} s  "
            f"op_s.p50 {m['op_s.p50']['value']:8.4f} s  "
            f"(raw: setup {raw['setup_s']:.3f} s, p50 {raw['op_s.p50']:.4f} s, {tail}, "
            f"{rate:.4g} {unit}, reference {statistics.median(raw['reference_s']):.4f} s)  "
            f"n={row['ops_timed']}  peak_rss_mb {m['peak_rss_mb']['value']:6.1f} MB  "
            f"error_rate {row['failed']}/{row['attempted']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: not an mcfield checkout, missing {missing}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    rows = []
    try:
        for name in names:
            rows.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    prov = provenance(args.seed, rows[0]["versions"])
    for row in rows:
        print(_format_row(row))
        for failure in row["failures"]:
            print(f"  FAILED {failure}")
    print("provenance " + json.dumps(prov))
    tag = args.workload + f"-{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"provenance": prov, "rows": rows}, indent=1))
    failed = sum(r["failed"] for r in rows)
    summary = {"correct": failed == 0, "attempted": sum(r["attempted"] for r in rows),
               "failed": failed}
    if len(rows) == 1:
        summary["metrics"] = rows[0]["metrics"]
    else:
        summary["metrics"] = {r["workload"]: r["metrics"] for r in rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
