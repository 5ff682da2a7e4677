#!/usr/bin/env python3
"""Write the frozen ladder texts of the default-seed corpus.

The texts are what the package produced when they were frozen: a regression
guard for the benchmark's default seed, not ground truth.  The independent
checks are the integer-Hessian ranks; see NOTES.md for why the Dirac oracle
script is not used as the corpus reference.

    python3 perfbench/freeze_corpus.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import DEFAULT_SEED, FROZEN  # noqa: E402
from corpus import generate_corpus  # noqa: E402
from mcfield.lagrangian import LagrangianSystem  # noqa: E402
from mcfield.modelfile import load_model  # noqa: E402
from mcfield.unified import UnifiedSystem  # noqa: E402
from workloads import CLI_SEED, MAX_GENERATIONS  # noqa: E402


def main() -> int:
    tmp = HERE / "out" / "freeze"
    tmp.mkdir(parents=True, exist_ok=True)
    ladders = {}
    for model in generate_corpus(DEFAULT_SEED):
        path = tmp / f"{model.name}.model"
        path.write_text(model.text)
        spec, _ = load_model(path)
        uni = UnifiedSystem(LagrangianSystem(spec))
        ladders[model.name] = uni.constraint_algorithm(
            max_generations=MAX_GENERATIONS, seed=CLI_SEED).to_text()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    FROZEN.mkdir(exist_ok=True)
    (FROZEN / f"corpus_seed{DEFAULT_SEED}.ladders.json").write_text(json.dumps({
        "note": "produced by the package (not ground truth): a regression guard "
                "for the default corpus seed",
        "seed": DEFAULT_SEED,
        "commit": commit,
        "ladders": ladders,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
