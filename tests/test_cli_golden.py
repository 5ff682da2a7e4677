"""Byte-identity of the CLI on every bundled model.

Each case runs one verb in-process and compares its stdout, byte for byte,
and its exit code with ``tests/golden/cli``.  Regenerate the goldens (only
on purpose, from a trusted tree) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys

import pytest

from mcfield.cli import main

from conftest import MODELS, GOLDEN, model_path

CLI_GOLDEN = GOLDEN / "cli"
VERBS = {
    "derive-lagrangian": ("derive", "--formalism", "lagrangian", "--format", "machine"),
    "derive-hamiltonian": ("derive", "--formalism", "hamiltonian", "--format", "machine"),
    "derive-unified": ("derive", "--formalism", "unified", "--format", "machine"),
    "check": ("check",),
    "unify": ("unify",),
}
CASES = [(path.stem, verb) for path in sorted(MODELS.glob("*.model")) for verb in VERBS]


def run_case(model: str, verb: str) -> tuple[str, int]:
    head, *rest = VERBS[verb]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([head, model_path(model), *rest])
    return out.getvalue(), code


def _exit_codes() -> dict:
    return json.loads((CLI_GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("model,verb", CASES, ids=[f"{m}.{v}" for m, v in CASES])
def test_cli_output_is_byte_identical(model, verb):
    text, code = run_case(model, verb)
    assert text == (CLI_GOLDEN / f"{model}.{verb}.txt").read_text()
    assert code == _exit_codes()[f"{model}.{verb}"]


def _regenerate() -> None:
    CLI_GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    for model, verb in CASES:
        text, codes[f"{model}.{verb}"] = run_case(model, verb)
        (CLI_GOLDEN / f"{model}.{verb}.txt").write_text(text)
    (CLI_GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
