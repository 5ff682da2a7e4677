"""Byte-identity of the CLI on every bundled model and every test model.

Each case runs one verb in-process and compares its stdout, byte for byte,
and its exit code with ``tests/golden/cli``.  The test-only models in
``tests/models`` use sin, cos, exp and log, which no bundled model does.
``simulate`` is compared by the CSV it writes, on the one-point models
whose equations are polynomial, so that no libm function can differ between
machines.  Regenerate the goldens (only on purpose, from a trusted tree) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from mcfield.cli import main

from conftest import MODELS, GOLDEN, TEST_MODELS, model_path

CLI_GOLDEN = GOLDEN / "cli"
VERBS = {
    "derive-lagrangian": ("derive", "--formalism", "lagrangian", "--format", "machine"),
    "derive-hamiltonian": ("derive", "--formalism", "hamiltonian", "--format", "machine"),
    "derive-unified": ("derive", "--formalism", "unified", "--format", "machine"),
    "check": ("check",),
    "unify": ("unify",),
}
PATHS = {path.stem: str(path)
         for path in sorted(MODELS.glob("*.model")) + sorted(TEST_MODELS.glob("*.model"))}
CASES = [(model, verb) for model in PATHS for verb in VERBS]
SIMULATE = {
    "damped_oscillator": ("--t-end", "0.5"),
    "coupled_two_field": ("--param", "gamma=0.3", "--t-end", "0.5"),
}


def run_case(model: str, verb: str) -> tuple[str, int]:
    head, *rest = VERBS[verb]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([head, PATHS[model], *rest])
    return out.getvalue(), code


def simulate_csv(model: str, out_dir: str) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", model_path(model), *SIMULATE[model], "--out", out_dir]) == 0
    return (pathlib.Path(out_dir) / f"{model}.csv").read_bytes()


def _exit_codes() -> dict:
    return json.loads((CLI_GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("model,verb", CASES, ids=[f"{m}.{v}" for m, v in CASES])
def test_cli_output_is_byte_identical(model, verb):
    text, code = run_case(model, verb)
    assert text == (CLI_GOLDEN / f"{model}.{verb}.txt").read_text()
    assert code == _exit_codes()[f"{model}.{verb}"]


@pytest.mark.parametrize("model", sorted(SIMULATE))
def test_simulate_csv_is_byte_identical(model, tmp_path):
    golden = (CLI_GOLDEN / f"{model}.simulate.csv").read_bytes()
    assert simulate_csv(model, str(tmp_path)) == golden


def _regenerate() -> None:
    CLI_GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    for model, verb in CASES:
        text, codes[f"{model}.{verb}"] = run_case(model, verb)
        (CLI_GOLDEN / f"{model}.{verb}.txt").write_text(text)
    (CLI_GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as out_dir:
        for model in SIMULATE:
            (CLI_GOLDEN / f"{model}.simulate.csv").write_bytes(simulate_csv(model, out_dir))


if __name__ == "__main__":
    sys.exit(_regenerate())
