"""Snapshot the CLI's outputs on 190 models, or compare with an older snapshot.

    python3 scripts/cli_snapshot.py OUT.json [--against OLD.json]

Runs ``mcfield.cli.main`` in-process on the 7 bundled models, the 3 test
models and the benchmark corpora of seeds 0-3 and 42 (written to a temporary
directory) under ten settings, and writes ``{"model setting": [exit,
stdout, stderr]}`` as JSON.  The runs share a temporary working directory:
``simulate`` writes into ``sim`` there, so its printed ``csv:`` path is
relative, and ``export`` reads the file that ``derive --format machine
--out`` wrote there just before it.  An escaping exception is recorded as exit
``"raised"`` with its last line as stderr.  With ``--against`` it lists the
keys whose entry differs and exits 1 if any does.  It imports ``mcfield``
from this checkout's ``src``; to snapshot another commit, run that
checkout's copy of this script.  Nothing is written into the checkout.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from mcfield.cli import main  # noqa: E402

SETTINGS = [[*"derive --format machine --formalism".split(), f]
            for f in ("lagrangian", "hamiltonian", "unified")] + [
    ["derive", "--formalism", "lagrangian"], ["check"],
    ["check", "--samples", "3", "--seed", "7"], ["unify"],
    ["unify", "--format", "machine", "--seed", "7"],
    ["simulate", "--t-end", "0.05", "--out", "sim"],
    ["export", "--format", "text", "--from", "<file>"]]


def models(tmp: Path) -> dict:
    found = {p.stem: p for d in (ROOT / "src/mcfield/models", ROOT / "tests/models")
             for p in sorted(d.glob("*.model"))}
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "perfbench/corpus.py")
    corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for seed in (0, 1, 2, 3, 42):
        for cm in corpus.generate_corpus(seed):
            found[f"seed{seed}/{cm.name}"] = path = tmp / f"seed{seed}_{cm.name}.model"
            path.write_text(cm.text)
    return found


def run(argv: list) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is an output too
            code, err = "raised", io.StringIO(traceback.format_exception_only(exc)[-1])
    return [code, out.getvalue(), err.getvalue()]


def run_setting(name: str, path: Path, setting: list) -> list:
    if "<file>" in setting:
        # the Lagrangian machine file of this model, written relative to
        # the working directory; a missing one is an error output too
        out = Path("machine", name)
        run(["derive", str(path), "--format", "machine", "--out", str(out)])
        written = sorted(out.glob("*.machine"))
        source = str(written[0] if written else out / "missing.machine")
        setting = [source if s == "<file>" else s for s in setting]
    return run([setting[0], str(path), *setting[1:]])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--against", metavar="OLD.json")
    args = parser.parse_args()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            snap = {f"{name} {' '.join(s)}": run_setting(name, path, s)
                    for name, path in models(Path(tmp)).items() for s in SETTINGS}
        finally:
            os.chdir(home)
    Path(args.out).write_text(json.dumps(snap, indent=1, sort_keys=True))
    if args.against:
        old = json.loads(Path(args.against).read_text())
        differ = sorted(k for k in snap.keys() | old.keys() if snap.get(k) != old.get(k))
        print("\n".join(differ) or f"all {len(snap)} outputs identical")
        sys.exit(1 if differ else 0)
    print(f"{len(snap)} outputs written to {args.out}")
