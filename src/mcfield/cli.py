"""Command-line front end.

Verbs (each accepts only the flags it reads, any other is a usage error;
all but ``simulate`` print to stdout unless given ``--out DIR``):

- ``derive``   write the field equations of one formalism
- ``check``    regularity plus geometric structure classification
- ``unify``    unified-formalism coefficient system and constraint ladder
- ``simulate`` integrate the derived evolution system, write CSV + report
  files into ``--out DIR`` or the working directory
- ``export``   re-render a previously written machine-format equation file

Exit codes: 0 success; 1 model, path or usage error (an unreadable model or
``--from`` file, an unwritable ``--out`` path); 2 internal inconsistency (an
equality cross-check between formalisms failed); 3 constraint-ladder
termination without stabilization (generation cap or empty intersection),
or a stabilized ladder on a model with an Euler-Lagrange row that reads a
nonzero constant = 0.
The verbs raise; ``main`` alone turns an error into the one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Optional

import sympy as sp

from . import expr as ex
from .calculus import structure_diagnostics
from .chart import ModelSpec
from .hamiltonian import HamiltonianSystem
from .lagrangian import EquationSet, LagrangianSystem
from .modelfile import SimulateConfig, load_model, parse_model_file
from .unified import LadderStatus, UnifiedSystem

__all__ = ["main", "parse_model_file"]

EXIT_OK = 0
EXIT_MODEL_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_NOT_STABILIZED = 3


def _color(text: str, code: str) -> str:
    if os.environ.get("MCF_NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _emit(text: str, out: Optional[str], filename: str) -> None:
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text + "\n")
    else:
        print(text)


def _render(eqs: EquationSet, fmt: str) -> str:
    if fmt == "latex":
        return eqs.to_latex()
    if fmt == "machine":
        return eqs.to_machine()
    return eqs.to_text()


def _real(text: str) -> float:
    """A number as ``float`` reads it, or a fraction such as ``1/2`` as the
    model file and ``--param`` read it (``float`` reads no ``/``)."""
    try:
        return float(sp.Rational(text)) if "/" in text else float(text)
    except (TypeError, ValueError, ArithmeticError):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcfield",
        description="Symbolic derivation and desk-scale simulation of "
                    "action-dependent classical field theories.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, summary: str, *shared: str,
             out: str = "write the output into DIR instead of stdout"):
        p = sub.add_parser(name, help=summary)
        p.add_argument("model", help="path to a .model file")
        if "format" in shared:
            p.add_argument("--format", choices=["text", "latex", "machine"],
                           default="text")
        if "seed" in shared:
            p.add_argument("--seed", type=int, default=42,
                           help="seed for random sample points (default 42)")
        p.add_argument("--out", metavar="DIR", default=None, help=out)
        return p

    p = verb("derive", "write the field equations of one formalism", "format")
    p.add_argument("--formalism", choices=["lagrangian", "hamiltonian", "unified"],
                   default="lagrangian")

    p = verb("check", "regularity and structure classification", "seed")
    p.add_argument("--samples", type=int, default=8,
                   help="number of random sample points (default 8)")

    p = verb("unify", "unified coefficient system and constraint ladder", "format", "seed")
    p.add_argument("--max-generations", type=int, default=10)

    p = verb("simulate", "integrate the evolution system",
             out="write NAME.csv and NAME.run.txt into DIR "
                 "(default: the working directory)")
    p.add_argument("--dt", type=_real, default=None)
    p.add_argument("--t-end", type=_real, default=None)
    p.add_argument("--n-grid", type=int, default=None, help="override grid size N")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="bind a model parameter numerically (repeatable)")

    p = verb("export", "re-render a machine-format equation file", "format")
    p.add_argument("--from", dest="source", required=True,
                   help="machine-format file written by a previous run")
    return parser


def _load(path: str) -> tuple[ModelSpec, SimulateConfig]:
    candidate = Path(path)
    if not candidate.exists() and candidate.name == path:
        # bare name: fall back to the bundled model directory
        bundled = Path(__file__).parent / "models" / f"{path}.model"
        if bundled.exists():
            candidate = bundled
    return load_model(candidate)


def _fail(message: str) -> int:
    print(_color(f"error: {message}", "31"), file=sys.stderr)
    return EXIT_MODEL_ERROR


def _cmd_derive(args, spec: ModelSpec, sim: SimulateConfig) -> int:
    lag = LagrangianSystem(spec)
    if args.formalism == "lagrangian":
        eqs = lag.herglotz_el_equations()
    elif args.formalism == "hamiltonian":
        eqs = HamiltonianSystem.from_legendre(lag).hhdw_equations()
    else:
        eqs = UnifiedSystem(lag).sr_field_equations().equations
    _emit(_render(eqs, args.format), args.out, f"{spec.name}.{args.formalism}.{args.format}")
    return EXIT_OK


def _cmd_check(args, spec: ModelSpec, sim: SimulateConfig) -> int:
    lag = LagrangianSystem(spec)
    reg = lag.regularity(samples=args.samples, seed=args.seed)
    rep = structure_diagnostics(lag.theta(), lag.chart, samples=args.samples,
                                seed=args.seed)
    lines = [f"# {spec.name} (m={spec.m}, n={spec.n})",
             f"regularity: {reg.status.value} (Hessian rank {reg.rank}/{reg.size})"
             + (" [hyperregular]" if reg.hyperregular else "")
             + (" [probabilistic]" if reg.probabilistic else " [exact]"),
             "structure: " + rep.summary()]
    lines.extend(f"note: {n}" for n in reg.notes + rep.notes)
    _emit("\n".join(lines), args.out, f"{spec.name}.check.txt")
    return EXIT_OK


def _cmd_unify(args, spec: ModelSpec, sim: SimulateConfig) -> int:
    lag = LagrangianSystem(spec)
    uni = UnifiedSystem(lag)
    system = uni.sr_field_equations()
    ladder = uni.constraint_algorithm(max_generations=args.max_generations,
                                      seed=args.seed)
    parts = [_render(system.equations, args.format), "", ladder.to_text()]

    # internal consistency: the unified projection must reproduce the
    # Lagrangian equations on the Legendre graph
    el = lag.herglotz_el_equations()
    proj = uni.project_to_lagrangian()
    consistent = len(el) == len(proj)
    if not consistent:
        parts.append(f"INCONSISTENT: {len(el)} Euler-Lagrange equations vs "
                     f"{len(proj)} projected equations")
    for a, b_ in zip(sorted(el, key=lambda e: e.name),
                     sorted(proj, key=lambda e: e.name)):
        verdict = ex.equal(a.residual, b_.residual, seed=args.seed)
        if not verdict:
            consistent = False
            parts.append(f"INCONSISTENT: {a.name} vs {b_.name}: {verdict.verdict.value}")
    # a ladder can stabilize on a model whose Euler-Lagrange rows read 0 = c
    stabilized = ladder.status is LadderStatus.STABILIZED
    if consistent and stabilized:
        for e in el:
            r = ex.expand(e.residual)
            if r.is_Number and r != 0:
                stabilized = False
                parts.append(f"NO-SOLUTION: {e.name} has the constant residual {ex.to_grammar(r)}")
                break
    _emit("\n".join(parts), args.out, f"{spec.name}.unify.{args.format}")
    if not consistent:
        return EXIT_INCONSISTENT
    if not stabilized:
        return EXIT_NOT_STABILIZED
    return EXIT_OK


def _cmd_simulate(args, spec: ModelSpec, sim: SimulateConfig) -> int:
    from . import numsim

    for binding in args.param:
        if "=" not in binding:
            raise ValueError(f"--param expects NAME=VALUE, got {binding!r}")
        name, _, value = binding.partition("=")
        if name not in spec.parameters:
            raise ValueError(f"unknown parameter {name!r}")
        try:
            number = float(sp.Rational(value))
        except (TypeError, ValueError, ArithmeticError):
            number = math.nan
        if not math.isfinite(number):
            raise ValueError(f"--param {name}: expected a finite number, got {value!r}")
        sim.parameters[name] = number
    if args.dt is not None:
        sim.dt = args.dt
    if args.t_end is not None:
        sim.t_end = args.t_end
    if args.n_grid is not None:
        sim.N = args.n_grid
    eqs = LagrangianSystem(spec).herglotz_el_equations()
    problem = numsim.compile_problem(eqs, sim)
    report = numsim.run(problem, dt=sim.dt, t_end=sim.t_end, cadence=sim.cadence)
    out = args.out or "."
    Path(out).mkdir(parents=True, exist_ok=True)
    csv_path = Path(out) / f"{spec.name}.csv"
    numsim.write_csv(report, problem, str(csv_path))
    summary = "\n".join([
        f"# {spec.name} simulation",
        f"steps: dt={sim.dt} t_end={sim.t_end} N={problem.N}",
        f"termination: {report.termination}",
        f"max action-balance residual: {report.max_action_residual:.3e}",
        f"csv: {csv_path}",
    ])
    (Path(out) / f"{spec.name}.run.txt").write_text(summary + "\n")
    print(summary)
    return EXIT_OK if report.termination == "completed" else EXIT_MODEL_ERROR


def _cmd_export(args, spec: ModelSpec, sim: SimulateConfig) -> int:
    try:
        eqs = EquationSet.from_machine(Path(args.source).read_text(), title=spec.name,
                                       m=spec.m, n=spec.n, parameters=spec.parameters)
    except ValueError as err:
        raise ValueError(f"{args.source}: {err}") from None
    _emit(_render(eqs, args.format), args.out,
          f"{Path(args.source).stem}.{args.format}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as err:
        # argparse uses exit status 2 for usage errors; remap to the
        # model/usage-error code so 2 stays reserved for inconsistencies
        return EXIT_OK if err.code in (0, None) else EXIT_MODEL_ERROR
    handlers = {"derive": _cmd_derive, "check": _cmd_check, "unify": _cmd_unify,
                "simulate": _cmd_simulate, "export": _cmd_export}
    # every model, path and usage error: the package's error types subclass
    # ValueError, and an unreadable or unwritable path raises OSError
    try:
        spec, sim = _load(args.model)
        return handlers[args.verb](args, spec, sim)
    except (ValueError, OSError) as err:
        return _fail(str(err))


if __name__ == "__main__":
    sys.exit(main())
