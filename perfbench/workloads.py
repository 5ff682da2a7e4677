"""The four workloads: set-up and one operation each.

Every operation calls the package's public functions the way the CLI verbs
do, inside ``tracer.span`` blocks named after the layer and function.  With
tracing off the tracer is a no-op.  ``run(k)`` performs one operation on
input ``k`` (the timed part; ``k < inputs``, the corpus model, else 0),
``check`` compares its output with the reference outside the timed
region and returns the failed checks (empty when the output is correct), and
``work`` is the operation's size in the workload's unit (models, or grid
points times RK4 steps).  ``speed_reference`` names the computation of
``reference.py`` that does the same kind of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from sympy.core.cache import clear_cache

from mcfield import expr as ex
from mcfield import numsim
from mcfield.calculus import structure_diagnostics
from mcfield.hamiltonian import HamiltonianSystem
from mcfield.lagrangian import LagrangianSystem
from mcfield.modelfile import load_model
from mcfield.unified import UnifiedSystem

import checks
from corpus import generate_corpus

CLI_SEED = checks.CLI_SEED   # sample-point seed of every CLI verb
CHECK_SAMPLES = 8      # `check` default --samples
MAX_GENERATIONS = 10   # `unify` default --max-generations


# --------------------------------------------------------------------------
# the cold symbolic pipeline: derive (x3, machine format), check, unify


@dataclass
class PipelineResult:
    regularity: object
    structure: object
    image_constraints: int
    ladder: object
    el: list
    projection: list
    verdicts: list


def _fresh_system(path: str, tr) -> LagrangianSystem:
    """What each CLI verb starts from: its own load of the model file."""
    with tr.span("modelfile.load_model"):
        spec, _ = load_model(path)
    return LagrangianSystem(spec)


def cold_pipeline(path: str, tr) -> PipelineResult:
    clear_cache()
    # derive --formalism lagrangian --format machine
    lag = _fresh_system(path, tr)
    with tr.span("lagrangian.herglotz_el_equations"):
        el = lag.herglotz_el_equations()
    with tr.span("expr.render"):
        el.to_machine()
    # derive --formalism hamiltonian --format machine
    lag = _fresh_system(path, tr)
    with tr.span("hamiltonian.from_legendre"):
        ham = HamiltonianSystem.from_legendre(lag)
    with tr.span("hamiltonian.hhdw_equations"):
        hhdw = ham.hhdw_equations()
    with tr.span("expr.render"):
        hhdw.to_machine()
    # derive --formalism unified --format machine
    uni = UnifiedSystem(_fresh_system(path, tr))
    with tr.span("unified.sr_field_equations"):
        system = uni.sr_field_equations()
    with tr.span("expr.render"):
        system.equations.to_machine()
    # check
    lag = _fresh_system(path, tr)
    with tr.span("lagrangian.regularity"):
        reg = lag.regularity(samples=CHECK_SAMPLES, seed=CLI_SEED)
    with tr.span("lagrangian.theta"):
        theta = lag.theta()
    with tr.span("calculus.structure_diagnostics"):
        rep = structure_diagnostics(theta, lag.chart, samples=CHECK_SAMPLES, seed=CLI_SEED)
    # unify (text format) with its EL-vs-projection consistency check
    lag = _fresh_system(path, tr)
    uni = UnifiedSystem(lag)
    with tr.span("unified.sr_field_equations"):
        system = uni.sr_field_equations()
    with tr.span("unified.constraint_algorithm"):
        ladder = uni.constraint_algorithm(max_generations=MAX_GENERATIONS, seed=CLI_SEED)
    with tr.span("expr.render"):
        system.equations.to_text()
        ladder.to_text()
    with tr.span("lagrangian.herglotz_el_equations"):
        el = sorted(lag.herglotz_el_equations(), key=lambda e: e.name)
    with tr.span("unified.project_to_lagrangian"):
        proj = sorted(uni.project_to_lagrangian(), key=lambda e: e.name)
    verdicts = []
    for a, b in zip(el, proj):
        with tr.span("expr.equal"):
            verdicts.append(ex.equal(a.residual, b.residual, seed=CLI_SEED))
    n_image = sum(e.name.startswith("image[") for e in hhdw.equations)
    tr.count("unified.generations", len(ladder.generations))
    tr.count("unified.constraints", sum(len(g) for g in ladder.generations))
    tr.count("hamiltonian.image_constraints", n_image)
    tr.count("expr.equal.calls", len(verdicts))
    return PipelineResult(reg, rep, n_image, ladder, el, proj, verdicts)


class _Symbolic:
    """Models through the cold pipeline; the work unit is one model."""

    unit = "models"
    inputs = 1
    speed_reference = "symbolic"

    def setup(self, tr) -> None:
        pass

    def work(self, k: int) -> int:
        return 1


class MaxwellDerive(_Symbolic):
    """The bundled `maxwell` model through the cold pipeline."""

    def __init__(self, root: Path, seed: int, out: Path):
        self.path = str(root / "src" / "mcfield" / "models" / "maxwell.model")
        self.golden = (root / "tests" / "golden" / "maxwell.ladder.txt").read_text()
        self.reference = checks.maxwell_reference()

    def run(self, k: int, tr) -> PipelineResult:
        return cold_pipeline(self.path, tr)

    def check(self, k: int, res: PipelineResult) -> list[str]:
        return checks.check_maxwell(res, self.reference, self.golden)


class SingularCorpus(_Symbolic):
    """The seed's corpus written as model files; input k is corpus model k."""

    def __init__(self, root: Path, seed: int, out: Path):
        self.models = generate_corpus(seed)
        self.inputs = len(self.models)
        self.frozen = checks.frozen_ladders(seed)
        folder = out / f"corpus-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for mdl in self.models:
            path = folder / f"{mdl.name}.model"
            path.write_text(mdl.text)
            self.paths.append(str(path))

    def run(self, k: int, tr) -> PipelineResult:
        return cold_pipeline(self.paths[k], tr)

    def check(self, k: int, res: PipelineResult) -> list[str]:
        model = self.models[k]
        frozen = self.frozen.get(model.name) if self.frozen else None
        return checks.check_corpus_model(res, model, frozen)


class _Simulation:
    """`run` + `write_csv` on a compiled problem, as `simulate` calls them."""

    model = ""
    unit = "gpsteps"
    inputs = 1
    speed_reference = "symbolic"   # a one-point grid: per-step call overhead

    def __init__(self, root: Path, seed: int, out: Path):
        self.path = str(root / "src" / "mcfield" / "models" / f"{self.model}.model")
        self.csv = str(out / f"{self.model}-{seed}.csv")

    def configure(self, sim) -> None:
        """Adjust the model's simulate block for this workload."""

    def setup(self, tr) -> None:
        with tr.span("modelfile.load_model"):
            spec, sim = load_model(self.path)
        self.configure(sim)
        self.sim = sim
        lag = LagrangianSystem(spec)
        with tr.span("lagrangian.herglotz_el_equations"):
            eqs = lag.herglotz_el_equations()
        with tr.span("numsim.compile_problem"):
            self.problem = numsim.compile_problem(eqs, sim)
        self.steps = int(round(sim.t_end / sim.dt))

    def work(self, k: int) -> int:
        return self.problem.N * self.steps

    def run(self, k: int, tr):
        sim, p = self.sim, self.problem
        with tr.patch(numsim, {"step_rk4": "numsim.step_rk4",
                               "monitor_energy": "numsim.monitor_energy",
                               "monitor_action_balance": "numsim.monitor_action_balance"}):
            with tr.span("numsim.run"):
                report = numsim.run(p, dt=sim.dt, t_end=sim.t_end, cadence=sim.cadence)
        with tr.span("numsim.write_csv"):
            numsim.write_csv(report, p, self.csv)
        return report


class WaveField(_Simulation):
    """damped_wave at N=16384, dt=dx/4, a fixed number of steps."""

    model = "damped_wave"
    N = 16384
    STEPS = 96
    speed_reference = "array"

    def configure(self, sim) -> None:
        sim.N = self.N
        sim.dt = sim.length / self.N / 4
        sim.t_end = self.STEPS * sim.dt

    def check(self, k: int, report) -> list[str]:
        return checks.check_wave(report, self.problem, self.sim, self.csv)


class OscillatorODE(_Simulation):
    """damped_oscillator with the model's own dt and cadence over a shorter
    span than its t_end, so a run holds many repetitions."""

    model = "damped_oscillator"
    T_END = 2.5

    def configure(self, sim) -> None:
        sim.t_end = self.T_END

    def check(self, k: int, report) -> list[str]:
        return checks.check_oscillator(report, self.problem, self.sim, self.csv)


WORKLOADS = {
    "maxwell_derive": MaxwellDerive,
    "singular_corpus": SingularCorpus,
    "wave_field": WaveField,
    "oscillator_ode": OscillatorODE,
}
