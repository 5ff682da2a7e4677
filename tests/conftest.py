import importlib.util
import pathlib
import sys

import pytest
import sympy as sp
from hypothesis import Phase, settings

from mcfield import expr as ex
from mcfield.chart import ModelSpec
from mcfield.lagrangian import LagrangianSystem
from mcfield.modelfile import load_model
from mcfield.unified import UnifiedSystem

ROOT = pathlib.Path(__file__).parent.parent
MODELS = ROOT / "src" / "mcfield" / "models"
GOLDEN = pathlib.Path(__file__).parent / "golden"
TEST_MODELS = pathlib.Path(__file__).parent / "models"   # test-only, non-polynomial

# hypothesis's explain phase re-runs a failing example under a line tracer,
# through sympy: a wrong pseudo-inverse or Hamiltonian took 30 s to minutes
# to go red.  It only annotates a failure, so the examples and the verdict
# stay; a test's own @settings inherits these phases
settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")


def model_path(name: str) -> str:
    return str(MODELS / f"{name}.model")


@pytest.fixture(scope="session")
def models():
    """All bundled models, loaded once: name -> (spec, simulate config)."""
    out = {}
    for path in sorted(MODELS.glob("*.model")):
        spec, sim = load_model(path)
        out[spec.name] = (spec, sim)
    return out


def corpus_specs(seed: int, out: pathlib.Path) -> list[ModelSpec]:
    """The benchmark's corpus of small singular models for ``seed`` (36
    specs), drawn by ``perfbench/corpus.py`` and loaded from files in ``out``."""
    src = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  ROOT / "perfbench" / "corpus.py")
    corpus = sys.modules[src.name] = importlib.util.module_from_spec(src)
    src.loader.exec_module(corpus)
    specs = []
    for cm in corpus.generate_corpus(seed):
        path = out / f"{cm.name}.model"
        path.write_text(cm.text)
        specs.append(load_model(path)[0])
    return specs


@pytest.fixture(scope="session")
def seed1_corpus(tmp_path_factory):
    """The benchmark's seed-1 corpus."""
    return corpus_specs(1, tmp_path_factory.mktemp("corpus"))


def table_specs(models, seed1_corpus):
    """The 46 models the table checks run on: bundled, seed-1 corpus, test."""
    specs = ([spec for spec, _ in models.values()] + seed1_corpus
             + [load_model(path)[0] for path in sorted(TEST_MODELS.glob("*.model"))])
    assert len(specs) == 46
    return specs


def patch_statement(monkeypatch, change) -> None:
    """Make ``UnifiedSystem.sr_field_equations`` return every row of the
    printed unified statement as ``change(uni, row)`` gives it."""
    state = UnifiedSystem.sr_field_equations

    def patched(uni):
        system = state(uni)
        system.equations.equations = [change(uni, e) for e in system.equations]
        return system

    monkeypatch.setattr(UnifiedSystem, "sr_field_equations", patched)


@pytest.fixture(scope="session")
def oscillator(models):
    return LagrangianSystem(models["damped_oscillator"][0])


@pytest.fixture(scope="session")
def maxwell(models):
    return LagrangianSystem(models["maxwell"][0])


@pytest.fixture()
def toy_m1n1():
    """Regular m=1, n=1 Lagrangian with velocity-action coupling."""
    L = sp.Rational(1, 2) * ex.velocity(0, 0) ** 2 + ex.action(0) * ex.velocity(0, 0)
    return LagrangianSystem(ModelSpec("cross", 1, 1, L, {}))


def total_derivative(f, mu: int, m: int, n: int):
    """The formal total derivative D_mu f on the velocity--action bundle, by
    sympy's own ``diff``: a reference that shares no code with
    ``lagrangian.along`` or the derivative table it reads."""
    f = sp.sympify(f)
    out = sp.diff(f, ex.base(mu))
    for A in range(n):
        out += ex.velocity(A, mu) * sp.diff(f, ex.field(A))
        out += sum(ex.second_jet(A, mu, nu) * sp.diff(f, ex.velocity(A, nu))
                   for nu in range(m))
    return out + sum(ex.action_grad(nu, mu) * sp.diff(f, ex.action(nu)) for nu in range(m))


def hamiltonian_pullback_holds(uni, H) -> bool:
    """H pulled back to W1 by the Legendre graph is the Lagrangian energy,
    and it is -pext with pext solved from the unified coupling on the graph."""
    graph = uni.legendre_graph()
    pulled = sp.sympify(H).xreplace(graph)
    pext, = sp.solve(uni.coupling(), ex.extended_momentum())
    return (bool(ex.equal(pulled, uni.lag.energy))
            and bool(ex.equal(pulled, -pext.xreplace(graph))))
