import importlib.util
import pathlib
import sys

import pytest
import sympy as sp

from mcfield import expr as ex
from mcfield.chart import ModelSpec
from mcfield.lagrangian import LagrangianSystem
from mcfield.modelfile import load_model

ROOT = pathlib.Path(__file__).parent.parent
MODELS = ROOT / "src" / "mcfield" / "models"
GOLDEN = pathlib.Path(__file__).parent / "golden"
TEST_MODELS = pathlib.Path(__file__).parent / "models"   # test-only, non-polynomial


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


@pytest.fixture(scope="session")
def seed1_corpus(tmp_path_factory):
    """The benchmark's seed-1 corpus of small singular models (36 specs),
    drawn by ``perfbench/corpus.py``."""
    src = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  ROOT / "perfbench" / "corpus.py")
    corpus = sys.modules[src.name] = importlib.util.module_from_spec(src)
    src.loader.exec_module(corpus)
    out = tmp_path_factory.mktemp("corpus")
    specs = []
    for cm in corpus.generate_corpus(1):
        path = out / f"{cm.name}.model"
        path.write_text(cm.text)
        specs.append(load_model(path)[0])
    return specs


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


def hamiltonian_pullback_holds(uni, H) -> bool:
    """H pulled back to W1 by the Legendre graph is the Lagrangian energy,
    and it is -pext with pext solved from the unified coupling on the graph."""
    graph = uni.legendre_graph()
    pulled = sp.sympify(H).xreplace(graph)
    pext, = sp.solve(uni.coupling(), ex.extended_momentum())
    return (bool(ex.equal(pulled, uni.lag.energy))
            and bool(ex.equal(pulled, -pext.xreplace(graph))))
