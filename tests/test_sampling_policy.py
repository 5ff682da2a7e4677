"""The one sampling policy (``expr.generic``): every sampled rank is the
largest over its points.  A point at which every sampled value is zero is
as degenerate as a point can be; it must change no verdict, only add a
"varied across samples" note."""

import dataclasses

import pytest

from mcfield import expr as ex
from mcfield.calculus import structure_diagnostics
from mcfield.chart import ModelSpec
from mcfield.lagrangian import LagrangianSystem
from mcfield.modelfile import load_model
from mcfield.unified import LadderStatus, UnifiedSystem

from conftest import MODELS, TEST_MODELS, corpus_specs

VARIED = "varied across samples"
# corpus models whose ranks drop at some sample point
_CORPUS = {3: ["corpus_013"], 42: ["corpus_027", "corpus_005"]}


@pytest.fixture(scope="module")
def policy_specs(tmp_path_factory):
    """7 bundled models, 3 test models and 3 corpus models, by name."""
    paths = sorted(MODELS.glob("*.model")) + sorted(TEST_MODELS.glob("*.model"))
    specs = {path.stem: load_model(path)[0] for path in paths}
    for seed, names in _CORPUS.items():
        corpus = corpus_specs(seed, tmp_path_factory.mktemp(f"corpus{seed}"))
        specs.update((f"seed{seed}/{s.name}", s) for s in corpus if s.name in names)
    assert len(specs) == 13
    return specs


def _zeros(values):
    return [_zeros(v) for v in values] if isinstance(values, list) else 0.0


@pytest.fixture()
def degenerate_first_point(monkeypatch):
    """``expr.sampled`` with every value at the first point set to zero."""
    sampled = ex.sampled

    def patched(exprs, args, samples, seed):
        points = sampled(exprs, args, samples, seed)
        points[0] = _zeros(points[0])
        return points

    monkeypatch.setattr(ex, "sampled", patched)


def _verdicts(spec):
    lag = LagrangianSystem(spec)
    reg = lag.regularity(samples=8, seed=42)
    rep = structure_diagnostics(lag.theta(), lag.chart, samples=8, seed=42)
    ladder = UnifiedSystem(lag).constraint_algorithm(seed=42)
    return reg, rep, ladder


@pytest.mark.parametrize("name", [
    "coupled_two_field", "damped_oscillator", "damped_wave", "free_scalar", "maxwell",
    "singular_cyclic", "velocity_action_cross", "nonpoly_coupled", "nonpoly_field",
    "nonpoly_pendulum", "seed3/corpus_013", "seed42/corpus_027", "seed42/corpus_005"])
def test_degenerate_point_changes_no_verdict(policy_specs, name, request):
    reg, rep, ladder = _verdicts(policy_specs[name])
    request.getfixturevalue("degenerate_first_point")
    reg0, rep0, ladder0 = _verdicts(policy_specs[name])

    assert (reg0.status, reg0.rank) == (reg.status, reg.rank)
    assert dataclasses.replace(rep0, notes=[]) == dataclasses.replace(rep, notes=[])
    assert ladder0.status is ladder.status
    assert [len(g) for g in ladder0.generations] == [len(g) for g in ladder.generations]
    # the zero point is noted, and nothing else is
    assert any(VARIED in n for n in rep0.notes)
    if reg.probabilistic and reg.rank:
        assert any(VARIED in n for n in reg0.notes)
    assert all(VARIED in n for n in ladder0.notes if n not in ladder.notes)


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 42])
def test_ladder_does_not_depend_on_the_seed(seed):
    # seed-3 corpus_013: at one of seed 7's novelty points the Jacobian rank
    # of gen0 and gen1 drops from 2 to 1
    L = ex.parse_expr("2*y[0]*dy[0,0] - 1/2*y[0]^2 - 1/4*s[0] + 1/2*s[0]*dy[0,0]", 1, 1)
    ladder = UnifiedSystem(LagrangianSystem(ModelSpec("corpus_013", 1, 1, L))
                           ).constraint_algorithm(seed=seed)
    assert ladder.status is LadderStatus.STABILIZED
    assert [len(g) for g in ladder.generations] == [1, 1, 1]
