"""Known wrong answers, one test each, asserting the right answer.

Each test is a strict xfail naming the ROADMAP item that fixes it: while
the answer is wrong the test shows as ``xfailed``, and the fix turns it into
a strict-mode failure until its marker is removed with it.
"""

import dataclasses
import re
import textwrap

import numpy as np
import pytest
import sympy as sp

from mcfield import numsim
from mcfield.cli import main
from mcfield.lagrangian import LagrangianSystem

from conftest import corpus_specs, model_path


def _oscillator_run(models, monitors):
    # the bundled simulate settings: dt = 1/1000 to t = 10, sampled every
    # 10 steps
    spec, cfg = models["damped_oscillator"]
    cfg = dataclasses.replace(cfg, monitors=monitors)
    p = numsim.compile_problem(LagrangianSystem(spec).herglotz_el_equations(), cfg)
    return numsim.run(p, cfg.dt, cfg.t_end, cfg.cadence)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("seed,name", [(1, "corpus_001"), (42, "corpus_001"),
                                       (42, "corpus_003")])
def test_unify_empties_an_inconsistent_corpus_model(tmp_path, capsys, seed, name):
    # none of the three models has a solution: the ladder ends in a nonzero
    # constant on the Legendre graph
    corpus_specs(seed, tmp_path)
    code = main(["unify", str(tmp_path / f"{name}.model")])
    assert "status: EMPTY-INTERSECTION" in capsys.readouterr().out
    assert code == 3


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_unify_maxwell_names_its_compatibility_condition(capsys):
    # the EL residuals satisfy sum_nu (D_nu + gamma_nu) E_nu = sum_mu
    # gamma_mu J_mu, so a solution needs sum_mu gamma_mu J_mu = 0; the ladder
    # says STABILIZED with no condition
    main(["unify", model_path("maxwell")])
    found = re.findall(r"^compatibility: (.*) = 0$", capsys.readouterr().out, re.M)
    assert len(found) == 1
    gamma, J = sp.symbols("gamma0:4"), sp.symbols("J0:4")
    ratio = sp.cancel(sp.sympify(found[0].replace("^", "**"))
                      / sum(g * j for g, j in zip(gamma, J)))
    assert ratio != 0 and not ratio.free_symbols


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_action_balance_residual_measures_the_step(models):
    # the residual compares the s increment with dt/6 (k1 + 2 k2 + 2 k3 +
    # L(end state)): small but not 0; today it is |L - L|, exactly 0
    residual = _oscillator_run(models, ("action_balance",)).max_action_residual
    assert 0 < residual < 1e-8


@pytest.mark.xfail(strict=True, raises=ValueError, reason="ROADMAP item 13")
def test_dissipation_monitor_holds_on_the_oscillator(models):
    # E e^{-int L_s dt} with s kept in E is constant along the Herglotz
    # flow; today run rejects the monitor as unknown
    rep = _oscillator_run(models, ("dissipation",))
    assert np.max(np.abs(rep.series["dissipation"])) < 1e-10


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
def test_hamiltonian_singular_cyclic_does_not_exit_zero(capsys):
    # the HHDW equations give p[1]: dp1_0_0 = 1 beside image[0]: p1_0 = 0
    assert main(["derive", model_path("singular_cyclic"), "--formalism", "hamiltonian"]) != 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
def test_check_keeps_a_small_coefficient_regular(tmp_path, capsys):
    # the Hessian is diag(1 + y0^2, (1 + y1^2)/10^12), of exact rank 2
    path = tmp_path / "small_coefficient.model"
    path.write_text(textwrap.dedent("""\
        name: small_coefficient
        m: 1
        n: 2
        lagrangian: |
          1/2*(1+y[0]^2)*dy[0,0]^2 + 1/2*(1+y[1]^2)*dy[1,0]^2/10^12 - s[0]/10
        """))
    assert main(["check", str(path)]) == 0
    assert "regular (Hessian rank 2/2)" in capsys.readouterr().out


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 12")
def test_unify_keeps_the_ladder_of_a_rescaled_field(tmp_path, capsys):
    # y[1] -> 10^-6 y[1] (and its velocity alike) is an exact change of
    # variables, so seed-1 corpus_004 keeps its ladder [2, 1, 1]; the float
    # rank cutoff gives [2]
    corpus_specs(1, tmp_path)
    path = tmp_path / "corpus_004.model"
    counts = []
    original = path.read_text()
    for text in (original, original.replace("y[1]", "(y[1]/10^6)").replace(
            "dy[1,0]", "(dy[1,0]/10^6)")):
        path.write_text(text)
        main(["unify", str(path)])
        gens = re.findall(r"^gen(\d+)\[", capsys.readouterr().out, re.M)
        counts.append([gens.count(str(g)) for g in range(len(set(gens)))])
    assert counts == [[2, 1, 1], [2, 1, 1]]
