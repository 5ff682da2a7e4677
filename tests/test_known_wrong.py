"""Known wrong answers, one test each, asserting the right answer.

Each test is a strict xfail naming the ROADMAP item that fixes it: while
the answer is wrong the test shows as ``xfailed``, and the fix turns it into
a strict-mode failure until its marker is removed with it.
"""

import textwrap

import pytest

from mcfield.cli import main

from conftest import corpus_specs, model_path


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
