import dataclasses

import pytest
import sympy as sp

from mcfield import expr as ex
from mcfield.chart import ModelSpec
from mcfield.hamiltonian import HamiltonianSystem
from mcfield.lagrangian import EquationRole, LagrangianSystem
from mcfield.unified import (LadderStatus, UnifiedSystem, coefficient_symbol)

from conftest import hamiltonian_pullback_holds, patch_statement, table_specs


def _unified(L, m=1, n=1, params=()):
    p = {str(s): s for s in params}
    return UnifiedSystem(LagrangianSystem(ModelSpec("t", m, n, L, p)))


def _directional_derivative(uni, phi, mu):
    """Reference for the ladder's tangency rows: the derivative of a W0
    function along the factor X_mu, one sp.diff per coordinate, with the
    momentum slots tangency-solved."""
    xp_sol = uni.tangency_solution()
    out = sp.diff(phi, ex.base(mu))
    for A in range(uni.n):
        dphi = sp.diff(phi, ex.field(A))
        if dphi != 0:
            out += ex.velocity(A, mu) * dphi
        for lam in range(uni.m):
            dv = sp.diff(phi, ex.velocity(A, lam))
            if dv != 0:
                out += coefficient_symbol("Xv", A, mu, lam) * dv
        for nu in range(uni.m):
            dp = sp.diff(phi, ex.momentum(A, nu))
            if dp != 0:
                out += xp_sol[coefficient_symbol("Xp", A, nu, mu)] * dp
    for nu in range(uni.m):
        dsv = sp.diff(phi, ex.action(nu))
        if dsv != 0:
            out += coefficient_symbol("Xs", nu, mu) * dsv
    return sp.expand(out)


# models whose ladders reach generation 2: the chain model below, and
# corpus_022 of the seed-1 benchmark corpus (m = 2, n = 2)
_MULTI_GENERATION = {
    "chain": (1, 2, "1/2*dy[0,0]^2 + y[1]*dy[0,0]"),
    "corpus_022": (2, 2, "-dy[1,0]^2 + 2*y[0]*dy[1,0] + y[1]*dy[1,0] + 2*y[1]*dy[1,1]"
                         " - y[0]*y[1] - 1/4*s[0] - 1/5*s[1]"),
}


@pytest.fixture()
def osc_unified(oscillator):
    return UnifiedSystem(oscillator)


class TestForms:
    def test_coupling_function(self, osc_unified):
        c = osc_unified.coupling()
        expected = (ex.extended_momentum()
                    + ex.velocity(0, 0) * ex.momentum(0, 0)
                    - osc_unified.L)
        assert sp.expand(c - expected) == 0

    def test_theta_w_volume_coefficient(self, osc_unified):
        th = osc_unified.theta_w()
        ch = osc_unified.chart_w
        key = (ch.index(ex.base(0)),)
        assert sp.expand(th.terms[key] + ex.extended_momentum()) == 0

    def test_theta_w0_volume_coefficient(self, osc_unified):
        th = osc_unified.theta_w0()
        ch = osc_unified.chart_w0
        key = (ch.index(ex.base(0)),)
        
        expected = -(osc_unified.L - ex.velocity(0, 0) * ex.momentum(0, 0))
        assert sp.expand(th.terms[key] - expected) == 0

    def test_sigma_w1(self, osc_unified):
        gam = sp.Symbol("gamma")
        assert osc_unified.sigma_w1().terms == {(0,): gam}


class TestFieldEquations:
    def test_primary_constraints(self, osc_unified):
        xi = osc_unified.primary_constraints()
        assert len(xi) == 1
        assert sp.expand(xi[0] - (ex.velocity(0, 0) - ex.momentum(0, 0))) == 0

    def test_ladder_reads_the_printed_constraint_rows(self, models, monkeypatch):
        uni = UnifiedSystem(LagrangianSystem(models["damped_wave"][0]))
        patch_statement(monkeypatch, lambda _, e: dataclasses.replace(e, lhs=e.lhs + 1)
                        if e.name == "xi[0,1]" else e)
        printed = [e.lhs for e in uni.sr_field_equations().equations if e.name.startswith("xi[")]
        assert printed[1] == 1 - ex.velocity(0, 1) - ex.momentum(0, 1)
        assert uni.primary_constraints() == printed
        assert uni.constraint_algorithm().generations[0] == printed

    def test_equation_roles(self, osc_unified):
        eqs = osc_unified.sr_field_equations().equations
        roles = {e.role for e in eqs}
        assert roles == {EquationRole.SEMI_HOLONOMY, EquationRole.EVOLUTION,
                         EquationRole.CONSTRAINT, EquationRole.ACTION_BALANCE}

    def test_tangency_isolates_momentum_coefficients(self, osc_unified):
        sol = osc_unified.tangency_solution()
        xp = coefficient_symbol("Xp", 0, 0, 0)
        assert xp in sol
        # the isolated coefficient is linear in the remaining unknowns
        for u in (coefficient_symbol("Xv", 0, 0, 0), coefficient_symbol("Xs", 0, 0)):
            assert sp.diff(sol[xp], u, 2) == 0


class TestConstraintLadder:
    def test_regular_model_stabilizes_at_primaries(self, osc_unified):
        ladder = osc_unified.constraint_algorithm()
        assert ladder.status is LadderStatus.STABILIZED
        assert len(ladder.generations) == 1
        assert len(ladder.generations[0]) == 1

    def test_negative_generation_cap_rejected(self, osc_unified):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            osc_unified.constraint_algorithm(max_generations=-1)

    def test_cyclic_model_empty_intersection(self, models):
        spec, _ = models["singular_cyclic"]
        uni = UnifiedSystem(LagrangianSystem(spec))
        ladder = uni.constraint_algorithm()
        assert ladder.status is LadderStatus.EMPTY_INTERSECTION
        # primaries, then the inconsistent 1 = 0 candidate
        assert len(ladder.generations) == 2
        cand = ladder.generations[1][0]
        assert cand.free_symbols == set()
        assert cand != 0

    def test_chain_model_two_secondary_generations(self):
        # L = dy0^2/2 + y1 dy0: consistency forces dy0 = 0, then dy1 = 0...
        # the chain stabilizes after two nontrivial generations
        uni = _unified(ex.velocity(0, 0) ** 2 / 2
                       + ex.field(1) * ex.velocity(0, 0), n=2)
        ladder = uni.constraint_algorithm()
        assert ladder.status is LadderStatus.STABILIZED
        assert len(ladder.generations) == 3

    @pytest.mark.parametrize("name", sorted(_MULTI_GENERATION))
    def test_later_generation_tangency_rows(self, name, monkeypatch):
        m, n, text = _MULTI_GENERATION[name]
        uni = _unified(ex.parse_expr(text, m, n), m=m, n=n)
        systems = []
        solve = sp.linear_eq_to_matrix

        def spy(rows, unknowns):
            systems.append(list(rows))
            return solve(rows, unknowns)

        monkeypatch.setattr(sp, "linear_eq_to_matrix", spy)
        ladder = uni.constraint_algorithm()
        assert ladder.status is LadderStatus.STABILIZED
        assert len(ladder.generations) >= 3
        # the last system holds the tangency rows of every later generation
        tangency = systems[-1][len(uni._compatibility_rows()):]
        assert tangency == [_directional_derivative(uni, phi, mu)
                            for gen in ladder.generations[1:] for phi in gen
                            for mu in range(m)]

    def test_generation_cap(self):
        uni = _unified(ex.velocity(0, 0) ** 2 / 2
                       + ex.field(1) * ex.velocity(0, 0), n=2)
        ladder = uni.constraint_algorithm(max_generations=1)
        assert ladder.status is LadderStatus.MAX_GENERATIONS

    def test_ladder_text_format(self, models):
        spec, _ = models["singular_cyclic"]
        uni = UnifiedSystem(LagrangianSystem(spec))
        text = uni.constraint_algorithm().to_text()
        assert text.splitlines()[0].startswith("status: EMPTY-INTERSECTION")
        assert any(line.startswith("gen0[0]:") for line in text.splitlines())


class TestProjections:
    def test_lagrangian_projection_matches_herglotz(self, models, seed1_corpus):
        bad = []
        for spec in table_specs(models, seed1_corpus):
            lag = LagrangianSystem(spec)
            el, proj = lag.herglotz_el_equations(), UnifiedSystem(lag).project_to_lagrangian()
            assert [e.name for e in el] == [e.name for e in proj], spec.name
            bad += [(spec.name, a.name) for a, b in zip(el, proj)
                    if ex.equal(a.residual, b.residual).verdict is not ex.Verdict.EXACT_EQUAL]
        assert not bad

    def test_hamiltonian_projection_matches_legendre(self, osc_unified):
        projected = HamiltonianSystem.from_legendre(osc_unified.lag)
        assert hamiltonian_pullback_holds(osc_unified, projected.H)

    def test_hamiltonian_pullback_detects_sign_flip(self, osc_unified):
        H = HamiltonianSystem.from_legendre(osc_unified.lag).H
        for term in sp.Add.make_args(sp.expand(H)):
            assert not hamiltonian_pullback_holds(osc_unified, H - 2 * term), term


class TestDerivationCore:
    def test_tangency_solution_matches_direct_derivatives(self, models):
        # reference: the chain rule along X_mu applied to dL/ddy[B,nu] with sp.diff
        specs = [models[name][0] for name in
                 ("coupled_two_field", "velocity_action_cross", "damped_wave")]
        # m = 2 with an action-velocity term: Xs[lam,mu] enters with lam != mu
        specs.append(ModelSpec("t", 2, 1, ex.parse_expr(
            "-1/2*dy[0,1]^2 + 2*y[0]*dy[0,1] - 1/4*s[0] + 1/10*s[0]*dy[0,0]", 2, 1)))
        for spec in specs:
            lag = LagrangianSystem(spec)
            uni = UnifiedSystem(lag)
            sol = uni.tangency_solution()
            for B in range(lag.n):
                for nu in range(lag.m):
                    pB = sp.diff(lag.L, ex.velocity(B, nu))
                    for mu in range(lag.m):
                        ref = sp.diff(pB, ex.base(mu)) + sum(
                            sp.diff(pB, ex.field(A)) * ex.velocity(A, mu)
                            + sum(sp.diff(pB, ex.velocity(A, lam))
                                  * coefficient_symbol("Xv", A, mu, lam)
                                  for lam in range(lag.m))
                            for A in range(lag.n)) + sum(
                            sp.diff(pB, ex.action(lam)) * coefficient_symbol("Xs", lam, mu)
                            for lam in range(lag.m))
                        assert sp.expand(sol[coefficient_symbol("Xp", B, nu, mu)]
                                         - ref) == 0

    def test_tangency_solution_is_built_once(self, osc_unified):
        first = osc_unified.tangency_solution()
        osc_unified.constraint_algorithm()
        assert osc_unified.tangency_solution() is first

    def test_hessian_reads_the_momentum_jet(self, maxwell):
        vel = [ex.velocity(A, mu) for A in range(4) for mu in range(4)]
        assert maxwell.hessian() == sp.hessian(maxwell.L, vel)

    def test_nonlinear_compatibility_row_raises(self, osc_unified, monkeypatch):
        rows = osc_unified._compatibility_rows()
        bad = coefficient_symbol("Xv", 0, 0, 0) * coefficient_symbol("Xs", 0, 0)
        monkeypatch.setattr(UnifiedSystem, "_compatibility_rows",
                            lambda self: rows + [bad])
        with pytest.raises(ex.ExprError, match="field equations are not linear"):
            osc_unified.constraint_algorithm()
