import pytest
import sympy as sp

from mcfield import expr as ex
from mcfield.chart import ModelSpec
from mcfield.hamiltonian import HamiltonianSystem, eliminate_velocities
from mcfield.lagrangian import EquationRole, LagrangianSystem
from mcfield.unified import UnifiedSystem

from conftest import total_derivative


def _system(L, m=1, n=1, params=()):
    p = {str(s): s for s in params}
    return LagrangianSystem(ModelSpec("t", m, n, L, p))


class TestLegendreMap:
    def test_oscillator(self, oscillator):
        assert oscillator.momentum_assignment(0, 0) == ex.velocity(0, 0)
        graph = UnifiedSystem(oscillator).legendre_graph()
        assert graph == {ex.momentum(0, 0): ex.velocity(0, 0)}

    def test_extended_adds_pext(self, oscillator):
        # the extended momentum's image is L - dy * dL/ddy = -E_L
        assert sp.expand(-oscillator.energy
                         - (oscillator.L - ex.velocity(0, 0)
                            * oscillator.momentum_assignment(0, 0))) == 0


class TestVelocityElimination:
    def test_regular_inversion(self, oscillator):
        elim = eliminate_velocities(oscillator)
        assert elim.regular
        assert elim.representative[ex.velocity(0, 0)] == ex.momentum(0, 0)
        assert elim.image_constraints == []

    def test_cross_term_shift(self, toy_m1n1):
        # L = dy^2/2 + s dy  ->  p = dy + s, dy = p - s
        elim = eliminate_velocities(toy_m1n1)
        assert elim.representative[ex.velocity(0, 0)] == (
            ex.momentum(0, 0) - ex.action(0))

    def test_off_diagonal_regular_no_constraints(self):
        # L = dy0 dy1: p0 = dy1, p1 = dy0 -- regular despite zero diagonal
        lag = _system(ex.velocity(0, 0) * ex.velocity(1, 0), n=2)
        elim = eliminate_velocities(lag)
        assert elim.regular and elim.image_constraints == []
        assert elim.representative[ex.velocity(0, 0)] == ex.momentum(1, 0)

    def test_nonquadratic_rejected(self):
        lag = _system(ex.velocity(0, 0) ** 3)
        with pytest.raises(ValueError):
            eliminate_velocities(lag)

    def test_maxwell_minimum_norm_and_constraints(self, maxwell):
        elim = eliminate_velocities(maxwell)
        assert not elim.regular
        assert len(elim.image_constraints) == 10
        # representative is antisymmetric: v[A,mu] = -v[mu,A]
        for A in range(4):
            for mu in range(4):
                va = elim.representative[ex.velocity(A, mu)]
                vb = elim.representative[ex.velocity(mu, A)]
                assert sp.expand(va + vb) == 0
        # every constraint vanishes on the Legendre image
        fl = {ex.momentum(A, mu): maxwell.momentum_assignment(A, mu)
              for A in range(4) for mu in range(4)}
        for c in elim.image_constraints:
            assert sp.expand(c.xreplace(fl)) == 0


class TestHamiltonianSystem:
    def test_oscillator_hamiltonian(self, oscillator):
        gam, om = sp.symbols("gamma omega")
        ham = HamiltonianSystem.from_legendre(oscillator)
        expected = (ex.momentum(0, 0) ** 2 / 2 + om ** 2 * ex.field(0) ** 2 / 2
                    + gam * ex.action(0))
        assert sp.expand(ham.H - expected) == 0

    def test_velocities_rejected_in_h(self):
        with pytest.raises(ValueError):
            HamiltonianSystem(1, 1, ex.velocity(0, 0) ** 2, [], {})

    def test_sigma_equals_lagrangian_sigma(self, oscillator):
        gam = sp.Symbol("gamma")
        ham = HamiltonianSystem.from_legendre(oscillator)
        assert ham.sigma().terms == oscillator.sigma().terms == {(0,): gam}

    def test_hhdw_oscillator(self, oscillator):
        gam, om = sp.symbols("gamma omega")
        eqs = HamiltonianSystem.from_legendre(oscillator).hhdw_equations()
        ev = {e.name: e for e in eqs.of_role(EquationRole.EVOLUTION)}
        assert sp.expand(ev["y[0]/x[0]"].rhs - ex.momentum(0, 0)) == 0
        assert sp.expand(ev["p[0]"].rhs
                         + om ** 2 * ex.field(0) + gam * ex.momentum(0, 0)) == 0

    def test_hhdw_reduces_to_herglotz_el(self, oscillator):
        """Substituting the Legendre map into HHDW output recovers the
        Lagrangian equations."""
        m, n = 1, 1
        ham = HamiltonianSystem.from_legendre(oscillator)
        eqs = ham.hhdw_equations()
        fl = {ex.momentum(0, 0): oscillator.momentum_assignment(0, 0)}
        # momentum equation: dp/dt becomes the total derivative of dL/ddy
        pe = [e for e in eqs if e.name == "p[0]"][0]
        lhs = total_derivative(oscillator.momentum_assignment(0, 0), 0, m, n)
        rhs = pe.rhs.xreplace(fl)
        el = oscillator.herglotz_el_equations().of_role(EquationRole.EVOLUTION)[0]
        assert bool(ex.equal(lhs - rhs, el.residual)) or bool(
            ex.equal(lhs - rhs, -el.residual))

    @pytest.mark.parametrize("name", ["coupled_two_field", "damped_oscillator",
                                      "damped_wave", "free_scalar",
                                      "velocity_action_cross"])
    def test_regular_hhdw_equals_dH_dp(self, models, name):
        # reference: the regular-case equations written with dH/dp
        ham = HamiltonianSystem.from_legendre(LagrangianSystem(models[name][0]))
        assert ham.image_constraints == []
        eqs = {e.name: e for e in ham.hhdw_equations()}
        p_dHdp = 0
        for A in range(ham.n):
            for mu in range(ham.m):
                dHdp = sp.diff(ham.H, ex.momentum(A, mu))
                assert eqs[f"y[{A}]/x[{mu}]"].rhs == sp.cancel(dHdp)
                p_dHdp += ex.momentum(A, mu) * dHdp
        assert eqs["action"].rhs == sp.expand(p_dHdp - ham.H)

    def test_singular_image_constraints_emitted(self, maxwell):
        eqs = HamiltonianSystem.from_legendre(maxwell).hhdw_equations()
        cons = eqs.of_role(EquationRole.CONSTRAINT)
        assert len(cons) == 10
