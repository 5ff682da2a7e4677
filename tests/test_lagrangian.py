import pytest
import sympy as sp

from mcfield import expr as ex
from mcfield.calculus import contract, d, structure_diagnostics, wedge
from mcfield.chart import ModelSpec
from mcfield.lagrangian import (EquationRole, EquationSet, LagrangianSystem,
                                Regularity, total_derivative)
from mcfield.modelfile import load_model

from conftest import TEST_MODELS


def _system(L, m=1, n=1, params=()):
    p = {str(s): s for s in params}
    return LagrangianSystem(ModelSpec("t", m, n, L, p))


class TestTotalDerivative:
    def test_chain_rule_over_jet_variables(self):
        f = ex.field(0) * ex.velocity(0, 0) + ex.action(0)
        out = total_derivative(f, 0, 1, 1)
        expected = (ex.velocity(0, 0) ** 2 + ex.field(0) * ex.second_jet(0, 0, 0)
                    + ex.action_grad(0, 0))
        assert sp.expand(out - expected) == 0

    def test_mixed_partials_are_symmetric(self):
        f = ex.velocity(0, 1)
        assert total_derivative(f, 0, 2, 1) == ex.second_jet(0, 0, 1)
        assert total_derivative(ex.velocity(0, 0), 1, 2, 1) == ex.second_jet(0, 0, 1)


class TestHessianRegularity:
    def test_oscillator_regular(self, oscillator):
        rep = oscillator.regularity()
        assert rep.status is Regularity.REGULAR
        assert rep.hyperregular and not rep.probabilistic
        assert (rep.rank, rep.size) == (1, 1)

    def test_no_samples_rejected(self, oscillator):
        with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
            oscillator.regularity(samples=0)

    def test_maxwell_singular_rank_6(self, maxwell):
        rep = maxwell.regularity()
        assert rep.status is Regularity.SINGULAR
        assert (rep.rank, rep.size) == (6, 16)

    def test_pointwise_rank_difference_reported(self):
        # L = dy^3/3 has Hessian 2*dy: rank 0 at the origin, 1 generically
        lag = _system(ex.velocity(0, 0) ** 3 / 3)
        rep = lag.regularity()
        assert rep.probabilistic
        assert rep.status is Regularity.REGULAR and rep.rank == 1
        import numpy as np
        H = lag.hessian()
        assert H[0, 0].subs(ex.velocity(0, 0), 0) == 0

    def test_hessian_symmetric(self, maxwell):
        H = maxwell.hessian()
        assert H == H.T


class TestStructures:
    def test_energy(self, oscillator):
        gam, om = sp.symbols("gamma omega")
        E = oscillator.energy
        expected = (ex.velocity(0, 0) ** 2 / 2 + om ** 2 * ex.field(0) ** 2 / 2
                    + gam * ex.action(0))
        assert sp.expand(E - expected) == 0

    def test_momentum_assignment(self, toy_m1n1):
        assert toy_m1n1.momentum_assignment(0, 0) == ex.velocity(0, 0) + ex.action(0)

    def test_sigma_one_form(self, oscillator):
        gam = sp.Symbol("gamma")
        sig = oscillator.sigma()
        assert sig.degree == 1 and sig.terms == {(0,): gam}

    def test_reeb_field_regular_only(self, oscillator, maxwell):
        R = oscillator.reeb_fields()
        assert len(R) == 1
        with pytest.raises(Exception):
            maxwell.reeb_fields()

    def test_sigma_defining_relation(self, oscillator):
        # i(R) dTheta_L = sigma ^ i(R) Theta_L for every Reeb field
        theta = oscillator.theta()
        sig = oscillator.sigma()
        for R in oscillator.reeb_fields():
            lhs = contract(R, d(theta))
            rhs = wedge(sig, contract(R, theta))
            assert (lhs - rhs).simplify().is_zero()


def _exterior_mismatches(lag):
    """Where Theta_L's exterior derivative, as assembled from the derivative
    table, differs from calculus.d of Theta_L: a key-set difference, or the
    keys whose coefficients do not cancel against each other."""
    theta = lag.theta()
    table, reference = theta.exterior(), d(theta)
    if set(table.terms) != set(reference.terms):
        return sorted(set(table.terms) ^ set(reference.terms))
    return [k for k in table.terms
            if sp.cancel(table.terms[k] - reference.terms[k]) != 0]


class TestExteriorFromTable:
    def test_matches_d_on_bundled_and_corpus_models(self, models, seed1_corpus):
        specs = [spec for spec, _ in models.values()] + seed1_corpus
        assert len(specs) == 43
        bad = {spec.name: miss for spec in specs
               if (miss := _exterior_mismatches(LagrangianSystem(spec)))}
        assert not bad

    def test_corrupted_energy_jet_is_caught(self, models):
        lag = LagrangianSystem(models["damped_oscillator"][0])
        z = next(iter(lag.energy_jet))
        lag.energy_jet[z] += ex.field(0)
        assert _exterior_mismatches(lag)

    def test_structure_report_equals_the_d_fallback(self, models):
        for name, (spec, _) in models.items():
            lag = LagrangianSystem(spec)
            theta = lag.theta()
            unseeded = theta.copy()
            assert theta._exterior is not None and unseeded._exterior is None
            assert (structure_diagnostics(theta, lag.chart)
                    == structure_diagnostics(unseeded, lag.chart)), name


def _table_mismatches(lag):
    """Entries of the derivative table that differ, under ``expr.equal``,
    from sympy's own ``diff`` of the Lagrangian as written in the model
    (and of the energy built from it): one (table, coordinate) pair each.
    Every chart coordinate is compared, so a partial missing from a jet
    counts as well as a wrong one."""
    L = sp.sympify(lag.spec.lagrangian)
    vel = [ex.velocity(A, mu) for A in range(lag.n) for mu in range(lag.m)]
    coords = lag.chart.coords
    momenta = [sp.diff(L, v) for v in vel]
    energy = sum(v * p for v, p in zip(vel, momenta)) - L
    pairs = [(("momenta", v), lag.momenta[i], momenta[i]) for i, v in enumerate(vel)]
    pairs += [(("field_partials", ex.field(A)), lag.field_partials[A],
               sp.diff(L, ex.field(A))) for A in range(lag.n)]
    pairs += [(("action_partials", ex.action(mu)), lag.action_partials[mu],
               sp.diff(L, ex.action(mu))) for mu in range(lag.m)]
    pairs += [((f"momentum_jet[{v}]", z), row.get(z, 0), sp.diff(momenta[i], z))
              for i, (v, row) in enumerate(zip(vel, lag.momentum_jet)) for z in coords]
    # base partials are left out of the energy jet: they wedge to zero with d^m x
    pairs += [(("energy_jet", z), lag.energy_jet.get(z, 0), sp.diff(energy, z))
              for z in coords[lag.m:]]
    return [key for key, table, reference in pairs
            if (table != 0 or reference != 0) and not ex.equal(table, reference)]


class TestDerivativeTable:
    """The table differentiates the expanded Lagrangian once per system;
    each entry must still be the derivative of the Lagrangian as written."""

    def test_matches_sympy_diff_of_the_written_lagrangian(self, models, seed1_corpus):
        specs = ([spec for spec, _ in models.values()] + seed1_corpus
                 + [load_model(path)[0] for path in sorted(TEST_MODELS.glob("*.model"))])
        assert len(specs) == 46
        bad = {spec.name: miss for spec in specs
               if (miss := _table_mismatches(LagrangianSystem(spec)))}
        assert not bad

    def test_corrupted_entries_are_caught(self, models):
        lag = LagrangianSystem(models["damped_oscillator"][0])
        energy_jet = lag.energy_jet   # read off the jet before it is corrupted
        energy_jet[ex.action(0)] = -energy_jet[ex.action(0)]
        lag.momentum_jet[0][ex.field(0)] = ex.action(0)
        assert _table_mismatches(lag) == [("momentum_jet[dy0_0]", ex.field(0)),
                                          ("energy_jet", ex.action(0))]


class TestHerglotzEquations:
    def test_oscillator_equations(self, oscillator):
        gam, om = sp.symbols("gamma omega")
        eqs = oscillator.herglotz_el_equations()
        ev = eqs.of_role(EquationRole.EVOLUTION)
        assert len(ev) == 1
        residual = sp.expand(ev[0].residual)
        target = sp.expand(ex.second_jet(0, 0, 0) + gam * ex.velocity(0, 0)
                           + om ** 2 * ex.field(0))
        assert residual == target or residual == -target

    def test_action_balance_rhs_is_lagrangian(self, oscillator):
        ab = oscillator.herglotz_el_equations().of_role(EquationRole.ACTION_BALANCE)
        assert len(ab) == 1
        assert sp.expand(ab[0].rhs - oscillator.L) == 0
        assert ab[0].lhs == ex.action_grad(0, 0)

    def test_damped_wave_equation(self, models):
        spec, _ = models["damped_wave"]
        gam = spec.parameters["gamma"]
        eqs = LagrangianSystem(spec).herglotz_el_equations()
        ev = eqs.of_role(EquationRole.EVOLUTION)[0]
        target = sp.expand(ex.second_jet(0, 0, 0) - ex.second_jet(0, 1, 1)
                           + gam * ex.velocity(0, 0))
        residual = sp.expand(ev.residual)
        assert residual == target or residual == -target


class TestEquationSetSerialization:
    def test_machine_round_trip(self, oscillator):
        spec = oscillator.spec
        eqs = oscillator.herglotz_el_equations()
        back = EquationSet.from_machine(eqs.to_machine(), "rt", spec.m, spec.n,
                                        parameters=spec.parameters)
        assert len(back) == len(eqs)
        for a, b in zip(eqs, back):
            assert a.name == b.name and a.role is b.role
            assert bool(ex.equal(a.residual, b.residual))

    def test_text_and_latex_render(self, oscillator):
        eqs = oscillator.herglotz_el_equations()
        assert "action-balance" in eqs.to_text()
        assert eqs.to_latex().startswith("\\begin{align}")
