import pytest
import sympy as sp

from mcfield import calculus, hamiltonian, lagrangian, unified
from mcfield import expr as ex
from mcfield.calculus import contract, d, structure_diagnostics, wedge
from mcfield.chart import ChartKind, ModelSpec, build_chart
from mcfield.hamiltonian import HamiltonianSystem
from mcfield.lagrangian import (EquationRole, EquationSet, LagrangianSystem,
                                Regularity, along)
from mcfield.unified import UnifiedSystem

from conftest import table_specs, total_derivative


def _system(L, m=1, n=1, params=()):
    p = {str(s): s for s in params}
    return LagrangianSystem(ModelSpec("t", m, n, L, p))


class TestAlong:
    @staticmethod
    def _along(f, mu, m, n):
        return along(ex.gradient(f, build_chart(ChartKind.P, m, n).coords), mu)

    def test_chain_rule_over_jet_variables(self):
        f = ex.field(0) * ex.velocity(0, 0) + ex.action(0)
        out = self._along(f, 0, 1, 1)
        expected = (ex.velocity(0, 0) ** 2 + ex.field(0) * ex.second_jet(0, 0, 0)
                    + ex.action_grad(0, 0))
        assert sp.expand(out - expected) == 0

    def test_mixed_partials_are_symmetric(self):
        f = ex.velocity(0, 1)
        assert self._along(f, 0, 2, 1) == ex.second_jet(0, 0, 1)
        assert self._along(ex.velocity(0, 0), 1, 2, 1) == ex.second_jet(0, 0, 1)


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


def _exterior_mismatches(theta):
    """Where the exterior derivative canonical_form built with theta differs
    from calculus.d of theta: a key-set difference, or the keys whose
    coefficients do not cancel against each other."""
    built, reference = theta.exterior, d(theta)
    if set(built.terms) != set(reference.terms):
        return sorted(set(built.terms) ^ set(reference.terms))
    return [k for k in built.terms
            if sp.cancel(built.terms[k] - reference.terms[k]) != 0]


def _canonical_forms(lag):
    """Theta_L, Theta_H, Theta_W and Theta_W0 of one model, by chart.  Every
    model below is quadratic in the velocities, so the Legendre elimination
    that Theta_H needs applies to each."""
    uni = UnifiedSystem(lag)
    return {"L": lag.theta(), "H": HamiltonianSystem.from_legendre(lag).theta(),
            "W": uni.theta_w(), "W0": uni.theta_w0()}


class TestExteriorFromTable:
    def test_matches_d_on_bundled_and_corpus_models(self, models, seed1_corpus):
        forms = {(spec.name, chart): theta for spec in table_specs(models, seed1_corpus)
                 for chart, theta in _canonical_forms(LagrangianSystem(spec)).items()}
        assert len(forms) == 4 * 46
        bad = {key: miss for key, theta in forms.items()
               if (miss := _exterior_mismatches(theta))}
        assert not bad

    def test_corrupted_energy_jet_is_caught(self, models):
        lag = LagrangianSystem(models["damped_oscillator"][0])
        z = next(iter(lag.energy_jet))
        lag.energy_jet[z] += ex.field(0)
        assert _exterior_mismatches(lag.theta())

    @pytest.mark.parametrize("which", ["L", "H", "W", "W0"])
    def test_dropped_momentum_jet_entry_is_caught(self, models, which, monkeypatch):
        # the builder's dTheta misses one partial of one momentum
        build = calculus.canonical_form

        def drop_one(chart, momenta, momentum_jet, volume_coeff, volume_jet):
            jets = [dict(jet) for jet in momentum_jet]
            jets[-1].popitem()
            return build(chart, momenta, jets, volume_coeff, volume_jet)

        for module in (lagrangian, hamiltonian, unified):
            monkeypatch.setattr(module, "canonical_form", drop_one)
        theta = _canonical_forms(LagrangianSystem(models["damped_wave"][0]))[which]
        assert _exterior_mismatches(theta)

    def test_structure_report_needs_the_builder_exterior(self, models):
        lag = LagrangianSystem(models["damped_oscillator"][0])
        theta = lag.theta()
        with pytest.raises(ex.ExprError, match=r"needs d\(theta\)"):
            structure_diagnostics(theta.copy(), lag.chart)
        assert structure_diagnostics(theta, lag.chart).is_special


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


def _el_mismatches(lag):
    """The sides of the Euler--Lagrange rows that differ, under
    ``expr.equal``, from a reference built by sympy's own ``diff`` of the
    Lagrangian as written: sum_mu D_mu(dL/dy^A_mu) on the left, with D_mu
    the conftest total derivative, and dL/dy^A + sum_mu dL/ds^mu dL/dy^A_mu
    on the right.  One (row, side) pair each."""
    L = sp.sympify(lag.spec.lagrangian)
    m, n = lag.m, lag.n
    rows = {e.name: e for e in lag.herglotz_el_equations()}
    bad = []
    for A in range(n):
        p = [sp.diff(L, ex.velocity(A, mu)) for mu in range(m)]
        lhs = sum(total_derivative(p[mu], mu, m, n) for mu in range(m))
        rhs = sp.diff(L, ex.field(A)) + sum(sp.diff(L, ex.action(mu)) * p[mu]
                                            for mu in range(m))
        row = rows[f"el[{A}]"]
        bad += [(row.name, side) for side, ours, reference
                in (("lhs", row.lhs, lhs), ("rhs", row.rhs, rhs))
                if not ex.equal(ours, reference)]
    return bad


class TestDerivativeTable:
    """The table differentiates the expanded Lagrangian once per system;
    each entry must still be the derivative of the Lagrangian as written."""

    def test_matches_sympy_diff_of_the_written_lagrangian(self, models, seed1_corpus):
        bad = {spec.name: miss for spec in table_specs(models, seed1_corpus)
               if (miss := _table_mismatches(LagrangianSystem(spec)))}
        assert not bad

    def test_corrupted_entries_are_caught(self, models):
        lag = LagrangianSystem(models["damped_oscillator"][0])
        energy_jet = lag.energy_jet   # read off the jet before it is corrupted
        energy_jet[ex.action(0)] = -energy_jet[ex.action(0)]
        lag.momentum_jet[0][ex.field(0)] = ex.action(0)
        assert _table_mismatches(lag) == [("momentum_jet[dy0_0]", ex.field(0)),
                                          ("energy_jet", ex.action(0))]

    def test_euler_lagrange_rows_match_the_reference(self, models, seed1_corpus):
        # the rows read the table through lagrangian.along; the reference
        # differentiates the written Lagrangian again, by sympy.diff
        bad = {spec.name: miss for spec in table_specs(models, seed1_corpus)
               if (miss := _el_mismatches(LagrangianSystem(spec)))}
        assert not bad

    def test_corrupted_momentum_jet_is_caught(self, models):
        lag = LagrangianSystem(models["damped_oscillator"][0])
        assert _el_mismatches(lag) == []
        jet = lag.momentum_jet[0]
        jet[ex.velocity(0, 0)] = -jet[ex.velocity(0, 0)]
        assert _el_mismatches(lag) == [("el[0]", "lhs")]


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
