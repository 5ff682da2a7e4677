"""End-to-end acceptance suite.

Each test class exercises one release criterion at its stated tolerance:

1.  Full symbolic derivation of vacuum electromagnetism with source and
    linear action damping, in both projected formalisms.
2.  Three-way agreement (Euler-Lagrange / Hamiltonian / unified) on the
    regular model corpus.
3.  Regularity verdicts against independent numeric rank checks on random
    quadratic Lagrangians.
4.  Geometric structure classification across field/spacetime dimensions.
5.  Constraint-ladder output against frozen golden files produced by an
    independent brute-force solver.
6.  Damped-oscillator simulation against the closed-form solution, with
    dissipation and action-balance residual checks.
7.  Damped-wave simulation: exact symbolic field equation, discrete energy
    conservation, monotone decay, and second-order convergence.
8.  Exterior-calculus property suite on random forms.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
import sympy as sp

from mcfield import expr as ex
from mcfield import numsim
from mcfield.calculus import (Form, contract, d, structure_diagnostics,
                              wedge)
from mcfield.chart import ChartKind, ModelSpec, build_chart
from mcfield.hamiltonian import HamiltonianSystem
from mcfield.lagrangian import (EquationRole, LagrangianSystem, Regularity,
                                total_derivative)
from mcfield.modelfile import SimulateConfig
from mcfield.unified import LadderStatus, UnifiedSystem

from conftest import GOLDEN, hamiltonian_pullback_holds


def _equal_up_to_sign(a, b):
    r = ex.equal(a, b)
    if r.verdict is not ex.Verdict.NOT_EQUAL:
        return True
    return ex.equal(a, -b).verdict is not ex.Verdict.NOT_EQUAL


# ---------------------------------------------------------------------------
# Criterion 1: electromagnetism, start to finish
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def maxwell_run(models):
    spec, _ = models["maxwell"]
    t0 = time.monotonic()
    lag = LagrangianSystem(spec)
    uni = UnifiedSystem(lag)
    el = uni.project_to_lagrangian()
    ham = uni.project_to_hamiltonian()
    hhdw = ham.hhdw_equations()
    elapsed = time.monotonic() - t0
    return spec, lag, uni, el, ham, hhdw, elapsed


class TestMaxwellDerivation:
    @staticmethod
    def _params(spec):
        p = spec.parameters
        return (p["mu0"], [p[f"J{a}"] for a in range(4)],
                [p[f"gamma{a}"] for a in range(4)], sp.diag(1, -1, -1, -1))

    def test_runtime_budget(self, maxwell_run):
        assert maxwell_run[-1] < 60.0

    def test_field_equations_with_damping(self, maxwell_run):
        # mu0 * J^mu + g^{nu alpha} g^{mu sigma} (d_nu F_{sigma alpha}
        #   + gamma_nu F_{sigma alpha}) = 0, with F_{mu nu} = dy[nu,mu]-dy[mu,nu]
        spec, _, _, el, *_ = maxwell_run
        mu0, J, gam, g = self._params(spec)

        def F(mu, nu):
            return ex.velocity(nu, mu) - ex.velocity(mu, nu)

        def dF(si, al, nu):
            return ex.second_jet(al, si, nu) - ex.second_jet(si, al, nu)

        evs = [e for e in el if e.role is EquationRole.EVOLUTION]
        assert len(evs) == 4
        for mu, e in enumerate(evs):
            target = sp.expand(mu0 * J[mu] + sum(
                g[nu, al] * g[mu, si] * (dF(si, al, nu) + gam[nu] * F(si, al))
                for nu, al, si in itertools.product(range(4), repeat=3)))
            # derived equation carries an overall 1/mu0 factor
            assert sp.expand(mu0 * (e.lhs - e.rhs) - target) == 0

    def test_action_balance_on_lagrangian_side(self, maxwell_run):
        _, lag, _, el, *_ = maxwell_run
        ab = [e for e in el if e.role is EquationRole.ACTION_BALANCE]
        assert len(ab) == 1
        assert sp.expand(ab[0].rhs - lag.L) == 0
        assert ab[0].lhs == sum(ex.action_grad(mu, mu) for mu in range(4))

    def test_momentum_evolution_equations(self, maxwell_run):
        # sum_nu d p^{mu,nu} / dx^nu = -(J^mu + sum_nu gamma_nu p^{mu,nu})
        spec, _, _, _, _, hhdw, _ = maxwell_run
        _, J, gam, _ = self._params(spec)
        for mu in range(4):
            e = [q for q in hhdw if q.name == f"p[{mu}]"][0]
            target = sp.expand(
                sum(ex.momentum_grad(mu, nu, nu) for nu in range(4))
                + J[mu] + sum(gam[nu] * ex.momentum(mu, nu) for nu in range(4)))
            assert sp.expand(e.lhs - e.rhs - target) == 0

    def test_field_strength_recovery_on_image(self, maxwell_run):
        # velocity representative recovers F from p on the Legendre image:
        # v(alpha,mu) - v(mu,alpha) = mu0 g_{mu beta} g_{alpha nu} p^{beta,nu}
        spec, lag, _, _, ham, _, _ = maxwell_run
        mu0, _, _, g = self._params(spec)
        fl = {ex.momentum(A, mu): lag.momentum_assignment(A, mu)
              for A in range(4) for mu in range(4)}
        vrep = ham.velocity_representative
        for al in range(4):
            for mu in range(4):
                lhs = vrep[ex.velocity(al, mu)] - vrep[ex.velocity(mu, al)]
                rhs = mu0 * sum(g[mu, be] * g[al, nu] * ex.momentum(be, nu)
                                for be in range(4) for nu in range(4))
                assert sp.expand((lhs - rhs).xreplace(fl)) == 0

    def test_hamiltonian_action_balance_is_lagrangian_of_representative(
            self, maxwell_run):
        _, lag, _, _, ham, hhdw, _ = maxwell_run
        ab = [q for q in hhdw if q.role is EquationRole.ACTION_BALANCE][0]
        assert sp.expand(ab.rhs - lag.L.xreplace(ham.velocity_representative)) == 0

    def test_singular_with_ten_image_constraints(self, maxwell_run):
        _, lag, _, _, ham, hhdw, _ = maxwell_run
        rep = lag.regularity()
        assert rep.status is Regularity.SINGULAR
        assert (rep.rank, rep.size) == (6, 16)
        assert len([q for q in hhdw if q.role is EquationRole.CONSTRAINT]) == 10


# ---------------------------------------------------------------------------
# Criterion 2: formalism triangle on the regular corpus
# ---------------------------------------------------------------------------

REGULAR_MODELS = ["damped_oscillator", "free_scalar", "damped_wave",
                  "coupled_two_field", "velocity_action_cross"]


class TestFormalismTriangle:
    @pytest.mark.parametrize("name", REGULAR_MODELS)
    def test_three_routes_agree(self, models, name):
        spec, _ = models[name]
        lag = LagrangianSystem(spec)
        m, n = spec.m, spec.n
        el = {e.name: e for e in lag.herglotz_el_equations()}

        # route 1 vs route 3: unified projection reproduces Euler-Lagrange
        uni = UnifiedSystem(lag)
        for e in uni.project_to_lagrangian():
            assert _equal_up_to_sign(e.residual, el[e.name].residual), e.name

        # route 2: Hamiltonian equations pulled back through the Legendre map
        ham = HamiltonianSystem.from_legendre(lag)
        fl = {ex.momentum(A, mu): lag.momentum_assignment(A, mu)
              for A in range(n) for mu in range(m)}
        dfl = {ex.momentum_grad(A, mu, nu):
               total_derivative(lag.momentum_assignment(A, mu), nu, m, n)
               for A in range(n) for mu in range(m) for nu in range(m)}
        hhdw = ham.hhdw_equations()
        for A in range(n):
            e = [q for q in hhdw if q.name == f"p[{A}]"][0]
            pulled = (e.lhs - e.rhs).xreplace(dfl).xreplace(fl)
            assert _equal_up_to_sign(pulled, el[f"el[{A}]"].residual), e.name
        ab = [q for q in hhdw if q.role is EquationRole.ACTION_BALANCE][0]
        pulled = (ab.lhs - ab.rhs).xreplace(dfl).xreplace(fl)
        assert _equal_up_to_sign(pulled, el["action"].residual)
        # velocity-recovery equations are identities on the Legendre image
        for e in hhdw:
            if e.role is EquationRole.EVOLUTION and e.name.startswith("y["):
                assert sp.simplify((e.lhs - e.rhs).xreplace(fl)
                                   .xreplace(ham.velocity_representative)
                                   .xreplace(fl)) == 0

        # H on the Legendre graph is E_L, and -pext of the unified coupling
        assert hamiltonian_pullback_holds(uni, ham.H)


# ---------------------------------------------------------------------------
# Criterion 3: regularity verdicts vs numeric rank, random quadratic models
# ---------------------------------------------------------------------------

class TestRegularityAgreement:
    def test_fifty_random_quadratic_lagrangians(self):
        rng = np.random.default_rng(42)
        agreements = 0
        for trial in range(50):
            n = int(rng.integers(1, 4))
            W = rng.integers(-2, 3, size=(n, n))
            W = W + W.T  # symmetric velocity Hessian
            c = rng.integers(-2, 3, size=n)
            L = sp.Integer(0)
            for A in range(n):
                for B in range(n):
                    L += sp.Rational(int(W[A, B]), 2) * \
                        ex.velocity(A, 0) * ex.velocity(B, 0)
                L += int(c[A]) * ex.field(A) * ex.velocity(A, 0)
                L -= ex.field(A) ** 2
            lag = LagrangianSystem(ModelSpec(f"rand{trial}", 1, n, L))
            verdict = lag.regularity(samples=6, seed=trial).status
            # independent check: the Legendre map dy -> dL/ddy has Jacobian W
            numeric_regular = np.linalg.matrix_rank(W.astype(float)) == n
            expected = Regularity.REGULAR if numeric_regular else Regularity.SINGULAR
            agreements += verdict is expected
        assert agreements == 50


# ---------------------------------------------------------------------------
# Criterion 4: structure classification across (m, n)
# ---------------------------------------------------------------------------

def _quad_spec(m, n):
    L = sum(ex.velocity(A, mu) ** 2 for A in range(n) for mu in range(m)) / 2
    L -= sum(ex.field(A) ** 2 for A in range(n)) / 2
    L -= sp.Rational(1, 10) * ex.action(0)
    return ModelSpec(f"quad{m}{n}", m, n, L)


class TestStructureClassification:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_quadratic_models(self, m, n):
        self._check(UnifiedSystem(LagrangianSystem(_quad_spec(m, n))), m, n)

    def test_maxwell(self, models):
        spec, _ = models["maxwell"]
        self._check(UnifiedSystem(LagrangianSystem(spec)), 4, 4)

    @staticmethod
    def _check(uni, m, n):
        # extended unified phase space: premulticontact but not special
        rep = structure_diagnostics(uni.theta_w(), uni.chart_w, samples=4)
        assert rep.is_premulticontact and not rep.is_special
        assert rep.rank_ker_omega == m + n + 2 * n * m + 1
        assert rep.rank_ker_dtheta == n * m + m
        assert rep.rank_core == n * m

        # restricted unified phase space on the Legendre graph: special, k = nm
        rep0 = structure_diagnostics(uni.theta_w0(), uni.chart_w0, samples=4,
                                     point_map=uni.legendre_graph())
        assert rep0.is_premulticontact and rep0.is_special
        assert rep0.k == n * m
        assert rep0.rank_reeb == n * m + m


# ---------------------------------------------------------------------------
# Criterion 5: constraint ladders vs frozen goldens
# ---------------------------------------------------------------------------

def _normalize(e):
    e = sp.expand(sp.cancel(sp.together(e)))
    return min(ex.to_grammar(e), ex.to_grammar(sp.expand(-e)))


def _read_golden(name, m, n, parameters):
    status, gens = None, {}
    for line in (GOLDEN / f"{name}.ladder.txt").read_text().splitlines():
        line = line.strip()
        if line.startswith("status:"):
            status = line.split(":", 1)[1].strip()
        elif line.startswith("gen"):
            g = int(line.split("[")[0][3:])
            text = line.split(":", 1)[1].rsplit("=", 1)[0].strip()
            expr = ex.parse_expr(text, m, n, parameters=parameters)
            gens.setdefault(g, []).append(_normalize(expr))
    return status, {g: sorted(v) for g, v in gens.items()}


class TestConstraintLadderGoldens:
    @pytest.mark.parametrize("name", ["singular_cyclic", "maxwell"])
    def test_ladder_matches_golden(self, models, name):
        spec, _ = models[name]
        uni = UnifiedSystem(LagrangianSystem(spec))
        ladder = uni.constraint_algorithm(seed=42)
        golden_status, golden_gens = _read_golden(
            name, spec.m, spec.n, spec.parameters)
        assert ladder.status.value == golden_status
        got = {g: sorted(_normalize(c) for c in gen)
               for g, gen in enumerate(ladder.generations)}
        assert got == golden_gens


# ---------------------------------------------------------------------------
# Criterion 6: damped oscillator against the closed-form solution
# ---------------------------------------------------------------------------

class TestOscillatorSimulation:
    def test_closed_form_dissipation_and_action(self, models):
        spec, cfg = models["damped_oscillator"]
        cfg = dataclasses.replace(
            cfg, monitors=("action_balance", "energy"), cadence=1)
        t0 = time.monotonic()
        eqs = LagrangianSystem(spec).herglotz_el_equations()
        p = numsim.compile_problem(eqs, cfg)
        rep = numsim.run(p, dt=1e-3, t_end=10.0, cadence=1)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        assert rep.termination == "completed"

        gam, om = 0.1, 1.0
        omd = math.sqrt(om ** 2 - gam ** 2 / 4)
        t = np.asarray(rep.times)
        iq = p.state_names.index("y0")
        iv = p.state_names.index("dy0_0")
        q = np.array([s.arrays[iq, 0] for s in rep.states])
        v = np.array([s.arrays[iv, 0] for s in rep.states])
        exact = np.exp(-gam * t / 2) * (np.cos(omd * t)
                                        + gam / (2 * omd) * np.sin(omd * t))
        assert np.max(np.abs(q - exact)) < 1e-6

        # dE/dt = -gamma v^2, centered difference in time
        E = np.asarray(rep.series["energy"])
        dt = t[1] - t[0]
        dE = (E[2:] - E[:-2]) / (2 * dt)
        assert np.max(np.abs(dE + gam * v[1:-1] ** 2)) < 1e-6

        assert rep.max_action_residual < 1e-8


# ---------------------------------------------------------------------------
# Criterion 7: damped wave equation, symbolic and numeric
# ---------------------------------------------------------------------------

class TestDampedWave:
    def test_symbolic_field_equation(self, models):
        spec, _ = models["damped_wave"]
        gam = spec.parameters["gamma"]
        eqs = LagrangianSystem(spec).herglotz_el_equations()
        residual = sp.expand(eqs.of_role(EquationRole.EVOLUTION)[0].residual)
        target = sp.expand(ex.second_jet(0, 0, 0) - ex.second_jet(0, 1, 1)
                           + gam * ex.velocity(0, 0))
        assert residual == target or residual == -target

    @staticmethod
    def _wave_problem(models, gamma, N, monitors=("energy",)):
        spec, cfg = models["damped_wave"]
        length = 2 * math.pi
        cfg = dataclasses.replace(
            cfg, N=N, length=length, monitors=tuple(monitors),
            parameters={"gamma": gamma}, cadence=1)
        eqs = LagrangianSystem(spec).herglotz_el_equations()
        p = numsim.compile_problem(eqs, cfg)
        return p, length / N

    def test_free_wave_energy_conservation(self, models):
        t0 = time.monotonic()
        p, dx = self._wave_problem(models, gamma=0.0, N=256)
        rep = numsim.run(p, dt=dx / 4, t_end=10 * 2 * math.pi, cadence=16)
        E = np.asarray(rep.series["energy"])
        assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-6
        assert time.monotonic() - t0 < 60.0

    def test_damped_wave_monotone_decay(self, models):
        p, dx = self._wave_problem(models, gamma=0.1, N=256)
        rep = numsim.run(p, dt=dx / 4, t_end=6.0, cadence=8)
        E = np.asarray(rep.series["energy"])
        assert np.all(np.diff(E) < 0)

    def test_action_balance_second_order_convergence(self, models):
        residuals, dxs = [], []
        for N in (128, 256, 512):
            p, dx = self._wave_problem(models, gamma=0.1, N=N,
                                       monitors=("action_balance_fd",))
            rep = numsim.run(p, dt=dx / 4, t_end=2.0, cadence=1)
            r = np.asarray(rep.series["action_balance_fd"])
            residuals.append(np.max(np.abs(r[2:])))
            dxs.append(dx)
        slope = np.polyfit(np.log(dxs), np.log(residuals), 1)[0]
        assert abs(slope - 2.0) < 0.3


# ---------------------------------------------------------------------------
# Criterion 8: exterior-calculus property suite
# ---------------------------------------------------------------------------

CHART = build_chart(ChartKind.P, 2, 1)


def _random_form(rng, degree):
    coords = list(CHART.coords)
    terms = {}
    for _ in range(rng.integers(1, 4)):
        idx = tuple(sorted(rng.choice(CHART.dim, size=degree, replace=False)))
        coeff = sp.Integer(int(rng.integers(-3, 4)) or 1)
        for _ in range(rng.integers(0, 3)):
            coeff *= coords[rng.integers(0, CHART.dim)] ** int(rng.integers(1, 3))
        terms[tuple(int(i) for i in idx)] = coeff
    return Form(CHART, degree, terms)


class TestCalculusProperties:
    def test_d_squared_vanishes_on_200_random_forms(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            form = _random_form(rng, int(rng.integers(0, 4)))
            assert d(d(form)).simplify().is_zero()

    def test_graded_commutativity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ka, kb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            a, b = _random_form(rng, ka), _random_form(rng, kb)
            diff = wedge(a, b) - (-1) ** (ka * kb) * wedge(b, a)
            assert diff.simplify().is_zero()

    def test_contraction_conventions(self):
        from mcfield.calculus import MultiVector, VectorField
        rng = np.random.default_rng(11)
        # contraction of a 0-form vanishes
        f = _random_form(rng, 0)
        assert contract(VectorField(CHART, {0: sp.Integer(1)}), f).is_zero()
        # contracting with more vectors than the degree yields the zero 0-form
        one_form = _random_form(rng, 1)
        mv = MultiVector([VectorField(CHART, {0: sp.Integer(1)}),
                          VectorField(CHART, {1: sp.Integer(1)})])
        res = contract(mv, one_form)
        assert res.degree == 0 and res.is_zero()

    def test_reeb_sigma_relation_across_corpus(self, models):
        # i(R) dTheta = sigma ^ i(R) Theta for every computed Reeb field
        for name in REGULAR_MODELS:
            spec, _ = models[name]
            lag = LagrangianSystem(spec)
            theta, sig = lag.theta(), lag.sigma()
            fields = lag.reeb_fields()
            assert fields
            for R in fields:
                diff = contract(R, d(theta)) - wedge(sig, contract(R, theta))
                assert diff.simplify().is_zero(), name
