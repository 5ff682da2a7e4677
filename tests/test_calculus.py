import itertools
import random

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mcfield import calculus
from mcfield import expr as ex
from mcfield.calculus import (Form, MultiVector, VectorField, contract,
                              coframe_volume_contraction, d, pullback,
                              structure_diagnostics, volume_form, wedge)
from mcfield.chart import ChartKind, build_chart
from mcfield.lagrangian import LagrangianSystem

CHART = build_chart(ChartKind.P, 2, 1)  # x0 x1 y0 dy00 dy01 s0 s1 (dim 7)
DIM = CHART.dim


# -- random-form strategies ---------------------------------------------------

def _coeff_strategy():
    coords = list(CHART.coords)

    @st.composite
    def coeff(draw):
        c = sp.Integer(draw(st.integers(-3, 3)))
        if c == 0:
            c = sp.Integer(1)
        for _ in range(draw(st.integers(0, 2))):
            sym = coords[draw(st.integers(0, DIM - 1))]
            c = c * sym ** draw(st.integers(1, 2))
        return c

    return coeff()


def _form_strategy(degree):
    idx = st.lists(st.integers(0, DIM - 1), min_size=degree, max_size=degree,
                   unique=True).map(lambda v: tuple(sorted(v)))
    term = st.tuples(idx, _coeff_strategy())
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: Form(CHART, degree, dict(terms)))


class TestGradedAlgebra:
    @given(st.integers(1, 3).flatmap(_form_strategy))
    @settings(max_examples=100, deadline=None)
    def test_d_squared_is_zero(self, form):
        assert d(d(form)).simplify().is_zero()

    @given(st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(
        lambda ab: st.tuples(_form_strategy(ab[0]), _form_strategy(ab[1]))))
    @settings(max_examples=100, deadline=None)
    def test_wedge_graded_commutativity(self, forms):
        a, b = forms
        sign = (-1) ** (a.degree * b.degree)
        diff = wedge(a, b) - sign * wedge(b, a)
        assert diff.simplify().is_zero()

    @given(st.integers(0, DIM - 1), st.integers(1, 2).flatmap(_form_strategy))
    @settings(max_examples=100, deadline=None)
    def test_contraction_is_antiderivation(self, pos, form):
        # i(v)(a ^ a) expands as i(v)a ^ a + (-1)^deg a ^ i(v)a
        v = VectorField(CHART, {pos: sp.Integer(1)})
        lhs = contract(v, wedge(form, form))
        sign = (-1) ** form.degree
        rhs = wedge(contract(v, form), form) + sign * wedge(form, contract(v, form))
        assert (lhs - rhs).simplify().is_zero()


class TestContractionConventions:
    def test_zero_form_contraction_is_zero(self):
        f = Form(CHART, 0, {(): ex.field(0) ** 2})
        v = VectorField.basis(CHART, ex.field(0))
        assert contract(v, f).is_zero()

    def test_grade_exceeds_degree_gives_zero(self):
        omega = Form(CHART, 1, {(0,): sp.Integer(1)})  # dx0
        X = MultiVector([VectorField.basis(CHART, ex.base(0)),
                         VectorField.basis(CHART, ex.base(1))])
        out = contract(X, omega)
        assert out.degree == 0 and out.is_zero()

    def test_multivector_innermost_first(self):
        # i(X1 ^ X2) (dx0 ^ dx1) = i(X2) i(X1) (dx0 ^ dx1) = 1
        omega = Form(CHART, 2, {(0, 1): sp.Integer(1)})
        X = MultiVector([VectorField.basis(CHART, ex.base(0)),
                         VectorField.basis(CHART, ex.base(1))])
        out = contract(X, omega)
        assert out.degree == 0 and out.terms.get((), 0) == 1

    def test_volume_contraction_alternates_sign(self):
        # i(d/dx_mu) d^m x = (-1)^mu dx_0 ^ ... (omit mu) ... ^ dx_{m-1}
        c1 = coframe_volume_contraction(CHART, 0)
        c2 = coframe_volume_contraction(CHART, 1)
        assert c1.terms == {(1,): sp.Integer(1)}
        assert c2.terms == {(0,): sp.Integer(-1)}

    def test_volume_form(self):
        vol = volume_form(CHART)
        assert vol.degree == 2 and vol.terms == {(0, 1): sp.Integer(1)}


class TestPullback:
    def test_pullback_commutes_with_d(self):
        source = build_chart(ChartKind.P, 2, 1)
        target = build_chart(ChartKind.PSTAR, 2, 1)
        # map P -> P* realizing a Legendre-type assignment
        coord_map = {ex.momentum(0, 0): ex.velocity(0, 0),
                     ex.momentum(0, 1): -ex.velocity(0, 1)}
        f = Form(target, 1, {(target.index(ex.momentum(0, 0)),): ex.momentum(0, 1),
                             (target.index(ex.field(0)),): ex.field(0) ** 2})
        lhs = pullback(d(f), source, coord_map)
        rhs = d(pullback(f, source, coord_map))
        assert (lhs - rhs).simplify().is_zero()


class TestStructureDiagnostics:
    def test_oscillator_theta_is_special_multicontact(self, oscillator):
        rep = structure_diagnostics(oscillator.theta(), oscillator.chart, samples=6)
        assert rep.is_special and rep.k == 0  # trivial core: the Def-1 nondegeneracy
        assert "special multicontact" in rep.summary()
        assert rep.probabilistic

    def test_no_samples_rejected(self, oscillator):
        with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
            structure_diagnostics(oscillator.theta(), oscillator.chart, samples=0)

    def test_degenerate_form_is_neither(self):
        ch = build_chart(ChartKind.P, 1, 1)
        vol = volume_form(ch)
        vol.exterior = d(vol)
        rep = structure_diagnostics(vol, ch, samples=4)
        assert not rep.is_multicontact and not rep.is_special

    @pytest.mark.parametrize("M", [np.zeros((2, 3)), [[1, 2], [3, 4]], np.eye(3),
                                   np.diag([1e3, 5e-7]), [[1, 2, 3], [2, 4, 6 + 1e-12]]])
    def test_kernel_dimension_follows_numeric_rank(self, M):
        # the kernels and every sampled rank share expr's one rank rule
        M = np.asarray(M, dtype=float)
        assert calculus._nullspace(M).shape[1] == M.shape[1] - ex.numeric_rank(M)


# -- structure diagnostics against exact ranks ---------------------------------

VARIED = "structure ranks varied across samples: "


def _exact_contraction(columns, point) -> sp.Matrix:
    """Column j holds i(d/dz^j) of a form, evaluated exactly at ``point``;
    one row per monomial of the images."""
    keys = sorted(set().union(*(c.terms for c in columns)))
    return sp.Matrix(len(keys), len(columns),
                     lambda r, j: sp.sympify(columns[j].terms.get(keys[r], 0)).xreplace(point))


def _exact_ranks(theta, chart, samples, seed) -> list[dict]:
    """ker theta, ker dtheta, their intersection (premult) and the core
    (with ker omega too) at each seeded point: the kernels of the stacked
    contraction matrices of omega = d^m x, theta and calculus.d(theta), in
    exact Rationals at the points structure_diagnostics draws."""
    forms = [volume_form(chart), theta, d(theta)]
    columns = [[contract(VectorField.basis(chart, z), f) for z in chart.coords]
               for f in forms]
    params = set().union(*(c.free_symbols for f in forms
                           for c in f.terms.values())) - set(chart.coords)
    args = list(chart.coords) + sorted(params, key=lambda s: s.name)
    rng = random.Random(seed)
    dim = chart.dim
    out = []
    for _ in range(samples):
        point = ex.random_rational_point(args, rng)
        omega, th, dth = (_exact_contraction(cols, point) for cols in columns)
        out.append(dict(ker_theta=dim - ex.exact_rank(th),
                        ker_dtheta=dim - ex.exact_rank(dth),
                        premult=dim - ex.exact_rank(th.col_join(dth)),
                        core=dim - ex.exact_rank(omega.col_join(th).col_join(dth))))
    return out


def _agrees_with_exact_ranks(lag, samples=8, seed=42):
    """The report of Theta_L at the check defaults against the exact ranks:
    the generic point's ranks are reported (the largest ranks of theta,
    dtheta, their stack and the core's stack, compared in that order; the
    first such point), and a note says when any point's exact ranks differ
    from them."""
    rep = structure_diagnostics(lag.theta(), lag.chart, samples=samples, seed=seed)
    exact = _exact_ranks(lag.theta(), lag.chart, samples, seed)
    generic = min(exact, key=lambda r: (r["ker_theta"], r["ker_dtheta"], r["premult"],
                                        r["core"]))
    name = lag.spec.name
    assert (rep.rank_ker_theta, rep.rank_ker_dtheta, rep.k) == (
        generic["ker_theta"], generic["ker_dtheta"], generic["core"]), name
    assert rep.is_premulticontact == (generic["premult"] > 0), name
    assert rep.is_multicontact == (generic["premult"] == 0
                                   and generic["ker_dtheta"] > 0), name
    if any(r != generic for r in exact):
        assert any(note.startswith(VARIED) for note in rep.notes), name
    return rep, exact


class TestStructureAgainstExactRanks:
    def test_bundled_models(self, models):
        for spec, _ in models.values():
            _agrees_with_exact_ranks(LagrangianSystem(spec))

    def test_seed1_corpus(self, seed1_corpus):
        for spec in seed1_corpus:
            _agrees_with_exact_ranks(LagrangianSystem(spec))

    def test_varied_ranks_are_noted(self, seed1_corpus):
        # the core of corpus_005 grows at the third point only
        spec, = [s for s in seed1_corpus if s.name == "corpus_005"]
        rep, exact = _agrees_with_exact_ranks(LagrangianSystem(spec))
        assert [r["core"] for r in exact] == [3, 3, 4, 3, 3, 3, 3, 3]
        assert rep.k == 3 and len(rep.notes) == 1 and rep.notes[0].startswith(VARIED)
