import cmath
import inspect
import pathlib
import random
import re

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympy.polys.matrices import DomainMatrix

from mcfield import cli, numsim
from mcfield import expr as ex
from mcfield.calculus import structure_diagnostics
from mcfield.hamiltonian import HamiltonianSystem
from mcfield.lagrangian import LagrangianSystem
from mcfield.modelfile import load_model
from mcfield.unified import UnifiedSystem

from conftest import TEST_MODELS, model_path


class TestCoordinates:
    def test_roles_round_trip(self):
        cases = [
            (ex.base(1), ex.Role.BASE, (1,)),
            (ex.field(2), ex.Role.FIELD, (2,)),
            (ex.velocity(1, 3), ex.Role.VELOCITY, (1, 3)),
            (ex.momentum(0, 2), ex.Role.MOMENTUM, (0, 2)),
            (ex.action(0), ex.Role.ACTION, (0,)),
            (ex.second_jet(1, 0, 2), ex.Role.SECOND_JET, (1, 0, 2)),
            (ex.action_grad(1, 0), ex.Role.ACTION_GRAD, (1, 0)),
            (ex.momentum_grad(0, 1, 1), ex.Role.MOMENTUM_GRAD, (0, 1, 1)),
        ]
        for sym, role, idx in cases:
            assert ex.role_of(sym) is role
            assert ex.indices_of(sym) == idx

    def test_second_jet_symmetry(self):
        assert ex.second_jet(0, 1, 0) == ex.second_jet(0, 0, 1)

    def test_plain_symbols_have_no_role(self):
        assert ex.role_of(sp.Symbol("gamma")) is None


class TestParser:
    def test_full_expression(self):
        e = ex.parse_expr("1/2*dy[0,0]^2 - y[0]*s[0] + p[0,0]", 1, 1)
        expected = (sp.Rational(1, 2) * ex.velocity(0, 0) ** 2
                    - ex.field(0) * ex.action(0) + ex.momentum(0, 0))
        assert sp.expand(e - expected) == 0

    def test_functions_and_powers(self):
        e = ex.parse_expr("sin(x[0])^2 + cos(x[0])^2", 1, 1)
        assert sp.simplify(e - 1) == 0

    def test_index_out_of_range_position(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse_expr("y[0] + dy[0,9]", 2, 1)
        assert err.value.col == 8
        assert "9" in str(err.value)

    # an m=2, n=3 chart: each index of every indexed role one past its range,
    # and every indexed role with the wrong number of indices
    @pytest.mark.parametrize("text,message", [
        ("x[2]", "base index 2 out of range 0..1"),
        ("y[3]", "field index 3 out of range 0..2"),
        ("dy[3,0]", "field index 3 out of range 0..2"),
        ("dy[0,2]", "base index 2 out of range 0..1"),
        ("p[3,1]", "field index 3 out of range 0..2"),
        ("p[2,2]", "base index 2 out of range 0..1"),
        ("s[2]", "base index 2 out of range 0..1"),
        ("d2y[3,0,0]", "field index 3 out of range 0..2"),
        ("d2y[0,2,0]", "base index 2 out of range 0..1"),
        ("d2y[0,0,2]", "base index 2 out of range 0..1"),
        ("ds[2,0]", "base index 2 out of range 0..1"),
        ("ds[0,2]", "base index 2 out of range 0..1"),
        ("dp[3,0,0]", "field index 3 out of range 0..2"),
        ("dp[0,2,1]", "base index 2 out of range 0..1"),
        ("dp[0,1,2]", "base index 2 out of range 0..1"),
        ("x[0,0]", "x takes 1 indices, got 2"),
        ("y[0,1]", "y takes 1 indices, got 2"),
        ("dy[0]", "dy takes 2 indices, got 1"),
        ("p[0,0,0]", "p takes 2 indices, got 3"),
        ("s[0,1]", "s takes 1 indices, got 2"),
        ("d2y[0,0]", "d2y takes 3 indices, got 2"),
        ("ds[0]", "ds takes 2 indices, got 1"),
        ("dp[0,0,0,0]", "dp takes 3 indices, got 4"),
    ])
    def test_index_errors(self, text, message):
        with pytest.raises(ex.ParseError) as err:
            ex.parse_expr("1 + " + text, 2, 3)
        assert str(err.value) == f"{message} (line 1, column 5)"

    def test_unknown_identifier(self):
        with pytest.raises(ex.ParseError):
            ex.parse_expr("y[0] + mystery", 1, 1)

    def test_declared_parameters(self):
        gamma = sp.Symbol("gamma")
        e = ex.parse_expr("gamma*s[0]", 1, 1, parameters={"gamma": gamma})
        assert e == gamma * ex.action(0)

    def test_parameter_values_substituted(self):
        e = ex.parse_expr("gamma*s[0]", 1, 1, parameters={"gamma": sp.Rational(1, 10)})
        assert e == ex.action(0) / 10

    def test_metric_token(self):
        g = ((sp.Integer(1), sp.Integer(0)), (sp.Integer(0), sp.Integer(-1)))
        e = ex.parse_expr("g[1,1]*dy[0,1]^2", 2, 1, metric=g)
        assert e == -ex.velocity(0, 1) ** 2

    def test_metric_without_declaration(self):
        with pytest.raises(ex.ParseError):
            ex.parse_expr("g[0,0]", 1, 1)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse_expr("y[0]^y[0]", 1, 1)

    def test_pext(self):
        assert ex.parse_expr("pext", 1, 1) == ex.extended_momentum()


class TestPrinter:
    def test_rational_rendering(self):
        assert ex.to_grammar(sp.Rational(3, 7)) == "3/7"
        assert ex.to_grammar(sp.Rational(1, 2) * ex.field(0)) == "y[0]/2"

    @given(st.integers(-6, 6), st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_polynomial(self, c, d, k):
        e = sp.Integer(c) * ex.field(0) ** d + ex.velocity(0, 0) * ex.action(0) ** k
        text = ex.to_grammar(sp.expand(e))
        back = ex.parse_expr(text, 1, 1)
        assert sp.expand(back - e) == 0


class TestNormalFormAndEquality:
    def test_normal_form_cancels(self):
        # exact_cancel is the one normal form: a common factor of numerator
        # and denominator cancels, and equal's exact tier decides through it
        y = ex.field(0)
        assert ex.exact_cancel(sp.Matrix([(y ** 2 - 1) / (y - 1)])) == \
            ex.exact_cancel(sp.Matrix([y + 1]))
        r = ex.equal((y ** 2 - 1) / (y - 1), y + 1)
        assert r.verdict is ex.Verdict.EXACT_EQUAL and bool(r)

    def test_exact_equal(self):
        y = ex.field(0)
        r = ex.equal((y + 1) ** 2, y ** 2 + 2 * y + 1)
        assert r.verdict is ex.Verdict.EXACT_EQUAL and bool(r)

    def test_numerically_equal_transcendental(self):
        x = ex.base(0)
        r = ex.equal(sp.sin(2 * x), 2 * sp.sin(x) * sp.cos(x))
        assert bool(r)
        assert r.verdict in (ex.Verdict.EXACT_EQUAL, ex.Verdict.NUMERICALLY_EQUAL)

    def test_not_equal(self):
        r = ex.equal(ex.field(0), ex.field(0) + 1)
        assert r.verdict is ex.Verdict.NOT_EQUAL and not bool(r)

    def test_equal_is_seeded_deterministic(self):
        a, b = sp.sin(ex.base(0)) ** 2, 1 - sp.cos(ex.base(0)) ** 2
        r1 = ex.equal(a, b, seed=7)
        r2 = ex.equal(a, b, seed=7)
        assert r1.verdict == r2.verdict

    def test_random_rational_points_in_range(self):
        # each draw is num/den with num in [-12, 12] \ {0} and den in [2, 7],
        # so |v| <= 6
        rng = random.Random(0)
        draws = [v for _ in range(1000)
                 for v in ex.random_rational_point([ex.field(0)], rng).values()]
        assert len(draws) == 1000
        for v in draws:
            assert v.is_Rational and abs(v) <= 6
            assert any((v * den).is_Integer and 1 <= abs(v * den) <= 12
                       for den in range(2, 8)), v
        # the range check can fail: draws reach beyond [-3, 3]
        assert any(abs(v) > 3 for v in draws)


class TestSampling:
    def test_points_are_the_seeded_draws(self):
        args = [ex.field(0), ex.base(0), sp.Symbol("a")]
        rng = random.Random(5)
        draws = [[float(v) for v in ex.random_rational_point(args, rng).values()]
                 for _ in range(4)]
        assert ex.sampled(args, args, 4, 5) == draws
        assert ex.sampled(sp.Matrix([args, [1, 2, 3]]), args, 4, 5) == [
            [d, [1, 2, 3]] for d in draws]

    @pytest.mark.parametrize("M,rank", [
        ([], 0), (np.zeros((2, 3)), 0), ([[1, 2], [3, 4]], 2), (np.eye(3), 3),
        # an absolute 1e-9 tolerance would count both singular values
        (np.diag([1e3, 5e-7]), 1),
    ])
    def test_numeric_rank(self, M, rank):
        assert ex.numeric_rank(M) == rank


class TestGeneric:
    def test_largest_value_without_note_when_points_agree(self):
        notes = []
        assert ex.generic([2, 3, 1], "rank", notes) == 3
        assert notes == ["rank varied across samples: [1, 2, 3]"]
        notes = []
        assert ex.generic([2, 2, 2], "rank", notes) == 2 and notes == []

    def test_first_of_equals(self):
        first, second = (3, True), (3, True)
        assert ex.generic([(1, False), first, second], "ranks", []) is first

    def test_tuples_compare_in_order(self):
        notes = []
        assert ex.generic([(2, 5), (3, 0), (3, 1), (1, 9)], "ranks", notes) == (3, 1)
        assert notes == ["ranks varied across samples: [(1, 9), (2, 5), (3, 0), (3, 1)]"]

    def test_identical_note_is_not_repeated(self):
        notes = ["earlier note"]
        ex.generic([1, 2], "rank", notes)
        ex.generic([2, 1, 2], "rank", notes)
        ex.generic([2, 3], "rank", notes)
        assert notes == ["earlier note", "rank varied across samples: [1, 2]",
                         "rank varied across samples: [2, 3]"]


_PARAM = sp.Symbol("a", real=True)   # real, so Matrix.pinv has no conjugates


def _integer_matrices(rows=st.integers(1, 4), cols=st.integers(1, 4)):
    return st.tuples(rows, cols).flatmap(lambda rc: st.lists(
        st.integers(-3, 3), min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]).map(
            lambda xs: sp.Matrix(rc[0], rc[1], xs)))


def _parametric_matrices():
    """Entries p + q a: one-parameter matrices over ZZ(a)."""
    return st.tuples(_integer_matrices(st.integers(1, 3), st.integers(1, 3)),
                     st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda t: t[0] + _PARAM * (t[1] * sp.ones(*t[0].shape)
                                   + t[2] * sp.eye(*t[0].shape)))


_EDGE_CASES = [sp.zeros(3, 2), sp.eye(3), sp.Matrix([[1, -2, 3]]),
               sp.Matrix([[_PARAM], [0], [2]]), sp.Matrix([[_PARAM, 1], [_PARAM, 1]]),
               sp.Matrix([[1, _PARAM], [_PARAM, 1]])]


def _same(a: sp.Matrix, b: sp.Matrix) -> bool:
    return a.shape == b.shape and (a - b).applyfunc(sp.cancel).is_zero_matrix


def _agrees_with_sympy(M: sp.Matrix) -> None:
    assert ex.exact_rank(M) == M.rank()
    ours, ref = ex.exact_nullspace(M), M.nullspace()
    assert len(ours) == len(ref)
    assert all(_same(u, v) for u, v in zip(ours, ref))
    assert _same(ex.exact_pinv(M), M.pinv())


class TestExactLinearAlgebra:
    @pytest.mark.parametrize("M", _EDGE_CASES, ids=lambda M: "x".join(map(str, M.shape)))
    def test_edge_cases(self, M):
        _agrees_with_sympy(M)

    @given(_integer_matrices())
    @settings(max_examples=80, deadline=None)
    def test_integer_matrices(self, M):
        _agrees_with_sympy(M)

    @given(_parametric_matrices())
    @settings(max_examples=15, deadline=None)
    def test_one_parameter_matrices(self, M):
        _agrees_with_sympy(M)

    def test_pinv_defining_identities(self):
        M = sp.Matrix([[_PARAM, 1, 0], [2 * _PARAM, 2, 0]])
        P = ex.exact_pinv(M)
        assert _same(M * P * M, M) and _same(P * M * P, P)
        assert _same((M * P).T, M * P) and _same((P * M).T, P * M)


# ---------------------------------------------------------------------------
# the structural differentiator against sp.diff


def _same_tree(a, b) -> bool:
    return sp.srepr(a) == sp.srepr(b)


_GRAMMAR_LEAVES = ["1", "2", "3", "x[0]", "y[0]", "y[1]", "dy[0,0]", "dy[1,0]", "s[0]",
                   "p[0,0]", "k"]


def _grammar_text():
    """Model-grammar text: sums, products, quotients, integer powers
    (negative ones included) and the five function kernels.  Products with
    a rational coefficient and two more factors are drawn on their own: how
    the product rule multiplies out shows only in them."""
    def grow(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
            st.tuples(st.integers(-3, 3), st.integers(2, 3), sub, sub, st.integers(1, 3)).map(
                lambda t: f"{t[0]}/{t[1]}*({t[2]})*({t[3]})^{t[4]}"),
            st.tuples(sub, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(sorted(ex._FUNCS)), sub).map(lambda t: f"{t[0]}({t[1]})"))
    return st.recursive(st.sampled_from(_GRAMMAR_LEAVES), grow, max_leaves=10)


class TestPrinterRoundTrip:
    @given(_grammar_text())
    # square roots print as sqrt, e as exp(1)
    @example("sqrt(2)*y[0]")
    @example("1/sqrt(1+y[0]^2)")
    @example("sqrt(y[0])^3")
    @example("exp(1)*y[0]")
    # nested roots, and the I and pi of sqrt and log of a negative number
    @example("sqrt(sqrt(y[0]))^-3*y[1]")
    @example("sqrt(1-3)*log(1-3)/y[0]")
    # cos and sin of an imaginary argument are cosh and sinh
    @example("cos(sqrt(0-2))*y[0]^2")
    @example("y[1]-sin(sqrt(0-1)*y[0]/2)^3")
    @settings(max_examples=150, deadline=None)
    def test_renders_every_tree_the_parser_builds(self, text):
        params = {"k": sp.Symbol("k")}
        e = ex.parse_expr(text, 1, 2, parameters=params)
        if e.has(sp.zoo, sp.nan):
            return
        assert ex.equal(ex.parse_expr(ex.to_grammar(e), 1, 2, parameters=params), e), text


_GRAMMAR_COORDS = [ex.base(0), ex.field(0), ex.field(1), ex.velocity(0, 0),
                   ex.velocity(1, 0), ex.action(0), ex.momentum(0, 0),
                   ex.momentum(1, 0), sp.Symbol("k")]


def _run_bundled_pipeline(models) -> None:
    """What the CLI computes for each bundled model: derive (three
    formalisms, machine format), check and unify; then compile_problem."""
    for name, (spec, sim) in models.items():
        path = model_path(name)
        for formalism in ("lagrangian", "hamiltonian", "unified"):
            cli.main(["derive", path, "--formalism", formalism, "--format", "machine"])
        cli.main(["check", path])
        cli.main(["unify", path])
        try:
            numsim.compile_problem(LagrangianSystem(spec).herglotz_el_equations(), sim)
        except numsim.CompileError:
            pass


class TestDiff:
    @given(_grammar_text())
    # a product multiplied out pairwise, 1/2*(2*x0 + 2) -> x0 + 1, is not
    # the one Mul sympy builds per Leibniz term
    @example("1/2*cos(1)*(1+x[0])^2")
    # 0*zoo is nan: the z-free factors' Leibniz terms are not all 0
    @example("k*y[0]*(1/(y[1]-y[1]))")
    # z-free subtrees that are 0 by recursion: a power, a sum inside a
    # product, a function node
    @example("(y[1]+1)^3*y[0]")
    @example("(y[1]+k)*y[0]^2")
    @example("sin(y[1])*y[0]")
    @settings(max_examples=150, deadline=None)
    def test_grammar_expressions_match_sympy(self, text):
        e = ex.parse_expr(text, 1, 2, parameters={"k": sp.Symbol("k")})
        for z in _GRAMMAR_COORDS:
            assert _same_tree(ex.diff(e, z), sp.diff(e, z)), (text, z)

    def test_fresh_symbols_after_clear_cache(self):
        L = ex.velocity(0, 0) ** 2 * ex.field(0)
        sp.core.cache.clear_cache()
        z = ex.velocity(0, 0)   # a new object, equal by value
        assert _same_tree(ex.diff(L, z), 2 * ex.field(0) * ex.velocity(0, 0))

    def test_pipeline_calls_match_sympy(self, models, monkeypatch, capsys):
        # every top-level partial taken while the bundled models go through
        # derive (three formalisms), check, unify and compile_problem
        calls, structural = [], ex.diff

        def recording(e, z):
            calls.append((e, z))
            return structural(e, z)

        monkeypatch.setattr(ex, "diff", recording)
        _run_bundled_pipeline(models)
        capsys.readouterr()
        # 596 at the last count: the field equations read the derivative
        # table instead of differentiating the momenta again
        assert len(calls) > 500
        bad = [(e, z) for e, z in calls if not _same_tree(structural(e, z), sp.diff(e, z))]
        assert not bad

    def test_corpus_tables_match_sympy(self, seed1_corpus):
        for spec in seed1_corpus:
            lag = LagrangianSystem(spec)
            L, chart = lag.L, lag.chart
            vel = [ex.velocity(A, mu) for A, mu in lag._vel_order]
            tables = [(lag.momenta, [sp.diff(L, v) for v in vel]),
                      (lag.field_partials, [sp.diff(L, ex.field(A)) for A in range(lag.n)]),
                      (lag.action_partials, [sp.diff(L, ex.action(mu)) for mu in range(lag.m)])]
            for p, jet in zip(lag.momenta, lag.momentum_jet):
                ref = {z: sp.diff(p, z) for z in chart.coords}
                tables.append((jet, {z: dz for z, dz in ref.items() if dz != 0}))
            for ours, ref in tables:
                assert _same_tree(ours, ref), spec.name

    def test_one_differentiator(self):
        # the package differentiates only through expr.diff: its two
        # fallbacks are the only calls into sympy's differentiation
        src = pathlib.Path(ex.__file__).parent
        pattern = re.compile(r"(\w*)\.diff\(|\bDerivative\(|\.jacobian\(|\bsp\.hessian\(")
        hits = [(path.name, line.strip())
                for path in sorted(src.glob("*.py"))
                for line in path.read_text().splitlines()
                for m in pattern.finditer(line) if m.group(1) != "ex"]
        assert hits == [("expr.py", "return sp.diff(e, z)")] * 2
        assert all("return sp.diff(e, z)" in inspect.getsource(f) for f in (ex.diff, ex._diff))


# ---------------------------------------------------------------------------
# expand against sp.expand


def _run_spec_pipeline(specs) -> None:
    """What derive (three formalisms, machine format), check and unify
    compute for each spec."""
    for spec in specs:
        lag = LagrangianSystem(spec)
        lag.herglotz_el_equations().to_machine()
        HamiltonianSystem.from_legendre(LagrangianSystem(spec)).hhdw_equations().to_machine()
        UnifiedSystem(LagrangianSystem(spec)).sr_field_equations().equations.to_machine()
        lag = LagrangianSystem(spec)
        lag.regularity()
        structure_diagnostics(lag.theta(), lag.chart)
        lag = LagrangianSystem(spec)
        uni = UnifiedSystem(lag)
        uni.sr_field_equations().equations.to_text()
        uni.constraint_algorithm().to_text()
        lag.herglotz_el_equations()
        uni.project_to_lagrangian()


def _not_polynomial(e: sp.Expr) -> bool:
    """Whether ``e`` holds a node expand's native walk leaves to sympy: a
    Float, a function, a non-integer exponent or a negative power of a
    non-symbol."""
    return any(n.is_Float or isinstance(n, sp.Function)
               or (n.is_Pow and not (n.exp.is_Integer and (n.exp > 0 or n.base.is_Symbol)))
               for n in sp.preorder_traversal(e))


class TestExpand:
    @given(_grammar_text())
    # shapes that are not sums of monomials; a power of a product is one
    # once sympy has built it, y0^2*y1^2
    @example("(y[0]+y[1])^-2")
    @example("x[0]*(y[0]+1)")
    @example("exp(y[0]+y[1])")
    @example("(y[0]*y[1])^2")
    @example("sqrt(y[0])")
    # sympy's expansion: a negative power of a sum, a function, a
    # non-integer exponent, and I and pi
    @example("(y[0]+1)^-2*y[1]")
    @example("sin(y[0])*(y[0]+1)")
    @example("sqrt(y[0])*(y[0]+1)")
    @example("log(1-3)*(y[0]+1)")
    # the native walk: a Laurent cancellation, a result of 0, Maxwell's
    # shape and a high power
    @example("x[0]*(1/x[0] + y[0])")
    @example("(y[0]+1)^2 - y[0]^2 - 2*y[0] - 1")
    @example("-1/2*(1/k)*(dy[1,0]-dy[0,1])^2")
    @example("(y[0]+k)^9")
    @settings(max_examples=150, deadline=None)
    def test_grammar_expressions_match_sympy(self, text):
        e = _grammar(text, m=2)
        assert _same_tree(ex.expand(e), sp.expand(e)), text

    def test_float_coefficient_goes_to_sympy(self):
        y0, y1 = ex.field(0), ex.field(1)
        for e in (sp.Float("0.1") * (y0 + 1) ** 2 * y1, (sp.Float("0.3") * y0 + y1 / 3) ** 3):
            assert not _same_tree(e, sp.expand(e))
            assert _same_tree(ex.expand(e), sp.expand(e))

    def test_expanded_polynomial_is_returned_as_is(self):
        e = sp.expand(_grammar("k*(x[0]+y[0])^3 - 1/2*p[0,0]*y[1]^-2 + 3"))
        assert ex.expand(e) is e

    def test_pipeline_calls_match_sympy(self, models, seed1_corpus, monkeypatch, capsys):
        # every expansion made while the bundled models go through derive
        # (three formalisms), check, unify and compile_problem, and the
        # seed-1 corpus through derive, check and unify
        calls, structural = [], ex.expand

        def recording(e):
            calls.append(e)
            return structural(e)

        monkeypatch.setattr(ex, "expand", recording)
        _run_bundled_pipeline(models)
        _run_spec_pipeline(seed1_corpus)
        capsys.readouterr()
        monkeypatch.undo()
        assert len(calls) > 2000
        # trees returned as they are, and trees multiplied out
        assert any(ex.expand(e) is e for e in calls)
        assert sum(not _same_tree(ex.expand(e), e) for e in calls) > 100
        bad = [e for e in calls if not _same_tree(ex.expand(e), sp.expand(e))]
        assert not bad

    def test_fallback_sees_only_non_polynomials(self, models, monkeypatch, capsys):
        # sympy's expansion is reached only by what the native walk leaves
        # to it; the test models hold sqrt, log and cos
        fallback, sympy_expand = [], sp.expand

        def recording(e, *args, **kwargs):
            fallback.append(e)
            return sympy_expand(e, *args, **kwargs)

        monkeypatch.setattr(sp, "expand", recording)
        _run_bundled_pipeline(models)
        for path in sorted(TEST_MODELS.glob("*.model")):
            _run_spec_pipeline([load_model(path)[0]])
        capsys.readouterr()
        monkeypatch.undo()
        assert fallback
        assert [e for e in fallback if not _not_polynomial(e)] == []

    def test_one_expansion_path(self):
        # sympy's expand is called only by expr.expand's fallback; the other
        # .expand() calls are Form.expand
        assert _source_hits(r"\bsp\.expand\b|(?<!\bex)\.expand\(") == [
            ("calculus.py", "out = out.expand()"),
            ("calculus.py", "out.exterior = dout.expand()"),
            ("expr.py", "return sp.expand(e)")]
        assert "return sp.expand(e)" in inspect.getsource(ex.expand)


# ---------------------------------------------------------------------------
# exact_cancel against sp.cancel


def _grammar(text: str, m: int = 1) -> sp.Expr:
    return ex.parse_expr(text, m, 2, parameters={"k": sp.Symbol("k")})


def _cancels_like_sympy(M: sp.Matrix) -> bool:
    ours = ex.exact_cancel(M)
    return ours.shape == M.shape and all(
        _same_tree(a, sp.cancel(e)) for a, e in zip(ours, M))


class TestExactCancel:
    @given(st.lists(_grammar_text(), min_size=1, max_size=4))
    # the function kernels make sin(..), exp(..) generators: the fallback
    @example(["sin(y[0])/(2*sin(y[0])^2)", "(x[0]+1)/(2*x[0]+2)"])
    @example(["(2*y[0]-2*y[1])/(y[1]-y[0])^2", "k/2+1/(3*p[0,0])", "3"])
    @settings(max_examples=150, deadline=None)
    def test_grammar_matrices_match_cancel(self, texts):
        # entries share one domain, so each column is cancelled jointly
        assert _cancels_like_sympy(sp.Matrix([_grammar(t) for t in texts])), texts

    @pytest.mark.parametrize("M", [sp.Matrix(0, 1, []), sp.zeros(2, 2),
                                   sp.Matrix([[1, sp.Rational(-3, 4)]]),
                                   sp.Matrix([sp.zoo * ex.field(0), sp.nan])],
                             ids=["empty", "zeros", "rationals", "non-finite"])
    def test_edge_cases(self, M):
        assert _cancels_like_sympy(M)

    def test_pipeline_sites_match_cancel(self, models, seed1_corpus, monkeypatch):
        # every matrix the five call sites pass (velocity representative,
        # image constraints and H in the Legendre map; restricted
        # coefficient matrix and candidates in the ladder)
        calls, exact = [], ex.exact_cancel

        def recording(M):
            calls.append(M)
            return exact(M)

        monkeypatch.setattr(ex, "exact_cancel", recording)
        specs = [spec for spec, _ in models.values()] + list(seed1_corpus)
        for spec in specs:
            lag = LagrangianSystem(spec)
            HamiltonianSystem.from_legendre(lag)
            UnifiedSystem(lag).constraint_algorithm()
        monkeypatch.undo()
        assert len(calls) > 4 * len(specs)
        # the domain round trip, not only the fallback, is exercised
        domains = [DomainMatrix.from_Matrix(M).domain for M in calls]
        assert sum(d.is_PolynomialRing or d.is_FractionField for d in domains) > 50
        bad = [M for M in calls if not _cancels_like_sympy(M)]
        assert not bad


# ---------------------------------------------------------------------------
# sampled against lambdify


def _lambdify_reference(exprs, args, samples, seed) -> list:
    """The values ``sampled`` gives, or the exception class it raises,
    through ``sp.lambdify(..., modules="math")`` under the same rule: of the
    seeded draws, at most 10 per point wanted, keep the first ``samples``
    at which no ArithmeticError or ValueError is raised and every value is
    finite and real; none kept is an ExprError."""
    fn = sp.lambdify(args, exprs, modules="math")
    rng = random.Random(seed)
    out = []
    for _ in range(10 * samples):
        point = ex.random_rational_point(args, rng)
        try:
            value = fn(*[float(point[a]) for a in args])
        except (ArithmeticError, ValueError):
            continue
        if all(cmath.isfinite(v) and not isinstance(v, complex) for v in _flat(value)):
            out.append(value)
            if len(out) == samples:
                return out
    if not out:
        raise ex.ExprError("no admissible point")
    return out


def _flat(value) -> list:
    return [v for item in value for v in _flat(item)] if isinstance(value, list) else [value]


def _outcome(f, *a):
    try:
        return f(*a)
    except Exception as err:   # the class is what is compared
        return type(err)


def _close(a, b) -> bool:
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close, a, b))
    if a != a or b != b:
        return a != a and b != b
    return cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


class TestSampledAgainstLambdify:
    @given(st.lists(_grammar_text(), min_size=1, max_size=3), st.integers(0, 50))
    # a sum that is 0 at a point can round to 0 in one term order and to
    # ~1e-16 in another, so the examples are fixed: a red run is a finding
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_grammar_values_match_lambdify(self, texts, seed):
        exprs = [_grammar(t) for t in texts]
        args = sorted(set().union(*(e.free_symbols for e in exprs)), key=str)
        ours = _outcome(ex.sampled, exprs, args, 4, seed)
        ref = _outcome(_lambdify_reference, exprs, args, 4, seed)
        if isinstance(ref, type):
            assert ours is ref, texts
        else:
            assert not isinstance(ours, type) and _close(ours, ref), (texts, ours, ref)

    @pytest.mark.parametrize("e", [
        sp.zoo * ex.field(0) + 1, sp.nan * ex.field(0),
        # a negative base to a fractional power is complex
        (ex.field(0) - 4) ** sp.Rational(3, 2), (ex.field(0) - 4) ** sp.Rational(-1, 3),
        # x**(1/2) is math.sqrt, x**(-1/2) is 1/math.sqrt: a math ValueError
        sp.sqrt(ex.field(0) - 4), 1 / sp.sqrt(ex.field(0) - 4),
        sp.log(ex.field(0) - 4), 1 / (ex.field(0) - 1),
        ex.field(0) ** -3 * sp.exp(ex.field(0)) * sp.E + sp.cos(ex.base(0)),
        # what the parser builds from cos and sin of an imaginary argument
        sp.cosh(ex.field(0)) / 7, sp.I * sp.sinh(ex.field(0) - ex.base(0)),
    ], ids=str)
    def test_special_nodes(self, e):
        args = [ex.field(0), ex.base(0)]
        ours = _outcome(ex.sampled, [e, [e]], args, 6, 3)
        ref = _outcome(_lambdify_reference, [e, [e]], args, 6, 3)
        if isinstance(ref, type):
            assert ours is ref
        else:
            assert not isinstance(ours, type) and _close(ours, ref)

    def test_shared_subtree_evaluated_once(self, monkeypatch):
        calls = []
        monkeypatch.setitem(ex._MATH, sp.sin, lambda v: calls.append(v) or np.sin(v))
        y = ex.field(0)
        shared = sp.sin(y + 1)
        vals = ex.sampled([shared, 2 * shared + y, [shared ** 2]], [y], 3, 0)
        assert len(calls) == 3
        assert all(v[0] == np.sin(c) and v[2] == [v[0] ** 2] for v, c in zip(vals, calls))

    def test_pole_is_redrawn(self):
        y = ex.field(0)
        rng = random.Random(0)
        drawn, second = (ex.random_rational_point([y], rng)[y] for _ in range(2))
        for e in (1 / (y - drawn), (y - drawn) ** -2, sp.log(y ** 2) / (y - drawn)):
            assert ex.sampled(e, [y], 1, 0) == [pytest.approx(float(e.subs(y, second)))]

    @pytest.mark.parametrize("e", [sp.sqrt(-1 - ex.field(0) ** 2), sp.I * ex.field(0),
                                   sp.nan * ex.field(0)], ids=str)
    def test_undefined_everywhere_raises(self, e):
        with pytest.raises(ex.ExprError, match="no admissible sample points in 30 draws"):
            ex.sampled(e, [ex.field(0)], 3, 0)


# ---------------------------------------------------------------------------
# one sampler, one cancellation


class TestExactProduct:
    @given(st.lists(_grammar_text(), min_size=6, max_size=6))
    @example(["sin(y[0])", "y[1]", "0", "1/y[0]", "k*dy[0,0]", "x[0]+1"])
    @settings(max_examples=100, deadline=None)
    def test_grammar_products_match_the_matrix_product(self, texts):
        # a 2x3 times a 3x1 and a 1x2 times a 2x3, zero entries included
        e = [_grammar(t) for t in texts]
        for M, N in ((sp.Matrix(2, 3, e), sp.Matrix(e[3:] + [0, 0, 0])[:3, :]),
                     (sp.Matrix([[e[0], 0]]), sp.Matrix(2, 3, e[::-1]))):
            ours, ref = ex.exact_product(M, N), ex.exact_cancel(M * N)
            assert ours.shape == ref.shape
            assert all(_same_tree(a, b) for a, b in zip(ours, ref)), texts

    @pytest.mark.parametrize("M,N", [
        (sp.Matrix(0, 2, []), sp.Matrix([1, ex.field(0)])),
        (sp.Matrix([[sp.zoo * ex.field(0), 1]]), sp.Matrix([0, ex.field(1)])),
        (sp.Matrix([[sp.oo, 1]]), sp.Matrix([ex.field(0), -ex.field(0)]))],
        ids=["empty", "zoo", "oo"])
    def test_edge_cases(self, M, N):
        # the non-finite entries take sympy's product: 0*zoo is nan there
        ours, ref = ex.exact_product(M, N), ex.exact_cancel(M * N)
        assert ours.shape == ref.shape and all(map(_same_tree, ours, ref))


def _source_hits(pattern: str) -> list[tuple[str, str]]:
    src = pathlib.Path(ex.__file__).parent
    return [(path.name, line.strip())
            for path in sorted(src.glob("*.py"))
            for line in path.read_text().splitlines() if re.search(pattern, line)]


def test_one_sampler_and_one_cancellation():
    # the package compiles no expression through sympy's lambdify (numsim
    # prints its evaluators itself); sympy's cancel is called only by
    # exact_cancel's fallback
    assert _source_hits(r"\blambdify\(") == []
    assert _source_hits(r"\bsp\.cancel[()]|\bcancel\(") == [
        ("expr.py", "return M.applyfunc(sp.cancel)")]
    assert "return M.applyfunc(sp.cancel)" in inspect.getsource(ex.exact_cancel)


def test_one_rank_rule_and_one_inversion():
    # the rank tolerance is read only where the rank rule lives, and the
    # matrix inversions left are exact_pinv's over the fraction field and
    # the integrator's solve for the highest time derivatives
    assert {name for name, _ in _source_hits(r"\bRANK_TOL\b")} == {"expr.py"}
    assert _source_hits(r"\.det\(|\.inv\(|\bLUsolve\(|linalg\.(qr|inv|det)\b") == [
        ("expr.py", "return (Ct * (C * Ct).inv() * (Bt * B).inv() * Bt).to_Matrix()"),
        ("numsim.py", "if M.det() == 0:"),
        ("numsim.py", "sol = M.LUsolve(b)")]
    assert "(C * Ct).inv()" in inspect.getsource(ex.exact_pinv)
    source = inspect.getsource(numsim.compile_problem)
    assert "if M.det() == 0:" in source and "sol = M.LUsolve(b)" in source
