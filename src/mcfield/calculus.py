"""Exterior calculus over a coordinate chart, plus structure diagnostics.

Differential forms are stored sparsely: a k-form is a map from strictly
increasing k-tuples of coordinate positions to coefficient expressions.
Multivector fields are kept decomposable (an ordered list of factors), which
is all the unified formalism needs.  Contraction follows the iterated
convention: inserting a decomposable k-vector X_1 ^ ... ^ X_k into a form
applies i(X_1) first, i(X_k) last, and contracting a k-vector into a form of
degree < k gives zero.

``structure_diagnostics`` classifies a pair (theta, omega) numerically:
the coefficients are evaluated at the package's seeded sample points
(``expr.sampled``), and every kernel and every intersection of kernels is
sized there by the rank of a stacked contraction matrix under the one rank
rule of ``expr.numeric_rank`` (``expr.singular_rank``); the report holds
the generic ranks (``expr.generic``), tagged probabilistic.  It reads
d(theta) from ``Form.exterior``, which only ``canonical_form`` sets: the builder
assembles d(theta) from the partials its caller passes (the derivative
table for Theta_L, unit jets and a gradient for the coordinate momenta of
Theta_H, Theta_W and Theta_W0), so no coefficient is differentiated twice.
``d`` is the reference the tests compare that derivative with.
Coefficients that cancel to zero are dropped through ``expr.exact_cancel``,
the package's one cancellation path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Optional, Sequence

import numpy as np
import sympy as sp

from . import expr as ex
from .chart import Chart

__all__ = ["Form", "VectorField", "MultiVector", "d", "wedge", "contract",
           "pullback", "one_form", "volume_form", "coframe_volume_contraction",
           "canonical_form", "StructureReport", "structure_diagnostics"]


def _sort_with_sign(idx: tuple[int, ...]) -> tuple[Optional[tuple[int, ...]], int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Repeated indices give (None, 0).
    """
    if len(set(idx)) != len(idx):
        return None, 0
    arr = list(idx)
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return tuple(arr), sign


class Form:
    """A differential k-form on a chart, stored sparsely.

    ``exterior`` is d(self) when the form's builder supplied it
    (``canonical_form``), and None otherwise: sums, copies and
    simplifications of a form do not carry it.
    """

    def __init__(self, chart: Chart, degree: int,
                 terms: Optional[Mapping[tuple[int, ...], sp.Expr]] = None):
        if degree < 0 or degree > chart.dim:
            raise ex.ExprError(f"degree {degree} out of range for {chart}")
        self.chart = chart
        self.degree = degree
        self.terms: dict[tuple[int, ...], sp.Expr] = {}
        self.exterior: Optional[Form] = None
        if terms:
            for idx, coeff in terms.items():
                self._accumulate(tuple(idx), sp.sympify(coeff))

    def _accumulate(self, idx: tuple[int, ...], coeff: sp.Expr) -> None:
        if len(idx) != self.degree:
            raise ex.ExprError(f"index tuple {idx} has wrong length for a "
                               f"{self.degree}-form")
        sorted_idx, sign = _sort_with_sign(idx)
        if sign == 0:
            return
        coeff = sign * coeff
        cur = self.terms.get(sorted_idx)
        new = coeff if cur is None else cur + coeff
        if new == 0:
            self.terms.pop(sorted_idx, None)
        else:
            self.terms[sorted_idx] = new

    def copy(self) -> "Form":
        out = Form(self.chart, self.degree)
        out.terms = dict(self.terms)
        return out

    def simplify(self) -> "Form":
        """Drop terms whose coefficient cancels to zero; all coefficients
        are cancelled in one ``expr.exact_cancel``."""
        out = Form(self.chart, self.degree)
        cancelled = ex.exact_cancel(sp.Matrix(list(self.terms.values())))
        for idx, c in zip(self.terms, cancelled):
            if c != 0:
                out.terms[idx] = c
        return out

    def expand(self) -> "Form":
        """Expand every coefficient and drop those that vanish: exact for
        polynomial coefficients, and cheaper than :meth:`simplify`."""
        out = Form(self.chart, self.degree)
        for idx, coeff in self.terms.items():
            c = ex.expand(coeff)
            if c != 0:
                out.terms[idx] = c
        return out

    def is_zero(self) -> bool:
        return not self.simplify().terms

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        if other.degree != self.degree or other.chart is not self.chart and \
                other.chart.coords != self.chart.coords:
            raise ex.ExprError("can only add forms of equal degree on the same chart")
        out = self.copy()
        for idx, coeff in other.terms.items():
            out._accumulate(idx, coeff)
        return out

    def __sub__(self, other: "Form") -> "Form":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Form":
        out = Form(self.chart, self.degree)
        for idx, coeff in self.terms.items():
            c = sp.sympify(scalar) * coeff
            if c != 0:
                out.terms[idx] = c
        return out

    def __repr__(self):
        if not self.terms:
            return f"Form<{self.degree}>(0)"
        names = self.chart.coords
        bits = []
        for idx in sorted(self.terms):
            basis = "^".join(f"d{names[i]}" for i in idx) or "1"
            bits.append(f"({self.terms[idx]}) {basis}")
        return f"Form<{self.degree}>[" + " + ".join(bits) + "]"


@dataclass
class VectorField:
    """Vector field as a sparse map: coordinate position -> component."""

    chart: Chart
    components: dict[int, sp.Expr]

    @classmethod
    def basis(cls, chart: Chart, sym: sp.Symbol) -> "VectorField":
        return cls(chart, {chart.index(sym): sp.Integer(1)})

    def __repr__(self):
        names = self.chart.coords
        bits = [f"({c}) d/d{names[i]}" for i, c in sorted(self.components.items())]
        return "Vec[" + " + ".join(bits) + "]" if bits else "Vec[0]"


@dataclass
class MultiVector:
    """Decomposable multivector field: ordered wedge of vector factors."""

    factors: list[VectorField]

    @property
    def degree(self) -> int:
        return len(self.factors)


def d(form: Form) -> Form:
    """Exterior derivative."""
    out = Form(form.chart, form.degree + 1)
    coords = form.chart.coords
    for idx, coeff in form.terms.items():
        for j, cj in enumerate(coords):
            dc = ex.diff(coeff, cj)
            if dc == 0:
                continue
            out._accumulate((j,) + idx, dc)
    return out


def wedge(a: Form, b: Form) -> Form:
    out = Form(a.chart, a.degree + b.degree)
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            out._accumulate(ia + ib, ca * cb)
    return out


def _contract_vector(v: VectorField, form: Form) -> Form:
    if form.degree == 0:
        # inserting a vector into a 0-form gives zero by convention
        return Form(form.chart, 0)
    out = Form(form.chart, form.degree - 1)
    for idx, coeff in form.terms.items():
        for t, pos in enumerate(idx):
            comp = v.components.get(pos)
            if comp is None or comp == 0:
                continue
            rest = idx[:t] + idx[t + 1:]
            out._accumulate(rest, (-1) ** t * comp * coeff)
    return out


def contract(X, form: Form) -> Form:
    """Insert a vector or decomposable multivector field into a form.

    For X = X_1 ^ ... ^ X_k the factors are inserted innermost-first:
    i(X) form = i(X_k) ... i(X_1) form.  If k exceeds the form degree the
    result is the zero 0-form.
    """
    if isinstance(X, VectorField):
        return _contract_vector(X, form)
    if isinstance(X, MultiVector):
        if X.degree > form.degree:
            return Form(form.chart, 0)
        out = form
        for factor in X.factors:
            out = _contract_vector(factor, out)
        return out
    raise ex.ExprError(f"cannot contract object of type {type(X).__name__}")


def pullback(form: Form, source: Chart, coord_map: Mapping[sp.Symbol, sp.Expr]) -> Form:
    """Pull a form back along a map source -> form.chart.

    ``coord_map`` sends each target coordinate to its expression in source
    coordinates; target coordinates shared with the source default to
    themselves.
    """
    target = form.chart
    images = {}
    for c in target.coords:
        if c in coord_map:
            images[c] = sp.sympify(coord_map[c])
        elif c in source.coords:
            images[c] = c
        else:
            raise ex.ExprError(f"pullback: no image given for target coordinate {c}")
    # differentials of the images, as sparse 1-forms on the source chart
    diffs: dict[sp.Symbol, dict[int, sp.Expr]] = {}
    for c, img in images.items():
        row = {}
        for j, sj in enumerate(source.coords):
            dcomp = ex.diff(img, sj)
            if dcomp != 0:
                row[j] = dcomp
        diffs[c] = row
    out = Form(source, form.degree)
    subs = {c: img for c, img in images.items() if c is not img}
    for idx, coeff in form.terms.items():
        pulled_coeff = sp.sympify(coeff).xreplace(subs)
        if pulled_coeff == 0:
            continue
        # expand the wedge of pulled-back differentials
        rows = [diffs[target.coords[i]] for i in idx]
        for combo in itertools.product(*(r.items() for r in rows)):
            positions = tuple(p for p, _ in combo)
            factor = sp.Integer(1)
            for _, comp in combo:
                factor *= comp
            out._accumulate(positions, pulled_coeff * factor)
    return out


def one_form(chart: Chart, components: Mapping[sp.Symbol, sp.Expr]) -> Form:
    """The 1-form sum_z components[z] dz; zero components are dropped."""
    return Form(chart, 1, {(chart.index(z),): c for z, c in components.items()})


def volume_form(chart: Chart) -> Form:
    """d^m x, the coordinate volume of the base."""
    return Form(chart, chart.m, {tuple(range(chart.m)): sp.Integer(1)})


def coframe_volume_contraction(chart: Chart, mu: int) -> Form:
    """d^{m-1}x_mu = i(d/dx^mu) d^m x."""
    return _contract_vector(VectorField.basis(chart, ex.base(mu)), volume_form(chart))


def canonical_form(chart: Chart, momenta: Sequence[sp.Expr],
                   momentum_jet: Sequence[Mapping[sp.Symbol, sp.Expr]],
                   volume_coeff: sp.Expr,
                   volume_jet: Mapping[sp.Symbol, sp.Expr]) -> Form:
    """Theta = -p^mu_A dy^A ^ d^{m-1}x_mu + volume_coeff d^m x
    + ds^mu ^ d^{m-1}x_mu, with its exterior derivative

        dTheta = -dp^mu_A ^ dy^A ^ d^{m-1}x_mu + d(volume_coeff) ^ d^m x

    (the ds^mu terms are closed) in ``Theta.exterior``, assembled from the
    partials given rather than by differentiating the coefficients again.

    ``momenta`` lists p^mu_A in the (A-major, mu-minor) order: the Legendre
    images dL/dy^A_mu on the velocity side, the momentum coordinates on the
    momentum and unified sides.  ``momentum_jet`` holds the nonzero
    partials of each of them in the same order (a coordinate momentum's is
    {p^mu_A: 1}), and ``volume_jet`` those of ``volume_coeff``; base
    partials may be left out, as they wedge to zero with d^m x.
    """
    out = Form(chart, chart.m)
    dout = Form(chart, chart.m + 1)
    for A in range(chart.n):
        dyA = one_form(chart, {ex.field(A): sp.Integer(1)})
        for mu in range(chart.m):
            i = A * chart.m + mu
            dy_x = wedge(dyA, coframe_volume_contraction(chart, mu))
            out = out + (-momenta[i]) * dy_x
            dout = dout - wedge(one_form(chart, momentum_jet[i]), dy_x)
    out = out + volume_coeff * volume_form(chart)
    dout = dout + wedge(one_form(chart, volume_jet), volume_form(chart))
    for mu in range(chart.m):
        dsmu = one_form(chart, {ex.action(mu): sp.Integer(1)})
        out = out + wedge(dsmu, coframe_volume_contraction(chart, mu))
    out = out.expand()
    out.exterior = dout.expand()
    return out


# ---------------------------------------------------------------------------
# numeric structure diagnostics


@dataclass
class StructureReport:
    """Numeric classification of a pair (theta, omega) at sample points.

    All ranks come from SVD at randomly drawn points, so the verdict is
    probabilistic rather than certified; ``samples`` records how many points
    were used (fewer than asked when too few lie in the domain), and
    ``notes`` says when their ranks disagreed.
    """

    chart_dim: int
    rank_ker_omega: int
    rank_ker_theta: int
    rank_ker_dtheta: int
    rank_reeb: int
    k: int                  # the core: ker omega ∩ ker theta ∩ ker dtheta
    is_premulticontact: bool
    is_multicontact: bool
    is_special: bool
    samples: int
    probabilistic: bool = True
    notes: list[str] = dc_field(default_factory=list)

    def summary(self) -> str:
        if self.is_special:
            kind = ("special multicontact" if self.k == 0
                    else f"special premulticontact (k={self.k})")
        elif self.is_multicontact:
            kind = "multicontact"
        elif self.is_premulticontact:
            kind = "premulticontact, not special"
        else:
            kind = "neither multicontact nor premulticontact"
        return (f"{kind}; ranks: ker(omega)={self.rank_ker_omega}, "
                f"ker(theta)={self.rank_ker_theta}, ker(dtheta)={self.rank_ker_dtheta}, "
                f"core={self.k}, reeb={self.rank_reeb} "
                f"[probabilistic, {self.samples} samples]")


class _ContractionOp:
    """The linear map v -> i(v)form, assembled from numeric coefficients.

    ``keys`` are the form's monomials, in the order of the coefficient vector
    later passed to :meth:`at`.  Rows are indexed by the monomials of the
    image; column j holds i(d/dz^j)form.
    """

    def __init__(self, keys: Sequence[tuple[int, ...]], chart: Chart,
                 skip_basal: bool = False):
        rows: dict[tuple[int, ...], int] = {}
        self._entries: list[tuple[int, int, int, float]] = []  # row, col, key, sign
        base_positions = set(range(chart.m))
        for j in range(chart.dim):
            for k, idx in enumerate(keys):
                if j not in idx:
                    continue
                t = idx.index(j)
                rest = idx[:t] + idx[t + 1:]
                if skip_basal and set(rest) <= base_positions:
                    continue
                if rest not in rows:
                    rows[rest] = len(rows)
                self._entries.append((rows[rest], j, k, (-1.0) ** t))
        self.row_index = rows
        self.shape = (max(len(rows), 1), chart.dim)

    def at(self, coeffs: Sequence[float]) -> np.ndarray:
        M = np.zeros(self.shape)
        for r, c, k, sign in self._entries:
            M[r, c] += sign * coeffs[k]
        return M


def _nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel (columns)."""
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    u, s, vt = np.linalg.svd(M)
    return vt[ex.singular_rank(s):].T


def structure_diagnostics(theta: Form, chart: Chart, samples: int = 8,
                          seed: int = 42) -> StructureReport:
    """Classify (theta, omega=d^m x) numerically at random sample points.

    The coefficients of theta and d(theta) (``theta.exterior``, which
    ``canonical_form`` builds; a form without it raises ``ExprError``) are
    evaluated by the shared seeded sampler (``expr.sampled``: their DAG is
    walked once and run on floats at ``samples`` points drawn from
    ``seed``); the contraction matrices of theta, d(theta) and the Reeb
    condition are assembled from their values at each point.  A kernel of
    a stack of these matrices is an intersection of kernels.  omega = d^m x
    kills exactly the non-base directions: its kernel is the constant
    ``dim - m``, and restricting to it keeps the non-base columns.  Each
    point gives one tuple of ranks (theta, d(theta), their stack, the stack
    on the non-base columns, the Reeb operator) and whether the Reeb images
    span; the report is read from the generic tuple (``expr.generic``),
    with a note when the points disagree.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    m = chart.m
    dim = chart.dim
    dtheta = theta.exterior
    if dtheta is None:
        raise ex.ExprError("structure_diagnostics needs d(theta): build theta "
                           "with canonical_form")
    coeffs = list(theta.terms.values()) + list(dtheta.terms.values())
    # free parameters appearing in the coefficients get sampled alongside the
    # chart coordinates
    params: set[sp.Symbol] = set()
    for coeff in coeffs:
        params |= coeff.free_symbols
    params -= set(chart.coords)
    args = list(chart.coords) + sorted(params, key=lambda s: s.name)

    theta_keys = list(theta.terms)
    dtheta_keys = list(dtheta.terms)
    op_theta = _ContractionOp(theta_keys, chart)
    op_dtheta = _ContractionOp(dtheta_keys, chart)
    # Reeb condition: R in ker(omega) with i(R)dtheta annihilating ker(omega).
    # A form annihilates ker(omega) iff all its monomials are purely basal, so
    # only the non-basal rows of the dtheta contraction constrain R.
    op_reeb = _ContractionOp(dtheta_keys, chart, skip_basal=True)
    # condition (4): { i(R)Theta } exhausts the semibasic (m-1)-forms
    # annihilating ker(omega), i.e. span{ d^{m-1}x_mu }
    semibasic_keys = [tuple(k for k in range(m) if k != mu) for mu in range(m)]
    sb_rows = [r for key, r in op_theta.row_index.items() if key in semibasic_keys]
    other_rows = [r for key, r in op_theta.row_index.items()
                  if key not in semibasic_keys]

    points = []
    for vals in ex.sampled(coeffs, args, samples, seed):
        theta_vals, dtheta_vals = vals[:len(theta_keys)], vals[len(theta_keys):]
        Mth, Mdth = op_theta.at(theta_vals), op_dtheta.at(dtheta_vals)
        stacked = np.vstack([Mth, Mdth])
        # the Reeb fields in ker(omega) coordinates, and their images under Theta
        reeb = _nullspace(op_reeb.at(dtheta_vals)[:, m:])
        images = Mth[:, m:] @ reeb
        points.append((ex.numeric_rank(Mth), ex.numeric_rank(Mdth),
                       ex.numeric_rank(stacked), ex.numeric_rank(stacked[:, m:]),
                       dim - m - reeb.shape[1],
                       ex.numeric_rank(images[other_rows]) == 0
                       and ex.numeric_rank(images[sb_rows]) == m))

    notes: list[str] = []
    r_theta, r_dtheta, r_stack, r_core, r_reeb, span_ok = ex.generic(
        points, "structure ranks", notes)
    k, reeb_dim = dim - m - r_core, dim - m - r_reeb
    # Premulticontact: ker(theta) ∩ ker(dtheta) is nontrivial.  Special:
    # rank Reeb = m + k with k the characteristic rank, and the Reeb
    # contractions exhaust the semibasic (m-1)-forms (rank ker(omega) =
    # dim - m holds for omega = d^m x); it does not require ker(dtheta) to
    # be nontrivial.
    return StructureReport(
        chart_dim=dim,
        rank_ker_omega=dim - m,
        rank_ker_theta=dim - r_theta,
        rank_ker_dtheta=dim - r_dtheta,
        rank_reeb=reeb_dim,
        k=k,
        is_premulticontact=r_stack < dim,
        is_multicontact=r_stack == dim and r_dtheta < dim,
        is_special=reeb_dim == m + k and span_ok,
        samples=len(points),
        notes=notes,
    )
