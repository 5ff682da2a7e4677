"""Hamiltonian formalism on the momentum--action phase bundle.

The (restricted) Legendre map fixes (x, y, s) and sends p^mu_A to
dL/dy^A_mu; the extended map additionally sends the extended momentum to
L - y^A_mu dL/dy^A_mu = -E_L.  For velocity-quadratic Lagrangians the fiber
map p = W v + c is affine, W the symmetric Hessian, and it is inverted one
way whether W is singular or not (:func:`eliminate_velocities`): the
minimum-norm representative v = W^+ (p - c), the constraints from the kernel
of W that cut out the image (none in the (hyper)regular case), and the
Hamiltonian as the quadratic form H = 1/2 (p - c)^T W^+ (p - c) - L|_{v=0}.

The Hamilton--de Donder--Weyl equations emitted here use formal gradient
symbols: dy[A,mu] for the x^mu-gradient of y^A, dp[A,mu,nu] for the
x^nu-gradient of p^mu_A, ds[nu,mu] for the x^mu-gradient of s^nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from . import expr as ex
from .calculus import Form, canonical_form, one_form
from .chart import ChartKind, build_chart
from .lagrangian import Equation, EquationRole, EquationSet, LagrangianSystem

__all__ = ["VelocityElimination", "eliminate_velocities", "HamiltonianSystem"]


@dataclass
class VelocityElimination:
    """Result of solving p = dL/ddy for the velocities.

    ``representative`` maps each velocity symbol to the minimum-norm
    solution in the momentum-chart coordinates, which is the exact inverse
    when the Hessian is invertible, and ``hamiltonian`` is p v - L there.
    ``image_constraints`` cut out the Legendre image; the Lagrangian is
    regular exactly when there are none.
    """

    representative: dict[sp.Symbol, sp.Expr]
    image_constraints: list[sp.Expr]
    hamiltonian: sp.Expr

    @property
    def regular(self) -> bool:
        return not self.image_constraints


def eliminate_velocities(lag: LagrangianSystem) -> VelocityElimination:
    """Invert the fiber Legendre map for velocity-quadratic Lagrangians.

    The assignments are affine in the velocities, p = W v + c, with W the
    symmetric Hessian of the derivative table, so c is the momenta at rest
    (every velocity set to 0) once W is checked to be free of velocities.
    All linear algebra is exact over the fraction field of the parameters
    (``expr.exact_*``).  There is one inversion path, one reduction of W
    (``expr.exact_pinv``): the minimum-norm solution v+ = W^+ (p - c), and
    the linear conditions K (p - c) = 0, K's rows the kernel of W, that
    characterize the image; on an invertible W the pseudo-inverse is W^-1
    and K has no rows.  As L = L|_{v=0} + c^T v + v^T W v / 2, for every p
    H = p^T v+ - L(v+) is the quadratic form (p - c)^T v+ / 2 - L|_{v=0},
    by W^+ W W^+ = W^+ and the symmetry of W^+, so the representative is
    never put into L; H is cancelled once, as one sum.
    """
    pairs = [(A, mu) for A in range(lag.n) for mu in range(lag.m)]
    vel = [ex.velocity(A, mu) for A, mu in pairs]
    W = lag.hessian()
    if any(entry.free_symbols & set(vel) for entry in W):
        raise ex.ExprError("velocity elimination requires a Lagrangian "
                           "quadratic in the velocities")
    rest = {v: sp.S.Zero for v in vel}
    c = sp.Matrix([p.xreplace(rest) for p in lag.momenta])
    rhs = sp.Matrix([ex.momentum(A, mu) for A, mu in pairs]) - c

    W_pinv, K = ex.exact_pinv(W)
    v_min = ex.exact_product(W_pinv, rhs)
    constraints = [r for r in map(ex.expand, ex.exact_product(K, rhs)) if r != 0]
    H, = ex.exact_cancel(sp.Matrix([sp.Add(*[r * v for r, v in zip(rhs, v_min)]) / 2
                                    - lag.L.xreplace(rest)]))
    return VelocityElimination(dict(zip(vel, v_min)), constraints, H)


class HamiltonianSystem:
    """Hamiltonian data on the momentum--action chart.

    ``image_constraints`` is empty for (hyper)regular Lagrangians; in the
    almost-regular case it holds the linear conditions cutting out the
    Legendre image, and all equations are understood on that submanifold.
    ``velocity_representative`` gives every velocity on the momentum chart,
    as :func:`eliminate_velocities` returns it.
    """

    def __init__(self, m: int, n: int, H: sp.Expr, image_constraints: list[sp.Expr],
                 velocity_representative: dict[sp.Symbol, sp.Expr]):
        self.m = m
        self.n = n
        self.chart = build_chart(ChartKind.PSTAR, m, n)
        self.H = sp.sympify(H)
        bad = self.H.free_symbols & set(ex.velocity(A, mu)
                                        for A in range(n) for mu in range(m))
        if bad:
            raise ex.ExprError(f"Hamiltonian still contains velocities: {bad}")
        self.image_constraints = list(image_constraints)
        self.velocity_representative = dict(velocity_representative)

    @classmethod
    def from_legendre(cls, lag: LagrangianSystem) -> "HamiltonianSystem":
        """H = 1/2 (p - c)^T W^+ (p - c) - L|_{v=0}, from :func:`eliminate_velocities`."""
        elim = eliminate_velocities(lag)
        return cls(lag.m, lag.n, elim.hamiltonian, elim.image_constraints, elim.representative)

    # forms --------------------------------------------------------------
    def theta(self) -> Form:
        """Theta_H = -p^mu_A dy^A ^ d^{m-1}x_mu + H d^m x + ds^mu ^ d^{m-1}x_mu,
        with dTheta_H from the coordinate momenta and the gradient of H."""
        momenta = self.chart.momenta
        return canonical_form(self.chart, momenta, [{p: sp.S.One} for p in momenta],
                              self.H, ex.gradient(self.H, self.chart.coords))

    def sigma(self) -> Form:
        """Dissipation 1-form sigma_H = (dH/ds^mu) dx^mu."""
        return one_form(self.chart, {ex.base(mu): ex.diff(self.H, ex.action(mu))
                                     for mu in range(self.m)})

    # field equations ------------------------------------------------------
    def hhdw_equations(self) -> EquationSet:
        """Herglotz--Hamilton--de Donder--Weyl equations.

        The y-gradient equations read the velocity representative, which
        equals dH/dp when the Lagrangian is regular; in the almost-regular
        case the derivative of H in a direction transverse to the image is
        not defined by the data, and the image constraints are appended as
        constraint equations.  Likewise the action balance uses p v with the
        representative substituted, which equals p dH/dp on the image.
        """
        eqs = EquationSet("Herglotz-Hamilton-de Donder-Weyl equations",
                          self.m, self.n)
        rep = self.velocity_representative
        for A in range(self.n):
            for mu in range(self.m):
                eqs.equations.append(Equation(
                    f"y[{A}]/x[{mu}]", ex.velocity(A, mu), rep[ex.velocity(A, mu)],
                    EquationRole.EVOLUTION))
        for A in range(self.n):
            lhs = sum(ex.momentum_grad(A, mu, mu) for mu in range(self.m))
            rhs = -(ex.diff(self.H, ex.field(A))
                    + sum(ex.momentum(A, mu) * ex.diff(self.H, ex.action(mu))
                          for mu in range(self.m)))
            eqs.equations.append(Equation(f"p[{A}]", lhs, ex.expand(rhs),
                                          EquationRole.EVOLUTION))
        balance_lhs = sum(ex.action_grad(mu, mu) for mu in range(self.m))
        balance_rhs = ex.expand(
            sum(ex.momentum(A, mu) * rep[ex.velocity(A, mu)]
                for A in range(self.n) for mu in range(self.m)) - self.H)
        eqs.equations.append(Equation("action", balance_lhs, balance_rhs,
                                      EquationRole.ACTION_BALANCE))
        for i, cstr in enumerate(self.image_constraints):
            eqs.equations.append(Equation(f"image[{i}]", cstr, sp.Integer(0),
                                          EquationRole.CONSTRAINT))
        return eqs
