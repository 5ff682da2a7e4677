"""Lagrangian formalism for action-dependent first-order field theories.

Given a Lagrangian density L(x, y, y_mu, s) on the velocity--action bundle,
this module builds the Lagrangian energy, the canonical m-form Theta_L, the
dissipation 1-form sigma_L, the Reeb fields (regular case), and the
Herglotz--Euler--Lagrange field equations

    d/dx^mu (dL/dy^B_mu) = dL/dy^B + (dL/ds^mu) dL/dy^B_mu ,
    ds^mu/dx^mu = L ,

written out with formal jet-gradient symbols (second jets d2y[A,mu,nu],
action gradients ds[nu,mu]).

L is expanded once per system, and each derivative of the expanded L is
taken once, by ``expr.diff``, into a derivative table: the momenta
dL/dy^A_mu and their partials (``momentum_jet``), dL/dy^A
(``field_partials``), dL/ds^mu (``action_partials``) and the energy's
gradient (``energy_jet``, by the chain rule).  sigma_L reads it, and the
field equations and the unified side read the momentum jet through
:func:`along`, the one total derivative.  ``theta`` passes the momentum and
energy jets to ``calculus.canonical_form``, which assembles d(Theta_L) from
them.  L as written stays as ``L``: the action-balance row prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import cached_property

import sympy as sp

from . import expr as ex
from .calculus import Form, VectorField, canonical_form, one_form
from .chart import ChartKind, ModelSpec, build_chart, validate_model

__all__ = ["EquationRole", "Equation", "EquationSet", "along",
           "Regularity", "RegularityReport", "LagrangianSystem"]


class EquationRole(Enum):
    EVOLUTION = "evolution"
    CONSTRAINT = "constraint"
    ACTION_BALANCE = "action-balance"
    SEMI_HOLONOMY = "semi-holonomy"


@dataclass
class Equation:
    name: str
    lhs: sp.Expr
    rhs: sp.Expr
    role: EquationRole

    @property
    def residual(self) -> sp.Expr:
        return self.lhs - self.rhs

    def __repr__(self):
        return f"{self.name}: {self.lhs} = {self.rhs}  [{self.role.value}]"


@dataclass
class EquationSet:
    title: str
    m: int
    n: int
    equations: list[Equation] = dc_field(default_factory=list)

    def of_role(self, role: EquationRole) -> list[Equation]:
        return [e for e in self.equations if e.role is role]

    def __iter__(self):
        return iter(self.equations)

    def __len__(self):
        return len(self.equations)

    # serializers ------------------------------------------------------------
    def to_text(self) -> str:
        lines = [f"# {self.title} (m={self.m}, n={self.n})"]
        for e in self.equations:
            lines.append(f"{e.name} [{e.role.value}]: {e.lhs} = {e.rhs}")
        return "\n".join(lines)

    def to_machine(self) -> str:
        """Grammar-text rendering: one 'name|role|lhs|rhs' record per line."""
        lines = []
        for e in self.equations:
            lines.append("|".join([e.name, e.role.value,
                                   ex.to_grammar(ex.expand(e.lhs)),
                                   ex.to_grammar(ex.expand(e.rhs))]))
        return "\n".join(lines)

    def to_latex(self) -> str:
        rows = [rf"{sp.latex(e.lhs)} &= {sp.latex(e.rhs)}" for e in self.equations]
        return "\\begin{align}\n" + " \\\\\n".join(rows) + "\n\\end{align}"

    @classmethod
    def from_machine(cls, text: str, title: str, m: int, n: int,
                     parameters=None) -> "EquationSet":
        """Inverse of :meth:`to_machine` (modulo expression ordering)."""
        eqs = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 'name|role|lhs|rhs'")
            name, role, lhs, rhs = parts
            eqs.append(Equation(name,
                                ex.parse_expr(lhs, m, n, parameters=parameters),
                                ex.parse_expr(rhs, m, n, parameters=parameters),
                                EquationRole(role)))
        return cls(title, m, n, eqs)


def along(grad: dict[sp.Symbol, sp.Expr], mu: int, velocity=ex.second_jet,
          action=ex.action_grad, momentum=None) -> sp.Expr:
    """D_mu of a function given by its gradient (coordinate -> nonzero
    partial), expanded: the gradient contracted with the prolongation of
    d/dx^mu, whose components are delta^nu_mu on x^nu, y^A_mu on y^A,
    ``velocity(A, mu, nu)`` on y^A_nu, ``action(nu, mu)`` on s^nu and
    ``momentum(A, nu, mu)`` on p^nu_A.  The defaults write jet-gradient
    symbols; the unified formalism passes its multivector coefficients."""
    out = sp.S.Zero
    for z, dz in grad.items():
        role, idx = ex.role_of(z), ex.indices_of(z)
        if role is ex.Role.BASE:
            if idx[0] == mu:
                out += dz
        elif role is ex.Role.FIELD:
            out += ex.velocity(idx[0], mu) * dz
        elif role is ex.Role.VELOCITY:
            out += velocity(idx[0], mu, idx[1]) * dz
        elif role is ex.Role.MOMENTUM:
            out += momentum(idx[0], idx[1], mu) * dz
        else:   # action
            out += action(idx[0], mu) * dz
    return ex.expand(out)


class Regularity(Enum):
    REGULAR = "regular"
    SINGULAR = "singular"


@dataclass
class RegularityReport:
    status: Regularity
    rank: int
    size: int
    hyperregular: bool
    probabilistic: bool
    notes: list[str] = dc_field(default_factory=list)

    def __str__(self):
        extra = " (hyperregular)" if self.hyperregular else ""
        return (f"{self.status.value}{extra}: Hessian rank {self.rank} of "
                f"{self.size}" + (" [probabilistic]" if self.probabilistic else ""))


class LagrangianSystem:
    """A model together with its Lagrangian-side derived objects."""

    def __init__(self, spec: ModelSpec):
        report = validate_model(spec)
        if not report.ok:
            raise ex.ExprError(f"invalid model {spec.name!r}:\n{report}")
        self.spec = spec
        self.m = spec.m
        self.n = spec.n
        self.L = sp.sympify(spec.lagrangian)   # as written, for the action row
        self._expanded = ex.expand(self.L)      # what the table differentiates
        self.chart = build_chart(ChartKind.P, spec.m, spec.n)
        self._vel_order = [(A, mu) for A in range(self.n) for mu in range(self.m)]

    # the derivative table -----------------------------------------------------
    @cached_property
    def momenta(self) -> list[sp.Expr]:
        """dL/dy^A_mu for every velocity, in the (A-major, mu-minor) order."""
        return [ex.diff(self._expanded, ex.velocity(A, mu)) for A, mu in self._vel_order]

    @cached_property
    def momentum_jet(self) -> list[dict[sp.Symbol, sp.Expr]]:
        """The nonzero first partials of each momentum in the P-chart
        coordinates, in the order of :attr:`momenta`."""
        return [ex.gradient(p, self.chart.coords) for p in self.momenta]

    @cached_property
    def field_partials(self) -> list[sp.Expr]:
        """dL/dy^A for every field."""
        return [ex.diff(self._expanded, ex.field(A)) for A in range(self.n)]

    @cached_property
    def action_partials(self) -> list[sp.Expr]:
        """dL/ds^mu for every action coordinate."""
        return [ex.diff(self._expanded, ex.action(mu)) for mu in range(self.m)]

    @cached_property
    def energy_jet(self) -> dict[sp.Symbol, sp.Expr]:
        """The nonzero partials of :attr:`energy` by the fields, velocities
        and actions, in chart order, read off the table by the chain rule:
        dE/dz = y^A_mu dp^mu_A/dz - dL/dz for a field or action z, and
        dE/dz = y^A_mu dp^mu_A/dz for a velocity (there dL/dz is the
        momentum that d(y p)/dz also yields).  Base partials are left out:
        they wedge to zero with d^m x."""
        partials = dict(zip(map(ex.field, range(self.n)), self.field_partials))
        partials.update(zip(map(ex.action, range(self.m)), self.action_partials))
        jet = {}
        for z in self.chart.coords[self.m:]:
            dz = sum((ex.velocity(A, mu) * row[z]
                      for (A, mu), row in zip(self._vel_order, self.momentum_jet)
                      if z in row), -partials.get(z, sp.S.Zero))
            dz = ex.expand(dz)
            if dz != 0:
                jet[z] = dz
        return jet

    def momentum_assignment(self, A: int, mu: int) -> sp.Expr:
        """dL/dy^A_mu, the Legendre image of p^mu_A."""
        return self.momenta[A * self.m + mu]

    @property
    def energy(self) -> sp.Expr:
        """Lagrangian energy E_L = y^A_mu dL/dy^A_mu - L."""
        E = -self.L
        for (A, mu), p in zip(self._vel_order, self.momenta):
            E += ex.velocity(A, mu) * p
        return E

    def hessian(self) -> sp.Matrix:
        """d^2 L / dy^A_mu dy^B_nu in the (A-major, mu-minor) velocity order."""
        vel = [ex.velocity(A, mu) for A, mu in self._vel_order]
        size = len(vel)
        H = sp.zeros(size, size)
        for i, row in enumerate(self.momentum_jet):
            for j in range(i, size):
                H[i, j] = H[j, i] = row.get(vel[j], sp.Integer(0))
        return H

    def regularity(self, samples: int = 6, seed: int = 42) -> RegularityReport:
        """Classify the Hessian: exact when constant, sampled otherwise."""
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        H = self.hessian()
        size = H.shape[0]
        coords = set(self.chart.coords)
        hess_syms: set = set()
        for entry in H:
            hess_syms |= entry.free_symbols
        constant = not (hess_syms & coords)
        notes: list[str] = []
        if constant:
            rank = ex.exact_rank(H)
            probabilistic = False
        else:
            args = list(self.chart.coords) + sorted(hess_syms - coords,
                                                    key=lambda s: s.name)
            ranks = [ex.numeric_rank(M) for M in ex.sampled(H, args, samples, seed)]
            rank = ex.generic(ranks, "Hessian rank", notes)
            probabilistic = True
        status = Regularity.REGULAR if rank == size else Regularity.SINGULAR
        hyper = status is Regularity.REGULAR and constant
        return RegularityReport(status, rank, size, hyper, probabilistic, notes)

    # forms -------------------------------------------------------------------
    def theta(self) -> Form:
        """The Lagrangian m-form Theta_L on the velocity--action bundle.

        Its exterior derivative comes with it, assembled by
        ``canonical_form`` from the table rather than by differentiating
        the coefficients again: dp^mu_A from :attr:`momentum_jet` and dE_L
        from :attr:`energy_jet`.
        """
        return canonical_form(self.chart, self.momenta, self.momentum_jet,
                              self.energy, self.energy_jet)

    def sigma(self) -> Form:
        """Dissipation 1-form sigma_L = -(dL/ds^mu) dx^mu."""
        return one_form(self.chart, {ex.base(mu): -a
                                     for mu, a in enumerate(self.action_partials)})

    def reeb_fields(self) -> list[VectorField]:
        """The local Reeb basis (R_L)_mu, regular Lagrangians only."""
        H = self.hessian()
        if ex.exact_rank(H) < H.rows:
            raise ex.ExprError("Reeb fields need a regular Lagrangian")
        # the velocity components: -d^2L/ds^mu dy^A_nu times H^-1 (the
        # pseudo-inverse of a regular H), all cancelled at once
        mixed = sp.Matrix([[row.get(ex.action(mu), 0) for row in self.momentum_jet]
                           for mu in range(self.m)])
        coeffs = ex.exact_cancel(-mixed * ex.exact_pinv(H))
        chart = self.chart
        fields = []
        for mu in range(self.m):
            comps = {chart.index(ex.action(mu)): sp.Integer(1)}
            for j, (A, nu) in enumerate(self._vel_order):
                if coeffs[mu, j] != 0:
                    comps[chart.index(ex.velocity(A, nu))] = coeffs[mu, j]
            fields.append(VectorField(chart, comps))
        return fields

    # field equations ----------------------------------------------------------
    def herglotz_el_equations(self) -> EquationSet:
        """Herglotz--Euler--Lagrange equations in jet-gradient symbols; the
        left sides are :func:`along` over the momentum jet."""
        eqs = EquationSet("Herglotz-Euler-Lagrange equations", self.m, self.n)
        for B in range(self.n):
            p = [self.momentum_assignment(B, mu) for mu in range(self.m)]
            lhs = sum(along(self.momentum_jet[B * self.m + mu], mu) for mu in range(self.m))
            rhs = self.field_partials[B] + sum(a * q for a, q in zip(self.action_partials, p))
            eqs.equations.append(Equation(f"el[{B}]", ex.expand(lhs), ex.expand(rhs),
                                          EquationRole.EVOLUTION))
        balance_lhs = sum(ex.action_grad(mu, mu) for mu in range(self.m))
        eqs.equations.append(Equation("action", balance_lhs, self.L,
                                      EquationRole.ACTION_BALANCE))
        return eqs
