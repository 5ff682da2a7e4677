"""Unified (Lagrangian-Hamiltonian) formalism on the extended bundle.

The unified bundle W carries coordinates (x, y, dy, p, pext, s) and the
canonical m-form

    Theta_W = -p^mu_A dy^A ^ d^{m-1}x_mu - pext d^m x + ds^mu ^ d^{m-1}x_mu .

Restricting by the coupling pext = L - y^A_mu p^mu_A gives W0 with

    Theta_0 = -p^mu_A dy^A ^ d^{m-1}x_mu - (L - y^A_mu p^mu_A) d^m x
              + ds^mu ^ d^{m-1}x_mu .

Both come from ``calculus.canonical_form`` with their exterior derivatives,
built from the coordinate momenta and the gradient of the volume
coefficient.  The dissipation form induced on the Legendre graph is
sigma_W1 = -(dL/ds^mu) dx^mu, which is sigma_L: with R_mu = d/ds^mu,
i(R_mu) dTheta_0 = sigma_W1 ^ i(R_mu) Theta_0.

The field equations for a transverse, locally decomposable multivector
field X = X_0 ^ ... ^ X_{m-1}, with factors

    X_mu = d/dx^mu + F^A_mu d/dy^A + Xv[A,mu,lam] d/ddy[A,lam]
           + Xp[B,nu,mu] d/dp[B,nu] + Xs[nu,mu] d/ds^nu ,

reduce in coordinates to: semi-holonomy F^A_mu = y^A_mu, the momentum trace
equations, the primary constraints p^mu_A = dL/dy^A_mu (which cut out the
Legendre graph W1), and the action trace equation.  Demanding tangency of
the solutions to W1 determines the Xp coefficients and yields the
compatibility system whose left-kernel contractions drive the constraint
ladder in the singular case.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import cached_property

import sympy as sp
from sympy.solvers.solveset import NonlinearError

from . import expr as ex
from .calculus import Form, canonical_form, one_form
from .chart import ChartKind, build_chart
from .lagrangian import Equation, EquationRole, EquationSet, LagrangianSystem

__all__ = ["coefficient_symbol", "CoefficientSystem", "LadderStatus",
           "ConstraintLadder", "UnifiedSystem"]

_NOVELTY_SAMPLES = 5  # graph points at which a novel candidate raises the Jacobian rank


def coefficient_symbol(kind: str, *indices: int) -> sp.Symbol:
    """Unknown multivector coefficients: Xv (velocity slots), Xp (momentum
    slots), Xs (action slots)."""
    if kind not in ("Xv", "Xp", "Xs"):
        raise ex.ExprError(f"unknown coefficient kind {kind!r}")
    return sp.Symbol(kind + "_" + "_".join(str(i) for i in indices))


@dataclass
class CoefficientSystem:
    """The coordinate field equations for the unified multivector field."""

    equations: EquationSet


class LadderStatus(Enum):
    STABILIZED = "STABILIZED"
    EMPTY_INTERSECTION = "EMPTY-INTERSECTION"
    MAX_GENERATIONS = "MAX-GENERATIONS"


@dataclass
class ConstraintLadder:
    """Generations of constraint functions on the restricted unified chart."""

    generations: list[list[sp.Expr]]
    status: LadderStatus
    notes: list[str] = dc_field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"status: {self.status.value}"]
        for g, gen in enumerate(self.generations):
            for i, c in enumerate(gen):
                lines.append(f"gen{g}[{i}]: {ex.to_grammar(ex.expand(c))} = 0")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


class UnifiedSystem:
    """Skinner-Rusk style unified formalism for one model."""

    def __init__(self, lag: LagrangianSystem):
        self.lag = lag
        self.m = lag.m
        self.n = lag.n
        self.L = lag.L
        self.chart_w = build_chart(ChartKind.W, lag.m, lag.n)
        self.chart_w0 = build_chart(ChartKind.W0, lag.m, lag.n)
        self._pairs = [(A, mu) for A in range(lag.n) for mu in range(lag.m)]

    # ------------------------------------------------------------------ forms
    def coupling(self) -> sp.Expr:
        """The function whose zero level cuts W0 out of W:
        pext + y^A_mu p^mu_A - L."""
        return ex.expand(ex.extended_momentum()
                         + sum(ex.velocity(A, mu) * ex.momentum(A, mu)
                               for A, mu in self._pairs) - self.L)

    def theta_w(self) -> Form:
        chart, pext = self.chart_w, ex.extended_momentum()
        return canonical_form(chart, chart.momenta, [{p: sp.S.One} for p in chart.momenta],
                              -pext, ex.gradient(-pext, chart.coords))

    def theta_w0(self) -> Form:
        chart = self.chart_w0
        hw = ex.expand(self.L - sum(ex.velocity(A, mu) * ex.momentum(A, mu)
                                    for A, mu in self._pairs))
        return canonical_form(chart, chart.momenta, [{p: sp.S.One} for p in chart.momenta],
                              -hw, ex.gradient(-hw, chart.coords))

    def sigma_w1(self) -> Form:
        """Dissipation 1-form induced on the Legendre graph:
        -(dL/ds^mu) dx^mu, which is sigma_L."""
        return one_form(self.chart_w0, {ex.base(mu): -a
                                        for mu, a in enumerate(self.lag.action_partials)})

    def legendre_graph(self) -> dict[sp.Symbol, sp.Expr]:
        """Substitution realizing W1 (the graph of the Legendre map) in W0."""
        return {ex.momentum(A, mu): p for (A, mu), p in zip(self._pairs, self.lag.momenta)}

    # --------------------------------------------------------- field equations
    def primary_constraints(self) -> list[sp.Expr]:
        """xi^mu_A = dL/dy^A_mu - p^mu_A, built once per system (a new list each call)."""
        return list(self._primary)

    @cached_property
    def _primary(self) -> list[sp.Expr]:
        return [ex.expand(p - ex.momentum(A, mu))
                for (A, mu), p in zip(self._pairs, self.lag.momenta)]

    @cached_property
    def _momentum_sources(self) -> list[sp.Expr]:
        """Right-hand sides of the momentum trace equations, expanded:
        dL/dy^A + (dL/ds^mu) p^mu_A, one per field."""
        fp, ap = self.lag.field_partials, self.lag.action_partials
        return [ex.expand(fp[A] + sum(ap[mu] * ex.momentum(A, mu) for mu in range(self.m)))
                for A in range(self.n)]

    def sr_field_equations(self) -> CoefficientSystem:
        """Coordinate equations for the unified multivector field."""
        eqs = EquationSet("Unified field equations", self.m, self.n)
        for A, mu in self._pairs:
            eqs.equations.append(Equation(
                f"holonomy[{A},{mu}]", sp.Symbol(f"F{A}_{mu}"),
                ex.velocity(A, mu), EquationRole.SEMI_HOLONOMY))
        for A in range(self.n):
            lhs = sum(coefficient_symbol("Xp", A, mu, mu) for mu in range(self.m))
            eqs.equations.append(Equation(f"momentum[{A}]", lhs, self._momentum_sources[A],
                                          EquationRole.EVOLUTION))
        for (A, mu), c in zip(self._pairs, self._primary):
            eqs.equations.append(Equation(f"xi[{A},{mu}]", c, sp.Integer(0),
                                          EquationRole.CONSTRAINT))
        eqs.equations.append(Equation(
            "action", sum(coefficient_symbol("Xs", mu, mu) for mu in range(self.m)),
            self.L, EquationRole.ACTION_BALANCE))
        return CoefficientSystem(eqs)

    def tangency_solution(self) -> dict[sp.Symbol, sp.Expr]:
        """Solve the tangency of the primary constraints for the momentum
        slots Xp[B,nu,mu] (they enter with coefficient -1, so the system is
        always explicitly solvable):

        Xp[B,nu,mu] = d2L/dx^mu ddy[B,nu] + d2L/dy^A ddy[B,nu] y^A_mu
                      + d2L/ddy[A,lam] ddy[B,nu] Xv[A,mu,lam]
                      + d2L/ds^lam ddy[B,nu] Xs[lam,mu] .

        The second derivatives are read from the Lagrangian's momentum jet
        and contracted with X_mu by the ladder's own operator (``_along``).
        The solution is built once per system and shared by the ladder and
        the Lagrangian projection; callers must not mutate it.
        """
        return self._tangency

    @cached_property
    def _tangency(self) -> dict[sp.Symbol, sp.Expr]:
        return {coefficient_symbol("Xp", B, nu, mu): self._along(jet, mu)
                for (B, nu), jet in zip(self._pairs, self.lag.momentum_jet)
                for mu in range(self.m)}

    def _along(self, grad: dict[sp.Symbol, sp.Expr], mu: int) -> sp.Expr:
        """Derivative along the factor X_mu of a W0 function, given by its
        gradient (coordinate -> nonzero partial): the gradient contracted
        with X_mu's components (1, y^A_mu, Xv[A,mu,lam], Xp[A,nu,mu],
        Xs[nu,mu]).  The momentum slots are read from the tangency
        solution, which is itself this contraction of the momentum jet; the
        jet lives on the velocity side and has no momentum components."""
        out = sp.S.Zero
        for z, dz in grad.items():
            role, idx = ex.role_of(z), ex.indices_of(z)
            if role is ex.Role.BASE:
                if idx[0] == mu:
                    out += dz
            elif role is ex.Role.FIELD:
                out += ex.velocity(idx[0], mu) * dz
            elif role is ex.Role.VELOCITY:
                out += coefficient_symbol("Xv", idx[0], mu, idx[1]) * dz
            elif role is ex.Role.MOMENTUM:
                out += self._tangency[coefficient_symbol("Xp", idx[0], idx[1], mu)] * dz
            else:   # action
                out += coefficient_symbol("Xs", idx[0], mu) * dz
        return ex.expand(out)

    # --------------------------------------------------------------- ladder
    def _unknowns(self) -> list[sp.Symbol]:
        u = [coefficient_symbol("Xv", A, mu, lam)
             for A in range(self.n) for mu in range(self.m) for lam in range(self.m)]
        u += [coefficient_symbol("Xs", lam, mu)
              for lam in range(self.m) for mu in range(self.m)]
        return u

    def _compatibility_rows(self) -> list[sp.Expr]:
        """The momentum-trace equations with Xp substituted, and the action
        trace, as (expression == 0) rows linear in the unknowns."""
        xp_sol = self.tangency_solution()
        rows = [ex.expand(sum(xp_sol[coefficient_symbol("Xp", A, mu, mu)]
                              for mu in range(self.m)) - self._momentum_sources[A])
                for A in range(self.n)]
        rows.append(ex.expand(sum(coefficient_symbol("Xs", mu, mu)
                                  for mu in range(self.m)) - self.L))
        return rows

    def _jacobian_row(self, phi: sp.Expr, graph: dict) -> tuple[dict, set, list[sp.Expr]]:
        """The W0 gradient of a constraint, the free symbols of that
        gradient, and the gradient restricted to the Legendre graph as a row
        in chart order."""
        grad = ex.gradient(phi, self.chart_w0.coords)
        free = set().union(*(g.free_symbols for g in grad.values()))
        return grad, free, [grad.get(z, sp.S.Zero).xreplace(graph)
                            for z in self.chart_w0.coords]

    def constraint_algorithm(self, max_generations: int = 10,
                             seed: int = 42) -> ConstraintLadder:
        """Iterate tangency until the constraint set stabilizes.

        Each round assembles the linear system (compatibility rows plus
        tangency rows of all later-generation constraints) in the unknown
        multivector coefficients, contracts its left kernel with the
        inhomogeneity to produce candidate constraints, and keeps the
        functionally novel ones (numeric Jacobian rank test on the Legendre
        graph).  Candidates free of all coordinates signal an empty
        constraint submanifold.  Each constraint's tangency rows and
        Jacobian row are built once per run.
        """
        if max_generations < 0:
            raise ValueError(f"max_generations must be non-negative, got {max_generations}")
        unknowns = self._unknowns()
        graph = self.legendre_graph()
        coords = set(self.chart_w0.coords)
        notes: list[str] = []
        generations: list[list[sp.Expr]] = [self.primary_constraints()]
        jacobian = [self._jacobian_row(c, graph) for c in generations[0]]
        rows = self._compatibility_rows()

        for _ in range(max_generations):
            try:
                A, b = sp.linear_eq_to_matrix(rows, unknowns)   # A u = b
            except NonlinearError:
                raise ex.ExprError("field equations are not linear in the "
                                   "multivector coefficients") from None
            # restrict the coefficient matrix to the constraint submanifold
            A_on = ex.exact_cancel(A.xreplace(graph))
            left_kernel = ex.exact_nullspace(A_on.T)
            self._check_kernel_dim(A_on, len(left_kernel), seed, notes)

            new_gen: list[sp.Expr] = []
            new_rows = []
            cands = ex.exact_cancel(sp.Matrix([(kvec.T * b)[0, 0] for kvec in left_kernel]))
            for cand in map(ex.expand, cands):
                if cand == 0:
                    continue
                if not (cand.free_symbols & coords):
                    generations.append([cand])
                    notes.append(f"candidate {cand} has no coordinate dependence")
                    return ConstraintLadder(generations, LadderStatus.EMPTY_INTERSECTION,
                                            notes)
                row = self._jacobian_row(cand, graph)
                if self._is_novel(cand, row, jacobian, graph, seed):
                    new_gen.append(cand)
                    new_rows.append(row)
            if not new_gen:
                return ConstraintLadder(generations, LadderStatus.STABILIZED, notes)
            generations.append(new_gen)
            jacobian.extend(new_rows)
            rows.extend(self._along(grad, mu)
                        for grad, _, _ in new_rows for mu in range(self.m))
        return ConstraintLadder(generations, LadderStatus.MAX_GENERATIONS, notes)

    def _check_kernel_dim(self, A_on: sp.Matrix, symbolic_dim: int, seed: int,
                          notes: list[str]) -> None:
        """Cross-check the symbolic left-kernel dimension numerically."""
        syms = sorted(A_on.free_symbols, key=lambda s: s.name)
        if not syms:
            return
        dims = [A_on.rows - ex.numeric_rank(M) for M in ex.sampled(A_on, syms, 3, seed)]
        if any(d != symbolic_dim for d in dims):
            notes.append(f"left-kernel dimension sampled as {dims}, symbolic "
                         f"computation gave {symbolic_dim}")

    def _is_novel(self, cand: sp.Expr, row: tuple[dict, set, list[sp.Expr]],
                  jacobian: list[tuple[dict, set, list[sp.Expr]]], graph: dict,
                  seed: int) -> bool:
        """Does the candidate raise the Jacobian rank of the constraint set
        at each of ``_NOVELTY_SAMPLES`` points of the Legendre graph?  One
        sampled matrix: the constraint set's Jacobian rows with the
        candidate's row stacked last."""
        syms = sorted(set().union(*(free for _, free, _ in jacobian), row[1],
                                  cand.free_symbols,
                                  *(sp.sympify(v).free_symbols for v in graph.values())),
                      key=lambda s: s.name)
        syms = [s for s in syms if s not in graph]
        stacked = [r for _, _, r in jacobian] + [row[2]]
        return all(ex.numeric_rank(M) > ex.numeric_rank(M[:-1])
                   for M in ex.sampled(stacked, syms, _NOVELTY_SAMPLES, seed))

    # ------------------------------------------------------------ projections
    def project_to_lagrangian(self) -> EquationSet:
        """Recover the Herglotz-Euler-Lagrange equations: substitute the
        tangency-solved momentum slots into the momentum trace equations,
        replace the coefficient unknowns by jet-gradient symbols, and
        restrict to the Legendre graph."""
        xp_sol = self.tangency_solution()
        graph = self.legendre_graph()
        jet_subs: dict[sp.Symbol, sp.Expr] = {}
        for A in range(self.n):
            for mu in range(self.m):
                for lam in range(self.m):
                    jet_subs[coefficient_symbol("Xv", A, mu, lam)] = \
                        ex.second_jet(A, mu, lam)
        for lam in range(self.m):
            for mu in range(self.m):
                jet_subs[coefficient_symbol("Xs", lam, mu)] = ex.action_grad(lam, mu)

        eqs = EquationSet("Unified projection: Lagrangian equations",
                          self.m, self.n)
        for A in range(self.n):
            lhs = sum(xp_sol[coefficient_symbol("Xp", A, mu, mu)]
                      for mu in range(self.m))
            lhs = ex.expand(sp.sympify(lhs).xreplace(jet_subs))
            rhs = ex.expand(self._momentum_sources[A].xreplace(graph))
            eqs.equations.append(Equation(f"el[{A}]", lhs, rhs,
                                          EquationRole.EVOLUTION))
        eqs.equations.append(Equation(
            "action", sum(ex.action_grad(mu, mu) for mu in range(self.m)),
            self.L, EquationRole.ACTION_BALANCE))
        return eqs
