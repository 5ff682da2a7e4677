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
Legendre graph W1), and the action trace equation.  ``sr_field_equations``
states them once per system and everything else reads that statement: the
ladder starts from its constraint rows, and tangency to W1, which fixes
the Xp coefficients, turns its trace rows into the compatibility system
whose left-kernel contractions drive the ladder in the singular case, and
(unknowns read as jet symbols) into the Lagrangian projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import cached_property, partial

import sympy as sp
from sympy.solvers.solveset import NonlinearError

from . import expr as ex
from .calculus import Form, canonical_form, one_form
from .chart import ChartKind, build_chart
from .lagrangian import Equation, EquationRole, EquationSet, LagrangianSystem, along

__all__ = ["coefficient_symbol", "CoefficientSystem", "LadderStatus",
           "ConstraintLadder", "UnifiedSystem"]

_NOVELTY_SAMPLES = 5  # graph points at which the novelty test samples the Jacobian rank


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
    def sr_field_equations(self) -> CoefficientSystem:
        """Coordinate equations for the unified multivector field: the one
        statement of them.  It is built once per system; each call returns a
        new CoefficientSystem over a new list of the same Equations, which
        callers must not mutate.  The ladder (``primary_constraints``,
        ``_compatibility_rows``) and ``project_to_lagrangian`` read it."""
        eqs = self._statement
        return CoefficientSystem(EquationSet(eqs.title, eqs.m, eqs.n, list(eqs.equations)))

    @cached_property
    def _statement(self) -> EquationSet:
        fp, ap = self.lag.field_partials, self.lag.action_partials
        eqs = EquationSet("Unified field equations", self.m, self.n)
        for A, mu in self._pairs:
            eqs.equations.append(Equation(f"holonomy[{A},{mu}]", sp.Symbol(f"F{A}_{mu}"),
                                          ex.velocity(A, mu), EquationRole.SEMI_HOLONOMY))
        for A in range(self.n):
            lhs = sum(coefficient_symbol("Xp", A, mu, mu) for mu in range(self.m))
            rhs = ex.expand(fp[A] + sum(ap[mu] * ex.momentum(A, mu) for mu in range(self.m)))
            eqs.equations.append(Equation(f"momentum[{A}]", lhs, rhs, EquationRole.EVOLUTION))
        for (A, mu), p in zip(self._pairs, self.lag.momenta):
            eqs.equations.append(Equation(f"xi[{A},{mu}]", ex.expand(p - ex.momentum(A, mu)),
                                          sp.Integer(0), EquationRole.CONSTRAINT))
        eqs.equations.append(Equation(
            "action", sum(coefficient_symbol("Xs", mu, mu) for mu in range(self.m)),
            self.L, EquationRole.ACTION_BALANCE))
        return eqs

    def _traces(self) -> list[Equation]:
        """The statement's momentum-trace rows, one per field, and its action-trace row."""
        return [e for e in self.sr_field_equations().equations
                if e.role in (EquationRole.EVOLUTION, EquationRole.ACTION_BALANCE)]

    def primary_constraints(self) -> list[sp.Expr]:
        """xi^mu_A = dL/dy^A_mu - p^mu_A: the left sides of the statement's
        constraint rows (a new list each call)."""
        eqs = self.sr_field_equations().equations
        return [e.lhs for e in eqs.of_role(EquationRole.CONSTRAINT)]

    @cached_property
    def _unknown_jets(self) -> dict[sp.Symbol, sp.Symbol]:
        """The ladder's unknowns Xv[A,mu,lam] and Xs[lam,mu] in column
        order, each with the jet-gradient symbol it becomes in the
        Lagrangian projection."""
        jets = {coefficient_symbol("Xv", A, mu, lam): ex.second_jet(A, mu, lam)
                for A in range(self.n) for mu in range(self.m) for lam in range(self.m)}
        jets.update({coefficient_symbol("Xs", lam, mu): ex.action_grad(lam, mu)
                     for lam in range(self.m) for mu in range(self.m)})
        return jets

    def tangency_solution(self) -> dict[sp.Symbol, sp.Expr]:
        """Solve the tangency of the primary constraints for the momentum
        slots Xp[B,nu,mu] (they enter with coefficient -1, so the system is
        always explicitly solvable):

        Xp[B,nu,mu] = d2L/dx^mu ddy[B,nu] + d2L/dy^A ddy[B,nu] y^A_mu
                      + d2L/ddy[A,lam] ddy[B,nu] Xv[A,mu,lam]
                      + d2L/ds^lam ddy[B,nu] Xs[lam,mu] .

        The second derivatives are read from the Lagrangian's momentum jet
        and contracted with X_mu by ``_along``: ``lagrangian.along``, the
        total derivative of the Euler--Lagrange left sides.  The solution is
        built once per system and shared by the ladder and the Lagrangian
        projection; callers must not mutate it.
        """
        return self._tangency

    @cached_property
    def _tangency(self) -> dict[sp.Symbol, sp.Expr]:
        return {coefficient_symbol("Xp", B, nu, mu): self._along(jet, mu)
                for (B, nu), jet in zip(self._pairs, self.lag.momentum_jet)
                for mu in range(self.m)}

    def _along(self, grad: dict[sp.Symbol, sp.Expr], mu: int) -> sp.Expr:
        """Derivative along the factor X_mu of a W0 function, given by its
        gradient: ``lagrangian.along`` with X_mu's coefficients in the
        velocity, action and momentum slots.  The momentum slots are read
        from the tangency solution, which is this contraction of the
        momentum jet (a jet with no momentum components)."""
        return along(grad, mu, velocity=partial(coefficient_symbol, "Xv"),
                     action=partial(coefficient_symbol, "Xs"),
                     momentum=lambda *idx: self._tangency[coefficient_symbol("Xp", *idx)])

    # --------------------------------------------------------------- ladder
    def _compatibility_rows(self) -> list[sp.Expr]:
        """The statement's trace rows with the tangency solution substituted:
        (expression == 0) rows linear in the unknowns."""
        xp_sol = self.tangency_solution()
        return [ex.expand(e.residual.xreplace(xp_sol)) for e in self._traces()]

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
        unknowns = list(self._unknown_jets)
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
            self._check_kernel_dim(A_on, left_kernel.rows, seed, notes)

            new_gen: list[sp.Expr] = []
            new_rows = []
            for cand in map(ex.expand, ex.exact_product(left_kernel, b)):
                if cand == 0:
                    continue
                if not (cand.free_symbols & coords):
                    generations.append([cand])
                    notes.append(f"candidate {cand} has no coordinate dependence")
                    return ConstraintLadder(generations, LadderStatus.EMPTY_INTERSECTION,
                                            notes)
                row = self._jacobian_row(cand, graph)
                if self._is_novel(cand, row, jacobian, graph, seed, notes):
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
        ranks = [ex.numeric_rank(M) for M in ex.sampled(A_on, syms, 3, seed)]
        dim = A_on.rows - ex.generic(ranks, "coefficient matrix rank", notes)
        if dim != symbolic_dim:
            notes.append(f"left-kernel dimension sampled as {dim}, symbolic "
                         f"computation gave {symbolic_dim}")

    def _is_novel(self, cand: sp.Expr, row: tuple[dict, set, list[sp.Expr]],
                  jacobian: list[tuple[dict, set, list[sp.Expr]]], graph: dict,
                  seed: int, notes: list[str]) -> bool:
        """Does the candidate raise the generic (``expr.generic``) Jacobian
        rank of the constraint set on the Legendre graph?  One matrix, the
        set's Jacobian rows with the candidate's row stacked last, sampled
        at ``_NOVELTY_SAMPLES`` graph points, ranked with and without it."""
        syms = sorted(set().union(*(free for _, free, _ in jacobian), row[1],
                                  cand.free_symbols,
                                  *(sp.sympify(v).free_symbols for v in graph.values())),
                      key=lambda s: s.name)
        syms = [s for s in syms if s not in graph]
        stacked = [r for _, _, r in jacobian] + [row[2]]
        points = ex.sampled(stacked, syms, _NOVELTY_SAMPLES, seed)
        with_it = ex.generic([ex.numeric_rank(M) for M in points], "Jacobian rank", notes)
        without = ex.generic([ex.numeric_rank(M[:-1]) for M in points], "Jacobian rank", notes)
        return with_it > without

    # ------------------------------------------------------------ projections
    def project_to_lagrangian(self) -> EquationSet:
        """Recover the Herglotz-Euler-Lagrange equations from the statement's
        trace rows: substitute the tangency solution into the left sides,
        replace each unknown by its jet-gradient symbol, and restrict the
        right sides to the Legendre graph."""
        xp_sol, graph = self.tangency_solution(), self.legendre_graph()
        names = [f"el[{A}]" for A in range(self.n)] + ["action"]
        return EquationSet("Unified projection: Lagrangian equations", self.m, self.n, [
            Equation(name, ex.expand(e.lhs.xreplace(xp_sol).xreplace(self._unknown_jets)),
                     ex.expand(e.rhs.xreplace(graph)), e.role)
            for name, e in zip(names, self._traces())])
