"""Coordinate charts for the bundles entering the three formalisms.

Four chart kinds, all with canonical coordinate order
(x^mu, y^A, y^A_mu, p^mu_A, p, s^mu):

* ``P``     velocity--action phase bundle: (x, y, dy, s), dim 2m + n + nm
* ``PSTAR`` momentum--action phase bundle: (x, y, p, s), dim nm + n + 2m
* ``W``     unified bundle: (x, y, dy, p, pext, s), dim 2m + n + 2nm + 1
* ``W0``    restricted unified bundle (extended momentum eliminated by the
            coupling): (x, y, dy, p, s), dim 2m + n + 2nm

Also defines :class:`ModelSpec`, the validated description of a model
(Lagrangian, dimensions, parameters, optional metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Optional

import sympy as sp

from . import expr as ex
from .expr import Role

__all__ = ["ChartKind", "Chart", "build_chart", "ModelSpec",
           "ValidationIssue", "ValidationReport", "validate_model"]


class ChartKind(Enum):
    P = "P"          # Lagrangian side
    PSTAR = "Pstar"  # Hamiltonian side
    W = "W"          # unified
    W0 = "W0"        # unified, extended momentum eliminated


@dataclass(frozen=True)
class Chart:
    kind: ChartKind
    m: int
    n: int
    coords: tuple[sp.Symbol, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, sym: sp.Symbol) -> int:
        try:
            return self.coords.index(sym)
        except ValueError:
            raise ex.ExprError(f"{sym} is not a coordinate of chart {self.kind.value}")

    def __contains__(self, sym) -> bool:
        return sym in self.coords

    # role-filtered accessors -------------------------------------------------
    def of_role(self, role: Role) -> tuple[sp.Symbol, ...]:
        return tuple(c for c in self.coords if ex.role_of(c) is role)

    @property
    def velocities(self) -> tuple[sp.Symbol, ...]:
        return self.of_role(Role.VELOCITY)

    @property
    def momenta(self) -> tuple[sp.Symbol, ...]:
        return self.of_role(Role.MOMENTUM)

    @property
    def actions(self) -> tuple[sp.Symbol, ...]:
        return tuple(ex.action(mu) for mu in range(self.m))

    def __repr__(self):
        return f"Chart({self.kind.value}, m={self.m}, n={self.n}, dim={self.dim})"


_EXPECTED_DIM = {
    ChartKind.P: lambda m, n: 2 * m + n + n * m,
    ChartKind.PSTAR: lambda m, n: n * m + n + 2 * m,
    ChartKind.W: lambda m, n: 2 * m + n + 2 * n * m + 1,
    ChartKind.W0: lambda m, n: 2 * m + n + 2 * n * m,
}


def build_chart(kind: ChartKind, m: int, n: int) -> Chart:
    if m < 1 or n < 1:
        raise ex.ExprError("chart needs m >= 1 base and n >= 1 field coordinates")
    coords: list[sp.Symbol] = [ex.base(mu) for mu in range(m)]
    coords += [ex.field(A) for A in range(n)]
    if kind in (ChartKind.P, ChartKind.W, ChartKind.W0):
        coords += [ex.velocity(A, mu) for A in range(n) for mu in range(m)]
    if kind in (ChartKind.PSTAR, ChartKind.W, ChartKind.W0):
        coords += [ex.momentum(A, mu) for A in range(n) for mu in range(m)]
    if kind is ChartKind.W:
        coords.append(ex.extended_momentum())
    coords += [ex.action(mu) for mu in range(m)]
    chart = Chart(kind, m, n, tuple(coords))
    assert chart.dim == _EXPECTED_DIM[kind](m, n)
    return chart


# ---------------------------------------------------------------------------
# model specification


@dataclass
class ModelSpec:
    """A validated model: dimensions, Lagrangian, parameters, metric."""

    name: str
    m: int
    n: int
    lagrangian: sp.Expr
    parameters: dict[str, sp.Symbol] = dc_field(default_factory=dict)
    metric: Optional[tuple[tuple[sp.Expr, ...], ...]] = None
    field_labels: tuple[str, ...] = ()

    @property
    def chart(self) -> Chart:
        return build_chart(ChartKind.P, self.m, self.n)


@dataclass
class ValidationIssue:
    code: str
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self):
        if self.ok:
            return "model ok"
        return "\n".join(f"[{i.code}] {i.message}" for i in self.issues)


def validate_model(spec: ModelSpec) -> ValidationReport:
    """Check a model for structural errors before any derivation runs."""
    issues: list[ValidationIssue] = []
    if spec.m < 1:
        issues.append(ValidationIssue("bad-dim", f"m must be >= 1, got {spec.m}"))
    if spec.n < 1:
        issues.append(ValidationIssue("bad-dim", f"n must be >= 1, got {spec.n}"))
    if issues:
        return ValidationReport(issues)

    for name, sym in spec.parameters.items():
        if ex.role_of(sym) is not None:
            issues.append(ValidationIssue(
                "parameter-is-coordinate",
                f"parameter {name!r} has the name of the coordinate {ex.to_grammar(sym)}"))

    lagrangian = sp.sympify(spec.lagrangian)
    if lagrangian.has(sp.nan, sp.zoo, sp.oo, -sp.oo):
        issues.append(ValidationIssue("non-finite", f"Lagrangian is not finite: {lagrangian}"))
    chart = spec.chart
    allowed = set(chart.coords) | set(spec.parameters.values())
    for sym in lagrangian.free_symbols:
        if sym not in allowed:
            role = ex.role_of(sym)
            if role is not None:
                issues.append(ValidationIssue(
                    "coord-out-of-chart",
                    f"Lagrangian uses {sym}, which is not a coordinate of the "
                    f"(m={spec.m}, n={spec.n}) velocity-action chart"))
            else:
                issues.append(ValidationIssue(
                    "undeclared-parameter",
                    f"Lagrangian uses undeclared symbol {sym}"))
    if spec.metric is not None:
        rows = len(spec.metric)
        if rows != spec.m or any(len(r) != spec.m for r in spec.metric):
            issues.append(ValidationIssue(
                "bad-metric", f"metric must be {spec.m}x{spec.m}"))
    if spec.field_labels and len(spec.field_labels) != spec.n:
        issues.append(ValidationIssue(
            "bad-labels", f"expected {spec.n} field labels, got {len(spec.field_labels)}"))
    return ValidationReport(issues)
