"""Desk-scale numerical integration of derived evolution systems.

Supported cases: ``m = 1`` (ODE systems in the single base coordinate) and
``m = 2`` (one time plus one periodic space dimension).  The evolution
equations are reduced to first order by introducing ``v^A = dy^A/dx^0``;
spatial derivatives are realized as second-order central differences on a
periodic grid, and time stepping uses fixed-step classical RK4.

One fused ``lambdify`` of the accelerations and L reads only the argument
slots it uses, so each right-hand side computes only the stencils it needs;
RK4 stages reuse two buffers per problem.  Results are bit-identical to the
earlier per-expression, every-stencil integrator.

One-point problems (``m = 1``, hence ``N = 1``) run their RK4 stages and
monitors on numpy float64 scalars instead: the same compiled evaluators read
the state's column as a list, and the stage sums keep the array path's
order, so the results are bit for bit those of 1-element arrays at a
fraction of the call overhead.  numpy scalars, not Python floats, keep the
array semantics: overflow, division by zero and a negative base to a
fractional power give inf/nan with a warning, and the run ends as
``"non-finite state"``.  For the same bits, the evaluators are printed with
``_PointwisePrinter``: ``float64 ** e`` calls libm ``pow`` where
``ndarray ** e`` calls numpy's ``square``/``power`` kernels, which differ in
the last bit, so every power is printed as an explicit numpy kernel.
Compiling binds ``numpy`` by name: lambdify's string module ``"numpy"``
would run ``from numpy import *``, which imports ``numpy.f2py`` and more.

Action variables: the balance law constrains only the divergence of the
``s^mu`` fields.  We adopt the gauge ``s^1 == 0`` for ``m = 2`` (so the
balance reads ``ds^0/dx^0 = L``) and integrate ``s^0`` alongside the fields.

Monitors:

- ``action_balance``: instantaneous max-norm of the balance residual,
  evaluated from the same right-hand side the integrator uses (0 by
  construction, see ``monitor_action_balance``).
- ``action_balance_fd``: balance residual with the time derivative replaced
  by a centered finite difference of the stored ``s^0`` history (second-order
  in the step size; useful for convergence studies).
- ``energy``: discrete mechanical energy ``sum_A v^A dL/dv^A - L`` with the
  action variables set to zero; spatial gradients inside the energy use
  forward differences so the free-wave energy is exactly the conserved
  quantity of the central-stencil semidiscretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter
from sympy.printing.precedence import precedence

from . import expr as ex
from .lagrangian import EquationRole, EquationSet
from .modelfile import SimulateConfig

__all__ = [
    "CompileError",
    "EvolutionProblem",
    "GridState",
    "RunReport",
    "compile_problem",
    "step_rk4",
    "run",
    "monitor_action_balance",
    "monitor_energy",
]


class CompileError(ValueError):
    """Raised when an equation set cannot be compiled into an evolution system."""


# ---------------------------------------------------------------------------
# problem compilation


@dataclass
class EvolutionProblem:
    """Compiled right-hand sides for a first-order evolution system.

    State layout (arrays over the grid): fields ``y^0..y^{n-1}``, velocities
    ``v^0..v^{n-1}``, then the action variable ``s^0``.
    """

    m: int
    n: int
    N: int
    dx: float
    state_names: tuple[str, ...]
    # the fields' accelerations then L; the energy density (gauge, parameters applied)
    exprs: tuple[sp.Expr, ...]
    energy_expr: sp.Expr
    # evaluators of ``exprs`` and of the energy density; each reads the
    # argument slots listed beside it (see ``_slot_values``)
    rhs_func: Callable
    rhs_slots: tuple[tuple[str, int], ...]
    energy_func: Callable
    energy_slots: tuple[tuple[str, int], ...]
    initial: dict[str, sp.Expr]
    parameter_values: dict[str, float]
    monitors: tuple[str, ...]

    x: np.ndarray = dc_field(init=False, repr=False, compare=False)
    # RK4 work space: the stage right-hand side and the next stage state
    stages: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x = np.arange(self.N) * self.dx
        self.stages = np.empty((2, self.n_vars, self.N))

    @property
    def n_vars(self) -> int:
        return 2 * self.n + 1

    def initial_state(self) -> "GridState":
        x1 = self.x
        arrays = []
        for name in self.state_names:
            e = self.initial.get(name, sp.Integer(0))
            e = sp.sympify(e).xreplace(
                {sp.Symbol(k): sp.Float(v) for k, v in self.parameter_values.items()})
            free = e.free_symbols - {ex.base(1) if self.m == 2 else None}
            free.discard(None)
            if free:
                raise CompileError(
                    f"initial data for {name} has unresolved symbols {sorted(map(str, free))}")
            f = _lambdify([ex.base(1)], e)
            arrays.append(np.broadcast_to(np.asarray(f(x1), dtype=float),
                                          (self.N,)).copy())
        return GridState(t=0.0, arrays=np.stack(arrays))


@dataclass
class GridState:
    """State at one time: stacked arrays (one row per state variable)."""

    t: float
    arrays: np.ndarray  # shape (n_vars, N)

    def copy(self) -> "GridState":
        return GridState(self.t, self.arrays.copy())

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.arrays).all())


@dataclass
class RunReport:
    """Time series of monitored quantities plus termination info."""

    times: np.ndarray
    series: dict[str, np.ndarray]
    states: Optional[list[GridState]]
    max_action_residual: float
    termination: str  # "completed" | "non-finite state"


class _PointwisePrinter(NumPyPrinter):
    """numpy printer whose powers run the same kernel on a numpy scalar as on
    an array.

    ``ndarray ** e`` runs ``square`` for e = 2 and ``reciprocal`` for e = -1
    and numpy's ``power`` ufunc for other exponents, while ``float64 ** e``
    calls libm ``pow``; the two disagree in the last bit.  So ``b**2``
    prints as ``(b*b)``, bit-equal to ``square`` (the parentheses keep
    ``(1/2)*(x*x)`` from becoming ``((1/2)*x)*x``), ``b**-1`` as ``1/b``,
    ``b**(+-1/2)`` through ``numpy.sqrt`` as sympy prints them, and every
    other power as ``numpy.power(b, e)``.
    """

    def _print_Pow(self, expr, rational=False):
        e = float(expr.exp) if expr.exp.is_Number and expr.exp.is_finite else None
        if e in (2.0, -1.0):
            base = self.parenthesize(expr.base, precedence(expr), strict=False)
            return f"({base}*{base})" if e == 2.0 else f"1/{base}"
        arg = self._print(expr.base)
        if e in (0.5, -0.5):
            sqrt = f"{self._module_format('numpy.sqrt')}({arg})"
            return sqrt if e > 0 else f"1/{sqrt}"
        return f"{self._module_format('numpy.power')}({arg}, {self._print(expr.exp)})"


def _lambdify(args: list, exprs) -> Callable:
    # numpy bound by name: the string module "numpy" would run lambdify's
    # `from numpy import *`
    return sp.lambdify(args, exprs, modules=[{"numpy": np}, np], printer=_PointwisePrinter())


def _deriv_central(u: np.ndarray, dx: float) -> np.ndarray:
    N = len(u)
    d = np.empty_like(u)
    np.subtract(u[2:], u[:-2], out=d[1:-1])
    d[0] = u[1 % N] - u[-1]
    d[-1] = u[0] - u[-2 % N]
    d /= 2.0 * dx
    return d


def _deriv2_central(u: np.ndarray, dx: float) -> np.ndarray:
    N = len(u)
    d = np.empty_like(u)
    np.multiply(u[1:-1], 2.0, out=d[1:-1])
    np.subtract(u[2:], d[1:-1], out=d[1:-1])
    d[1:-1] += u[:-2]
    d[0] = u[1 % N] - 2.0 * u[0] + u[-1]
    d[-1] = u[0] - 2.0 * u[-1] + u[-2 % N]
    d /= dx * dx
    return d


def _deriv_forward(u: np.ndarray, dx: float) -> np.ndarray:
    d = np.empty_like(u)
    np.subtract(u[1:], u[:-1], out=d[:-1])
    d[-1] = u[0] - u[-1]
    d /= dx
    return d


_STENCILS = {"central": _deriv_central, "central2": _deriv2_central, "forward": _deriv_forward}
_CFL = 0.5  # a grid (m = 2) step needs dt <= _CFL * dx


def compile_problem(eqs: EquationSet, config: SimulateConfig) -> EvolutionProblem:
    """Compile a Lagrangian evolution equation set into callable form.

    The set must contain the action-balance equation (its right-hand side is
    the Lagrangian) and one evolution equation per field, jointly solvable
    for the highest time derivatives ``d2y[A,0,0]``.  Parameter values,
    grid (``m = 2``), initial data and monitors come from ``config``.
    """
    m, n = eqs.m, eqs.n
    if m not in (1, 2):
        raise CompileError(f"numeric integration supports m in (1, 2), got m={m}")
    if m == 2 and config.N < 3:
        # the periodic central stencils need a point on either side
        raise CompileError(f"a grid needs N >= 3 points, got N={config.N}")
    balance = [e for e in eqs.equations if e.role is EquationRole.ACTION_BALANCE]
    if not balance:
        raise CompileError("equation set has no action-balance equation")
    L_expr = sp.expand(balance[0].rhs - (balance[0].lhs
                                         - sum(ex.action_grad(mu, mu) for mu in range(m))))
    evolution = [e for e in eqs.equations if e.role is EquationRole.EVOLUTION]
    if len(evolution) < n:
        raise CompileError(
            f"need {n} evolution equations, found {len(evolution)}; "
            "the system is not evolutionary (constraints cannot be integrated)")

    # gauge s^1 == 0 and balance law ds^0/dx^0 = L
    gauge = {}
    if m == 2:
        gauge[ex.action(1)] = sp.Integer(0)
        gauge[ex.action_grad(1, 0)] = sp.Integer(0)
        gauge[ex.action_grad(1, 1)] = sp.Integer(0)
    gauge[ex.action_grad(0, 0)] = L_expr

    acc = [ex.second_jet(A, 0, 0) for A in range(n)]
    residuals = []
    for e in evolution[:n]:
        r = sp.expand((e.lhs - e.rhs).xreplace(gauge))
        for a in acc:
            if ex.diff(ex.diff(r, a), a) != 0:
                raise CompileError(f"equation {e.name!r} is not linear in {a}")
        residuals.append(r)
    M = sp.Matrix(n, n, lambda B, A: ex.diff(residuals[B], acc[A]))
    b = -sp.Matrix([r.xreplace({a: sp.Integer(0) for a in acc}) for r in residuals])
    if M.det() == 0:
        raise CompileError(
            f"cannot isolate the highest time derivatives: the coefficient matrix of "
            f"{[str(a) for a in acc]} in equations "
            f"{[e.name for e in evolution[:n]]} is singular")
    sol = M.LUsolve(b)

    # argument slots of the compiled evaluators: (kind, state row); "row"
    # reads the state, a stencil kind differentiates the row in x^1
    slots = {ex.base(0): ("t", 0)}
    if m == 2:
        slots[ex.base(1)] = ("x", 0)
    rows = [ex.field(A) for A in range(n)] + [ex.velocity(A, 0) for A in range(n)]
    slots.update({a: ("row", i) for i, a in enumerate(rows + [ex.action(0)])})
    if m == 2:
        for A in range(n):
            slots[ex.velocity(A, 1)] = ("central", A)
            slots[ex.second_jet(A, 0, 1)] = ("central", n + A)
            slots[ex.second_jet(A, 1, 1)] = ("central2", A)
        slots[ex.action_grad(0, 1)] = ("central", 2 * n)

    params = dict(config.parameters)
    psubs = {sp.Symbol(k): sp.Float(v) for k, v in params.items()}

    def _compile(named: list, slot_of: dict) -> tuple:
        exprs = []
        for what, e in named:
            e = sp.expand(sp.sympify(e).xreplace(gauge)).xreplace(psubs)
            extra = e.free_symbols - set(slot_of)
            if extra:
                raise CompileError(
                    f"{what} depends on {sorted(map(str, extra))}; bind these "
                    "parameters (simulate.parameters or --param) before running")
            exprs.append(e)
        used = [a for a in slot_of if any(a in e.free_symbols for e in exprs)]
        # no cse: it reassociates products, (c*a)*b -> c*(a*b), changing last bits
        func = _lambdify(used, exprs)
        return tuple(exprs), func, tuple(slot_of[a] for a in used)

    exprs, rhs_func, rhs_slots = _compile(
        [(f"acceleration of field {A}", sol[A]) for A in range(n)]
        + [("the Lagrangian", L_expr)], slots)
    # mechanical energy density: sum_A v dL/dv - L with action variables at
    # zero; its spatial gradients are forward differences
    e_density = sum(ex.velocity(A, 0) * ex.diff(L_expr, ex.velocity(A, 0)) for A in range(n))
    e_density = sp.expand(e_density - L_expr).xreplace(
        {ex.action(mu): sp.Integer(0) for mu in range(m)})
    forward = {ex.velocity(A, 1): ("forward", A) for A in range(n)} if m == 2 else {}
    (energy_expr,), energy_func, energy_slots = _compile(
        [("the energy density", e_density)], {**slots, **forward})

    N = int(config.N) if m == 2 else 1
    dx = (float(config.length) if m == 2 else 1.0) / N
    state_names = tuple(str(a) for a in rows + [ex.action(0)])
    return EvolutionProblem(
        m=m, n=n, N=N, dx=dx, state_names=state_names, exprs=exprs,
        energy_expr=energy_expr, rhs_func=rhs_func, rhs_slots=rhs_slots,
        energy_func=energy_func, energy_slots=energy_slots,
        initial=dict(config.initial), parameter_values=params,
        monitors=tuple(config.monitors))


def _slot_values(p: EvolutionProblem, slots: Sequence[tuple[str, int]], t: float,
                 arrays) -> list:
    # a one-point problem's slots are only "t" and "row", and its rows are
    # a list of numpy scalars (see ``_rows``); t is one too, so that a model
    # dividing by t gives inf at t = 0 rather than ZeroDivisionError
    return [np.float64(t) if kind == "t" else p.x if kind == "x"
            else arrays[row] if kind == "row"
            else _STENCILS[kind](arrays[row], p.dx) for kind, row in slots]


def _rows(p: EvolutionProblem, st: "GridState"):
    """The state's rows as the evaluators read them: numpy float64 scalars
    for a one-point problem, the stacked arrays otherwise."""
    return list(st.arrays[:, 0]) if p.m == 1 else st.arrays


def _lagrangian(p: EvolutionProblem, st: "GridState"):
    """L at the state: a numpy scalar for a one-point problem, else an (N,) array."""
    val = p.rhs_func(*_slot_values(p, p.rhs_slots, st.t, _rows(p, st)))[-1]
    if p.m == 1:
        return np.float64(val)
    return np.broadcast_to(np.asarray(val, dtype=float), (p.N,))


def _fill_rhs(p: EvolutionProblem, t: float, arrays: np.ndarray, out: np.ndarray) -> None:
    n = p.n
    out[:n] = arrays[n:2 * n]
    for i, val in enumerate(p.rhs_func(*_slot_values(p, p.rhs_slots, t, arrays))):
        out[n + i] = val


def _rhs_point(p: EvolutionProblem, t: float, y: list) -> list:
    n = p.n
    return y[n:2 * n] + p.rhs_func(*_slot_values(p, p.rhs_slots, t, y))


def _step_point(p: EvolutionProblem, st: GridState, dt: float) -> GridState:
    # the array path's arithmetic, one numpy scalar per state variable
    a, h, t = _rows(p, st), dt / 2, st.t
    k1 = _rhs_point(p, t, a)
    k2 = _rhs_point(p, t + h, [k * h + y for k, y in zip(k1, a)])
    k3 = _rhs_point(p, t + h, [k * h + y for k, y in zip(k2, a)])
    k4 = _rhs_point(p, t + dt, [k * dt + y for k, y in zip(k3, a)])
    c = dt / 6
    new = [(((q1 + 2 * q2) + 2 * q3) + q4) * c + y
           for q1, q2, q3, q4, y in zip(k1, k2, k3, k4, a)]
    return GridState(t + dt, np.array(new, dtype=float).reshape(p.n_vars, 1))


def step_rk4(p: EvolutionProblem, st: GridState, dt: float) -> GridState:
    """One classical fourth-order Runge--Kutta step (reuses ``p.stages``: not re-entrant).

    The stage sums are ``(((k1 + 2 k2) + 2 k3) + k4) (dt/6) + a`` with stage
    states ``k c + a``.  A one-point problem (``m = 1``) computes them on
    numpy float64 scalars, a grid problem on the stacked arrays; both return
    a fresh state array and give the same bits on one point.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if p.m == 2 and dt > _CFL * p.dx:
        raise ValueError(f"dt={dt} violates the CFL guard dt <= {_CFL}*dx = {_CFL * p.dx}")
    if p.m == 1:
        return _step_point(p, st, dt)
    # stage sums in the textbook order ((k1 + 2 k2) + 2 k3) + k4, built in
    # a fresh array (the returned state) from the problem's two stage buffers
    a, h = st.arrays, dt / 2
    k, ys = p.stages
    _fill_rhs(p, st.t, a, k)
    acc = k.copy()
    np.multiply(k, h, out=ys)
    ys += a
    _fill_rhs(p, st.t + h, ys, k)
    for c in (h, dt):
        np.multiply(k, 2, out=ys)
        acc += ys
        np.multiply(k, c, out=ys)
        ys += a
        _fill_rhs(p, st.t + c, ys, k)
    acc += k
    acc *= dt / 6
    acc += a
    return GridState(st.t + dt, acc)


def monitor_action_balance(p: EvolutionProblem, st: GridState) -> float:
    """Instantaneous balance residual max|ds^0/dx^0 + ds^1/dx^1 - L|.

    The time derivative of ``s^0`` is the integrator's own right-hand side,
    which in the gauge ``s^1 == 0`` is L itself, so this value is 0 by
    construction (NaN where L is not finite).  It measures nothing about the
    integrator until it is redefined against the time stepping (ROADMAP
    item 3).
    """
    lval = _lagrangian(p, st)
    res = abs(lval - lval)
    return float(res if p.m == 1 else np.max(res))


def monitor_energy(p: EvolutionProblem, st: GridState) -> float:
    """Discrete mechanical energy (density summed over the grid).

    Spatial gradients are evaluated with forward differences so that for the
    free wave this is exactly the invariant of the central-stencil
    semidiscretization; for ``m = 1`` it is the pointwise energy.
    """
    dens = p.energy_func(*_slot_values(p, p.energy_slots, st.t, _rows(p, st)))[0]
    if p.m == 1:
        return float(dens)
    return float(np.sum(np.broadcast_to(np.asarray(dens, dtype=float), (p.N,))) * p.dx)


def run(p: EvolutionProblem, dt: float, t_end: float, cadence: int = 1) -> RunReport:
    """Integrate from the problem's initial data to ``t_end``.

    Monitors are sampled every ``cadence`` steps and at both ends, as are
    the states unless they would exceed 2e6 grid values (then ``states`` is
    None).  The centered-in-time balance residual ``action_balance_fd`` is
    computed from the per-step ``s^0`` history after the run.  A non-finite
    state aborts the run and the report keeps the last good state.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got dt={dt}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be non-negative and finite, got t_end={t_end}")
    if cadence < 1:
        raise ValueError(f"cadence must be at least 1, got cadence={cadence}")
    steps = int(round(t_end / dt))
    keep_states = p.N * (steps // cadence + 1) <= 2_000_000
    st = p.initial_state()
    mon: dict[str, list] = {name: [] for name in p.monitors if name != "action_balance_fd"}
    times: list[float] = []
    states: list[GridState] = []
    want_fd = "action_balance_fd" in p.monitors
    s_hist: list[np.ndarray] = []
    l_hist: list[np.ndarray] = []

    def sample(state: GridState):
        for name in mon:
            if name == "action_balance":
                mon[name].append(monitor_action_balance(p, state))
            elif name == "energy":
                mon[name].append(monitor_energy(p, state))
            else:
                raise ValueError(f"unknown monitor {name!r}")
        times.append(state.t)
        if keep_states:
            states.append(state.copy())

    def record_fd(state: GridState):
        s_hist.append(state.arrays[2 * p.n].copy())
        l_hist.append(np.array(_lagrangian(p, state), ndmin=1))

    sample(st)
    if want_fd:
        record_fd(st)
    termination = "completed"
    for k in range(steps):
        new = step_rk4(p, st, dt)
        if not new.finite:
            termination = "non-finite state"
            break
        st = new
        if want_fd:
            record_fd(st)
        if (k + 1) % cadence == 0 or k == steps - 1:
            sample(st)

    series = {name: np.asarray(vals) for name, vals in mon.items()}
    if want_fd and len(s_hist) >= 3:
        S = np.stack(s_hist)
        Lv = np.stack(l_hist)
        fd = (S[2:] - S[:-2]) / (2.0 * dt) - Lv[1:-1]
        series["action_balance_fd"] = np.max(np.abs(fd), axis=1)
    max_res = float(np.max(series["action_balance"])) if "action_balance" in series else math.nan
    return RunReport(times=np.asarray(times), series=series,
                     states=states if keep_states else None,
                     max_action_residual=max_res, termination=termination)


def write_csv(report: RunReport, p: EvolutionProblem, path: str) -> None:
    """Write monitor series (and small-state trajectories) as CSV."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        mon_names = [k for k in report.series if k != "action_balance_fd"]
        header = ["t"] + mon_names
        small = report.states is not None and p.N <= 8
        if small:
            header += [f"{name}@{i}" for name in p.state_names for i in range(p.N)]
        w.writerow(header)
        for idx, t in enumerate(report.times):
            row = [f"{t:.12g}"] + [f"{report.series[kk][idx]:.12g}" for kk in mon_names]
            if small:
                stt = report.states[idx]
                row += [f"{stt.arrays[j, i]:.12g}"
                        for j in range(p.n_vars) for i in range(p.N)]
            w.writerow(row)
