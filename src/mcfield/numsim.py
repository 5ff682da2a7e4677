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
    length: float
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
    cfl: float = 0.5
    monitors: tuple[str, ...] = ("action_balance", "energy")

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
            f = sp.lambdify([ex.base(1)], e, modules="numpy")
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


def compile_problem(eqs: EquationSet, config: SimulateConfig,
                    parameter_values: Optional[dict[str, float]] = None) -> EvolutionProblem:
    """Compile a Lagrangian evolution equation set into callable form.

    The set must contain the action-balance equation (its right-hand side is
    the Lagrangian) and one evolution equation per field, jointly solvable
    for the highest time derivatives ``d2y[A,0,0]``.
    """
    m, n = eqs.m, eqs.n
    if m not in (1, 2):
        raise CompileError(f"numeric integration supports m in (1, 2), got m={m}")
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
            if sp.diff(r, a, 2) != 0:
                raise CompileError(f"equation {e.name!r} is not linear in {a}")
        residuals.append(r)
    M = sp.Matrix(n, n, lambda B, A: sp.diff(residuals[B], acc[A]))
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

    params = dict(parameter_values or {})
    params.update(config.parameters)
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
        func = sp.lambdify(used, exprs, modules="numpy")
        return tuple(exprs), func, tuple(slot_of[a] for a in used)

    exprs, rhs_func, rhs_slots = _compile(
        [(f"acceleration of field {A}", sol[A]) for A in range(n)]
        + [("the Lagrangian", L_expr)], slots)
    # mechanical energy density: sum_A v dL/dv - L with action variables at
    # zero; its spatial gradients are forward differences
    e_density = sum(ex.velocity(A, 0) * sp.diff(L_expr, ex.velocity(A, 0)) for A in range(n))
    e_density = sp.expand(e_density - L_expr).xreplace(
        {ex.action(mu): sp.Integer(0) for mu in range(m)})
    forward = {ex.velocity(A, 1): ("forward", A) for A in range(n)} if m == 2 else {}
    (energy_expr,), energy_func, energy_slots = _compile(
        [("the energy density", e_density)], {**slots, **forward})

    N = max(1, int(config.N)) if m == 2 else 1
    length = float(config.length) if m == 2 else 1.0
    dx = length / N
    state_names = tuple(str(a) for a in rows + [ex.action(0)])
    return EvolutionProblem(
        m=m, n=n, N=N, length=length, dx=dx, state_names=state_names, exprs=exprs,
        energy_expr=energy_expr, rhs_func=rhs_func, rhs_slots=rhs_slots,
        energy_func=energy_func, energy_slots=energy_slots,
        initial=dict(config.initial), parameter_values=params,
        monitors=tuple(config.monitors))


def _slot_values(p: EvolutionProblem, slots: Sequence[tuple[str, int]], t: float,
                 arrays: np.ndarray) -> list:
    return [t if kind == "t" else p.x if kind == "x" else arrays[row] if kind == "row"
            else _STENCILS[kind](arrays[row], p.dx) for kind, row in slots]


def _lagrangian(p: EvolutionProblem, st: "GridState") -> np.ndarray:
    vals = p.rhs_func(*_slot_values(p, p.rhs_slots, st.t, st.arrays))
    return np.broadcast_to(np.asarray(vals[-1], dtype=float), (p.N,))


def _fill_rhs(p: EvolutionProblem, t: float, arrays: np.ndarray, out: np.ndarray) -> None:
    n = p.n
    out[:n] = arrays[n:2 * n]
    for i, val in enumerate(p.rhs_func(*_slot_values(p, p.rhs_slots, t, arrays))):
        out[n + i] = val


def step_rk4(p: EvolutionProblem, st: GridState, dt: float) -> GridState:
    """One classical fourth-order Runge--Kutta step (reuses ``p.stages``: not re-entrant)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if p.m == 2 and dt > p.cfl * p.dx:
        raise ValueError(f"dt={dt} violates the CFL guard dt <= {p.cfl}*dx = {p.cfl * p.dx}")
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
    return float(np.max(np.abs(lval - lval)))


def monitor_energy(p: EvolutionProblem, st: GridState) -> float:
    """Discrete mechanical energy (density summed over the grid).

    Spatial gradients are evaluated with forward differences so that for the
    free wave this is exactly the invariant of the central-stencil
    semidiscretization; for ``m = 1`` it is the pointwise energy.
    """
    vals = _slot_values(p, p.energy_slots, st.t, st.arrays)
    dens = np.broadcast_to(np.asarray(p.energy_func(*vals)[0], dtype=float), (p.N,))
    if p.m == 2:
        return float(np.sum(dens) * p.dx)
    return float(dens[0])


def run(p: EvolutionProblem, dt: float, t_end: float, cadence: int = 1,
        keep_states: Optional[bool] = None) -> RunReport:
    """Integrate from the problem's initial data to ``t_end``.

    Monitors are sampled every ``cadence`` steps.  The centered-in-time
    balance residual ``action_balance_fd`` is computed from the per-step
    ``s^0`` history after the run.  A non-finite state aborts the run and the
    report keeps the last good state.
    """
    steps = int(round(t_end / dt))
    if keep_states is None:
        keep_states = p.N * (steps // max(1, cadence) + 1) <= 2_000_000
    st = p.initial_state()
    times = [st.t]
    mon: dict[str, list] = {name: [] for name in p.monitors if name != "action_balance_fd"}
    states: list[GridState] = [st.copy()] if keep_states else []
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

    def record_fd(state: GridState):
        s_hist.append(state.arrays[2 * p.n].copy())
        l_hist.append(_lagrangian(p, state).copy())

    sample(st)
    if want_fd:
        record_fd(st)
    termination = "completed"
    sampled_times = [st.t]
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
            sampled_times.append(st.t)
            if keep_states:
                states.append(st.copy())
        times.append(st.t)

    series = {name: np.asarray(vals) for name, vals in mon.items()}
    if want_fd and len(s_hist) >= 3:
        S = np.stack(s_hist)
        Lv = np.stack(l_hist)
        fd = (S[2:] - S[:-2]) / (2.0 * dt) - Lv[1:-1]
        series["action_balance_fd"] = np.max(np.abs(fd), axis=1)
    max_res = float(np.max(series["action_balance"])) if "action_balance" in series else math.nan
    return RunReport(times=np.asarray(sampled_times), series=series,
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
