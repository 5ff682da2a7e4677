"""Desk-scale numerical integration of derived evolution systems.

Supported cases: ``m = 1`` (ODE systems in the single base coordinate) and
``m = 2`` (one time plus one periodic space dimension).  The evolution
equations are reduced to first order by introducing ``v^A = dy^A/dx^0``;
spatial derivatives are realized as second-order central differences on a
periodic grid, and time stepping uses fixed-step classical RK4.

The accelerations and L, and the energy density, are each printed once as
text that reads only the argument slots it uses, so an evaluation computes
only the stencils it needs.  ``compile_problem`` generates two functions
from that text, which bind the slots alike: ``rk4_block``, ``count`` RK4
steps in one loop over the state's rows, and ``evaluate_state``, the
derivative (the accelerations and L) and energy density of a lone state.
The block evaluates the text inline, a stencil slot as a call on the row,
and sums the stages row by row in the textbook order.  It is
first-same-as-last: it takes the start state's derivative as stage 1, ends
each step by evaluating the right-hand side on the end state, which is the
next step's stage 1, and after its last step, when its caller asks,
evaluates the energy density once.  It returns the end state with that
derivative and density, so each step costs four evaluations and a sample
costs none; ``run`` asks for the density only at a sampled block end of a
run that monitors ``energy``, evaluates the initial state alone, in one
call of ``_evaluate``, and carries the derivative from block to block.
``run`` calls the block once per cadence interval (the last one shorter),
or once per step where ``action_balance_fd`` reads every step.  A grid
(``m = 2``) calls it on ``numpy.float64(t)`` and its rows and stacks the
returned rows into the new state.  A one-point problem (``m = 1``, hence ``N = 1``) calls
it on Python floats, whose ``+ - * /`` give the same bits as numpy float64
and cost less than half as much; every power and function is a numpy
kernel and returns a numpy scalar, as on an array, so the results are bit
for bit those of 1-element arrays.  A block that raises ``ArithmeticError``
(a Python float divided by zero) or ends non-finite is replayed from its
start one step at a time, carrying the derivative as the block does; on
one point a step that fails is recomputed in the same way on numpy float64
scalars, whose array semantics give inf/nan with numpy's warning, and the
run ends as ``"non-finite state"`` on the last good state.  A step's
closing evaluation may fail on a finite end state (a Python float divided
by zero): that step is recomputed on numpy scalars too, and the next step
then ends non-finite, as its first stage would have at an array.  The one
difference from 1-element arrays: an intermediate overflow whose step still
ends finite no longer warns (and a failed block, which runs on past its
failure, may warn before its replay, as may a step's closing evaluations
on the non-finite state it ends on, and, where ``action_balance_fd``
makes every step a block, ``_evaluate`` on a last good state no sample
asked a density of).  A one-point
state keeps the returned scalars (``_PointState``) and builds its
``(n_vars, 1)`` read-only array only when something reads it.
``_PointwisePrinter`` exists for the bits: ``float64 ** e`` calls libm
``pow`` where ``ndarray ** e`` calls numpy's ``square``/``power`` kernels,
which differ in the last bit, so every power is printed as an explicit
numpy kernel.  Each expression list is printed once, and every generated
function is compiled by ``_generate`` with ``numpy`` bound by name as its
one global (``from numpy import *`` would import ``numpy.f2py`` and more).

Action variables: the balance law constrains only the divergence of the
``s^mu`` fields.  We adopt the gauge ``s^1 == 0`` for ``m = 2`` (so the
balance reads ``ds^0/dx^0 = L``) and integrate ``s^0`` alongside the fields.

Monitors, each read from what the block returned at the sampled state,
with no evaluation of its own:

- ``action_balance``: instantaneous max-norm of the balance residual, from
  the L of the state's derivative, the integrator's own right-hand side (0
  by construction, see ``monitor_action_balance``).
- ``action_balance_fd``: balance residual with the time derivative replaced
  by a centered finite difference of the stored ``s^0`` history, against
  the L of each step's derivative (second-order in the step size; useful
  for convergence studies).
- ``energy``: discrete mechanical energy ``sum_A v^A dL/dv^A - L`` with the
  action variables set to zero, from the state's energy density; spatial
  gradients inside the energy use forward differences so the free-wave
  energy is exactly the conserved quantity of the central-stencil
  semidiscretization.

``monitor_action_balance``, ``monitor_energy`` and ``step_rk4`` give the
same values for a lone state, through ``_evaluate``.
"""

from __future__ import annotations

import functools
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
    # ``count`` RK4 steps in one call, and the derivative and energy
    # density of a lone state (see ``_compile_block``)
    rk4_block: Callable
    state_func: Callable
    # the initial data: one evaluator of every state row at the points x^1
    initial_func: Callable
    monitors: tuple[str, ...]
    # the points x^1 (the one point 0 for m = 1)
    x: np.ndarray = dc_field(repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return 2 * self.n + 1

    def initial_state(self) -> "GridState":
        """A fresh state at t = 0 from the compiled initial data."""
        return GridState(t=0.0, arrays=np.stack([
            np.broadcast_to(np.asarray(v, dtype=float), (self.N,))
            for v in self.initial_func(self.x)]))


@dataclass
class GridState:
    """State at one time: stacked arrays (one row per state variable)."""

    t: float
    arrays: np.ndarray  # shape (n_vars, N)

    @property
    def values(self) -> list:
        """The state's values, row by row, as Python floats."""
        return self.arrays.ravel().tolist()

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.arrays).all())


class _PointState(GridState):
    """A one-point state as the scalars ``rk4_block`` returned, one per state
    variable: Python floats from the float pass, numpy float64 where a numpy
    kernel or the fallback made them.  Its ``(n_vars, 1)`` array is built on
    the first read and is read-only, because ``step_rk4`` steps from the
    scalars.  ``finite`` is tested once, when the state is made: it shadows
    ``GridState``'s property with a plain attribute, in Python rather than by
    a ufunc, because ``step_rk4`` and ``run`` both read it.  ``values``
    shadows ``GridState``'s property in the same way: it is the scalars."""

    finite = True
    values: tuple = ()

    def __init__(self, t: float, values: tuple):
        self.t = t
        self.values = values
        self.finite = all(map(math.isfinite, values))

    @functools.cached_property
    def arrays(self) -> np.ndarray:
        a = np.array(self.values, dtype=float).reshape(-1, 1)
        a.flags.writeable = False
        return a


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


def _generate(name: str, params: Sequence[str], body: Sequence[str]) -> Callable:
    """The function ``def name(params):`` with the lines ``body``, compiled
    with ``numpy`` as its one global: every evaluator comes from here."""
    namespace = {"numpy": np}
    exec(compile("\n".join([f"def {name}({', '.join(params)}):", *body]), f"<{name}>", "exec"),
         namespace)
    return namespace[name]


def _printed(exprs: Sequence[sp.Expr]) -> str:
    """``exprs`` as one comma-separated text, each expression printed once by
    ``_PointwisePrinter``, with every symbol named as ``str`` names it."""
    return ", ".join(map(_PointwisePrinter().doprint, exprs))


def _evaluator(args: Sequence[sp.Symbol], exprs: Sequence[sp.Expr]) -> Callable:
    """The function of ``args`` that returns the list of ``exprs``, as
    ``_printed`` prints them."""
    return _generate("evaluate", [str(a) for a in args], [f"    return [{_printed(exprs)}]"])


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
        raise CompileError(f"a grid needs N >= 3 points, got N={config.N}; "
                           "set simulate.N in the model or pass --n-grid")
    balance = [e for e in eqs.equations if e.role is EquationRole.ACTION_BALANCE]
    if not balance:
        raise CompileError("equation set has no action-balance equation")
    L_expr = ex.expand(balance[0].rhs - (balance[0].lhs
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
        r = ex.expand((e.lhs - e.rhs).xreplace(gauge))
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

    psubs = {sp.Symbol(k): sp.Float(v) for k, v in config.parameters.items()}

    def _compile(named: list, slot_of: dict) -> tuple:
        exprs = []
        for what, e in named:
            e = ex.expand(sp.sympify(e).xreplace(gauge)).xreplace(psubs)
            extra = e.free_symbols - set(slot_of)
            if extra:
                raise CompileError(
                    f"{what} depends on {sorted(map(str, extra))}; bind these "
                    "parameters (simulate.parameters or --param) before running")
            exprs.append(e)
        used = [a for a in slot_of if any(a in e.free_symbols for e in exprs)]
        # what the generated functions inline: the slots, the argument names
        # and the text (no cse: it reassociates products, (c*a)*b -> c*(a*b),
        # changing last bits)
        return tuple(exprs), (tuple(slot_of[a] for a in used), [str(a) for a in used],
                              _printed(exprs))

    exprs, rhs_code = _compile(
        [(f"acceleration of field {A}", sol[A]) for A in range(n)]
        + [("the Lagrangian", L_expr)], slots)
    # mechanical energy density: sum_A v dL/dv - L with action variables at
    # zero; its spatial gradients are forward differences
    e_density = sum(ex.velocity(A, 0) * ex.diff(L_expr, ex.velocity(A, 0)) for A in range(n))
    e_density = ex.expand(e_density - L_expr).xreplace(
        {ex.action(mu): sp.Integer(0) for mu in range(m)})
    forward = {ex.velocity(A, 1): ("forward", A) for A in range(n)} if m == 2 else {}
    (energy_expr,), energy_code = _compile(
        [("the energy density", e_density)], {**slots, **forward})

    # initial data: functions of x^1 alone (m = 2) or constants (m = 1)
    state_names = tuple(str(a) for a in rows + [ex.action(0)])
    initial = []
    for name in state_names:
        e = sp.sympify(config.initial.get(name, sp.Integer(0))).xreplace(psubs)
        free = e.free_symbols - ({ex.base(1)} if m == 2 else set())
        if free:
            raise CompileError(
                f"initial data for {name} has unresolved symbols {sorted(map(str, free))}")
        initial.append(e)

    N = int(config.N) if m == 2 else 1
    dx = (float(config.length) if m == 2 else 1.0) / N
    x = np.arange(N) * dx
    rk4_block, state_func = _compile_block(n, rhs_code, energy_code, x, dx)
    return EvolutionProblem(
        m=m, n=n, N=N, dx=dx, state_names=state_names, exprs=exprs,
        energy_expr=energy_expr, rk4_block=rk4_block, state_func=state_func,
        initial_func=_evaluator([ex.base(1)], initial), monitors=tuple(config.monitors), x=x)


def _compile_block(n: int, rhs: tuple, energy: tuple, x: np.ndarray,
                   dx: float) -> tuple[Callable, Callable]:
    """``rk4_block`` and ``evaluate_state``, generated from one printed text
    with one slot binding: ``count`` classical RK4 steps in one loop, the
    first stage of each step the same as the last evaluation of the one
    before (FSAL), and the derivative and energy density of a lone state.

    ``rk4_block`` takes ``(t, dt, count, energy, a0, ..., a{2n}, d0, ...,
    d{n})``: the time, the step, the number of steps (at least one), whether
    to evaluate the energy density, the state's rows and the state's
    derivative, i.e. the accelerations and L there.  It returns ``(t, a0,
    ..., a{2n}, d0, ..., d{n}, e)``: the end state, its derivative and its
    energy density, or None for ``e`` when ``energy`` is false.
    ``evaluate_state`` takes ``(t, energy, a0, ..., a{2n})`` and returns
    ``(d0, ..., d{n}, e)``: the block's closing evaluation and energy tail.
    ``rhs`` and ``energy`` are each the slots, the argument names and the
    printed list of the accelerations and L, or of the energy density; an
    evaluation binds the values of the slots to the names and evaluates the
    text, without a call.  A stencil slot is a call on the row, such as
    ``_central(_y2_0, _dx)``, and the ``x`` slot is ``_x``: the stencils,
    ``x`` and ``dx`` are both functions' leading arguments, bound here once.
    Stage 1 of a step takes the derivative it is given; stages 2 to 4
    evaluate the right-hand side at ``t + dt/2``, ``t + dt/2`` and ``t +
    dt``, of the type of ``t``; the step then evaluates it on its end state,
    and that is the next step's stage 1.  So each step makes four
    evaluations.  After the last step the stage locals are released, which
    keeps a grid's peak memory at that of the loop, and the energy text is
    evaluated once on the end state if ``energy`` asks for it.  The rows
    are arrays on a grid; on one point they are Python floats or numpy
    float64 scalars (see ``step_rk4``).  The arithmetic runs row by row:
    stage states ``k*c + a``, the sums ``(((k1 + 2*k2) + 2*k3) + k4)*(dt/6)
    + a`` and the time ``t + dt`` after each step.
    """
    a = [f"_a{i}" for i in range(2 * n + 1)]
    deriv = [f"_k1_{i}" for i in range(n, len(a))]

    def evaluate(code: tuple, rows: list, t: str, out: list, indent: str) -> list:
        slots, names, text = code
        bind = [f"{indent}{', '.join(names)} = " + ", ".join(
            t if kind == "t" else "_x" if kind == "x" else rows[row] if kind == "row"
            else f"_{kind}({rows[row]}, _dx)" for kind, row in slots)] if names else []
        return bind + [f"{indent}{', '.join(out)} = {text}"]

    lines = ["    _h = _dt / 2", "    _c = _dt / 6", "    for _step in range(_count):"]
    # each stage's derivative: its velocities, then the accelerations and L
    ks, stage_locals = [a[n:2 * n] + deriv], []
    for stage, (t_stage, c) in enumerate(
            [("_t + _h", "_h"), ("_t + _h", "_h"), ("_t + _dt", "_dt")], 2):
        y = [f"_y{stage}_{i}" for i in range(len(a))]
        out = [f"_k{stage}_{i}" for i in range(n, len(a))]
        lines.append(f"        {', '.join(y)} = "
                     + ", ".join(f"{k}*{c} + {ai}" for k, ai in zip(ks[-1], a)))
        lines += evaluate(rhs, y, t_stage, out, "        ")
        ks.append(y[n:2 * n] + out)
        stage_locals += y + out
    lines.append(f"        {', '.join(a)} = " + ", ".join(
        f"(((({k1} + 2*{k2}) + 2*{k3}) + {k4})*_c + {ai})"
        for k1, k2, k3, k4, ai in zip(*ks, a)))
    lines.append("        _t = _t + _dt")
    closing = evaluate(rhs, a, "_t", deriv, "        ")
    energy_tail = ["    _e = None", "    if _energy:", *evaluate(energy, a, "_t", ["_e"], "        ")]
    lines += closing + [f"    del {', '.join(stage_locals)}"] + energy_tail
    lines.append(f"    return _t, {', '.join(a + deriv)}, _e")
    bound = ["_x", "_dx", *(f"_{kind}" for kind in _STENCILS)]
    block = _generate("rk4_block", [*bound, "_t", "_dt", "_count", "_energy", *a, *deriv], lines)
    state = _generate("evaluate_state", [*bound, "_t", "_energy", *a],
                      [line[4:] for line in closing] + energy_tail
                      + [f"    return {', '.join(deriv)}, _e"])
    return tuple(functools.partial(f, x, dx, *_STENCILS.values()) for f in (block, state))


def _evaluate(p: EvolutionProblem, st: GridState, energy: bool) -> tuple[list, object]:
    """The derivative of ``st`` (the accelerations and L, as ``rk4_block``
    takes them) and, if ``energy``, its energy density, else None: one call
    of ``p.state_func``.  A grid passes ``np.float64(t)`` and its rows.  One
    point passes numpy float64 scalars, so that a model dividing by the
    state or by t gives inf rather than ZeroDivisionError, and returns the
    derivative as Python floats where finite (a non-finite one stays the
    numpy scalar that gave it)."""
    rows = st.arrays if p.m == 2 else map(np.float64, st.values)
    *deriv, density = p.state_func(np.float64(st.t), energy, *rows)
    return ([float(v) if math.isfinite(v) else v for v in deriv] if p.m == 1 else deriv), density


def _balance(p: EvolutionProblem, lval) -> float:
    """max|ds^0/dx^0 - L| where ds^0/dx^0 is the value ``lval`` of L itself."""
    res = abs(lval - lval)
    return float(res if p.m == 1 else np.max(res))


def _energy(p: EvolutionProblem, density) -> float:
    """The energy of a density: its sum over the grid times dx, or its one value."""
    if p.m == 1:
        return float(density)
    return float(np.sum(np.broadcast_to(np.asarray(density, dtype=float), (p.N,))) * p.dx)


def _check_step(p: EvolutionProblem, dt: float) -> None:
    """``dt`` must be positive and finite, and on a grid at most ``_CFL * dx``."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got dt={dt}")
    if p.m == 2 and dt > _CFL * p.dx:
        raise ValueError(f"dt={dt} violates the CFL guard dt <= {_CFL}*dx = {_CFL * p.dx}")


def _ended(p: EvolutionProblem, out: tuple) -> tuple:
    """``rk4_block``'s return as (state, derivative, energy density)."""
    k = p.n_vars + 1
    if p.m == 2:
        return GridState(float(out[0]), np.stack(out[1:k])), out[k:-1], out[-1]
    return _PointState(float(out[0]), out[1:k]), out[k:-1], out[-1]


def _block(p: EvolutionProblem, start: tuple, dt: float, count: int,
           energy: bool) -> Optional[tuple]:
    """``count`` steps of ``p.rk4_block`` from ``start``, a (state,
    derivative, density) triple: the triple at the end, its density None
    unless ``energy``.  A grid steps at ``np.float64(t)`` on the state's
    rows, one point on Python floats; None where those raise
    ``ArithmeticError``."""
    st, deriv, _ = start
    if p.m == 2:
        return _ended(p, p.rk4_block(np.float64(st.t), dt, count, energy, *st.arrays, *deriv))
    try:
        return _ended(p, p.rk4_block(st.t, dt, count, energy, *st.values, *deriv))
    except ArithmeticError:
        return None


def _step(p: EvolutionProblem, start: tuple, dt: float, energy: bool) -> tuple:
    """One step of ``_block``; on one point, a step that raises or ends
    non-finite is rerun from ``start`` on numpy float64 scalars."""
    new = _block(p, start, dt, 1, energy)
    if p.m == 1 and (new is None or not new[0].finite):
        st, deriv, _ = start
        new = _ended(p, p.rk4_block(np.float64(st.t), dt, 1, energy,
                                    *map(np.float64, st.values), *map(np.float64, deriv)))
    return new


def _advance(p: EvolutionProblem, start: tuple, dt: float, count: int,
             energy: bool) -> tuple[tuple, int]:
    """Up to ``count`` RK4 steps from ``start``, a (state, derivative,
    density) triple: the triple at the last finite state and the number of
    steps to it.  Several steps are one call of the block; where that
    fails, they are replayed by ``_step`` up to the first non-finite state
    (see the module docstring).  If ``energy``, the returned state carries
    its density: a replayed step evaluates it on every state, so that a
    last good state before the end needs no second evaluation."""
    if count > 1:
        new = _block(p, start, dt, count, energy)
        if new is not None and new[0].finite:
            return new, count
    for done in range(count):
        new = _step(p, start, dt, energy)
        if not new[0].finite:
            return start, done
        start = new
    return start, count


def step_rk4(p: EvolutionProblem, st: GridState, dt: float) -> GridState:
    """One classical fourth-order Runge--Kutta step: the block
    ``p.rk4_block`` for one step from ``st`` and its derivative, evaluated
    here, returning a fresh state.

    The stage sums are ``(((k1 + 2 k2) + 2 k3) + k4) (dt/6) + a`` with stage
    states ``k c + a``, row by row.  A grid steps its rows at
    ``np.float64(t)``.  A one-point problem (``m = 1``) steps the state's
    scalars as Python floats; if that raises ``ArithmeticError`` or ends
    non-finite, it reruns the step from the same start on numpy float64
    scalars, which give inf/nan with numpy's warnings as an array would, and
    returns a ``_PointState`` holding the scalars.  ``run`` never calls it:
    it carries each state's derivative from block to block.  ``dt`` must
    pass ``_check_step``.
    """
    _check_step(p, dt)
    return _step(p, (st, _evaluate(p, st, False)[0], None), dt, False)[0]


def monitor_action_balance(p: EvolutionProblem, st: GridState) -> float:
    """Instantaneous balance residual max|ds^0/dx^0 + ds^1/dx^1 - L|.

    The time derivative of ``s^0`` is the integrator's own right-hand side,
    which in the gauge ``s^1 == 0`` is L itself, so this value is 0 by
    construction (NaN where L is not finite).  It measures nothing about the
    integrator until it is redefined against the time stepping (ROADMAP
    item 3).  ``run`` takes the same value from the L its block returns.
    """
    return _balance(p, _evaluate(p, st, False)[0][-1])


def monitor_energy(p: EvolutionProblem, st: GridState) -> float:
    """Discrete mechanical energy (density summed over the grid).

    Spatial gradients are evaluated with forward differences so that for the
    free wave this is exactly the invariant of the central-stencil
    semidiscretization; for ``m = 1`` it is the pointwise energy.  ``run``
    takes the same value from the density its block returns.
    """
    return _energy(p, _evaluate(p, st, True)[1])


def run(p: EvolutionProblem, dt: float, t_end: float, cadence: int = 1) -> RunReport:
    """Integrate from the problem's initial data to ``t_end``.

    Monitors are sampled every ``cadence`` steps and at both ends, as are
    the states unless they would exceed 2e6 grid values (then ``states`` is
    None); ``states`` holds the states themselves, not copies, and a
    one-point state is read-only.  ``dt`` and the step count ``t_end/dt``
    are checked once, before the first block: the count must be finite and
    make at most 1e10 grid-point steps ``N * t_end/dt``.  A run advances a
    cadence interval per block (see ``_advance``).  One ``_evaluate`` call
    gives the initial state's derivative, and its energy density if
    ``energy`` is monitored; every later state comes with the derivative
    its block evaluated there, and a sampled one with the density too.  So
    ``action_balance`` and the per-step L of ``action_balance_fd`` read
    that derivative's L, and ``energy`` sums that density: a step evaluates
    the right-hand side four times, the density is evaluated once per
    sample, and ``action_balance_fd``'s centered-in-time residual comes
    from the per-step ``s^0`` and L histories after the run.  A non-finite
    state aborts the run, and the last good state is sampled if it was not
    already, with the density its replayed step evaluated (from
    ``_evaluate`` if its block did not ask for one).
    """
    _check_step(p, dt)
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be non-negative and finite, got t_end={t_end}")
    if cadence < 1:
        raise ValueError(f"cadence must be at least 1, got cadence={cadence}")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"the step count t_end/dt is not finite: dt={dt}, t_end={t_end}")
    steps = int(round(t_end / dt))
    if p.N * steps > 10 ** 10:
        raise ValueError(f"the run's work N*t_end/dt exceeds 1e+10 grid-point steps: "
                         f"dt={dt}, t_end={t_end}, N={p.N}")
    keep_states = p.N * (steps // cadence + 1) <= 2_000_000
    mon: dict[str, list] = {name: [] for name in p.monitors if name != "action_balance_fd"}
    times: list[float] = []
    states: list[GridState] = []
    want_fd = "action_balance_fd" in p.monitors
    s_hist: list[np.ndarray] = []
    l_hist: list[np.ndarray] = []

    def sample(cur: tuple):
        state, deriv, density = cur
        for name in mon:
            if name == "action_balance":
                mon[name].append(_balance(p, deriv[-1]))
            elif name == "energy":
                mon[name].append(_energy(p, _evaluate(p, state, True)[1] if density is None
                                         else density))
            else:
                raise ValueError(f"unknown monitor {name!r}")
        times.append(state.t)
        if keep_states:
            # no copy: a state is fresh from its block and nothing writes it
            states.append(state)

    def record_fd(cur: tuple):
        s_hist.append(cur[0].arrays[2 * p.n].copy())
        l_hist.append(np.broadcast_to(np.asarray(cur[1][-1], dtype=float), (p.N,)))

    st = p.initial_state()
    if p.m == 1:
        # as every later one-point state: its scalars, shared by the report
        st = _PointState(st.t, tuple(st.values))
    deriv, density = _evaluate(p, st, "energy" in mon)
    sample((st, deriv, density))
    # the (state, derivative, energy density) triple the blocks carry on,
    # without the initial density: held into the first block, it changed
    # glibc's heap layout, and a 16384-point damped_wave run took ~1,800
    # more page faults and ~7% longer (2-core x86-64 Linux)
    del density
    cur = (st, deriv, None)
    if want_fd:
        record_fd(cur)
    termination = "completed"
    # a run advances one cadence interval per block; the finite-difference
    # monitor reads every step
    span = 1 if want_fd else cadence
    k = 0
    while k < steps:
        count = min(span, steps - k)
        # the block evaluates the energy density only where it is sampled
        end = k + count
        cur, done = _advance(p, cur, dt, count,
                             "energy" in mon and (end % cadence == 0 or end == steps))
        k += done
        if done < count:
            termination = "non-finite state"
            if times[-1] != cur[0].t:
                sample(cur)
            break
        if want_fd:
            record_fd(cur)
        if k % cadence == 0 or k == steps:
            sample(cur)

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
        # Python floats format as numpy's do, at a fraction of an indexing's cost
        columns = [report.times.tolist()] + [report.series[k].tolist() for k in mon_names]
        for idx, row in enumerate(zip(*columns)):
            if small:
                # a one-point state's scalars format as its array's values
                row += tuple(report.states[idx].values)
            w.writerow([f"{v:.12g}" for v in row])
