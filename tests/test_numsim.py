import dataclasses
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import sympy as sp

from mcfield import expr as ex
from mcfield import numsim
from mcfield.chart import ModelSpec
from mcfield.lagrangian import LagrangianSystem
from mcfield.modelfile import SimulateConfig, load_model

from conftest import model_path


def _run_python(args):
    """Run a Python process on the checkout's package; returns the finished process."""
    src = str(pathlib.Path(numsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [q for q in [os.environ.get("PYTHONPATH")] if q]))
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, timeout=120)


def _problem(L, m=1, n=1, params=(), config=None):
    p = {str(s): s for s in params}
    lag = LagrangianSystem(ModelSpec("t", m, n, L, p))
    eqs = lag.herglotz_el_equations()
    return numsim.compile_problem(eqs, config or SimulateConfig())


def _oscillator_problem(gamma=0.1, omega=1.0, initial=None):
    gam, om = sp.symbols("gamma omega")
    L = (ex.velocity(0, 0) ** 2 / 2 - om ** 2 * ex.field(0) ** 2 / 2
         - gam * ex.action(0))
    if initial is None:
        initial = {"y0": sp.Integer(1)}
    cfg = SimulateConfig(initial=initial,
                         parameters={"gamma": gamma, "omega": omega})
    return _problem(L, params=(gam, om), config=cfg)


class TestCompile:
    def test_unbound_parameter_rejected(self):
        gam = sp.Symbol("gamma")
        with pytest.raises(numsim.CompileError, match="gamma"):
            _problem(ex.velocity(0, 0) ** 2 / 2 - gam * ex.action(0), params=(gam,))

    def test_unbound_initial_symbol_rejected_at_compile(self):
        cfg = SimulateConfig(initial={"y0": sp.Symbol("a")})
        with pytest.raises(numsim.CompileError, match=re.escape("unresolved symbols ['a']")):
            _problem(ex.velocity(0, 0) ** 2 / 2 - ex.field(0) ** 2 / 2, config=cfg)

    def test_initial_state_is_fresh(self):
        p = _oscillator_problem()
        st0, st1 = p.initial_state(), p.initial_state()
        assert not np.shares_memory(st0.arrays, st1.arrays)
        assert st0.arrays.tolist() == [[1.0], [0.0], [0.0]]

    def test_constraint_only_system_rejected(self):
        # L linear in the velocity: no isolable second time derivative
        with pytest.raises(numsim.CompileError, match="singular|evolution"):
            _problem(ex.field(0) * ex.velocity(0, 0))

    def test_m3_rejected(self):
        L = sum(ex.velocity(0, mu) ** 2 for mu in range(3))
        with pytest.raises(numsim.CompileError, match="m in"):
            _problem(L, m=3)

    @pytest.mark.parametrize("N", [0, 2])
    def test_grid_below_three_points_rejected(self, N):
        L = ex.velocity(0, 0) ** 2 / 2 - ex.velocity(0, 1) ** 2 / 2
        with pytest.raises(numsim.CompileError, match=f"got N={N}"):
            _problem(L, m=2, config=SimulateConfig(N=N))

    def test_coupled_hessian_solve(self):
        # coupled two-field model: accelerations from a non-diagonal Hessian,
        # M a = dL/dy with M = [[1, 1/2], [1/2, 1]] and dL/dy = (-y1, -y0)
        L = (ex.velocity(0, 0) ** 2 / 2 + ex.velocity(0, 0) * ex.velocity(1, 0) / 2
             + ex.velocity(1, 0) ** 2 / 2 - ex.field(0) * ex.field(1))
        p = _problem(L, n=2)
        y0, y1, v0, v1, s0 = np.random.default_rng(7).normal(size=5)
        rows = [np.float64(r) for r in (y0, y1, v0, v1, s0)]
        *rhs, lval, _ = p.state_func(np.float64(0.0), False, *rows)
        acc = np.linalg.solve([[1.0, 0.5], [0.5, 1.0]], [-y1, -y0])
        assert np.allclose(rhs, acc, rtol=1e-13, atol=0)
        lag = v0 ** 2 / 2 + v0 * v1 / 2 + v1 ** 2 / 2 - y0 * y1
        assert np.allclose(lval, lag, rtol=1e-13, atol=0)


class TestStepLevel:
    def test_zero_initial_data_stays_zero(self):
        p = _oscillator_problem(initial={})
        st = p.initial_state()
        for _ in range(50):
            st = numsim.step_rk4(p, st, 1e-2)
        assert np.allclose(st.arrays, 0.0)

    def test_free_oscillator_energy_drift_one_period(self):
        p = _oscillator_problem(gamma=0.0)
        st = p.initial_state()
        e0 = numsim.monitor_energy(p, st)
        steps = int(round(2 * math.pi / 1e-3))
        for _ in range(steps):
            st = numsim.step_rk4(p, st, 1e-3)
        assert abs(numsim.monitor_energy(p, st) - e0) < 1e-9

    def test_cfl_guard(self):
        L = ex.velocity(0, 0) ** 2 / 2 - ex.velocity(0, 1) ** 2 / 2
        cfg = SimulateConfig(N=64, length=2 * math.pi)
        p = _problem(L, m=2, config=cfg)
        st = p.initial_state()
        with pytest.raises(ValueError, match="CFL"):
            numsim.step_rk4(p, st, p.dx)

    def test_cfl_guard_on_a_run_of_blocks(self):
        # a run at cadence 4 steps through blocks, which never call step_rk4
        p, _ = _bundled_problem("damped_wave", N=16)
        dt = 0.5 * p.dx * 1.01
        with pytest.raises(ValueError, match="violates the CFL guard"):
            numsim.run(p, dt=dt, t_end=8 * dt, cadence=4)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("case", ["damped_oscillator", "damped_wave"])
    def test_bad_step_rejected(self, case, dt):
        # NaN passes both `dt <= 0` and the CFL guard; it must not step
        p, _ = _bundled_problem(case, N=16 if case == "damped_wave" else None)
        message = f"dt must be positive and finite, got dt={dt}"
        with pytest.raises(ValueError, match=re.escape(message)):
            numsim.step_rk4(p, p.initial_state(), dt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("N", [1, 16])
    def test_finite_flags_nan_and_inf(self, N, bad):
        # an array takes the ufunc, a one-point step's scalars math.isfinite
        arrays = np.ones((3, N))
        assert numsim.GridState(0.0, arrays).finite
        arrays[1, N - 1] = bad
        assert not numsim.GridState(0.0, arrays).finite
        if N == 1:
            assert numsim._PointState(0.0, (1.0, 1.0, 1.0)).finite
            assert not numsim._PointState(0.0, (1.0, bad, 1.0)).finite

    def test_rk4_global_order(self):
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            p = _oscillator_problem(gamma=0.1)
            st = p.initial_state()
            steps = int(round(1.0 / dt))
            for _ in range(steps):
                st = numsim.step_rk4(p, st, dt)
            g, w = 0.1, 1.0
            wt = math.sqrt(w * w - g * g / 4)
            t = st.t
            exact = math.exp(-g * t / 2) * (math.cos(wt * t)
                                            + g / (2 * wt) * math.sin(wt * t))
            errors.append(abs(st.arrays[0, 0] - exact))
        slope = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errors), 1)[0]
        assert abs(slope - 4.0) < 0.3


class TestPointwisePrinter:
    @pytest.mark.parametrize("e", [2, 3, -2, sp.Rational(3, 2), -1, sp.Rational(5, 2),
                                   sp.Rational(1, 2), sp.Rational(-1, 2)], ids=str)
    def test_scalar_and_array_powers_agree(self, e):
        # a numpy scalar's ** is libm pow, an array's is numpy's kernel; the
        # printed evaluator runs one kernel on both, the array's
        x = sp.Symbol("x")
        f = numsim._evaluator([x], [x ** e / 3])
        v = np.random.default_rng(5).uniform(0.1, 10.0, 2000)
        assert np.array_equal(np.array([f(s)[0] for s in v]), f(v)[0])
        assert np.array_equal(f(v)[0], sp.lambdify([x], x ** e / 3, modules="numpy")(v))

    def test_square_keeps_its_product_order(self):
        x = sp.Symbol("x")
        printer = numsim._PointwisePrinter()
        assert printer.doprint(x ** 2 / 2) == "(1/2)*(x*x)"
        assert printer.doprint((x + 1) ** 2) == "((x + 1)*(x + 1))"
        assert printer.doprint(x + 1 / x) == "x + 1/x"
        assert printer.doprint(x ** 3) == "numpy.power(x, 3)"

    def test_each_expression_is_printed_once(self, monkeypatch):
        # the rk4_block and evaluate_state run one printed text; the energy
        # and the initial data are printed once each as well
        printed, doprint = [], numsim._PointwisePrinter.doprint

        def spy(self, e, *args, **kwargs):
            printed.append(e)
            return doprint(self, e, *args, **kwargs)

        monkeypatch.setattr(numsim._PointwisePrinter, "doprint", spy)
        p, _ = _bundled_problem("damped_oscillator")
        assert [printed.count(e) for e in p.exprs] == [1] * len(p.exprs)
        assert len(printed) == len(p.exprs) + 1 + len(p.state_names)

    def test_one_exec_site_with_numpy_its_one_global(self):
        source = pathlib.Path(numsim.__file__).read_text()
        assert re.findall(r"\bexec\(|__globals__|\blambdify\(", source) == ["exec("]
        wave, _ = _bundled_problem("damped_wave")
        point, _ = _bundled_problem("damped_oscillator")
        for f in (wave.state_func.func, wave.initial_func, wave.rk4_block.func,
                  point.state_func.func, point.rk4_block.func):
            assert set(f.__globals__) == {"numpy", "__builtins__", f.__name__}

    def test_compiling_skips_numpy_star_import(self):
        # `from numpy import *` imports numpy.f2py; the compiled problem
        # binds numpy by name only
        code = (
            "import sys\n"
            "from mcfield import numsim\n"
            "from mcfield.lagrangian import LagrangianSystem\n"
            "from mcfield.modelfile import load_model\n"
            f"spec, cfg = load_model({model_path('damped_oscillator')!r})\n"
            "eqs = LagrangianSystem(spec).herglotz_el_equations()\n"
            "p = numsim.compile_problem(eqs, cfg)\n"
            "p.initial_state()\n"
            "assert numsim.run(p, dt=1e-2, t_end=0.1).termination == 'completed'\n"
            "assert 'numpy.f2py' not in sys.modules\n")
        done = _run_python(["-c", code])
        assert done.returncode == 0, done.stderr


class TestStencils:
    def test_spatial_stencils_second_order(self):
        k = 3
        errs = []
        for N in (64, 128):
            dx = 2 * math.pi / N
            x = np.arange(N) * dx
            u = np.sin(k * x)
            d1 = numsim._deriv_central(u, dx)
            errs.append(np.max(np.abs(d1 - k * np.cos(k * x))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_second_derivative_stencil(self):
        N, k = 128, 2
        dx = 2 * math.pi / N
        x = np.arange(N) * dx
        u = np.sin(k * x)
        d2 = numsim._deriv2_central(u, dx)
        assert np.max(np.abs(d2 + k * k * u)) < 5e-3

    @pytest.mark.parametrize("N", [1, 2, 3, 64])
    def test_slice_stencils_equal_periodic_roll(self, N):
        # the periodic wrap at both ends, bit for bit, down to one point
        u, dx = np.random.default_rng(N).normal(size=N), 0.3
        up, um = np.roll(u, -1), np.roll(u, 1)
        assert np.array_equal(numsim._deriv_central(u, dx), (up - um) / (2.0 * dx))
        assert np.array_equal(numsim._deriv2_central(u, dx), (up - 2.0 * u + um) / (dx * dx))
        assert np.array_equal(numsim._deriv_forward(u, dx), (up - u) / dx)


class TestRun:
    @pytest.mark.parametrize("dt,t_end,cadence,message", [
        (0.0, 1.0, 1, "dt=0.0"), (-0.1, 1.0, 1, "dt=-0.1"), (math.nan, 1.0, 1, "dt=nan"),
        (math.inf, 1.0, 1, "dt=inf"), (1e-3, -1.0, 1, "t_end=-1.0"),
        (1e-3, math.nan, 1, "t_end=nan"), (1e-3, math.inf, 1, "t_end=inf"),
        (5e-324, 1e10, 1, "dt=5e-324, t_end=10000000000.0"),
        (1e-300, 1.0, 1, "dt=1e-300, t_end=1.0, N=1"),
        (1e-3, 1.0, 0, "cadence=0"), (1e-3, 1.0, -2, "cadence=-2")])
    def test_bad_step_end_time_or_cadence_rejected(self, dt, t_end, cadence, message):
        with pytest.raises(ValueError, match=message):
            numsim.run(_oscillator_problem(), dt=dt, t_end=t_end, cadence=cadence)

    def test_work_cap_counts_grid_points(self):
        # 1e9 steps are within the cap on one point, not on 16
        p, _ = _bundled_problem("damped_wave", N=16)
        with pytest.raises(ValueError, match=r"exceeds 1e\+10 grid-point steps: "
                                             r"dt=1e-09, t_end=1.0, N=16"):
            numsim.run(p, dt=1e-9, t_end=1.0)

    @pytest.mark.parametrize("name", ["damped_oscillator", "damped_wave"])
    @pytest.mark.parametrize("monitors,asked", [
        (("action_balance_fd",), 0), (("action_balance_fd", "energy"), 5), (("energy",), 5)])
    def test_block_evaluates_the_energy_only_where_sampled(self, name, monitors, asked):
        # 20 steps at cadence 4: five sampled block ends after the initial
        # state, whether a block runs one step (action_balance_fd) or four
        p, dt = _bundled_problem(name, N=16)
        p.monitors = monitors
        block, calls = p.rk4_block, []

        def spy(t, dt, count, energy, *rows):
            out = block(t, dt, count, energy, *rows)
            calls.append((energy, out[-1] is not None))
            return out

        p.rk4_block = spy
        rep = numsim.run(p, dt=dt, t_end=20 * dt, cadence=4)
        assert rep.termination == "completed" and len(rep.times) == 6
        assert len(calls) == (20 if "action_balance_fd" in monitors else 5)
        assert sum(e for e, _ in calls) == asked
        assert all(bool(e) == evaluated for e, evaluated in calls)
        if "energy" in monitors:
            assert rep.series["energy"].tolist() == [
                numsim.monitor_energy(p, st) for st in rep.states]

    def test_zero_end_time_keeps_the_initial_state(self):
        rep = numsim.run(_oscillator_problem(), dt=1e-3, t_end=0.0)
        assert rep.termination == "completed" and rep.times == [0.0]

    def test_report_time_stamps_monotone(self):
        p = _oscillator_problem()
        rep = numsim.run(p, dt=1e-3, t_end=0.5, cadence=7)
        assert np.all(np.diff(rep.times) > 0)
        assert rep.termination == "completed"

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_state_aborts_with_last_good(self):
        # unstable model: exponential blow-up reaches inf in finite steps
        lam = sp.Symbol("lam")
        L = ex.velocity(0, 0) ** 2 / 2 + lam * ex.field(0) ** 2 / 2
        cfg = SimulateConfig(initial={"y0": sp.Integer(1)},
                             parameters={"lam": 1e8})
        p = _problem(L, params=(lam,), config=cfg)
        rep = numsim.run(p, dt=10.0, t_end=10000.0)
        assert rep.termination == "non-finite state"
        assert rep.states is None or all(s.finite for s in rep.states)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_division_by_zero_aborts_with_last_good(self):
        # acceleration -1/y0 at y0 = 0: a numpy scalar gives -inf (a Python
        # float would raise ZeroDivisionError)
        L = ex.velocity(0, 0) ** 2 / 2 - sp.log(ex.field(0))
        p = _problem(L, config=SimulateConfig(initial={"y0": sp.Integer(0)}))
        assert "1/y0" in str(p.exprs[0])
        rep = numsim.run(p, dt=1e-2, t_end=1.0)
        assert rep.termination == "non-finite state"
        assert len(rep.states) == 1 and all(s.finite for s in rep.states)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_division_by_time_at_start_aborts(self):
        # acceleration 1/x0 at t = 0: the time slot is a numpy scalar too, so
        # the first stage gives inf rather than raising ZeroDivisionError
        L = ex.velocity(0, 0) ** 2 / 2 + ex.field(0) / ex.base(0)
        p = _problem(L, config=SimulateConfig(initial={"y0": sp.Integer(1)}))
        assert ex.base(0) in p.exprs[0].free_symbols
        rep = numsim.run(p, dt=1e-2, t_end=1.0)
        assert rep.termination == "non-finite state"
        assert len(rep.states) == 1 and all(s.finite for s in rep.states)

    @pytest.mark.parametrize("fd", [False, True], ids=["no-fd", "fd"])
    @pytest.mark.parametrize("cadence", [1, 4])
    @pytest.mark.parametrize("case", ["damped_oscillator", "damped_wave"])
    def test_run_evaluates_only_the_initial_state(self, case, cadence, fd):
        # each block returns its end state's derivative and energy density,
        # so the run itself evaluates only the initial state, in one call:
        # its derivative and, if monitored, its energy density, for any length
        p, dt = _bundled_problem(case, N=16 if case == "damped_wave" else None)
        state_func, calls = p.state_func, []

        def spy(t, energy, *rows):
            calls.append(energy)
            return state_func(t, energy, *rows)

        p.state_func = spy
        for energy, steps in itertools.product((False, True), (0, 5, 17)):
            p.monitors = (("action_balance",) + ("energy",) * energy
                          + ("action_balance_fd",) * fd)
            calls.clear()
            rep = numsim.run(p, dt=dt, t_end=steps * dt, cadence=cadence)
            assert rep.termination == "completed"
            assert len(rep.times) == -(-steps // cadence) + 1
            assert calls == [energy]

    def test_point_states_are_read_only(self):
        # a report keeps the states themselves, not copies; one-point states
        # share their scalars, so none may take a write
        p, dt = _bundled_problem("damped_oscillator")
        steps, cadence = 30, 4
        states, _ = _reference_run(p, dt, steps, cadence)
        rep = numsim.run(p, dt=dt, t_end=steps * dt, cadence=cadence)
        assert len(rep.states) == len(states) == -(-steps // cadence) + 1
        for got, want in zip(rep.states, states):
            assert got.arrays.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got.arrays[0, 0] = 0.0

    def test_csv_writer(self, tmp_path):
        p = _oscillator_problem()
        rep = numsim.run(p, dt=1e-3, t_end=0.1, cadence=10)
        out = tmp_path / "run.csv"
        numsim.write_csv(rep, p, str(out))
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,")
        assert "y0@0" in lines[0]
        assert len(lines) == len(rep.times) + 1


def _reference_run(p, dt, steps, cadence):
    """The integrator as it was before the fused evaluator: one callable per
    expression over every argument slot, every stencil by ``np.roll``.
    Returns the sampled states and the three monitor series."""
    n, dx = p.n, p.dx

    def d1(u):
        return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)

    args = [ex.base(0)] + [ex.base(1)] * (p.m == 2) + [
        ex.field(A) for A in range(n)] + [ex.velocity(A, 0) for A in range(n)] + [ex.action(0)]
    if p.m == 2:
        args += ([ex.velocity(A, 1) for A in range(n)] + [ex.second_jet(A, 0, 1) for A in range(n)]
                 + [ex.second_jet(A, 1, 1) for A in range(n)] + [ex.action_grad(0, 1)])
    funcs = [sp.lambdify(args, e, modules="numpy") for e in p.exprs + (p.energy_expr,)]

    def f(i, t, a, forward=False):
        vals = [t] + [np.arange(p.N) * dx] * (p.m == 2) + list(a)
        if p.m == 2:
            vals += [(np.roll(a[A], -1) - a[A]) / dx if forward else d1(a[A]) for A in range(n)]
            vals += [d1(a[n + A]) for A in range(n)] + [
                (np.roll(a[A], -1) - 2.0 * a[A] + np.roll(a[A], 1)) / (dx * dx)
                for A in range(n)] + [d1(a[2 * n])]
        return np.broadcast_to(np.asarray(funcs[i](*vals), dtype=float), (p.N,))

    def rhs(t, a):
        return np.concatenate([a[n:2 * n], [f(i, t, a) for i in range(n + 1)]])

    t, a = 0.0, p.initial_state().arrays
    states, bal, energy, s_hist, l_hist = [], [], [], [], []
    for k in range(steps + 1):
        if k:
            k1 = rhs(t, a)
            k2 = rhs(t + dt / 2, a + dt / 2 * k1)
            k3 = rhs(t + dt / 2, a + dt / 2 * k2)
            k4 = rhs(t + dt, a + dt * k3)
            t, a = t + dt, a + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        lval = f(n, t, a)
        s_hist.append(a[2 * n].copy())
        l_hist.append(lval.copy())
        if k % cadence == 0 or k == steps:
            states.append(a)
            bal.append(float(np.max(np.abs(lval - lval))))
            dens = f(n + 1, t, a, forward=True)
            energy.append(float(np.sum(dens) * dx) if p.m == 2 else float(dens[0]))
    S, Lv = np.stack(s_hist), np.stack(l_hist)
    fd = np.max(np.abs((S[2:] - S[:-2]) / (2.0 * dt) - Lv[1:-1]), axis=1)
    return states, {"action_balance": bal, "energy": energy, "action_balance_fd": fd}


def _every_slot_problem():
    # m = 2 model whose accelerations read t, x, and every stencil slot:
    # dy[0,1], d2y[0,0,1], d2y[0,1,1] and ds[0,1]
    v, ux, s0 = ex.velocity(0, 0), ex.velocity(0, 1), ex.action(0)
    L = (v ** 2 / 2 - ux ** 2 / 2 + v * ux / 4 - s0 / 10 + ux * s0 / 20
         + sp.sin(ex.base(1)) * ex.field(0) / 10 + ex.base(0) * ex.field(0) / 100)
    cfg = SimulateConfig(N=64, length=2 * math.pi,
                         initial={"y0": sp.sin(ex.base(1)), "dy0_0": sp.cos(2 * ex.base(1))})
    return _problem(L, m=2, config=cfg), 2 * math.pi / 64 / 4


def _pointwise_kernels_problem():
    # m = 1, n = 2 model whose accelerations and L contain a cube,
    # (y0 + y1)**2, sqrt(2 + y0**2), sin(y1) and 1/(3 + y0): the powers and
    # functions whose scalar and array kernels could differ
    y0, y1, v0, v1 = ex.field(0), ex.field(1), ex.velocity(0, 0), ex.velocity(1, 0)
    L = (v0 ** 2 / 2 + v1 ** 2 / 2 + v0 * v1 / 5 - y0 ** 4 / 12 - (y0 + y1) ** 3 / 6
         - (y0 + y1) ** 2 / 2 + (2 + y0 ** 2) ** sp.Rational(3, 2) / 10
         + sp.sin(y1) * y0 / 5 + sp.log(3 + y0) + y1 / (3 + y0) - ex.action(0) / 10)
    # y0(0) = 0.70259, whose libm pow(y0, 2) is one ulp off y0*y0 on glibc,
    # and the ulp survives into the energy: a printed y0**2 shows at t = 0
    initial = {"y0": sp.Rational(70259, 100000), "y1": sp.Rational(-4, 10),
               "dy0_0": sp.Rational(3, 10), "dy1_0": sp.Rational(2, 10)}
    return _problem(L, n=2, config=SimulateConfig(initial=initial)), 1e-2


# s0 starts small beside its increments, so a reordered stage sum shows in
# its last bits
_MOVING_VELOCITY_ACTION_CROSS = {"y0": sp.Rational(1, 2), "dy0_0": sp.Rational(3, 10),
                                 "s0": sp.Rational(1, 1000)}


def _bundled_problem(name, N=None, parameters=None, initial=None):
    spec, cfg = load_model(model_path(name))
    cfg = dataclasses.replace(cfg, N=N or cfg.N, parameters=parameters or cfg.parameters,
                              initial=initial or cfg.initial)
    eqs = LagrangianSystem(spec).herglotz_el_equations()
    p = numsim.compile_problem(eqs, cfg)
    return p, (cfg.length / p.N / 4 if p.m == 2 else 1e-3)


def _block_case(case):
    """A problem and its step: on one point a time-dependent force, a
    constant acceleration, the kernel-heavy two-field model or
    oscillator_ode's model; on a grid damped_wave or the every-slot model."""
    if case == "damped_wave":
        p, dt = _bundled_problem(case, N=64)
    elif case == "every_slot":
        p, dt = _every_slot_problem()
    elif case == "time_forcing":
        # the forcing pins the stage times t, t + dt/2 and t + dt
        L = (ex.velocity(0, 0) ** 2 / 2 - ex.field(0) ** 2 / 2
             + sp.sin(ex.base(0)) * ex.field(0) / 5 - ex.action(0) / 10)
        p, dt = _problem(L, config=SimulateConfig(initial={"y0": sp.Integer(1)})), 1e-1
        assert ex.base(0) in p.exprs[0].free_symbols
    elif case == "constant_acceleration":
        # the acceleration prints as the Python int 1
        p, dt = _problem(ex.velocity(0, 0) ** 2 / 2 + ex.field(0)), 1e-1
        acc, _, _ = p.state_func(np.float64(0.5), False, *[np.float64(0.5)] * p.n_vars)
        assert p.exprs[0] == 1 and type(acc) is int
    elif case == "pointwise_kernels":
        p, dt = _pointwise_kernels_problem()
    else:
        p, dt = _bundled_problem("damped_oscillator")
    return p, dt


class TestBitIdentity:
    """The fused, stencil-pruned evaluator and the buffered RK4 reproduce the
    earlier integrator bit for bit: states and every monitor."""

    @pytest.mark.parametrize("case", ["damped_wave", "damped_oscillator",
                                      "coupled_two_field", "velocity_action_cross",
                                      "every_slot", "pointwise_kernels"])
    def test_states_and_monitors_match_reference(self, case):
        if case == "every_slot":
            p, dt = _every_slot_problem()
            assert set().union(*(e.free_symbols for e in p.exprs)) == {
                ex.base(0), ex.base(1), ex.field(0), ex.velocity(0, 0), ex.action(0),
                ex.velocity(0, 1), ex.second_jet(0, 0, 1), ex.second_jet(0, 1, 1),
                ex.action_grad(0, 1)}
        elif case == "pointwise_kernels":
            p, dt = _pointwise_kernels_problem()
            text = " ".join(map(str, p.exprs))
            assert all(f in text for f in ("y0**3", "sqrt(y0**2 + 2)", "sin(y1)", "y0 + 3"))
        else:
            p, dt = _bundled_problem(case, N=64 if case == "damped_wave" else None,
                                     parameters={"gamma": 0.3} if case == "coupled_two_field"
                                     else None,
                                     # the model has no simulate block: all zeros, which
                                     # stay zero and could not show a wrong step
                                     initial=_MOVING_VELOCITY_ACTION_CROSS
                                     if case == "velocity_action_cross" else None)
        p.monitors = ("action_balance", "energy", "action_balance_fd")
        steps, cadence = 60, 3
        states, series = _reference_run(p, dt, steps, cadence)
        rep = numsim.run(p, dt=dt, t_end=steps * dt, cadence=cadence)
        assert len(rep.states) == len(states) == steps // cadence + 1
        for got, want in zip(rep.states, states):
            assert np.array_equal(got.arrays, want)
        for name, want in series.items():
            assert np.array_equal(rep.series[name], np.asarray(want)), name

    @pytest.mark.parametrize("case", ["time_forcing", "constant_acceleration",
                                      "benchmark_shape"])
    def test_compiled_point_step_matches_reference(self, case):
        steps, cadence = 60, 3
        p, dt = _block_case(case)
        if case == "benchmark_shape":
            # oscillator_ode's run: the model's dt over 2,500 steps at cadence 10
            steps, cadence = 2500, 10
        p.monitors = ("action_balance", "energy", "action_balance_fd")
        states, series = _reference_run(p, dt, steps, cadence)
        rep = numsim.run(p, dt=dt, t_end=steps * dt, cadence=cadence)
        assert rep.termination == "completed"
        assert len(rep.states) == len(states) == steps // cadence + 1
        for got, want in zip(rep.states, states):
            assert got.arrays.dtype == np.float64 and np.array_equal(got.arrays, want)
        for name, want in series.items():
            assert np.array_equal(rep.series[name], np.asarray(want)), name

    @pytest.mark.parametrize("cadence", [1, 3, 10])
    @pytest.mark.parametrize("case", ["time_forcing", "constant_acceleration",
                                      "pointwise_kernels", "benchmark_shape",
                                      "damped_wave", "every_slot"])
    def test_blocks_match_reference(self, case, cadence):
        # the default monitors leave out action_balance_fd, so a run steps a
        # cadence interval per block; 61 steps make the last block short
        p, dt = _block_case(case)
        p.monitors = SimulateConfig().monitors
        steps = 61
        states, series = _reference_run(p, dt, steps, cadence)
        rep = numsim.run(p, dt=dt, t_end=steps * dt, cadence=cadence)
        assert rep.termination == "completed"
        assert len(rep.states) == len(states) == -(-steps // cadence) + 1
        for got, want in zip(rep.states, states):
            assert got.arrays.tobytes() == want.tobytes()
        assert rep.times.tolist() == [st.t for st in rep.states]
        # the time after each step is t + dt, as the reference steps it
        t, times = 0.0, [0.0]
        for k in range(1, steps + 1):
            t += dt
            if k % cadence == 0 or k == steps:
                times.append(t)
        assert rep.times.tolist() == times
        for name in p.monitors:
            assert np.array_equal(rep.series[name], np.asarray(series[name])), name

    def test_step_returns_fresh_array(self):
        # the grid path and the one-point (numpy scalar) path
        for p, dt in (_bundled_problem("damped_wave", N=16), _bundled_problem("damped_oscillator")):
            st0 = p.initial_state()
            st1 = numsim.step_rk4(p, st0, dt)
            st2 = numsim.step_rk4(p, st1, dt)
            assert not np.shares_memory(st1.arrays, st2.arrays)
            assert st2.arrays.shape == (p.n_vars, p.N) and st2.arrays.dtype == np.float64


class TestPointFloatPath:
    """A one-point step runs on Python floats and, where they raise or end
    non-finite, again on numpy float64 scalars."""

    def test_step_keeps_python_floats(self):
        # from the initial (array) state, then from the scalars of a step
        p, dt = _bundled_problem("damped_oscillator")
        st = p.initial_state()
        for _ in range(2):
            st = numsim.step_rk4(p, st, dt)
            assert len(st.values) == p.n_vars
            assert all(type(v) is float for v in st.values)
        # the next step reads the scalars, so the array must not take writes
        assert st.arrays.tolist() == [[v] for v in st.values]
        with pytest.raises(ValueError, match="read-only"):
            st.arrays[0, 0] = 0.0

    @pytest.mark.parametrize("case", ["pointwise_kernels", "benchmark_shape"])
    def test_array_and_scalar_starts_step_alike(self, case):
        # numpy kernels leave numpy scalars among the values; an array start
        # hands the step Python floats only
        p, dt = (_pointwise_kernels_problem() if case == "pointwise_kernels"
                 else _bundled_problem("damped_oscillator"))
        st = numsim.step_rk4(p, p.initial_state(), dt)
        plain = numsim.GridState(st.t, st.arrays.copy())
        from_values, from_arrays = numsim.step_rk4(p, st, dt), numsim.step_rk4(p, plain, dt)
        assert from_values.t == from_arrays.t
        assert from_values.arrays.tobytes() == from_arrays.arrays.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_overflow_warns_as_on_an_array(self):
        # Python floats overflow to inf without a word; the rerun on numpy
        # scalars gives numpy's warning before the run ends
        lam = sp.Symbol("lam")
        L = ex.velocity(0, 0) ** 2 / 2 + lam * ex.field(0) ** 2 / 2
        cfg = SimulateConfig(initial={"y0": sp.Integer(1)}, parameters={"lam": 1e8})
        p = _problem(L, params=(lam,), config=cfg)
        with pytest.warns(RuntimeWarning, match="overflow"):
            rep = numsim.run(p, dt=10.0, t_end=10000.0)
        assert rep.termination == "non-finite state"

    @pytest.mark.filterwarnings("ignore:divide by zero")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("case", ["state", "time"])
    def test_fallback_mid_run_matches_reference(self, case):
        if case == "state":
            # y1 falls at speed 1 from 3 and v0 stays 0, both exactly, so the
            # acceleration -dy0_0*dy1_0/y1 is 0.0/0.0 in step 4's last stage
            L = ex.velocity(1, 0) ** 2 / 2 + ex.field(1) * ex.velocity(0, 0) ** 2 / 2
            initial = {"y0": sp.Integer(1), "y1": sp.Integer(3), "dy1_0": sp.Integer(-1)}
            p, dt, t_raise = _problem(L, n=2, config=SimulateConfig(initial=initial)), 0.75, 2.25
        else:
            # the acceleration y0/(t - 1) at the stage time 0.875 + dt = 1
            L = ex.velocity(0, 0) ** 2 / 2 + ex.field(0) ** 2 / (2 * (ex.base(0) - 1))
            p = _problem(L, config=SimulateConfig(initial={"y0": sp.Integer(1)}))
            dt, t_raise = 0.125, 0.875
        p.monitors = ("action_balance", "energy")
        float_step, raised = p.rk4_block, []

        def spy(t, *args):
            try:
                return float_step(t, *args)
            except ZeroDivisionError:
                raised.append(t)
                raise

        p.rk4_block = spy
        steps = 12
        states, series = _reference_run(p, dt, steps, 1)
        rep = numsim.run(p, dt=dt, t_end=steps * dt)
        assert raised == [t_raise] and type(raised[0]) is float
        assert rep.termination == "non-finite state"
        k = len(rep.states)
        assert rep.states[-1].t == t_raise and 0 < k < steps
        assert not np.isfinite(states[k]).all()
        for got, want in zip(rep.states, states[:k]):
            assert got.arrays.tobytes() == want.tobytes()
        for name in p.monitors:
            assert np.array_equal(rep.series[name], np.asarray(series[name][:k])), name

    @pytest.mark.filterwarnings("ignore:divide by zero")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("case", ["state", "time"])
    def test_fallback_mid_block_matches_reference(self, case):
        # test_fallback_mid_run_matches_reference's models at cadence 4: the
        # float block raises in the step from t_raise, is replayed step by
        # step, and the run ends on the last good state, sampled
        if case == "state":
            L = ex.velocity(1, 0) ** 2 / 2 + ex.field(1) * ex.velocity(0, 0) ** 2 / 2
            initial = {"y0": sp.Integer(1), "y1": sp.Integer(3), "dy1_0": sp.Integer(-1)}
            p, dt, t_raise = _problem(L, n=2, config=SimulateConfig(initial=initial)), 0.75, 2.25
        else:
            L = ex.velocity(0, 0) ** 2 / 2 + ex.field(0) ** 2 / (2 * (ex.base(0) - 1))
            p = _problem(L, config=SimulateConfig(initial={"y0": sp.Integer(1)}))
            dt, t_raise = 0.125, 0.875
        p.monitors = ("action_balance", "energy")
        steps, cadence = 12, 4
        good = round(t_raise / dt)
        states, series = _reference_run(p, dt, steps, 1)
        assert np.isfinite(states[good]).all() and not np.isfinite(states[good + 1]).all()
        rep = numsim.run(p, dt=dt, t_end=steps * dt, cadence=cadence)
        assert rep.termination == "non-finite state"
        assert rep.states[-1].t == t_raise
        sampled = sorted(set(range(0, good + 1, cadence)) | {good})
        assert good % cadence and len(rep.states) == len(sampled)
        for got, k in zip(rep.states, sampled):
            assert got.arrays.tobytes() == states[k].tobytes()
        for name in p.monitors:
            assert np.array_equal(rep.series[name], np.asarray(series[name])[sampled]), name

    @pytest.mark.filterwarnings("ignore:divide by zero")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("cadence", [1, 4])
    def test_closing_evaluation_fails_on_a_finite_state(self, cadence):
        # y1'' = t from y1 = X, y1' = -1 with dt = 1/2, where X is minus
        # step 1's y1 increment: y1 ends step 1 at 0.0 exactly, its stage 4
        # at 0.0104..., so only the step's closing evaluation divides 0.0 by
        # 0.0 (-dy0_0*dy1_0/y1 with dy0_0 = 0).  The block that raised is
        # replayed, and the run ends on that finite state
        t, dt = ex.base(0), 0.5
        L = ex.velocity(1, 0) ** 2 / 2 + ex.field(1) * ex.velocity(0, 0) ** 2 / 2 + t * ex.field(1)
        initial = {"y0": sp.Integer(1), "y1": sp.Rational(5.75 * (dt / 6)),
                   "dy1_0": sp.Integer(-1)}
        p = _problem(L, n=2, config=SimulateConfig(initial=initial))
        p.monitors = ("action_balance", "energy")
        float_step, raised = p.rk4_block, []

        def spy(t, *args):
            try:
                return float_step(t, *args)
            except ZeroDivisionError:
                raised.append(t)
                raise

        p.rk4_block = spy
        states, series = _reference_run(p, dt, 4, 1)
        assert states[1][1, 0] == 0.0 and not np.isfinite(states[2]).all()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = numsim.run(p, dt=dt, t_end=4 * dt, cadence=cadence)
        # the replayed step divides 0.0 by 0.0 once, and the last good state
        # keeps the density that step evaluated, at any cadence
        invalid = [w for w in caught if "invalid value" in str(w.message)]
        assert len(invalid) == 1, [str(w.message) for w in caught]
        assert raised[0] == 0.0 and type(raised[0]) is float
        assert rep.termination == "non-finite state"
        assert [st.t for st in rep.states] == [0.0, dt]
        for got, want in zip(rep.states, states):
            assert got.arrays.tobytes() == want.tobytes()
        for name in p.monitors:
            assert np.array_equal(rep.series[name], np.asarray(series[name][:2])), name

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("m,cadence", [(m, c) for m in (1, 2) for c in (1, 3, 7)],
                             ids=["1", "3", "7", "grid-1", "grid-3", "grid-7"])
    def test_non_finite_ending_samples_the_last_good_state(self, m, cadence):
        # test_overflow_warns_as_on_an_array's model: the state after 8 steps
        # of 10 (one point) or 22 steps of 0.01 (16 grid points) is the last
        # finite one, whatever the cadence, and is sampled once
        lam = sp.Symbol("lam")
        L = ex.velocity(0, 0) ** 2 / 2 + lam * ex.field(0) ** 2 / 2
        cfg = SimulateConfig(N=16 if m == 2 else 1, initial={"y0": sp.Integer(1)},
                             parameters={"lam": 1e8})
        p = _problem(L, m=m, params=(lam,), config=cfg)
        dt, good = (10.0, 8) if m == 1 else (0.01, 22)
        t_good = 0.0
        for _ in range(good):
            t_good += dt
        rep = numsim.run(p, dt=dt, t_end=1000 * dt, cadence=cadence)
        assert rep.termination == "non-finite state"
        assert rep.states[-1].t == t_good and rep.states[-1].finite
        assert rep.times[-1] == t_good and np.all(np.diff(rep.times) > 0)


class TestLoneStateEvaluator:
    """``evaluate_state`` and ``rk4_block`` are generated from one printed
    text with one slot binding: a block's end state, evaluated alone, gives
    the derivative and energy density the block returned there."""

    @pytest.mark.parametrize("case", ["damped_wave", "every_slot", "benchmark_shape"])
    def test_block_end_evaluates_alone_as_the_block_did(self, case):
        p, dt = _block_case(case)
        st = p.initial_state()
        end, deriv, density = numsim._block(p, (st, numsim._evaluate(p, st, False)[0], None),
                                            dt, 5, True)
        got_deriv, got_density = numsim._evaluate(p, end, True)
        assert len(got_deriv) == len(deriv) == p.n + 1
        for got, want in zip([*got_deriv, got_density], [*deriv, density]):
            assert (np.asarray(got, dtype=float).tobytes()
                    == np.asarray(want, dtype=float).tobytes())
        # a one-point derivative comes back as Python floats, as the block's
        if p.m == 1:
            assert all(type(v) is float for v in got_deriv)

    def test_values_are_the_rows_as_python_floats(self):
        for p, _ in (_bundled_problem("damped_wave", N=16), _bundled_problem("damped_oscillator")):
            st = p.initial_state()
            assert st.values == st.arrays.ravel().tolist()
            assert all(type(v) is float for v in st.values)
