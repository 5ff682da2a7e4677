#!/usr/bin/env python3
"""Grid-convergence study for the damped wave model.

Runs the bundled ``damped_wave`` model at several resolutions, reports the
maximum finite-difference action-balance residual at each, and fits the
observed convergence order. Also prints the damped-oscillator error against
the closed-form solution as a sanity row.

Usage: python3 scripts/wave_convergence.py [--grids 128,256,512]
"""

import argparse
import dataclasses
import math
from pathlib import Path

import numpy as np

from mcfield import numsim
from mcfield.lagrangian import LagrangianSystem
from mcfield.modelfile import load_model

MODELS = Path(__file__).resolve().parents[1] / "src" / "mcfield" / "models"


def wave_residual(n_grid: int) -> tuple[float, float]:
    spec, cfg = load_model(MODELS / "damped_wave.model")
    length = 2 * math.pi
    cfg = dataclasses.replace(cfg, N=n_grid, length=length,
                              monitors=("action_balance_fd",), cadence=1)
    eqs = LagrangianSystem(spec).herglotz_el_equations()
    p = numsim.compile_problem(eqs, cfg)
    dx = length / n_grid
    rep = numsim.run(p, dt=dx / 4, t_end=2.0, cadence=1)
    r = np.asarray(rep.series["action_balance_fd"])
    return dx, float(np.max(np.abs(r[2:])))


def oscillator_error() -> float:
    spec, cfg = load_model(MODELS / "damped_oscillator.model")
    eqs = LagrangianSystem(spec).herglotz_el_equations()
    p = numsim.compile_problem(eqs, cfg)
    rep = numsim.run(p, dt=1e-3, t_end=10.0, cadence=1)
    gam, om = cfg.parameters["gamma"], cfg.parameters["omega"]
    omd = math.sqrt(om ** 2 - gam ** 2 / 4)
    t = np.asarray(rep.times)
    iq = p.state_names.index("y0")
    q = np.array([s.arrays[iq, 0] for s in rep.states])
    exact = np.exp(-gam * t / 2) * (np.cos(omd * t)
                                    + gam / (2 * omd) * np.sin(omd * t))
    return float(np.max(np.abs(q - exact)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", default="128,256,512",
                    help="comma-separated grid sizes")
    args = ap.parse_args()
    grids = [int(s) for s in args.grids.split(",")]

    print(f"{'N':>6} {'dx':>12} {'max |residual|':>16}")
    dxs, res = [], []
    for n_grid in grids:
        dx, r = wave_residual(n_grid)
        dxs.append(dx)
        res.append(r)
        print(f"{n_grid:>6} {dx:>12.5e} {r:>16.5e}")
    slope = np.polyfit(np.log(dxs), np.log(res), 1)[0]
    print(f"\nobserved convergence order: {slope:.3f} (expected 2)")
    print(f"oscillator max |q - exact| over t in [0, 10]: "
          f"{oscillator_error():.3e}")


if __name__ == "__main__":
    main()
