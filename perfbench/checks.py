"""Output checks.  Each returns a list of failure messages (empty = pass).

Every reference comes from outside the code path being timed: the oracle
golden file, ranks computed here with numpy from integer matrices, closed
forms of the (semi-)discrete equations, and, as a regression guard only,
ladder texts the package produced earlier for the default corpus seed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import sympy as sp

from mcfield import expr as ex

HERE = Path(__file__).resolve().parent
FROZEN = HERE / "frozen"
DEFAULT_SEED = 1
CLI_SEED = 42

WAVE_TOL_U = 1e-10      # observed ~1e-14 at N=16384 after 96 steps
WAVE_TOL_V = 1e-8       # observed ~1e-11 (second differences divide by dx^2)
OSCILLATOR_TOL = 1e-6   # the acceptance bound of the closed-form test


# --------------------------------------------------------------------------
# constraint ladders


def normalize_constraint(e) -> str:
    """Sign-normalised grammar text, as the acceptance test compares ladders."""
    e = sp.expand(sp.cancel(sp.together(e)))
    return min(ex.to_grammar(e), ex.to_grammar(sp.expand(-e)))


def read_golden(text: str, m: int, n: int, parameters) -> tuple[str, dict[int, list[str]]]:
    status, gens = None, {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("status:"):
            status = line.split(":", 1)[1].strip()
        elif line.startswith("gen"):
            g = int(line.split("[")[0][3:])
            body = line.split(":", 1)[1].rsplit("=", 1)[0].strip()
            gens.setdefault(g, []).append(
                normalize_constraint(ex.parse_expr(body, m, n, parameters=parameters)))
    return status, {g: sorted(v) for g, v in gens.items()}


def check_ladder_golden(ladder, golden_text: str, m: int, n: int, parameters) -> list[str]:
    status, gens = read_golden(golden_text, m, n, parameters)
    got = {g: sorted(normalize_constraint(c) for c in gen)
           for g, gen in enumerate(ladder.generations)}
    fails = []
    if ladder.status.value != status:
        fails.append(f"ladder status {ladder.status.value}, golden {status}")
    if got != gens:
        fails.append("ladder generations differ from the golden file")
    return fails


def frozen_ladders(seed: int):
    """Package-produced ladder texts for the default seed, else None."""
    path = FROZEN / f"corpus_seed{seed}.ladders.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text())["ladders"]


# --------------------------------------------------------------------------
# the cold pipeline


@dataclass(frozen=True)
class MaxwellReference:
    hessian_rank: int
    velocities: int
    chart_dim: int
    m: int


def maxwell_reference(m: int = 4, n: int = 4) -> MaxwellReference:
    """The kinetic term depends on velocities only through the field
    strengths F[mu,nu] = dy[nu,mu] - dy[mu,nu] (mu < nu), so the velocity
    Hessian has the rank of that linear map."""
    F = np.zeros((m * (m - 1) // 2, n * m))
    for row, (mu, nu) in enumerate(itertools.combinations(range(m), 2)):
        F[row, nu * m + mu] += 1
        F[row, mu * m + nu] -= 1
    chart_dim = m + n + n * m + m   # x, y, dy, s
    return MaxwellReference(int(np.linalg.matrix_rank(F)), n * m, chart_dim, m)


def _check_regularity(reg, rank: int, size: int) -> list[str]:
    want = "singular" if rank < size else "regular"
    if reg.status.value != want or reg.rank != rank or reg.size != size:
        return [f"regularity {reg.status.value} rank {reg.rank}/{reg.size}, "
                f"expected {want} rank {rank}/{size}"]
    return []


def _check_projection(res) -> list[str]:
    """Every Herglotz-EL equation equals its unified projection.  The
    comparison is redone here, so a corrupted projection fails even if the
    timed `unify` verdicts were not consulted."""
    fails = []
    if [e.name for e in res.el] != [e.name for e in res.projection]:
        fails.append("EL and projected equation names differ")
    bad = [a.name for a, b in zip(res.el, res.projection)
           if not ex.equal(a.residual, b.residual, seed=CLI_SEED)]
    if bad or not all(res.verdicts):
        fails.append(f"EL and projection disagree on {bad or 'the unify check'}")
    return fails


def check_maxwell(res, ref: MaxwellReference, golden_text: str) -> list[str]:
    fails = _check_regularity(res.regularity, ref.hessian_rank, ref.velocities)
    nullity = ref.velocities - ref.hessian_rank
    if res.image_constraints != nullity:
        fails.append(f"{res.image_constraints} image constraints, expected {nullity}")
    # the Lagrangian structure is special premulticontact with characteristic
    # rank k = Hessian nullity, ker(omega) of rank dim - m and Reeb rank m + k
    rep = res.structure
    want = (ref.chart_dim, ref.chart_dim - ref.m, nullity, ref.m + nullity, True, True)
    got = (rep.chart_dim, rep.rank_ker_omega, rep.k, rep.rank_reeb,
           rep.is_premulticontact, rep.is_special)
    if got != want:
        fails.append(f"structure (dim, ker omega, k, reeb, premulticontact, special) "
                     f"= {got}, expected {want}")
    fails += check_ladder_golden(res.ladder, golden_text, 4, 4, _maxwell_parameters())
    fails += _check_projection(res)
    return fails


def _maxwell_parameters():
    names = ["mu0"] + [f"{k}{a}" for a in range(4) for k in ("J", "gamma")]
    return {s: sp.Symbol(s) for s in names}


def check_corpus_model(res, model, frozen_text) -> list[str]:
    size = model.hessian.shape[0]
    rank = int(np.linalg.matrix_rank(model.hessian))
    fails = _check_regularity(res.regularity, rank, size)
    if res.image_constraints != size - rank:
        fails.append(f"{res.image_constraints} image constraints, "
                     f"expected nullity {size - rank}")
    fails += _check_projection(res)
    if res.ladder.status.value == "MAX-GENERATIONS":
        fails.append("constraint ladder hit the generation cap")
    if frozen_text is not None and res.ladder.to_text() != frozen_text:
        fails.append("ladder text differs from the frozen default-seed ladder")
    return fails


# --------------------------------------------------------------------------
# simulations


def _check_csv(path: str, report) -> list[str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != len(report.times) + 1 or rows[0][0] != "t":
        return [f"{path}: {len(rows)} rows for {len(report.times)} samples"]
    return []


def _state_rows(report, p, name: str) -> np.ndarray:
    j = p.state_names.index(name)
    return np.array([st.arrays[j] for st in report.states])


def wave_closed_form(t: np.ndarray, x: np.ndarray, gamma: float, dx: float):
    """u = a(t) sin x_j solves the central-difference semi-discretisation of
    u_tt - u_xx + gamma u_t = 0 with u(0) = sin x, u_t(0) = 0."""
    kappa = 2 * math.sin(dx / 2) / dx
    omega = math.sqrt(kappa ** 2 - gamma ** 2 / 4)
    decay = np.exp(-gamma * t / 2)
    a = decay * (np.cos(omega * t) + gamma / (2 * omega) * np.sin(omega * t))
    adot = -decay * kappa ** 2 / omega * np.sin(omega * t)
    return np.outer(a, np.sin(x)), np.outer(adot, np.sin(x))


def check_wave(report, p, sim, csv_path: str, gamma: float | None = None) -> list[str]:
    if report.termination != "completed" or report.states is None:
        return [f"run ended with {report.termination!r}, states kept: "
                f"{report.states is not None}"]
    gamma = sim.parameters["gamma"] if gamma is None else gamma
    dx = sim.length / sim.N
    x = np.arange(sim.N) * dx
    u_ref, v_ref = wave_closed_form(np.asarray(report.times), x, gamma, dx)
    fails = []
    err_u = np.max(np.abs(_state_rows(report, p, "y0") - u_ref))
    err_v = np.max(np.abs(_state_rows(report, p, "dy0_0") - v_ref))
    if not err_u < WAVE_TOL_U:
        fails.append(f"u differs from the closed form by {err_u:.3e}")
    if not err_v < WAVE_TOL_V:
        fails.append(f"v differs from the closed form by {err_v:.3e}")
    fails += check_decreasing(report.series["energy"])
    return fails + _check_csv(csv_path, report)


def check_decreasing(series) -> list[str]:
    if not np.all(np.diff(np.asarray(series)) < 0):
        return ["energy does not decrease strictly"]
    return []


def oscillator_closed_form(t: np.ndarray, omega: float, gamma: float) -> np.ndarray:
    """q(t) for q'' + gamma q' + omega^2 q = 0, q(0) = 1, q'(0) = 0."""
    wd = math.sqrt(omega ** 2 - gamma ** 2 / 4)
    return np.exp(-gamma * t / 2) * (np.cos(wd * t) + gamma / (2 * wd) * np.sin(wd * t))


def check_oscillator(report, p, sim, csv_path: str, omega: float | None = None,
                     gamma: float | None = None) -> list[str]:
    if report.termination != "completed" or report.states is None:
        return [f"run ended with {report.termination!r}, states kept: "
                f"{report.states is not None}"]
    omega = sim.parameters["omega"] if omega is None else omega
    gamma = sim.parameters["gamma"] if gamma is None else gamma
    q = _state_rows(report, p, "y0")[:, 0]
    err = np.max(np.abs(q - oscillator_closed_form(np.asarray(report.times), omega, gamma)))
    fails = [] if err < OSCILLATOR_TOL else [f"q differs from the closed form by {err:.3e}"]
    return fails + _check_csv(csv_path, report)
