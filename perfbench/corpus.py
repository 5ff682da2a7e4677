"""Seeded generator of small singular Lagrangians with action coupling.

Each model is velocity-quadratic with an integer, rank-deficient velocity
Hessian H, so the generator knows the expected Hessian rank and nullity
without asking the package:

    L = 1/2 v.H.v + sum G[i,B] y[B] v[i] + sum K[B,C] y[B] y[C]
        + sum J[B] y[B] - sum gamma[mu] s[mu] (+ s[0] v[i] / 10)

where v lists the velocities dy[A,mu] in A-major, mu-minor order (the
package's order).  The gyroscopic terms G y v are what push the constraint
ladder into secondary generations.  Models are emitted as `.model` text.

The shape (m, n), the Hessian rank and which terms appear follow a fixed
schedule, repeated ``CYCLES`` times, and a fixed pattern seed, so corpora
drawn with different seeds have the same sizes, sparsity and degeneracies,
and cost about the same to process; the seed chooses every coefficient
(signs, weights, damping rates).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# (m, n, Hessian rank, action-velocity cross term) per corpus slot; one
# cycle of the corpus is this schedule.
SLOTS = ((1, 1, 0, False), (1, 1, 0, True),
         (1, 2, 0, False), (1, 2, 1, False), (1, 2, 1, True),
         (1, 3, 0, False), (1, 3, 1, False), (1, 3, 2, False),
         (2, 1, 0, False), (2, 1, 1, True),
         (2, 2, 1, False), (2, 2, 2, False))
CYCLES = 3   # the corpus is this many passes over SLOTS, each with its own pattern
PATTERN_SEED = 2025
GAMMAS = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))


@dataclass(frozen=True)
class CorpusModel:
    name: str
    m: int
    n: int
    hessian: np.ndarray   # integer velocity Hessian, A-major / mu-minor
    text: str             # the .model file

    @property
    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self.hessian))

    @property
    def nullity(self) -> int:
        return self.hessian.shape[0] - self.rank


def _vel(i: int, m: int) -> str:
    return f"dy[{i // m},{i % m}]"


def _term(coeff, monomial: str) -> str:
    c = Fraction(coeff)
    sign = "-" if c < 0 else "+"
    c = abs(c)
    if c == 1:
        return f" {sign} {monomial}"
    return f" {sign} {c}*{monomial}"


def _hessian(pattern: random.Random, rng: random.Random, size: int,
             rank: int) -> np.ndarray:
    """Symmetric integer matrix of the given rank (< ``size``): a sum of
    ``rank`` rank-one terms d w w^T.  The supports of the w come from
    ``pattern``; their signs and the weights d come from ``rng`` and are
    redrawn until the terms are independent."""
    supports = []
    for _ in range(rank):
        support = [i for i in range(size) if pattern.random() < 0.5]
        supports.append(support or [pattern.randrange(size)])
    while True:
        H = np.zeros((size, size), dtype=np.int64)
        for support in supports:
            w = np.zeros(size, dtype=np.int64)
            for i in support:
                w[i] = rng.choice((-1, 1))
            H += rng.choice((-2, -1, 1, 2)) * np.outer(w, w)
        if np.linalg.matrix_rank(H) == rank:
            return H


def generate_model(pattern: random.Random, rng: random.Random, index: int, m: int,
                   n: int, rank: int, cross: bool) -> CorpusModel:
    """One model; ``pattern`` decides which terms appear, ``rng`` their
    coefficients."""
    size = n * m
    H = _hessian(pattern, rng, size, rank)
    terms = []
    for i in range(size):
        for j in range(i, size):
            c = Fraction(int(H[i, j]), 2) if i == j else int(H[i, j])
            if c:
                mono = f"{_vel(i, m)}^2" if i == j else f"{_vel(i, m)}*{_vel(j, m)}"
                terms.append(_term(c, mono))
    # gyroscopic couplings y[B] v[i]: at least one, so the model has dynamics
    # beyond the Hessian
    gyro = [(i, B) for i in range(size) for B in range(n) if pattern.random() < 0.35]
    if not gyro:
        gyro = [(pattern.randrange(size), pattern.randrange(n))]
    for i, B in gyro:
        terms.append(_term(rng.choice((-2, -1, 1, 2)), f"y[{B}]*{_vel(i, m)}"))
    for B in range(n):
        for C in range(B, n):
            if pattern.random() < 0.3:
                mono = f"y[{B}]^2" if B == C else f"y[{B}]*y[{C}]"
                terms.append(_term(Fraction(rng.choice((-2, -1, 1, 2)), 2), mono))
        if pattern.random() < 0.2:
            terms.append(_term(rng.choice((-1, 1)), f"y[{B}]"))
    # action coupling: linear damping in every direction, in some slots an
    # action-velocity cross term
    for mu in range(m):
        terms.append(_term(-rng.choice(GAMMAS), f"s[{mu}]"))
    if cross:
        terms.append(_term(rng.choice(GAMMAS), f"s[0]*{_vel(pattern.randrange(size), m)}"))
    body = "".join(terms).strip()
    if body.startswith("+ "):
        body = body[2:]
    name = f"corpus_{index:03d}"
    text = "\n".join([
        f"name: {name}",
        f"m: {m}",
        f"n: {n}",
        "metric: " + ("euclidean" if m == 1 else "minkowski"),
        "parameters: {}",
        "lagrangian: |",
        f"  {body}",
        "",
    ])
    return CorpusModel(name, m, n, H, text)


def generate_corpus(seed: int) -> list[CorpusModel]:
    """The corpus for ``seed``: ``CYCLES`` passes over the schedule, one model
    per slot and pass."""
    pattern, rng = random.Random(PATTERN_SEED), random.Random(seed)
    return [generate_model(pattern, rng, i, *SLOTS[i % len(SLOTS)])
            for i in range(CYCLES * len(SLOTS))]
