"""Diagonal calculus for the power-law operator of the rate theorem.

Everything downstream works in the eigenbasis of the (negated) generator,
and the theorem reads the operator only through its eigenvalues, so the
operator is the ladder i**power, i = 1..n_max, and the basis is never
materialized; the heat case is power 2.  A state is a 1-D float array of
its coefficients in that basis, a batch of states carries the mode axis
last, and the H-norm is the euclidean norm of the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralOperator",
    "make_heat_operator",
    "decay_factor",
    "convolution_variance",
]


@dataclass(frozen=True)
class SpectralOperator:
    """Eigenvalue ladder i**power, i = 1..n_max, of the negated generator.

    ``eigenvalues`` is computed once and not to be written to: it stays out
    of the comparison and the hash, which read (n_max, power) alone.
    """

    n_max: int
    power: float
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not 0.0 < self.power < math.inf:
            raise ValueError("power must be positive and finite")
        with np.errstate(over="ignore"):
            lam = np.arange(1, self.n_max + 1, dtype=float) ** self.power
        if not math.isfinite(lam[-1]):
            raise ValueError(f"eigenvalue {self.n_max}**{self.power:g} overflows")
        object.__setattr__(self, "eigenvalues", lam)


def make_heat_operator(n_max: int) -> SpectralOperator:
    """Dirichlet-interval heat ladder: eigenvalue i is i**2."""
    return SpectralOperator(n_max, 2.0)


def decay_factor(lam, t):
    """Per-mode semigroup scalar exp(-lam*t); array-friendly."""
    return np.exp(-np.asarray(lam, dtype=float) * t)


def convolution_variance(lam, t):
    """Exact value of the integral of exp(-2*lam*s) over s in [0, t], for
    positive eigenvalues lam.

    Equals (1 - exp(-2*lam*t)) / (2*lam); expm1 keeps the numerator accurate
    when lam*t is tiny.
    """
    return -np.expm1(-2.0 * lam * t) / (2.0 * lam)
