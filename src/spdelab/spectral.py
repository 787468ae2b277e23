"""Diagonal calculus for a positive self-adjoint operator with a known spectrum.

Everything downstream works in the eigenbasis of the (negated) generator, so
the operator is represented by its eigenvalue ladder alone and the basis is
never materialized.  A ladder that is exactly i**power also carries
``power``; a set power is the only mark of a power law, and the trace and
domain checks read it for their analytic tail verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeVector",
    "SpectralOperator",
    "TraceReport",
    "make_heat_operator",
    "make_power_law_operator",
    "check_trace_condition",
    "decay_factor",
    "convolution_variance",
]


@dataclass(frozen=True)
class ModeVector:
    """Coefficient vector in the eigenbasis, H-norm = euclidean norm."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1:
            raise ValueError("mode coefficients must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError("mode coefficients must be finite")
        object.__setattr__(self, "coeffs", arr.copy())

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def norm(self) -> float:
        # fsum keeps the squared sum exact, so zero padding cannot change it
        return math.sqrt(math.fsum(float(c) * float(c) for c in self.coeffs))


@dataclass(frozen=True)
class SpectralOperator:
    """Eigenvalue ladder of the negated generator; ascending and positive.

    ``power`` is set exactly when eigenvalue i equals i**power (the heat
    case is power 2); None marks an explicit ladder.  Tail bounds in the
    trace check are only available for power-law ladders.
    """

    eigenvalues: np.ndarray
    power: float | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalue ladder must be a nonempty 1-d array")
        if not np.all(np.isfinite(lam)) or lam[0] <= 0.0:
            raise ValueError("eigenvalues must be finite and strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be ascending")
        if self.power is not None:
            if self.power <= 0.0:
                raise ValueError("power_law spectrum needs a positive exponent")
            idx = np.arange(1, lam.size + 1, dtype=float)
            if not np.array_equal(lam, idx**self.power):
                raise ValueError("power_law eigenvalues must equal i**power exactly")
        object.__setattr__(self, "eigenvalues", lam.copy())

    @property
    def n_max(self) -> int:
        return self.eigenvalues.shape[0]


def make_power_law_operator(n_max: int, power: float) -> SpectralOperator:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    lam = np.arange(1, n_max + 1, dtype=float) ** power
    return SpectralOperator(lam, power=power)


def make_heat_operator(n_max: int) -> SpectralOperator:
    """Dirichlet-interval heat ladder: eigenvalue i is i**2."""
    return make_power_law_operator(n_max, 2.0)


@dataclass(frozen=True)
class TraceReport:
    """Result of the noise trace check: sum over modes of lambda_i**-(1-alpha).

    ``converges`` is None when the spectrum is explicit and nothing can be
    said beyond the stored truncation (tail_bound is then infinite).
    """

    alpha: float
    exponent: float
    partial_sum: float
    tail_bound: float
    converges: bool | None


def check_trace_condition(op: SpectralOperator, alpha: float) -> TraceReport:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = 1.0 - alpha
    partial = float(np.sum(op.eigenvalues**-s))
    if op.power is not None:
        exponent = op.power * s
        if exponent > 1.0:
            # integral test: sum_{i>n} i^-e <= n^(1-e)/(e-1)
            tail = op.n_max ** (1.0 - exponent) / (exponent - 1.0)
            return TraceReport(alpha, exponent, partial, tail, True)
        return TraceReport(alpha, exponent, partial, math.inf, False)
    return TraceReport(alpha, s, partial, math.inf, None)


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
