"""Reproducible space-time white noise lattice and exact single-mode samplers.

Increments live on a dyadic grid of 2**levels steps.  Every (path, mode) pair
owns a dedicated Philox substream: the key packs (master_seed, path_id) and
the high counter word packs the mode, so streams are separated by 2**192
counter blocks and never overlap.  A value at step k is the k-th draw of its
substream, which makes every increment reproducible from
(master_seed, path_id, mode, step) regardless of query order, worker count,
or how many modes and levels any particular run consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralOperator, convolution_variance, decay_factor

__all__ = [
    "NoiseLattice",
    "left_fold_blocks",
    "ou_transition_sample",
    "ou_joint_modes_batch",
    "ou_cross_covariance",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NoiseLattice:
    """Dyadic lattice of Brownian increments, N(0, scale**2 * fine_dt) each.

    ``scale`` rescales every increment; 0 gives the deterministic lattice
    used by closed-form diagnostics.
    """

    master_seed: int
    horizon: float
    levels: int
    n_modes: int
    scale: float = 1.0

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.horizon <= 0.0 or not math.isfinite(self.horizon):
            raise ValueError("horizon must be positive and finite")
        if not 0 <= self.levels <= 30:
            raise ValueError("levels must lie in [0, 30]")
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.scale < 0.0 or not math.isfinite(self.scale):
            raise ValueError("scale must be nonnegative and finite")

    @property
    def fine_steps(self) -> int:
        return 1 << self.levels

    @property
    def fine_dt(self) -> float:
        return self.horizon / self.fine_steps

    def _substream(self, path_id: int, mode: int) -> np.random.Generator:
        if not 0 <= path_id <= _MASK64:
            raise ValueError("path_id must fit in 64 bits")
        bits = np.random.Philox(key=[self.master_seed, path_id], counter=[0, 0, 0, mode])
        return np.random.Generator(bits)

    def mode_increments(self, path_id: int, mode: int, count: int | None = None) -> np.ndarray:
        """First ``count`` fine increments of one (path, mode) substream."""
        if not 0 <= mode < self.n_modes:
            raise ValueError("mode index out of range")
        if count is None:
            count = self.fine_steps
        if not 0 <= count <= self.fine_steps:
            raise ValueError("count out of range")
        sd = self.scale * math.sqrt(self.fine_dt)
        return sd * self._substream(path_id, mode).standard_normal(count)

    def fine_increments(self, path_id: int, n_modes: int | None = None) -> np.ndarray:
        """Full fine array, shape (fine_steps, n_modes)."""
        if n_modes is None:
            n_modes = self.n_modes
        if not 1 <= n_modes <= self.n_modes:
            raise ValueError("n_modes out of range")
        out = np.empty((self.fine_steps, n_modes))
        for m in range(n_modes):
            out[:, m] = self.mode_increments(path_id, m)
        return out


def left_fold_blocks(arr: np.ndarray, block: int, stops=None):
    """Sum consecutive blocks along axis 0 by a sequential left fold.

    The fold order is fixed so block sums match the scalar oracle bit for bit
    and are independent of how many paths or modes share the array: the
    first row is copied and the next ones are added one at a time.  This is
    the only place that sums fine increments, so it owns that order.

    With ``stops`` (row counts in [0, block], in any order) it returns
    ``(sums, running)``: ``running[:, i]`` is the fold of the first
    ``stops[i]`` rows of each block, read off the same fold, so stop 0 gives
    zeros and stop ``block`` gives the block sum.
    """
    steps = arr.shape[0]
    if steps % block:
        raise ValueError("block must divide the number of steps")
    shaped = arr.reshape(steps // block, block, *arr.shape[1:])
    out = shaped[:, 0].copy()
    if stops is None:
        for m in range(1, block):
            out += shaped[:, m]
        return out
    if not all(0 <= s <= block for s in stops):
        raise ValueError("stops must lie in [0, block]")
    running = np.zeros((len(out), len(stops), *out.shape[1:]))
    done = 1
    for i in sorted(range(len(stops)), key=lambda i: stops[i]):
        for m in range(done, stops[i]):
            out += shaped[:, m]
        done = max(done, stops[i])
        if stops[i]:
            running[:, i] = out
    for m in range(done, block):
        out += shaped[:, m]
    return out, running


def _mode_eigenvalues(op: SpectralOperator, n: int) -> np.ndarray:
    if n > op.n_max:
        raise ValueError("state has more modes than the operator stores")
    return op.eigenvalues[:n]


def ou_transition_sample(
    op: SpectralOperator, x: np.ndarray, t: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Batch of exact time-t transition samples from x, shape (size, n)."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    lam = _mode_eigenvalues(op, x.shape[-1])
    mean = decay_factor(lam, t) * x
    sd = np.sqrt(convolution_variance(lam, t))
    return mean + sd * rng.standard_normal((size, lam.size))


def ou_cross_covariance(lam, t):
    """Covariance of the transition fluctuation with the gradient weight.

    Per mode, Cov(F_i, I_i) = t*exp(-lam*t), where F_i drives the transition
    and I_i is the time integral of exp(-lam*s) against the same Brownian
    motion.  This is exactly what makes the gradient-weight estimator
    unbiased for linear functionals.
    """
    return np.asarray(t, dtype=float) * np.exp(-np.asarray(lam, dtype=float) * t)


def _joint_law(op: SpectralOperator, x: np.ndarray, t: float) -> tuple[np.ndarray, ...]:
    """Per-mode (sd, decay*x, cov/sd, resid_sd) of the joint OU law: normals z1,
    z2 give the state decay*x + sd*z1 and the weight (cov/sd)*z1 + resid_sd*z2."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    lam = _mode_eigenvalues(op, x.shape[-1])
    var = convolution_variance(lam, t)
    cov = ou_cross_covariance(lam, t)
    u = lam * t
    # the residual variance cancels to O(u^2) as u -> 0; switch to its series there
    resid = np.where(u < 1e-4, t * u * u / 3.0 * (1.0 - u), var - cov * cov / var)
    sd = np.sqrt(var)
    return sd, decay_factor(lam, t) * x, cov / sd, np.sqrt(np.maximum(resid, 0.0))


def ou_joint_modes_batch(
    op: SpectralOperator, x: np.ndarray, t: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Joint draws of transition states and per-mode gradient weights.

    Returns (states, weights), both (size, n).  Per mode the pair
    (fluctuation, weight) is bivariate normal with equal variances
    convolution_variance(lam, t) and covariance t*exp(-lam*t); weights for a
    direction eta are obtained by contracting the weight array with eta.

    The two outputs are built in the buffers of the two normal draws (z1
    then z2), so at most three (size, n) arrays are alive at once.  The
    values are bitwise those of decay*x + sd*z1 and (cov/sd)*z1 + resid*z2,
    since IEEE + and * are commutative.
    """
    sd, mean, cov_sd, resid_sd = _joint_law(op, x, t)
    states = rng.standard_normal((size, sd.size))
    weights = rng.standard_normal((size, sd.size))
    weights *= resid_sd
    weights += cov_sd * states
    states *= sd
    states += mean
    return states, weights

