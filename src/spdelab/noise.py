"""Reproducible space-time white noise lattice and exact single-mode samplers.

Increments live on a dyadic grid of 2**levels steps.  Every (path, mode) pair
owns a dedicated Philox substream: the key packs (master_seed, path_id) and
the high counter word packs the mode, so streams are separated by 2**192
counter blocks and never overlap.  A value at step k is the k-th draw of its
substream, which makes every increment reproducible from
(master_seed, path_id, mode, step) regardless of query order, worker count,
or how many modes and levels any particular run consumes.  A path's
substreams are opened together from its key, and no open reads OS entropy.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _philox():
    """(KeySequence, Philox, Generator), numpy.random imported on first use.
    Philox seeded with a KeySequence takes its key without drawing OS entropy."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its two uint64 key words

    return KeySequence, Philox, Generator


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

    def _substreams(self, path_id: int, modes) -> list[np.random.Generator]:
        if not 0 <= path_id <= _MASK64:
            raise ValueError("path_id must fit in 64 bits")
        key_seq, philox, generator = _philox()
        key = key_seq(np.array([self.master_seed, path_id], dtype=np.uint64))
        return [generator(philox(key, counter=[0, 0, 0, m])) for m in modes]

    def mode_increments(self, path_id: int, mode: int, count: int | None = None) -> np.ndarray:
        """First ``count`` fine increments of one (path, mode) substream."""
        if not 0 <= mode < self.n_modes:
            raise ValueError("mode index out of range")
        if count is None:
            count = self.fine_steps
        if not 0 <= count <= self.fine_steps:
            raise ValueError("count out of range")
        sd = self.scale * math.sqrt(self.fine_dt)
        return sd * self._substreams(path_id, [mode])[0].standard_normal(count)

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
    ``running`` alone: ``running[:, i]`` is the fold of the first
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
    return running


def _mode_eigenvalues(op: SpectralOperator, n: int) -> np.ndarray:
    if n > op.n_max:
        raise ValueError("state has more modes than the operator stores")
    return op.eigenvalues[:n]


def ou_transition_sample(
    op: SpectralOperator, x: np.ndarray, t: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Exact time-t transition samples from x, (size, n): joint draws with no weight modes; t may be 0."""
    return ou_joint_modes_batch(op, x, t, rng, size, ())[0]


def ou_cross_covariance(lam, t):
    """Covariance of the transition fluctuation with the gradient weight.

    Per mode, Cov(F_i, I_i) = t*exp(-lam*t), where F_i drives the transition
    and I_i is the time integral of exp(-lam*s) against the same Brownian
    motion.  This is exactly what makes the gradient-weight estimator
    unbiased for linear functionals.
    """
    return np.asarray(t, dtype=float) * np.exp(-np.asarray(lam, dtype=float) * t)


def ou_joint_modes_batch(
    op: SpectralOperator, x: np.ndarray, t: float, rng: np.random.Generator, size: int, weight_modes=None
) -> tuple[np.ndarray, np.ndarray]:
    """Transition states (size, n) and the gradient weights (size, |S|) of the
    0-based weight modes S, by default every mode in order.

    Per mode (fluctuation, weight) is bivariate normal with variances
    convolution_variance(lam, t) and covariance t*exp(-lam*t); a direction's
    weight contracts the weights with it, so S need only cover its support.
    A sample's normals are z1 on every mode, then z2 on S: one (size, n + |S|)
    draw ((size, 2, n) for every mode), so calls of sizes a and b on one
    generator give the rows of one call of size a + b.  The outputs are views
    of it rewritten in place to bitwise decay*x + sd*z1 and (cov/sd)*z1 +
    resid*z2 (IEEE + and * commute).  Subnormal decay*x and cov/sd are set to
    0: they slow the arithmetic, and beside sd*z, sd > 0, change no bit.
    """
    n = x.shape[-1]
    modes = np.arange(n) if weight_modes is None else np.asarray(weight_modes, dtype=int)
    if t < 0.0 or (t == 0.0 and modes.size):
        raise ValueError("t must be positive, or zero with no weight modes")
    lam = _mode_eigenvalues(op, n)
    var = convolution_variance(lam, t)
    sd = np.sqrt(var)
    mean = decay_factor(lam, t) * x
    mean[(np.abs(mean) < np.finfo(float).tiny) & (sd > 0.0)] = 0.0
    lam, var = lam[modes], var[modes]
    cov = ou_cross_covariance(lam, t)
    u = lam * t
    # the residual variance cancels to O(u^2) as u -> 0; switch to its series there
    resid = np.where(u < 1e-4, t * u * u / 3.0 * (1.0 - u), var - cov * cov / var)
    pull = cov / sd[modes]
    pull[np.abs(pull) < np.finfo(float).tiny] = 0.0
    z = rng.standard_normal((size, n + modes.size))
    pull = pull * z[:, modes]
    z *= np.concatenate((sd, np.sqrt(np.maximum(resid, 0.0))))
    states, weights = z[:, :n], z[:, n:]
    states += mean
    weights += pull
    return states, weights
