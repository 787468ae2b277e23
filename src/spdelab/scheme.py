"""Exponential integrator on the spectral truncation, driven by the lattice.

One step over [k*delta, (k+1)*delta] maps Y to
exp(delta*A_n) * (Y + b(k*delta, Y)*delta + dW_k), and the continuous-time
reading of the same recursion gives the sub-step closed form
exp(tau*A_n) * (Y + b(k*delta, Y)*tau + (W(t) - W(k*delta))) with
tau = t - k*delta.  Both are one formula, written once in `_ei_substep`:
the grid recursion and the error and increment integrators of the analysis
layer all evaluate it, so a sub-step value at tau = delta equals the next
grid value bit for bit.  The integrators read the sub-step values of a
grid batch through `_substep_values`, which owns the partial noise of each
step.

Every consumer reads the noise in one forward pass over time windows
(`_coupled_windows` over `_noise_windows`).  Each (path, mode) substream of
a path batch is opened once and fills the next W fine rows of one reused
(W, C, n) buffer, so a batch holds one window instead of all 2**levels
fine rows.  W is one step of the coarsest level in the pass, at least 256
fine rows and at most the whole lattice.  Being a power of two no smaller
than any level's step, W is a multiple of every level's step, so each block
fold, recursion step and sub-step stack sees exactly the rows, in the same
order, that it sees in a whole-lattice array; the grid state and the global
step index, which sets the drift's time, carry from window to window.  A
Philox substream read in pieces gives the draws it gives in one call, and
they are scaled element by element by the factor `mode_increments` uses, so
every output is bitwise that of the whole-lattice pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .drift import HolderDriftSpec, drift_array
from .noise import NoiseLattice, left_fold_blocks
from .spectral import SpectralOperator

__all__ = [
    "InitialData",
    "SchemeConfig",
    "Trajectory",
    "SimulationError",
    "initial_domain_check",
    "simulate_path",
    "simulate_coupled",
    "write_trajectory_csv",
]


# fewest fine rows a noise window holds, unless the lattice is shorter: one
# draw call costs about as much as 50 normals, so short windows would spend
# their time on calls
_MIN_WINDOW = 256


class SimulationError(RuntimeError):
    """Raised when a trajectory leaves the finite range."""


@dataclass(frozen=True)
class InitialData:
    """Initial coefficients: power_decay gives x_i = i**-q, explicit is literal."""

    profile: str
    q: float | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.profile == "power_decay":
            if self.q is None:
                raise ValueError("power_decay initial data needs a decay exponent q")
        elif self.profile == "explicit":
            if not self.coeffs:
                raise ValueError("explicit initial data needs coefficients")
            if not all(math.isfinite(c) for c in self.coeffs):
                raise ValueError("explicit coefficients must be finite")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        else:
            raise ValueError(f"unknown initial profile {self.profile!r}")

    def mode_coefficients(self, n: int) -> np.ndarray:
        if self.profile == "power_decay":
            return np.arange(1, n + 1, dtype=float) ** (-self.q)
        out = np.zeros(n)
        take = min(n, len(self.coeffs))
        out[:take] = self.coeffs[:take]
        return out


def initial_domain_check(initial: InitialData, op: SpectralOperator) -> tuple[bool | None, str]:
    """Whether the initial datum lies in the domain of the generator.

    Membership needs sum lam_i**2 x_i**2 < infinity over the full ladder.
    For a power-law spectrum and power-decay data the series exponent is
    2*power - 2*q, so the verdict is analytic; explicit data are finite-mode
    and always belong; anything else is undetermined beyond the truncation.
    """
    if initial.profile == "explicit":
        return True, "finite mode expansion, trivially in the domain"
    if op.spectrum_kind == "power_law":
        exponent = 2.0 * op.power - 2.0 * initial.q
        if exponent < -1.0:
            return True, f"series exponent {exponent:g} < -1, sum lam_i^2 x_i^2 converges"
        return False, f"series exponent {exponent:g} >= -1, sum lam_i^2 x_i^2 diverges"
    return None, "explicit spectrum: domain membership undetermined beyond truncation"


@dataclass(frozen=True)
class SchemeConfig:
    """A single resolution: dyadic level in time, n_dim modes in space."""

    operator: SpectralOperator
    drift: HolderDriftSpec
    initial: InitialData
    horizon: float
    level: int
    n_dim: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if not 0 <= self.level <= 30:
            raise ValueError("level must lie in [0, 30]")
        if not 1 <= self.n_dim <= self.operator.n_max:
            raise ValueError("n_dim must lie in [1, operator.n_max]")

    @property
    def steps(self) -> int:
        return 1 << self.level

    @property
    def delta(self) -> float:
        return self.horizon / self.steps

    def initial_coefficients(self) -> np.ndarray:
        return self.initial.mode_coefficients(self.n_dim)


@dataclass(frozen=True)
class Trajectory:
    """Grid values of one path, shape (steps + 1, n_dim); row k is time k*delta."""

    config: SchemeConfig
    path_id: int
    grid: np.ndarray

    def __post_init__(self):
        expected = (self.config.steps + 1, self.config.n_dim)
        if self.grid.shape != expected:
            raise ValueError(f"grid shape {self.grid.shape} != {expected}")

    def time(self, k: int) -> float:
        return k * self.config.delta


def _ei_substep(cfg: SchemeConfig, k: int, y: np.ndarray, decay, tau, partial) -> np.ndarray:
    """decay * (y + b(k*delta, y)*tau + partial) with decay = exp(-lam*tau).

    y is a state or a (C, n) batch of states.  A stack of R sub-steps passes
    tau with shape (R, 1, 1), decay (R, 1, n) and partial (R, C, n); the
    drift is evaluated once on y and broadcast over the stack.
    """
    b = drift_array(cfg.drift, cfg.operator.eigenvalues[: cfg.n_dim], k * cfg.delta, y)
    return decay * (y + b * tau + partial)


def _check_lattice(cfg: SchemeConfig, lattice: NoiseLattice):
    if cfg.horizon != lattice.horizon:
        raise ValueError("config horizon does not match the lattice")
    if cfg.level > lattice.levels:
        raise ValueError("config level finer than the lattice")
    if cfg.n_dim > lattice.n_modes:
        raise ValueError("config needs more modes than the lattice stores")


def _iterate_batch(cfg: SchemeConfig, dw: np.ndarray, y: np.ndarray, k0: int, path_ids) -> np.ndarray:
    """Run the recursion from state y at global step k0 on a (steps, C, n)
    increment stack -> (steps+1, C, n), row 0 being y.

    All operations are elementwise per path, so each path's rows are bitwise
    identical no matter which other paths share the batch.
    """
    steps, n_paths, _ = dw.shape
    delta = cfg.delta
    decay = np.exp(-cfg.operator.eigenvalues[: cfg.n_dim] * delta)
    grid = np.empty((steps + 1, n_paths, cfg.n_dim))
    grid[0] = y
    for j in range(steps):
        y = _ei_substep(cfg, k0 + j, y, decay, delta, dw[j])
        bad = ~np.isfinite(y)
        if bad.any():
            c, m = np.argwhere(bad)[0]
            raise SimulationError(
                f"non-finite state after step {k0 + j + 1} of {cfg.steps} "
                f"on path {path_ids[c]}, first in mode {m + 1}"
            )
        grid[j + 1] = y
    return grid


def _noise_windows(lattice: NoiseLattice, path_ids, n_dim: int, levels):
    """Yield (start, window): fine increments start .. start+W-1 of a path
    batch, shape (W, C, n_dim), in one reused buffer.

    W is one step of the coarsest of `levels`, at least _MIN_WINDOW rows and
    at most the whole lattice, so every level's steps tile each window.
    Each (path, mode) substream is opened once and read forward; the draws
    are those of `NoiseLattice.mode_increments`, scaled by the same factor.
    """
    rows = min(lattice.fine_steps, max(_MIN_WINDOW, 1 << (lattice.levels - min(levels))))
    streams = [[None] * n_dim for _ in path_ids]
    sd = lattice.scale * math.sqrt(lattice.fine_dt)
    draws = np.empty((n_dim, rows))
    window = np.empty((rows, len(path_ids), n_dim))
    for start in range(0, lattice.fine_steps, rows):
        more = start + rows < lattice.fine_steps
        for c, pid in enumerate(path_ids):
            row = streams[c]
            for m in range(n_dim):
                gen = row[m] if row[m] is not None else lattice._substream(pid, m)
                # a draw fills a contiguous row; a stream (~1 kB) is held
                # open only while it has windows left to fill
                gen.standard_normal(out=draws[m])
                row[m] = gen if more else None
            # one path's draws land in the window, scaled as mode_increments scales them
            np.multiply(sd, draws.T, out=window[:, c])
        yield start, window


def _coupled_windows(configs, lattice: NoiseLattice, path_ids):
    """One forward pass of several resolutions of a path batch over the
    noise windows.

    Yields (window, grids) with one (k0, grid) per config: the grid rows
    k0 .. k0+s of the steps the window covers, shape (s+1, C, n), row 0
    being the state carried from the previous window.
    """
    n_top = max(cfg.n_dim for cfg in configs)
    states = [np.broadcast_to(cfg.initial_coefficients(), (len(path_ids), cfg.n_dim)) for cfg in configs]
    for start, window in _noise_windows(lattice, path_ids, n_top, [cfg.level for cfg in configs]):
        grids = []
        for i, cfg in enumerate(configs):
            shift = lattice.levels - cfg.level
            dw = left_fold_blocks(window[:, :, : cfg.n_dim], 1 << shift)
            grid = _iterate_batch(cfg, dw, states[i], start >> shift, path_ids)
            states[i] = grid[-1]
            grids.append((start >> shift, grid))
        yield window, grids


def _substep_values(
    cfg: SchemeConfig, lattice: NoiseLattice, grid: np.ndarray, window: np.ndarray, offsets: np.ndarray, k0: int
):
    """Yield, for each step k0 + j of a (s+1, C, n) grid batch, the scheme's
    values at fine-lattice offsets inside the step, shape (len(offsets), C, n).

    Offset i is time k*delta + i*fine_dt; offset 0 reads Y_k itself through
    the kernel.  The partial noise is the prefix sum of the step's rows of
    `window`, the (s * rows per step, C, >= n) increments the grid batch
    covers.  It is a running sum in row order, the first row copied and the
    next ones added one at a time, as np.cumsum adds them, and only the
    offset rows are kept.
    """
    per_step = 1 << (lattice.levels - cfg.level)
    steps, n_paths = grid.shape[0] - 1, grid.shape[1]
    tau = (offsets * lattice.fine_dt)[:, None, None]
    decay = np.exp(-tau * cfg.operator.eigenvalues[: cfg.n_dim])
    rows = window[: steps * per_step, :, : cfg.n_dim].reshape(steps, per_step, n_paths, cfg.n_dim)
    partial = np.zeros((steps, len(offsets), n_paths, cfg.n_dim))
    prefix, done = rows[:, 0].copy(), 1
    for i in np.argsort(offsets, kind="stable"):
        if offsets[i]:
            for r in range(done, offsets[i]):
                prefix += rows[:, r]
            done = offsets[i]
            partial[:, i] = prefix
    for j in range(steps):
        yield _ei_substep(cfg, k0 + j, grid[j], decay, tau, partial[j])


def simulate_path(cfg: SchemeConfig, lattice: NoiseLattice, path_id: int) -> Trajectory:
    """Simulate one path on its grid; bitwise reproducible from the seed."""
    return simulate_coupled([cfg], lattice, path_id)[0]


def simulate_coupled(configs, lattice: NoiseLattice, path_id: int) -> list[Trajectory]:
    """Simulate several resolutions of the same path from one noise fetch.

    Configs must share horizon, drift, and initial data; each returned
    trajectory is bitwise identical to what simulate_path would produce.
    """
    if not configs:
        raise ValueError("need at least one config")
    first = configs[0]
    for cfg in configs:
        _check_lattice(cfg, lattice)
        if cfg.horizon != first.horizon:
            raise ValueError("coupled configs must share the horizon")
        if cfg.drift != first.drift or cfg.initial != first.initial:
            raise ValueError("coupled configs must share drift and initial data")
    grids = [np.empty((cfg.steps + 1, cfg.n_dim)) for cfg in configs]
    for _, windows in _coupled_windows(configs, lattice, [path_id]):
        for full, (k0, grid) in zip(grids, windows):
            full[k0 : k0 + len(grid)] = grid[:, 0]
    return [Trajectory(cfg, path_id, g) for cfg, g in zip(configs, grids)]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns t, mode_1 .. mode_n, one row per grid time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"mode_{i + 1}" for i in range(traj.config.n_dim)])
        for k in range(traj.config.steps + 1):
            writer.writerow([repr(traj.time(k))] + [repr(float(v)) for v in traj.grid[k]])
