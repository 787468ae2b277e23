"""Exponential integrator on the spectral truncation, driven by the lattice.

One step over [k*delta, (k+1)*delta] maps Y to
exp(delta*A_n) * (Y + b(k*delta, Y)*delta + dW_k), and the continuous-time
reading of the same recursion gives the sub-step closed form
exp(tau*A_n) * (Y + b(k*delta, Y)*tau + (W(t) - W(k*delta))) with
tau = t - k*delta.  Both are one formula, written once in `_ei_substep`:
the grid recursion and the error and increment integrators of the analysis
layer all evaluate it, so a sub-step value at tau = delta equals the next
grid value bit for bit.  The integrators read the sub-step values of a
whole grid batch through `_substep_values`, which owns the partial noise of
each step.
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


def _iterate_batch(cfg: SchemeConfig, dw: np.ndarray) -> np.ndarray:
    """Run the recursion on a (steps, C, n) increment stack -> (steps+1, C, n).

    All operations are elementwise per path, so each path's rows are bitwise
    identical no matter which other paths share the batch.
    """
    steps, n_paths, _ = dw.shape
    delta = cfg.delta
    decay = np.exp(-cfg.operator.eigenvalues[: cfg.n_dim] * delta)
    grid = np.empty((steps + 1, n_paths, cfg.n_dim))
    y = np.broadcast_to(cfg.initial_coefficients(), (n_paths, cfg.n_dim)).copy()
    grid[0] = y
    for k in range(steps):
        y = _ei_substep(cfg, k, y, decay, delta, dw[k])
        if not np.all(np.isfinite(y)):
            raise SimulationError(f"non-finite state after step {k + 1} of {steps}")
        grid[k + 1] = y
    return grid


def _fine_block(lattice: NoiseLattice, path_ids, n_dim: int) -> np.ndarray:
    """Fine increments for a path batch, shape (fine_steps, C, n_dim)."""
    out = np.empty((lattice.fine_steps, len(path_ids), n_dim))
    for c, pid in enumerate(path_ids):
        out[:, c, :] = lattice.fine_increments(pid, n_dim)
    return out


def _coupled_grids(configs, lattice: NoiseLattice, fine: np.ndarray) -> list[np.ndarray]:
    grids = []
    for cfg in configs:
        dw = left_fold_blocks(fine[:, :, : cfg.n_dim], 1 << (lattice.levels - cfg.level))
        grids.append(_iterate_batch(cfg, dw))
    return grids


def _substep_values(cfg: SchemeConfig, lattice: NoiseLattice, grid: np.ndarray, fine: np.ndarray, offsets: np.ndarray):
    """Yield, for each step k of a (steps+1, C, n) grid batch, the scheme's
    values at fine-lattice offsets inside the step, shape (len(offsets), C, n).

    Offset j is time k*delta + j*fine_dt; offset 0 reads Y_k itself through
    the kernel.  The partial noise is the running prefix sum of the step's
    rows of `fine`, the (fine_steps, C, >= n) increment block.
    """
    per_step = 1 << (lattice.levels - cfg.level)
    tau = (offsets * lattice.fine_dt)[:, None, None]
    decay = np.exp(-tau * cfg.operator.eigenvalues[: cfg.n_dim])
    prefix = np.zeros((per_step + 1, fine.shape[1], cfg.n_dim))
    for k in range(cfg.steps):
        np.cumsum(fine[k * per_step : (k + 1) * per_step, :, : cfg.n_dim], axis=0, out=prefix[1:])
        yield _ei_substep(cfg, k, grid[k], decay, tau, prefix[offsets])


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
    n_top = max(cfg.n_dim for cfg in configs)
    fine = _fine_block(lattice, [path_id], n_top)
    grids = _coupled_grids(configs, lattice, fine)
    return [Trajectory(cfg, path_id, g[:, 0, :]) for cfg, g in zip(configs, grids)]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns t, mode_1 .. mode_n, one row per grid time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"mode_{i + 1}" for i in range(traj.config.n_dim)])
        for k in range(traj.config.steps + 1):
            writer.writerow([repr(traj.time(k))] + [repr(float(v)) for v in traj.grid[k]])
