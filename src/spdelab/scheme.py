"""Exponential integrator on the spectral truncation, driven by the lattice.

One step over [k*delta, (k+1)*delta] maps Y to
exp(delta*A_n) * (Y + b(k*delta, Y)*delta + dW_k), and the continuous-time
reading of the same recursion gives the sub-step closed form
exp(tau*A_n) * (Y + b(k*delta, Y)*tau + (W(t) - W(k*delta))) with
tau = t - k*delta.  Both are one formula, written once in `_ei_substep`,
and one call of it per step (`_advance`) gives both: the step's end is one
more sub-step stop, so the drift is evaluated once per step and a sub-step
value at tau = delta is the next grid value bit for bit.  The partial noise
of every stop is a running sum of the step's fine rows, read off the one
fold that also gives the step's increment (`noise.left_fold_blocks`); the
kernel writes each step's sub-step values over that stack in place, and the
error integral (`analysis._err2_batch`) reads them from there.

Every consumer reads the noise in one forward pass over time windows
(`_coupled_pass` over `_noise_windows`).  A path's substreams are opened
together, once, and each fills the next W fine rows of one reused
(W, C, n) buffer, so a batch holds one window instead of all 2**levels
fine rows.  W is one step of the coarsest level in the pass, at least
_MIN_WINDOW steps of the finest and at most the whole lattice; the floor is
counted in steps, as a window's stacks and grids hold a row per step of the
finest level.  Being a power of two no smaller than any level's step, W is
a multiple of every level's step, so each block fold, recursion step and
sub-step stack sees exactly the rows, in the same order, that it sees in a
whole-lattice array; the grid state and the global step index, which sets
the drift's time, carry from window to window.  A Philox substream read in
pieces gives the draws it gives in one call, and they are scaled element by
element by the factor `mode_increments` uses, so every output is bitwise
that of the whole-lattice pass.
"""

from __future__ import annotations

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
    "simulate_path",
    "simulate_coupled",
]


# fewest steps of the pass's finest level a noise window holds, unless the
# lattice is shorter.  A draw call costs about 0.5 us, as much as 40 normals
# (690 ns for 16; 21 ns a normal for 64, 12 ns for 4096: numpy 2.4 Philox on
# a 2-vCPU Xeon VM); 128 would cut 21 ns to 17 and add 4 MB per worker.
_MIN_WINDOW = 64


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
            if self.q is None or not math.isfinite(self.q):
                raise ValueError("power_decay initial data needs a finite decay exponent q")
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
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
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


def _ei_substep(cfg: SchemeConfig, k: int, y: np.ndarray, decay, tau, partial, scratch) -> np.ndarray:
    """decay * ((y + b(k*delta, y)*tau) + partial) with decay = exp(-lam*tau),
    written over partial, which is returned; scratch holds y + b*tau.

    y is a (C, n) batch of states.  A stack of R sub-steps passes tau with
    shape (R, 1, 1), decay (R, 1, n), and partial and scratch (R, C, n); the
    drift is evaluated once on y and broadcast over the stack.
    """
    b = drift_array(cfg.drift, cfg.operator.eigenvalues[: cfg.n_dim], k * cfg.delta, y)
    np.add(y, np.multiply(b, tau, out=scratch), out=scratch)
    np.add(scratch, partial, out=partial)
    return np.multiply(decay, partial, out=partial)


def _check_lattice(cfg: SchemeConfig, lattice: NoiseLattice):
    if cfg.horizon != lattice.horizon:
        raise ValueError("config horizon does not match the lattice")
    if cfg.level > lattice.levels:
        raise ValueError("config level finer than the lattice")
    if cfg.n_dim > lattice.n_modes:
        raise ValueError("config needs more modes than the lattice stores")


def _noise_windows(lattice: NoiseLattice, path_ids, n_dim: int, levels):
    """Yield (start, window): fine increments start .. start+W-1 of a path
    batch, shape (W, C, n_dim), in one reused buffer.

    W is one step of the coarsest of `levels`, at least _MIN_WINDOW of the
    finest's and at most the whole lattice, so every level's steps tile it.
    A path's substreams are opened together, once, and read forward; the
    draws are those of `NoiseLattice.mode_increments`, scaled by the same factor.
    """
    coarsest, finest = (1 << (lattice.levels - lev) for lev in (min(levels), max(levels)))
    rows = min(lattice.fine_steps, max(coarsest, _MIN_WINDOW * finest))
    streams = [None] * len(path_ids)
    sd = lattice.scale * math.sqrt(lattice.fine_dt)
    draws = np.empty((n_dim, rows))
    draw_rows = list(draws)
    window = np.empty((rows, len(path_ids), n_dim))
    for start in range(0, lattice.fine_steps, rows):
        more = start + rows < lattice.fine_steps
        for c, pid in enumerate(path_ids):
            streams[c] = streams[c] or lattice._substreams(pid, range(n_dim))
            # a draw fills a contiguous row; a stream (~0.6 kB) is held
            # open only while it has windows left to fill
            for gen, out in zip(streams[c], draw_rows):
                gen.standard_normal(out=out)
            streams[c] = streams[c] if more else None
            # one path's draws land in the window, scaled as mode_increments scales them
            np.multiply(sd, draws.T, out=window[:, c])
        yield start, window


def _advance(cfg: SchemeConfig, lattice: NoiseLattice, window: np.ndarray, y: np.ndarray, k0: int, stops, path_ids):
    """Run the steps k0 .. k0+s-1 that a window of fine increments covers,
    from state y at global step k0 -> (grid, values).

    grid holds rows k0 .. k0+s, shape (s+1, C, n), row 0 being y.  values
    holds, per step, the sub-step values at the fine-lattice offsets
    ``stops`` inside it, shape (s, len(stops), C, n); offset i is time
    k*delta + i*fine_dt.  With no stops, values are the grid rows at the
    start of each step, shape (s, 1, C, n), read off the grid.  The step's
    end is one more stop, so each step is one `_ei_substep` call, with one
    drift evaluation, whose last row is the next grid state.

    All operations are elementwise per path, so each path's rows are bitwise
    identical no matter which other paths share the batch.
    """
    block = 1 << (lattice.levels - cfg.level)
    rows = window[:, :, : cfg.n_dim]
    if stops is None:
        partial, taus = left_fold_blocks(rows, block)[:, None], [cfg.delta]
    else:
        partial = left_fold_blocks(rows, block, [*stops, block])
        taus = [*(np.asarray(stops) * lattice.fine_dt), cfg.delta]
    tau = np.array(taus)[:, None, None]
    decay = np.exp(-tau * cfg.operator.eigenvalues[: cfg.n_dim])
    grid = np.empty((len(partial) + 1, *y.shape))
    grid[0] = y
    scratch = np.empty(partial.shape[1:])
    for j, stack in enumerate(partial):
        # the fold's stack takes its sub-step values; window and y are only read
        y = _ei_substep(cfg, k0 + j, y, decay, tau, stack, scratch)[-1]
        bad = ~np.isfinite(y)
        if bad.any():
            c, m = np.argwhere(bad)[0]
            raise SimulationError(
                f"non-finite state after step {k0 + j + 1} of {cfg.steps} "
                f"on path {path_ids[c]}, first in mode {m + 1}"
            )
        grid[j + 1] = y
    return grid, (grid[:-1, None] if stops is None else partial[:, :-1])


def _coupled_pass(configs, lattice: NoiseLattice, path_ids, stops):
    """One forward pass of several resolutions of a path batch over the
    noise windows.

    Yields (i, k0, grid, values) per window and config i, in config order:
    the `_advance` output of the steps from global step k0 that the window
    covers, with sub-step offsets ``stops[i]``.  A consumer that drops its
    references before asking for the next item lets each config's stack go
    before the next one is computed.  Every config is checked against the
    lattice before the first window is drawn.
    """
    for cfg in configs:
        _check_lattice(cfg, lattice)
    n_top = max(cfg.n_dim for cfg in configs)
    states = [np.broadcast_to(cfg.initial_coefficients(), (len(path_ids), cfg.n_dim)) for cfg in configs]
    for start, window in _noise_windows(lattice, path_ids, n_top, [cfg.level for cfg in configs]):
        for i, cfg in enumerate(configs):
            k0 = start >> (lattice.levels - cfg.level)
            grid, values = _advance(cfg, lattice, window, states[i], k0, stops[i], path_ids)
            states[i] = grid[-1]
            yield i, k0, grid, values
            del grid, values


def simulate_path(cfg: SchemeConfig, lattice: NoiseLattice, path_id: int) -> Trajectory:
    """Simulate one path on its grid; bitwise reproducible from the seed."""
    return simulate_coupled([cfg], lattice, path_id)[0]


def simulate_coupled(configs, lattice: NoiseLattice, path_id: int) -> list[Trajectory]:
    """Simulate several resolutions of the same path from one noise fetch.

    Configs must share drift and initial data, and each must fit the
    lattice, horizon included; each returned trajectory is bitwise identical
    to what simulate_path would produce.
    """
    if not configs:
        raise ValueError("need at least one config")
    first = configs[0]
    for cfg in configs:
        if cfg.drift != first.drift or cfg.initial != first.initial:
            raise ValueError("coupled configs must share drift and initial data")
    grids = [np.empty((cfg.steps + 1, cfg.n_dim)) for cfg in configs]
    for i, k0, grid, _ in _coupled_pass(configs, lattice, [path_id], [None] * len(configs)):
        grids[i][k0 : k0 + len(grid)] = grid[:, 0]
    return [Trajectory(cfg, path_id, g) for cfg, g in zip(configs, grids)]
