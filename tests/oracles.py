"""Scalar reference implementations that the tests check the library against.

They are written out one state, one step or one trial at a time and share no
kernel with the code they check, so a fault in a library kernel cannot hide
by appearing on both sides of a comparison.
"""

import numpy as np

from spdelab.drift import drift_array, drift_bound, mode_holder_constant, time_weight_lipschitz
from spdelab.spectral import ModeVector


def interpolate_substep(cfg, k, y, t, partial_noise):
    """Continuous-time value inside step k given the partial noise W(t)-W(k*delta):
    exp(-lam*tau) * (y + b(k*delta, y)*tau + partial) with tau = t - k*delta."""
    if not 0 <= k < cfg.steps:
        raise ValueError("step index out of range")
    tau = t - k * cfg.delta
    if tau < 0.0 or tau > cfg.delta:
        raise ValueError("t must lie within the step")
    return _substep(cfg, k, y, tau, partial_noise)


def ei_step(cfg, k, y, dw):
    """One grid step from time k*delta with increment dw."""
    if not 0 <= k < cfg.steps:
        raise ValueError("step index out of range")
    return _substep(cfg, k, y, cfg.delta, dw)


def _substep(cfg, k, y, tau, partial):
    if len(y) != cfg.n_dim or len(partial) != cfg.n_dim:
        raise ValueError("state and noise must have n_dim modes")
    lam = cfg.operator.eigenvalues[: cfg.n_dim]
    b = drift_array(cfg.drift, lam, k * cfg.delta, y.coeffs)
    return ModeVector(np.exp(-lam * tau) * (y.coeffs + b * tau + partial.coeffs))


def increment(lattice, path_id, mode, step):
    """One fine increment, read as the last draw of a prefix of its substream."""
    if not 0 <= step < lattice.fine_steps:
        raise ValueError("step index out of range")
    return float(lattice.mode_increments(path_id, mode, step + 1)[-1])


def coarse_increment(lattice, path_id, mode, level, j):
    """One coarse increment: the left-fold sum of its fine children, one add at a time."""
    if not 0 <= level <= lattice.levels:
        raise ValueError("level must lie in [0, levels]")
    if not 0 <= j < (1 << level):
        raise ValueError("coarse step index out of range")
    block = 1 << (lattice.levels - level)
    row = lattice.mode_increments(path_id, mode, (j + 1) * block)
    acc = row[j * block]
    for m in range(1, block):
        acc = acc + row[j * block + m]
    return float(acc)


def holder_constant_grid(f, epsilon, lo=-3.0, hi=3.0, m=1201):
    """Grid-search estimate of the 1-d Holder constant of f on [lo, hi]."""
    grid = np.linspace(lo, hi, m)
    vals = f(grid)
    du = np.abs(grid[:, None] - grid[None, :])
    dv = np.abs(vals[:, None] - vals[None, :])
    mask = du > 0.0
    return float(np.max(dv[mask] / du[mask] ** epsilon))


def holder_ratio_at(spec, op, which, trials, seed, worst, horizon=1.0):
    """Ratio of the validator trial that a report's ``worst`` record names.

    Redraws the samples of `verify_mode_holder` (which="mode") or
    `verify_time_holder` (which="time") in their draw order, finds the one
    trial matching ``worst`` and evaluates its ratio state by state.
    """
    rng = np.random.default_rng(seed)
    n = op.n_max
    lam = op.eigenvalues
    x = rng.normal(0.0, 1.5, size=(trials, n))
    if which == "time":
        s_times = rng.uniform(0.0, horizon, size=trials)
        t_times = rng.uniform(0.0, horizon, size=trials)
        (j,) = np.flatnonzero((s_times == worst["s"]) & (t_times == worst["t"]))
        d = drift_array(spec, lam, s_times[j], x[j]) - drift_array(spec, lam, t_times[j], x[j])
        c_time = drift_bound(spec, op) * time_weight_lipschitz(spec) * horizon ** (1.0 - spec.epsilon)
        return float(np.linalg.norm(d)) / (c_time * abs(s_times[j] - t_times[j]) ** spec.epsilon)

    y_val = rng.normal(0.0, 1.5, size=trials)
    idx = rng.integers(0, n, size=trials)
    times = rng.uniform(0.0, horizon, size=trials)
    quarter = trials // 4
    small = 10.0 ** rng.uniform(-3.0, 0.0, size=quarter)
    x[np.arange(quarter), idx[:quarter]] = small
    y_val[:quarter] = -small
    near_cap = spec.cap ** (1.0 / spec.epsilon)
    x[np.arange(quarter, 2 * quarter), idx[quarter : 2 * quarter]] = near_cap * rng.uniform(0.8, 1.2, size=quarter)

    i = worst["mode"]
    match = (idx == i) & (times == worst["t"]) & (x[:, i] == worst["x_i"]) & (y_val == worst["y_i"])
    (j,) = np.flatnonzero(match)
    moved = x[j].copy()
    moved[i] = y_val[j]
    d = drift_array(spec, lam, times[j], x[j]) - drift_array(spec, lam, times[j], moved)
    denom = mode_holder_constant(spec) * lam[i] ** (-spec.beta) * abs(x[j, i] - y_val[j]) ** spec.epsilon
    return float(np.linalg.norm(d)) / denom
