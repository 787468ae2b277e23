"""Scalar reference implementations that the tests check the library against.

They are written out one state, one step or one trial at a time and share no
kernel with the code they check, so a fault in a library kernel cannot hide
by appearing on both sides of a comparison.
"""

import math

import numpy as np

from spdelab.drift import drift_array, drift_bound, mode_holder_constant, time_weight_lipschitz
from spdelab.noise import ou_joint_modes_batch


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
    b = drift_array(cfg.drift, lam, k * cfg.delta, y)
    return np.exp(-lam * tau) * (y + b * tau + partial)


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


def mean_stderr(samples):
    """Mean and standard error of each column of an (m, n) sample, two passes
    of exactly rounded sums (math.fsum), one column at a time."""
    m = samples.shape[0]
    if m < 2:
        raise ValueError("need at least two samples")
    means, stderrs = [], []
    for column in samples.T:
        mean = math.fsum(column) / m
        var = math.fsum((v - mean) ** 2 for v in column) / (m - 1)
        means.append(mean)
        stderrs.append(math.sqrt(var / m))
    return np.array(means), np.array(stderrs)


def summability_gradient_monte_carlo(op, spec, lam_picard, t, x, samples, seed, horizon=1.0, nodes=8):
    """The summability probe's (n, n) gradient matrix by Monte Carlo, and its standard errors.

    Entry (i, k) is the gradient along mode i of mode k of the first Picard
    iterate at (t, x), by the midpoint rule of ``nodes`` nodes in time, as
    the library estimated it before it turned to quadrature.  At node tau,
    ``samples`` joint draws from default_rng(seed) of the transition state
    and the Bismut weights W add exp(-lam_picard*tau)*ds * mean(W_i*b_k)/tau.
    The nodes draw in turn from one stream, so they are independent and
    their variances add.
    """
    n = len(x)
    lam = op.eigenvalues[:n]
    rng = np.random.default_rng(seed)
    ds = (horizon - t) / nodes
    grad, var = np.zeros((n, n)), np.zeros((n, n))
    for j in range(nodes):
        s = t + (j + 0.5) * ds
        tau = s - t
        states, weights = ou_joint_modes_batch(op, x, tau, rng, samples)
        drift = drift_array(spec, lam, s, states)
        mean = weights.T @ drift / samples
        second = (weights * weights).T @ (drift * drift) / samples
        scale = math.exp(-lam_picard * tau) * ds / tau
        grad += scale * mean
        var += scale**2 * np.maximum(second - mean * mean, 0.0) / (samples - 1)
    return grad, np.sqrt(var)


def _dense_mode_term(spec, lam_i, x_i, tau, s, z, kernel):
    """One mode's e^(-lam_i*tau) * a*h(s)*lam_i^(-beta) * E[phi(m + sd*Z)*Z]/sd, with
    m = e^(-lam_i*tau)*x_i, sd**2 = (1 - e^(-2*lam_i*tau))/(2*lam_i) and phi = psi, or tanh for the
    smooth baseline, the expectation a midpoint rule whose points z carry the weights ``kernel``."""
    sd = math.sqrt(-math.expm1(-2.0 * lam_i * tau) / (2.0 * lam_i))
    u = math.exp(-lam_i * tau) * x_i + sd * z
    if spec.kind == "smooth_baseline":
        phi = np.tanh(u)
    else:
        phi = np.sign(u) * np.minimum(np.abs(u) ** spec.epsilon, spec.cap)
    h_s = math.cos(2.0 * math.pi * s / spec.period) if spec.time_mod == "cosine" else 1.0
    return math.exp(-lam_i * tau) * spec.amplitude * h_s * lam_i ** (-spec.beta) * float(phi @ kernel) / sd


def _midpoint_kernel(points, cut):
    """Points z of the ``points``-point midpoint rule on [-cut, cut] and their weights z*phi(z)*h."""
    h = 2.0 * cut / points
    z = -cut + h * (np.arange(points) + 0.5)
    return z, z * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * h


def summability_gradient_dense(spec, lam, lam_picard, t, x, horizon=1.0, nodes=8, points=400_001, cut=12.0):
    """Each mode's one nonzero summability gradient entry by a dense midpoint rule in z.

    The entry of mode i with eigenvalue lam[i] at x[i] sums, over the
    ``nodes`` midpoint nodes tau of time, exp(-lam_picard*tau)*ds times the
    `_dense_mode_term` of the drift at time t + tau carried for tau (rank_one's
    entry is the diagonal's, on mode 1).  The expectation is a ``points``-point
    midpoint rule on z in [-cut, cut], one mode and one node at a time, with
    phi written out here.
    """
    z, kernel = _midpoint_kernel(points, cut)
    ds = (horizon - t) / nodes
    entries = []
    for lam_i, x_i in zip(lam, x):
        entry = 0.0
        for j in range(nodes):
            tau = (j + 0.5) * ds
            term = _dense_mode_term(spec, float(lam_i), x_i, tau, t + tau, z, kernel)
            entry += math.exp(-lam_picard * tau) * ds * term
        entries.append(entry)
    return np.array(entries)


def decay_rows_dense(spec, lam, t, x, time=0.25, points=400_001, cut=12.0):
    """Each mode's signed gradient-decay entry by a dense midpoint rule in z.

    The entry of mode i with eigenvalue lam[i] at x[i] is the
    `_dense_mode_term` of the drift frozen at ``time`` and carried for t[i]:
    the derivative along e_i of the driftless semigroup applied to the drift,
    whose size is the decay check's row (rank_one's is the diagonal's, on
    mode 1).  t is one time per mode.
    """
    z, kernel = _midpoint_kernel(points, cut)
    terms = [_dense_mode_term(spec, float(lam_i), x_i, t_i, time, z, kernel) for lam_i, x_i, t_i in zip(lam, x, t)]
    return np.array(terms)


def drift_test_function(spec, op, time):
    """The drift frozen at ``time`` as an observable: a batch of n-mode states reads the operator's
    first n eigenvalues."""

    def evaluate(states):
        return drift_array(spec, op.eigenvalues[: states.shape[-1]], time, states)

    return evaluate
