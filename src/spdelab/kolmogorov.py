"""Monte Carlo probes of the backward-equation machinery behind the rate proof.

The driftless mild solution is an Ornstein-Uhlenbeck process whose transition
is sampled exactly, so its Markov semigroup, the gradient representation with
an integral weight, the per-mode gradient decay, and a depth-limited Picard
evaluation of the resolvent-type integral equation can all be checked by
plain Monte Carlo with no discretization error.

A test observable is a `TestFunction`: a function of a batch of states and
the eigenvalues, paired with its sup-norm bound (None when unbounded).  The
samplers take the operator itself and read as many modes as the state has.
The quadrature, budget and gate settings that no caller varies are the
module constants `FD_STEP` (the step of both finite differences),
`PICARD_SAMPLE_BUDGET`, `SUMMABILITY_NODES`, `SUMMABILITY_SAMPLES` and
`SUMMABILITY_GROWTH_CAP`; the Picard budget is read at each draw, so a test
may lower it by rebinding the module constant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .spectral import ModeVector, SpectralOperator, decay_factor
from .drift import HolderDriftSpec, drift_array, drift_bound
from .noise import _joint_law, _mode_eigenvalues, ou_joint_modes_batch, ou_transition_sample

__all__ = [
    "TestFunction",
    "coordinate_function",
    "bounded_smooth_function",
    "drift_test_function",
    "ou_semigroup_estimate",
    "bismut_gradient",
    "finite_difference_gradient",
    "GradientDecayRow",
    "GradientDecayReport",
    "gradient_decay_check",
    "PicardConfig",
    "picard_u_lambda",
    "picard_norm_bound",
    "SummabilityReport",
    "gradient_summability_probe",
    "kolmogorov_suite",
]

DECAY_CSV_HEADER = "i,estimate,stderr,bound_ratio"
# step of finite_difference_gradient and of the depth-2 Picard derivative term
FD_STEP = 1e-3
PICARD_SAMPLE_BUDGET = 5_000_000  # transition draws one Picard evaluation may make
SUMMABILITY_NODES = 8  # midpoint nodes in time of the summability probe
SUMMABILITY_SAMPLES = 4096  # joint draws per node of the summability probe
# the last half of the modes may add at most this factor to the first half's sum
SUMMABILITY_GROWTH_CAP = 1.5


class TestFunction(NamedTuple):
    """Vector-valued test observable on the mode space.

    ``evaluate(states, lam)`` maps a batch of states with trailing mode axis
    to an array of the same shape; ``bound`` is its sup norm, or None for an
    unbounded observable, which the bound-dependent checks refuse.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float | None

    __test__ = False  # keep pytest from collecting this as a test case


def _unit(direction) -> np.ndarray:
    u = np.asarray(direction, dtype=float)
    size = float(np.linalg.norm(u))
    if size == 0.0:
        raise ValueError("output direction must be nonzero")
    return u / size


def _check_size(vector: np.ndarray, n: int, what: str) -> None:
    if vector.shape != (n,):
        raise ValueError(f"{what} does not match the mode count")


def coordinate_function(index: int, out_direction) -> TestFunction:
    """Mode ``index`` (1-based) sent along a unit output direction; unbounded."""
    if index < 1:
        raise ValueError("coordinate index must be at least 1")
    u = _unit(out_direction)

    def evaluate(states, lam):
        _check_size(u, states.shape[-1], "output direction")
        if index > states.shape[-1]:
            raise ValueError("coordinate index beyond the mode count")
        return states[..., index - 1, None] * u

    return TestFunction(evaluate, None)


def bounded_smooth_function(weights, out_direction) -> TestFunction:
    """tanh of a linear form times a unit output direction."""
    w, u = np.array(weights, dtype=float), _unit(out_direction)

    def evaluate(states, lam):
        _check_size(u, states.shape[-1], "output direction")
        _check_size(w, states.shape[-1], "weights")
        return np.tanh(states @ w)[..., None] * u

    # |tanh| < 1 and the direction is normalized, so the sup norm is 1
    return TestFunction(evaluate, 1.0)


def drift_test_function(spec: HolderDriftSpec, op: SpectralOperator, n_dim: int, time: float) -> TestFunction:
    """The drift frozen at ``time``, bounded by its sup over the first n_dim modes."""

    def evaluate(states, lam):
        # looked up at each call, so a wrapped module binding sees it
        return drift_array(spec, lam, time, states)

    return TestFunction(evaluate, _drift_sup(spec, op, n_dim))


def _drift_sup(spec: HolderDriftSpec, op: SpectralOperator, n: int) -> float:
    """Sup norm of the drift over the first n modes."""
    if n < 1:
        raise ValueError("need at least one mode")
    return drift_bound(spec, SpectralOperator(_mode_eigenvalues(op, n)))


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = samples.shape[0]
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(m)


def ou_semigroup_estimate(
    op: SpectralOperator, f: TestFunction, t: float, x: ModeVector, m_samples: int, seed: int = 0
) -> tuple[ModeVector, np.ndarray]:
    """Plain Monte Carlo for the driftless semigroup applied to f at x."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if m_samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    lam = op.eigenvalues[: len(x)]
    states = ou_transition_sample(op, x.coeffs, t, rng, m_samples)
    mean, se = _mean_stderr(f.evaluate(states, lam))
    return ModeVector(mean), se


def bismut_gradient(
    op: SpectralOperator,
    f: TestFunction,
    t: float,
    x: ModeVector,
    eta: ModeVector,
    m_samples: int,
    seed: int = 0,
) -> tuple[ModeVector, np.ndarray]:
    """Directional semigroup gradient via the integral-weight representation.

    Each draw contributes f(Z_t) * I/t where I is the stochastic integral of
    the semigroup-flowed direction against the driving noise; no finite
    difference step enters, so the estimator is exactly unbiased.
    """
    if len(eta) != len(x):
        raise ValueError("direction and state must have the same mode count")
    if m_samples < 2:
        raise ValueError("need at least two samples")
    states, weights = ou_joint_modes_batch(op, x.coeffs, t, np.random.default_rng(seed), m_samples)
    pulls = (weights @ eta.coeffs) / t
    mean, se = _mean_stderr(f.evaluate(states, op.eigenvalues[: len(x)]) * pulls[:, None])
    return ModeVector(mean), se


def finite_difference_gradient(
    op: SpectralOperator,
    f: TestFunction,
    t: float,
    x: ModeVector,
    eta: ModeVector,
    m_samples: int,
    seed: int = 0,
) -> tuple[ModeVector, np.ndarray]:
    """Central finite difference of the semigroup, step FD_STEP, with common
    random numbers.

    The transition from x + c*eta shares its fluctuation with the one from x,
    so the two endpoints use literally the same draws and the difference
    quotient stays finite-variance as the step shrinks.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if len(eta) != len(x):
        raise ValueError("direction and state must have the same mode count")
    rng = np.random.default_rng(seed)
    lam = op.eigenvalues[: len(x)]
    states = ou_transition_sample(op, x.coeffs, t, rng, m_samples)
    shift = decay_factor(lam, t) * (FD_STEP * eta.coeffs)
    quotients = (f.evaluate(states + shift, lam) - f.evaluate(states - shift, lam)) / (2.0 * FD_STEP)
    mean, se = _mean_stderr(quotients)
    return ModeVector(mean), se


@dataclass(frozen=True)
class GradientDecayRow:
    mode: int
    estimate: float
    stderr: float
    bound_ratio: float


@dataclass
class GradientDecayReport:
    t: float
    sup_bound: float
    rows: list[GradientDecayRow]
    max_ratio: float
    bounded: bool

    def csv_text(self) -> str:
        lines = [DECAY_CSV_HEADER]
        for row in self.rows:
            lines.append(f"{row.mode},{row.estimate!r},{row.stderr!r},{row.bound_ratio!r}")
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        return asdict(self)


_DECAY_CHUNK_ROWS = 4096  # sample rows per chunk of the streamed gradient-decay check


def _streamed_sum(blocks, values, weight, center=None) -> np.ndarray:
    """Column sums of values * weight[:, None], or of its squared deviations
    from center, bitwise equal to one axis-0 sum: numpy sums a C-contiguous
    (m, n >= 2) array row by row, so the running sum is added into each
    block's first row (-0.0 is the exact identity of IEEE addition)."""
    total = -0.0
    for b in blocks:
        rows = values[b] * weight[b, None]
        if center is not None:
            rows -= center
            np.square(rows, out=rows)
        rows[0] += total
        total = rows.sum(axis=0)
    return total


def gradient_decay_check(
    op: SpectralOperator,
    f: TestFunction,
    t: float,
    x: ModeVector,
    modes,
    m_samples: int,
    seed: int = 0,
) -> GradientDecayReport:
    """Per-mode gradient size against sup_bound*sqrt(1-e^(-2*lam*t))/(sqrt(lam)*t).

    The report is bounded when no mode's size exceeds that bound by more
    than three standard errors.
    One joint draw and one evaluation of f serve every mode: the gradient
    along e_i contracts the shared values of f with weights[:, i-1] / t.
    The draw keeps the joint sampler's order, all z1 rows then all z2 rows
    from default_rng(seed), in blocks of _DECAY_CHUNK_ROWS rows; only the
    (m, n) values of f and the selected weight columns are held whole, and
    _streamed_sum reduces each mode block by block.  So every row is bitwise
    bismut_gradient along e_i with the same seed (the other terms of
    weights @ e_i are exact zeros), and the decay trend is not blurred by
    independent noise.
    """
    if f.bound is None:
        raise ValueError("gradient decay check needs an observable with a declared bound")
    modes = list(modes)
    if not all(1 <= i <= len(x) for i in modes):
        raise ValueError("mode index beyond the state dimension")
    if m_samples < 2:
        raise ValueError("need at least two samples")
    sd, mean_x, cov_sd, resid_sd = _joint_law(op, x.coeffs, t)
    lam, n, cols = op.eigenvalues[: len(x)], len(x), [i - 1 for i in modes]
    # numpy sums an (m, 1) column pairwise, not row by row, so it is never split
    step = m_samples if n == 1 else _DECAY_CHUNK_ROWS
    blocks = [slice(r, min(r + step, m_samples)) for r in range(0, m_samples, step)]
    rng = np.random.default_rng(seed)
    buf = np.empty((min(step, m_samples), n))
    values = np.empty((m_samples, n))
    pulls = np.empty((m_samples, len(cols)))  # z1 columns, then weight columns / t
    for b in blocks:
        z = rng.standard_normal(out=buf[: b.stop - b.start])
        pulls[b] = z[:, cols]
        z *= sd
        z += mean_x
        values[b] = f.evaluate(z, lam)
    for b in blocks:
        z = rng.standard_normal(out=buf[: b.stop - b.start])
        pulls[b] = (z[:, cols] * resid_sd[cols] + cov_sd[cols] * pulls[b]) / t
    rows = []
    bounded = True
    for k, i in enumerate(modes):
        mean = _streamed_sum(blocks, values, pulls[:, k]) / m_samples
        var = _streamed_sum(blocks, values, pulls[:, k], mean) / (m_samples - 1)
        size = ModeVector(mean).norm()
        se_size = float(np.linalg.norm(np.sqrt(var) / math.sqrt(m_samples)))
        lam_i = float(op.eigenvalues[i - 1])
        theory = f.bound * math.sqrt(-math.expm1(-2.0 * lam_i * t)) / (math.sqrt(lam_i) * t)
        ratio = size / theory
        rows.append(GradientDecayRow(mode=int(i), estimate=size, stderr=se_size, bound_ratio=ratio))
        if size > theory + 3.0 * se_size:
            bounded = False
    max_ratio = max(row.bound_ratio for row in rows)
    return GradientDecayReport(t=t, sup_bound=f.bound, rows=rows, max_ratio=max_ratio, bounded=bounded)


@dataclass(frozen=True)
class PicardConfig:
    """Shape of the depth-limited Picard evaluation.

    Cost grows like (time_nodes*inner_samples)**depth, which is why depth is
    capped at 2 and the dimension at 4; PICARD_SAMPLE_BUDGET is the hard
    stop on total transition draws.  Depth 2 differentiates the first
    iterate by a forward difference of step FD_STEP.
    """

    lam: float
    depth: int = 1
    dims: int = 3
    time_nodes: int = 8
    outer_samples: int = 512
    inner_samples: int = 128
    horizon: float = 1.0

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if not 1 <= self.depth <= 2:
            raise ValueError("depth must be 1 or 2")
        if not 1 <= self.dims <= 4:
            raise ValueError("dims must lie in 1..4")
        if self.time_nodes < 1:
            raise ValueError("need at least one time node")
        if self.outer_samples < 2 or self.inner_samples < 2:
            raise ValueError("need at least two samples per level")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")


class _BudgetExhausted(RuntimeError):
    pass


def _draw_transitions(op, z, dt, rng, m, budget) -> np.ndarray:
    if budget["used"] + m > PICARD_SAMPLE_BUDGET:
        raise _BudgetExhausted
    budget["used"] += m
    return ou_transition_sample(op, z, dt, rng, m)


def _node_integrand(cfg, op, lam_d, spec, k, t, s, z, rng, budget) -> np.ndarray:
    """Samples, one row per transition draw, of the k-th Picard integrand at
    the time node s for the iterate at (t, z)."""
    m = cfg.outer_samples if k == cfg.depth else cfg.inner_samples
    states = _draw_transitions(op, z, s - t, rng, m, budget)
    integrand = drift_array(spec, lam_d, s, states)
    if k >= 2:
        # directional derivative of the previous iterate along the drift,
        # one forward difference per outer sample
        rows = []
        for r in range(m):
            moved = states[r] + FD_STEP * integrand[r]
            up = _picard_level(cfg, op, lam_d, spec, k - 1, s, moved, rng, budget)
            u0 = _picard_level(cfg, op, lam_d, spec, k - 1, s, states[r], rng, budget)
            rows.append((up - u0) / FD_STEP)
        integrand = integrand + np.stack(rows)
    return integrand


def _picard_level(cfg, op, lam_d, spec, k, t, z, rng, budget) -> np.ndarray:
    """Value of the k-th Picard iterate, k >= 1, at (t, z) with t < T."""
    ds = (cfg.horizon - t) / cfg.time_nodes
    acc = np.zeros(cfg.dims)
    for j in range(cfg.time_nodes):
        s = t + (j + 0.5) * ds
        integrand = _node_integrand(cfg, op, lam_d, spec, k, t, s, z, rng, budget)
        acc += math.exp(-cfg.lam * (s - t)) * integrand.mean(axis=0) * ds
    return acc


def picard_u_lambda(
    cfg: PicardConfig,
    op: SpectralOperator,
    spec: HolderDriftSpec,
    t: float,
    x: ModeVector,
    seed: int = 0,
) -> tuple[ModeVector, dict]:
    """Depth-limited Picard iterate of the integral equation at one point.

    Midpoint rule in time, exact transitions underneath, nested Monte Carlo
    for the derivative term at depth 2.  At depth 1 the per-coordinate
    standard error is exact (nodes are independent) and lands in the
    diagnostics; budget exhaustion returns the partial node sum with
    completed False.
    """
    if len(x) != cfg.dims:
        raise ValueError("state dimension must match the configuration")
    if not 0.0 <= t <= cfg.horizon:
        raise ValueError("t must lie in [0, horizon]")
    lam_d = _mode_eigenvalues(op, cfg.dims)
    if t >= cfg.horizon:
        return ModeVector(np.zeros(cfg.dims)), {
            "completed": True,
            "samples_used": 0,
            "nodes_done": 0,
            "nodes_total": cfg.time_nodes,
            "depth": cfg.depth,
        }
    rng = np.random.default_rng(seed)
    budget = {"used": 0}
    ds = (cfg.horizon - t) / cfg.time_nodes
    acc = np.zeros(cfg.dims)
    var_acc = np.zeros(cfg.dims)
    nodes_done = 0
    completed = True
    for j in range(cfg.time_nodes):
        s = t + (j + 0.5) * ds
        try:
            integrand = _node_integrand(cfg, op, lam_d, spec, cfg.depth, t, s, x.coeffs, rng, budget)
        except _BudgetExhausted:
            completed = False
            break
        weight = math.exp(-cfg.lam * (s - t)) * ds
        acc += weight * integrand.mean(axis=0)
        var_acc += weight**2 * integrand.var(axis=0, ddof=1) / cfg.outer_samples
        nodes_done += 1
    diagnostics = {
        "completed": completed,
        "samples_used": budget["used"],
        "nodes_done": nodes_done,
        "nodes_total": cfg.time_nodes,
        "depth": cfg.depth,
    }
    if cfg.depth == 1:
        diagnostics["stderr"] = np.sqrt(var_acc)
    return ModeVector(acc), diagnostics


def picard_norm_bound(sup_b: float, lam: float, t: float, horizon: float) -> float:
    """First-iterate norm bound sup_b*(1-e^(-lam*(T-t)))/lam."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if t > horizon:
        raise ValueError("t beyond the horizon")
    return sup_b * (-math.expm1(-lam * (horizon - t))) / lam


@dataclass
class SummabilityReport:
    theta: float
    partial_sums: list[float]
    growth_ratio: float
    bounded: bool

    def summary_dict(self) -> dict:
        return asdict(self)


def gradient_summability_probe(
    op: SpectralOperator,
    spec: HolderDriftSpec,
    lam_picard: float,
    t: float,
    x: ModeVector,
    theta: float,
    horizon: float = 1.0,
    seed: int = 0,
) -> SummabilityReport:
    """Weighted square sum of per-mode gradients of the first Picard iterate.

    Estimates grad_i of u at (t, x) for every retained mode in one pass (the
    joint sampler hands out all mode weights at once), with a midpoint rule
    of SUMMABILITY_NODES nodes and SUMMABILITY_SAMPLES joint draws per node.
    Then reports whether the partial sums of lam_i**theta * ||grad_i||**2
    flatten out: the last half of the modes may add at most
    SUMMABILITY_GROWTH_CAP times the first half's sum.
    """
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    if not 0.0 <= t < horizon:
        raise ValueError("t must lie in [0, horizon)")
    rng = np.random.default_rng(seed)
    n = len(x)
    lam = op.eigenvalues[:n]
    ds = (horizon - t) / SUMMABILITY_NODES
    grad = np.zeros((n, n))
    for j in range(SUMMABILITY_NODES):
        s = t + (j + 0.5) * ds
        tau = s - t
        states, weights = ou_joint_modes_batch(op, x.coeffs, tau, rng, SUMMABILITY_SAMPLES)
        values = drift_array(spec, lam, s, states)
        node_grad = (weights.T @ values) / (SUMMABILITY_SAMPLES * tau)
        grad += math.exp(-lam_picard * tau) * ds * node_grad
    partial_sums = np.cumsum(lam**theta * np.einsum("ij,ij->i", grad, grad))
    growth_ratio = float(partial_sums[-1] / partial_sums[max(1, n // 2) - 1])
    return SummabilityReport(theta, partial_sums.tolist(), growth_ratio, growth_ratio <= SUMMABILITY_GROWTH_CAP)


def kolmogorov_suite(
    op: SpectralOperator,
    spec: HolderDriftSpec,
    t: float = 0.5,
    dims: int = 4,
    m_samples: int = 20_000,
    decay_modes=(1, 4, 16),
    picard_dims: int = 3,
    lam_sweep=(1.0, 10.0, 100.0),
    horizon: float = 1.0,
    theta: float = 0.45,
    seed: int = 2024,
) -> dict:
    """Bundle of checks used by the command-line front end.

    Covers the closed-form agreements of the semigroup and gradient
    estimators, the finite-difference cross-check, per-mode gradient decay,
    the Picard terminal condition, the first-iterate norm bound with its
    large-lam smallness trend, and the weighted gradient summability probe.
    The summability probe always uses SUMMABILITY_NODES (8) nodes times
    SUMMABILITY_SAMPLES (4096) draws, whatever m_samples is.
    """
    checks = []

    def record(name: str, passed: bool, detail: str):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    x = ModeVector(1.0 / np.arange(1, dims + 1))
    lam1 = float(op.eigenvalues[0])

    f_lin = coordinate_function(1, np.eye(dims)[0])
    est, se = ou_semigroup_estimate(op, f_lin, t, x, m_samples, seed=seed)
    expected = math.exp(-lam1 * t) * x.coeffs[0]
    gap = abs(est.coeffs[0] - expected)
    record(
        "semigroup_linear_closed_form",
        gap <= 3.0 * se[0] + 1e-12,
        f"|{est.coeffs[0]:.6g} - {expected:.6g}| vs 3*stderr = {3.0 * se[0]:.3g}",
    )

    eta = ModeVector(np.linspace(1.0, 0.25, dims))
    best, bse = bismut_gradient(op, f_lin, t, x, eta, m_samples, seed=seed)
    expected_grad = math.exp(-lam1 * t) * eta.coeffs[0]
    gap = abs(best.coeffs[0] - expected_grad)
    record(
        "bismut_linear_closed_form",
        gap <= 3.0 * bse[0] + 1e-12,
        f"|{best.coeffs[0]:.6g} - {expected_grad:.6g}| vs 3*stderr = {3.0 * bse[0]:.3g}",
    )

    f_smooth = bounded_smooth_function(np.linspace(1.0, 0.125, dims), np.eye(dims)[0])
    bis, bis_se = bismut_gradient(op, f_smooth, t, x, eta, m_samples, seed=seed)
    fd, _fd_se = finite_difference_gradient(op, f_smooth, t, x, eta, m_samples, seed=seed)
    rel = [
        abs(bis.coeffs[i] - fd.coeffs[i]) / abs(bis.coeffs[i])
        for i in range(dims)
        if abs(bis.coeffs[i]) > 10.0 * bis_se[i]
    ]
    worst = max(rel) if rel else 0.0
    record(
        "bismut_matches_finite_difference",
        bool(rel) and worst < 0.05,
        f"max relative gap {worst:.4f} over {len(rel)} significant coordinates",
    )

    n_decay = max(decay_modes)
    f_drift = drift_test_function(spec, op, n_decay, time=0.25)
    x_decay = ModeVector(1.0 / np.arange(1, n_decay + 1))
    decay = gradient_decay_check(op, f_drift, t, x_decay, decay_modes, m_samples, seed=seed)
    record(
        "gradient_decay_bounded",
        decay.bounded,
        f"max bound ratio {decay.max_ratio:.4f} over modes {tuple(decay_modes)}",
    )

    base = PicardConfig(lam=lam_sweep[0], dims=picard_dims, horizon=horizon)
    x_pic = ModeVector(1.0 / np.arange(1, picard_dims + 1))
    terminal, _ = picard_u_lambda(base, op, spec, horizon, x_pic, seed=seed)
    record("picard_terminal_zero", terminal.norm() == 0.0, "value at t = horizon")

    sup_b = _drift_sup(spec, op, picard_dims)
    norms, bounds, slacks, partial = [], [], [], []
    within = True
    for lam_value in lam_sweep:
        cfg = PicardConfig(lam=lam_value, dims=picard_dims, horizon=horizon)
        value, diag = picard_u_lambda(cfg, op, spec, 0.0, x_pic, seed=seed)
        se_norm = float(np.linalg.norm(diag["stderr"]))
        bound = picard_norm_bound(sup_b, lam_value, 0.0, horizon)
        norms.append(value.norm())
        bounds.append(bound)
        slacks.append(se_norm)
        if not diag["completed"]:
            # a partial node sum is smaller, so it must pass neither the bound nor the trend
            partial.append(f"; lam {lam_value:g} stopped at {diag['nodes_done']}/{diag['nodes_total']} nodes")
        if value.norm() > bound + 3.0 * se_norm or not diag["completed"]:
            within = False
    monotone = all(
        norms[i + 1] <= norms[i] + 3.0 * (slacks[i] + slacks[i + 1]) for i in range(len(norms) - 1)
    )
    record(
        "picard_norm_bound",
        within,
        "norms " + ", ".join(f"{v:.4g} <= {b:.4g}" for v, b in zip(norms, bounds)) + "".join(partial),
    )
    record(
        "picard_smallness_trend",
        monotone and not partial,
        "norms along the sweep: " + ", ".join(f"{v:.4g}" for v in norms) + "".join(partial),
    )

    n_sum = max(decay_modes)
    summ = gradient_summability_probe(
        op, spec, lam_sweep[0], 0.0, ModeVector(1.0 / np.arange(1, n_sum + 1)), theta,
        horizon=horizon, seed=seed,
    )
    record(
        "summability_non_exploding",
        summ.bounded,
        f"partial sum growth ratio {summ.growth_ratio:.4f} at theta = {theta}",
    )

    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "decay": decay.summary_dict(),
        "picard": {
            "lam_sweep": [float(v) for v in lam_sweep],
            "norms": norms,
            "bounds": bounds,
            "stderrs": slacks,
        },
        "summability": summ.summary_dict(),
        "decay_csv": decay.csv_text(),
    }
