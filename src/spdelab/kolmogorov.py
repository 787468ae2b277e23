"""Monte Carlo probes of the backward-equation machinery behind the rate proof.

The driftless mild solution is an Ornstein-Uhlenbeck process whose transition
is sampled exactly, so its Markov semigroup, the gradient representation with
an integral weight, the per-mode gradient decay, and the first Picard
iterate of the resolvent-type integral equation can all be checked by plain
Monte Carlo with no discretization error.

Every Monte Carlo estimator draws from `default_rng(seed)`, so checks with
one seed share their leading normals and are not independent samples.  Only
normals that are read are drawn: weights on the modes the directions touch,
and one pass for estimates that share their draws.  Blocks of
`_BLOCK_NUMBERS` state numbers (512 rows at 64 modes) are folded by one
reducer, `_stream_mean_stderr`, into a mean and standard error, so memory
does not depend on the sample count.  The blocked estimators read
their normals through `_NormalsAhead`, which draws the next block on one
helper thread while the caller transforms, evaluates and reduces the current
one (numpy draws without holding the GIL).  A normal stream read in pieces
gives the normals of one read, so every output is bitwise the in-line
draw's; the cost is one more block of normals in flight.  The samplers and
the observables still run on the calling thread, and the helper is joined
before the estimator returns or raises.  Picard's few draws stay in line.

A test observable is a `TestFunction`: a function of a batch of states and
the eigenvalues, paired with its sup-norm bound (None when unbounded).  The
samplers take the operator itself and read as many modes as the state has.
The quadrature, budget and gate settings that no caller varies are the
module constants `FD_STEP` (the finite-difference step),
`PICARD_SAMPLE_BUDGET`, `SUMMABILITY_NODES`, `SUMMABILITY_SAMPLES` and
`SUMMABILITY_GROWTH_CAP`; the Picard budget is read at each call, so a test
may lower it by rebinding the module constant.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .spectral import ModeVector, SpectralOperator, decay_factor
from .drift import HolderDriftSpec, drift_array, drift_bound
from .noise import _mode_eigenvalues, ou_joint_modes_batch, ou_transition_sample

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
# step of finite_difference_gradient
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


_BLOCK_NUMBERS = 32_768  # state numbers per block: 512 rows at 64 modes, 8192 at 4


def _block_rows(m_samples: int, n: int):
    """Row counts of the blocks in which m_samples draws of an n-mode state are made."""
    step = max(1, _BLOCK_NUMBERS // n)
    return (min(step, m_samples - start) for start in range(0, m_samples, step))


class _NormalsAhead:
    """Stands in for default_rng(seed) as a sampler's rng, drawing one block ahead.

    ``standard_normal(size)`` serves the next normals of default_rng(seed)'s
    stream in order and, if no draw is in flight, orders as many again from
    one helper thread, which draws them while the caller works on what it
    was served.  A smaller request takes a prefix of what was drawn ahead and
    leaves the rest to be served first on the following call; a larger one
    draws the rest in line once the helper is done.  Every call therefore
    returns the bits an in-line draw of that size would.  The caller owns
    what it is served: neither the helper nor this object keeps a reference
    to it.  Each order is allocated on the caller's thread and only filled
    by the helper, so the blocks come from the caller's heap and reuse its
    freed memory.  The helper runs from entering the ``with`` block to
    leaving it.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._left = np.empty(0)  # normals drawn but not yet served, in stream order
        self._ahead = None  # the order in flight, filled by the helper; None stops it
        self._error = None  # what the helper's draw raised
        # held while nothing is ordered / nothing is ready; released by the other thread
        self._ordered, self._ready = threading.Lock(), threading.Lock()
        self._ordered.acquire()
        self._ready.acquire()
        self._helper = threading.Thread(target=self._serve, name="spdelab-normals")

    def __enter__(self) -> "_NormalsAhead":
        self._helper.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._ahead is not None:
            self._ready.acquire()
            self._ahead = None
        self._ordered.release()
        self._helper.join()

    def _serve(self) -> None:
        while True:
            self._ordered.acquire()
            if self._ahead is None:
                return
            try:
                self._rng.standard_normal(out=self._ahead)
            except Exception as error:  # raised again on the caller's thread
                self._error = error
            self._ready.release()

    def _collect(self) -> np.ndarray:
        self._ready.acquire()
        drawn, self._ahead = self._ahead, None
        if self._error is not None:
            raise self._error
        return drawn

    def standard_normal(self, size) -> np.ndarray:
        count = math.prod(size) if isinstance(size, tuple) else size
        out = self._left
        if out.size < count and self._ahead is not None:
            out = _joined(out, self._collect())
        if out.size < count:
            out = _joined(out, self._rng.standard_normal(count - out.size))
        # a copy, so no view keeps the served block alive here
        self._left = out[count:].copy()
        if self._ahead is None and count:
            self._ahead = np.empty(count)
            self._ordered.release()
        return out[:count].reshape(size)


def _joined(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    return np.concatenate((head, tail)) if head.size else tail


def _stream_mean_stderr(m_samples: int, n: int, seed: int, block_values) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of m_samples samples drawn block by block.

    ``block_values(rng, rows)`` returns the values of the next ``rows`` draws
    from rng, samples along axis -2, as a new array that this function
    overwrites.  rng is a `_NormalsAhead` of seed: it serves the normals of
    default_rng(seed) bit for bit, and while a block is evaluated and reduced
    here it draws the next one on a helper thread, so one more block of
    normals is in flight; the helper is joined before this returns or
    raises.  The mean is the running row-by-row sum over the count, bitwise
    numpy's axis-0 mean of an (m, n >= 2) array.  Each block, centred on the
    running mean, gives its mean and sum of squares by the corrected two-pass
    formula, and blocks merge by the update of Chan, Golub and LeVeque (Amer.
    Stat. 37, 1983).  Means are kept less the first sample, so a mean far
    above the spread costs the spread no digits.
    """
    if m_samples < 2:
        raise ValueError("need at least two samples")
    count, total, mean, m2 = 0, -0.0, 0.0, 0.0
    with _NormalsAhead(seed) as rng:
        for rows in _block_rows(m_samples, n):
            block = block_values(rng, rows)
            if count == 0:
                shift = block[..., 0, :].copy()
            first = block[..., 0, :].copy()
            block[..., 0, :] += total
            total = block.sum(axis=-2)
            block[..., 0, :] = first
            center = shift + mean
            block -= center[..., None, :]
            offset = block.sum(axis=-2) / rows
            np.square(block, out=block)
            delta = ((center - shift) - mean) + offset
            count += rows
            mean += delta * (rows / count)
            m2 += (block.sum(axis=-2) - rows * offset * offset) + delta * delta * ((count - rows) * rows / count)
            del block  # before the next block's values are formed
    return total / m_samples, np.sqrt(m2 / (m_samples - 1)) / math.sqrt(m_samples)


def _semigroup_moments(op, fs, t, x, m_samples, seed) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) means and standard errors of the k observables fs of one time-t transition draw per sample."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    lam = op.eigenvalues[: len(x)]

    def values(rng, rows):
        states = ou_transition_sample(op, x.coeffs, t, rng, rows)
        return np.stack([f.evaluate(states, lam) for f in fs])

    return _stream_mean_stderr(m_samples, len(x), seed, values)


def ou_semigroup_estimate(
    op: SpectralOperator, f: TestFunction, t: float, x: ModeVector, m_samples: int, seed: int = 0
) -> tuple[ModeVector, np.ndarray]:
    """Plain Monte Carlo for the driftless semigroup applied to f at x."""
    mean, se = _semigroup_moments(op, [f], t, x, m_samples, seed)
    return ModeVector(mean[0]), se[0]


def _bismut_moments(op, fs, t, x, directions, m_samples, seed) -> tuple[np.ndarray, np.ndarray]:
    """(j*k, n) means and standard errors of f(Z_t) * (weights @ d) / t, row j*k + i for fs[j] and
    directions[i], from one joint draw per sample with weights where a direction is nonzero."""
    lam = op.eigenvalues[: len(x)]
    support = np.flatnonzero(np.any(directions != 0.0, axis=0))

    def products(rng, rows):
        states, weights = ou_joint_modes_batch(op, x.coeffs, t, rng, rows, support)
        pulls = (directions[:, support] @ weights.T) / t
        values = np.stack([f.evaluate(states, lam) for f in fs])
        del states, weights  # the joint draw, freed before the (j, k, rows, n) products
        return (values[:, None] * pulls[:, :, None]).reshape(-1, rows, len(x))

    return _stream_mean_stderr(m_samples, len(x), seed, products)


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
    mean, se = _bismut_moments(op, [f], t, x, eta.coeffs[None], m_samples, seed)
    return ModeVector(mean[0]), se[0]


def _difference_quotient(op, f, t, x, eta) -> TestFunction:
    """The difference quotient of finite_difference_gradient, an observable of the transition from x."""
    if len(eta) != len(x):
        raise ValueError("direction and state must have the same mode count")
    dz = decay_factor(op.eigenvalues[: len(x)], t) * (FD_STEP * eta.coeffs)  # shift of the transition
    return TestFunction(lambda z, lam: (f.evaluate(z + dz, lam) - f.evaluate(z - dz, lam)) / (2.0 * FD_STEP), None)


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
    mean, se = _semigroup_moments(op, [_difference_quotient(op, f, t, x, eta)], t, x, m_samples, seed)
    return ModeVector(mean[0]), se[0]


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
    than three standard errors.  One joint draw, with weights on the checked
    modes only, and one evaluation of f per sample serve every mode through
    the estimator of bismut_gradient, so with one distinct mode i a row is
    bitwise bismut_gradient along e_i with the same seed.  Its blocks of
    _BLOCK_NUMBERS numbers keep memory independent of m_samples.  Every mode
    shares the draws from default_rng(seed), so the decay trend is not
    blurred by independent noise.
    """
    if f.bound is None:
        raise ValueError("gradient decay check needs an observable with a declared bound")
    modes = list(modes)
    if not all(1 <= i <= len(x) for i in modes):
        raise ValueError("mode index beyond the state dimension")
    mean, se = _bismut_moments(op, [f], t, x, np.eye(len(x))[[i - 1 for i in modes]], m_samples, seed)
    rows = []
    bounded = True
    for k, i in enumerate(modes):
        size = ModeVector(mean[k]).norm()
        se_size = float(np.linalg.norm(se[k]))
        lam_i = float(op.eigenvalues[i - 1])
        theory = f.bound * math.sqrt(-math.expm1(-2.0 * lam_i * t)) / (math.sqrt(lam_i) * t)
        # a zero drift has a zero bound and a zero estimate, which sit at ratio 0
        ratio = size / theory if size else 0.0
        rows.append(GradientDecayRow(mode=int(i), estimate=size, stderr=se_size, bound_ratio=ratio))
        if size > theory + 3.0 * se_size:
            bounded = False
    max_ratio = max(row.bound_ratio for row in rows)
    return GradientDecayReport(t=t, sup_bound=f.bound, rows=rows, max_ratio=max_ratio, bounded=bounded)


@dataclass(frozen=True)
class PicardConfig:
    """Shape of the first Picard iterate's evaluation: time_nodes midpoint
    nodes in time, outer_samples exact transition draws per node.

    The dimension is capped at 4, and PICARD_SAMPLE_BUDGET is the hard stop
    on total transition draws.
    """

    lam: float
    dims: int = 3
    time_nodes: int = 8
    outer_samples: int = 512
    horizon: float = 1.0

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if not 1 <= self.dims <= 4:
            raise ValueError("dims must lie in 1..4")
        if self.time_nodes < 1:
            raise ValueError("need at least one time node")
        if self.outer_samples < 2:
            raise ValueError("need at least two samples per node")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")


def picard_u_lambda(
    cfg: PicardConfig,
    op: SpectralOperator,
    spec: HolderDriftSpec,
    t: float,
    x: ModeVector,
    seed: int = 0,
) -> tuple[ModeVector, dict]:
    """First Picard iterate of the integral equation at one point.

    Midpoint rule in time with exact transitions underneath.  The nodes are
    independent, so the per-coordinate standard error is exact and lands in
    the diagnostics.  A node whose draws would pass PICARD_SAMPLE_BUDGET is
    not drawn: budget exhaustion returns the partial node sum with completed
    False.
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
        }
    rng = np.random.default_rng(seed)
    nodes_done = min(cfg.time_nodes, PICARD_SAMPLE_BUDGET // cfg.outer_samples)
    ds = (cfg.horizon - t) / cfg.time_nodes
    acc = np.zeros(cfg.dims)
    var_acc = np.zeros(cfg.dims)
    for j in range(nodes_done):
        s = t + (j + 0.5) * ds
        states = ou_transition_sample(op, x.coeffs, s - t, rng, cfg.outer_samples)
        integrand = drift_array(spec, lam_d, s, states)
        weight = math.exp(-cfg.lam * (s - t)) * ds
        acc += weight * integrand.mean(axis=0)
        var_acc += weight**2 * integrand.var(axis=0, ddof=1) / cfg.outer_samples
    return ModeVector(acc), {
        "completed": nodes_done == cfg.time_nodes,
        "samples_used": nodes_done * cfg.outer_samples,
        "nodes_done": nodes_done,
        "nodes_total": cfg.time_nodes,
        "stderr": np.sqrt(var_acc),
    }


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
    n = len(x)
    lam = op.eigenvalues[:n]
    ds = (horizon - t) / SUMMABILITY_NODES
    grad = np.zeros((n, n))
    with _NormalsAhead(seed) as rng:
        for j in range(SUMMABILITY_NODES):
            s = t + (j + 0.5) * ds
            tau = s - t
            node_sum = np.zeros((n, n))
            for rows in _block_rows(SUMMABILITY_SAMPLES, n):
                states, weights = ou_joint_modes_batch(op, x.coeffs, tau, rng, rows)
                node_sum += weights.T @ drift_array(spec, lam, s, states)
            grad += math.exp(-lam_picard * tau) * ds * (node_sum / (SUMMABILITY_SAMPLES * tau))
    partial_sums = np.cumsum(lam**theta * np.einsum("ij,ij->i", grad, grad))
    half, full = partial_sums[max(1, n // 2) - 1], partial_sums[-1]
    # sums that never grow, all zeros under a zero drift among them, have ratio 1
    growth_ratio = 1.0 if full == half else float(full / half)
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
    f_smooth = bounded_smooth_function(np.linspace(1.0, 0.125, dims), np.eye(dims)[0])
    eta = ModeVector(np.linspace(1.0, 0.25, dims))
    # two passes, each estimate bitwise its own estimator's: one transition pass, one joint pass
    quotient = _difference_quotient(op, f_smooth, t, x, eta)
    (est, fd), (se, _fd_se) = _semigroup_moments(op, [f_lin, quotient], t, x, m_samples, seed)
    (best, bis), (bse, bis_se) = _bismut_moments(op, [f_lin, f_smooth], t, x, eta.coeffs[None], m_samples, seed)

    expected = math.exp(-lam1 * t) * x.coeffs[0]
    gap = abs(est[0] - expected)
    record(
        "semigroup_linear_closed_form",
        gap <= 3.0 * se[0] + 1e-12,
        f"|{est[0]:.6g} - {expected:.6g}| vs 3*stderr = {3.0 * se[0]:.3g}",
    )

    expected_grad = math.exp(-lam1 * t) * eta.coeffs[0]
    gap = abs(best[0] - expected_grad)
    record(
        "bismut_linear_closed_form",
        gap <= 3.0 * bse[0] + 1e-12,
        f"|{best[0]:.6g} - {expected_grad:.6g}| vs 3*stderr = {3.0 * bse[0]:.3g}",
    )

    rel = [
        abs(bis[i] - fd[i]) / abs(bis[i])
        for i in range(dims)
        if abs(bis[i]) > 10.0 * bis_se[i]
    ]
    # with no coordinate above the noise nothing was compared, and the check fails
    if rel:
        detail = f"max relative gap {max(rel):.4f} over {len(rel)} significant coordinates"
    else:
        detail = f"nothing compared: no coordinate exceeds 10 standard errors at m_samples = {m_samples}"
    record("bismut_matches_finite_difference", bool(rel) and max(rel) < 0.05, detail)

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
