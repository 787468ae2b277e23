"""Probes of the backward-equation machinery behind the rate proof.

The driftless mild solution is an Ornstein-Uhlenbeck process whose transition
is sampled exactly, so its Markov semigroup, the gradient representation with
an integral weight and the first Picard iterate of the resolvent-type
integral equation can be checked by plain Monte Carlo with no discretization
error.  The per-mode gradient decay and the summability probe draw nothing:
their gradients are one-dimensional Gaussian integrals per mode, which
`_gaussian_gradient` evaluates by quadrature.

There is one estimator per representation, and each takes a list of
observables that share its draws.  `ou_semigroup_estimate(op, fs, t, x,
m_samples, seed)` gives the (k, n) means and standard errors of P_t f(x)
for the k observables fs; `bismut_gradient(op, fs, t, x, directions,
m_samples, seed)` gives the (j*k, n) means and standard errors of the
gradients of the j observables fs along the k rows of directions, through
the Bismut-Elworthy-Li weight.  The suite's finite-difference cross-check
runs `_difference_quotient` through the first.  The checks return plain
records, dicts of Python numbers, bools and lists that summary.json holds as
they stand; the command-line front end writes the decay table from them.

Every Monte Carlo estimator draws from `default_rng(seed)`, so checks with
one seed share their leading normals and are not independent samples.  Only
normals that are read are drawn: weights on the modes the directions touch,
and one pass for estimates that share their draws.  Blocks of
`_BLOCK_NUMBERS` state numbers (512 rows at 64 modes) are folded by one
reducer, `_stream_mean_stderr`, into a mean and standard error, so memory
does not depend on the sample count.  The blocked estimators read
their normals through `_NormalsAhead`, which submits the next block's draw
to a one-thread `concurrent.futures` executor while the caller transforms,
evaluates and reduces the current one (numpy draws without holding the
GIL), and reads the block, or the draw's error, from its Future.  A normal
stream read in pieces gives the normals of one read, so every output is
bitwise the in-line draw's; the cost is one more block of normals in
flight.  The samplers and the observables still run on the calling thread,
and the executor is shut down before the estimator returns or raises.
Picard's few draws stay in line.

A state is a 1-D float array of coefficients in the eigenbasis, as in the
scheme and noise layers, and its H-norm is the euclidean norm, summed
exactly by `_norm`.  A test observable is a plain function that maps a batch
of states, mode axis last, to an array of the same shape.  The samplers take
the operator itself and read as many modes as the state has, and the drift
is evaluated through this module's `drift_array` binding wherever it is
read.  The quadrature and gate settings that no caller varies are the module
constants `FD_STEP` (the finite-difference step), `PICARD_NODES`,
`PICARD_SAMPLES`, `SUMMABILITY_NODES`, `GAUSS_NODES`, `GAUSS_CUT` and
`SUMMABILITY_GROWTH_CAP`, and the suite's fixed shape is `SUITE_T` (the
time of its point checks), `SUITE_DIMS` and `PICARD_DIMS` (the modes of its
point and Picard checks, capped at the operator's) and `LAM_SWEEP`
(Picard's lam values).
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .spectral import SpectralOperator, convolution_variance, decay_factor
from .drift import HolderDriftSpec, drift_array, drift_bound, mode_holder_constant, time_weight
from .noise import _mode_eigenvalues, ou_joint_modes_batch, ou_transition_sample

__all__ = [
    "ou_semigroup_estimate",
    "bismut_gradient",
    "gradient_decay_check",
    "picard_u_lambda",
    "picard_norm_bound",
    "gradient_summability_probe",
    "kolmogorov_suite",
]

FD_STEP = 1e-3  # step of the suite's finite-difference cross-check
PICARD_NODES = 8  # midpoint nodes in time of the first Picard iterate
PICARD_SAMPLES = 512  # transition draws per node of the first Picard iterate
SUMMABILITY_NODES = 8  # midpoint nodes in time of the summability probe
GAUSS_NODES = 64  # Gauss-Legendre nodes on each side of a cusp, in `_gaussian_gradient`'s z integrals
GAUSS_CUT = 12.0  # |z| at which `_gaussian_gradient`'s z integrals are cut
# the last half of the modes may add at most this factor to the first half's sum
SUMMABILITY_GROWTH_CAP = 1.5
SUITE_T = 0.5  # time of the suite's point checks
SUITE_DIMS = 4  # modes of the suite's point checks, at most the operator's
PICARD_DIMS = 3  # modes of the suite's Picard checks, at most the operator's
LAM_SWEEP = (1.0, 10.0, 100.0)  # the suite's Picard lam values, ascending


def _norm(v: np.ndarray) -> float:
    """H-norm of a state: the euclidean norm of its coefficients."""
    # fsum keeps the squared sum exact, so zero padding cannot change it
    return math.sqrt(math.fsum(float(c) * float(c) for c in v))


def _drift_sup(spec: HolderDriftSpec, op: SpectralOperator, n: int) -> float:
    """Sup norm of the drift over the first n modes."""
    _mode_eigenvalues(op, n)  # refuses more modes than the operator has
    return drift_bound(spec, SpectralOperator(n, op.power))


_BLOCK_NUMBERS = 32_768  # state numbers per block: 512 rows at 64 modes, 8192 at 4


def _block_rows(m_samples: int, n: int):
    """Row counts of the blocks in which m_samples draws of an n-mode state are made."""
    step = max(1, _BLOCK_NUMBERS // n)
    return (min(step, m_samples - start) for start in range(0, m_samples, step))


class _NormalsAhead:
    """Stands in for default_rng(seed) as a sampler's rng, drawing one block ahead.

    ``standard_normal(size)`` serves the next normals of default_rng(seed)'s
    stream in order and, if no draw is in flight, orders as many again from
    a one-thread executor, which draws them while the caller works on what
    it was served.  The order's Future carries the block, and reading its
    result raises on the caller's thread what the helper's draw raised.  A
    smaller request takes a prefix of what was drawn ahead and leaves the
    rest to be served first on the following call; a larger one draws the
    rest in line once the helper is done.  Every call therefore returns the
    bits an in-line draw of that size would.  The caller owns what it is
    served: this object keeps no reference to it.  Each order is allocated
    on the caller's thread and only filled by the helper, so the blocks come
    from the caller's heap and reuse its freed memory.  The executor lives
    from entering the ``with`` block to leaving it, which waits for an order
    still in flight and drops it unread.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._left = np.empty(0)  # normals drawn but not yet served, in stream order
        self._ahead = None  # the Future of the order in flight

    def __enter__(self) -> "_NormalsAhead":
        # imported where the helper starts: import and hypotheses never load it
        from concurrent.futures import ThreadPoolExecutor

        self._helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spdelab-normals")
        return self

    def __exit__(self, *exc) -> None:
        self._helper.shutdown()
        self._ahead = None

    def standard_normal(self, size) -> np.ndarray:
        count = math.prod(size) if isinstance(size, tuple) else size
        out = self._left
        if out.size < count and self._ahead is not None:
            ahead, self._ahead = self._ahead, None
            out = _joined(out, ahead.result())
        if out.size < count:
            out = _joined(out, self._rng.standard_normal(count - out.size))
        # a copy, so no view keeps the served block alive here
        self._left = out[count:].copy()
        if self._ahead is None and count:
            self._ahead = self._helper.submit(self._rng.standard_normal, out=np.empty(count))
        return out[:count].reshape(size)


def _joined(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    return np.concatenate((head, tail)) if head.size else tail


def _stream_mean_stderr(
    estimator: str, m_samples: int, n: int, seed: int, block_values
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of m_samples samples drawn block by block.

    ``block_values(rng, rows)`` returns the values of the next ``rows`` draws
    from rng, samples along axis -2, as a new array that this function
    overwrites.  rng is a `_NormalsAhead` of seed: it serves the normals of
    default_rng(seed) bit for bit, and while a block is evaluated and reduced
    here a Future draws the next one on its executor's thread, so one more
    block of normals is in flight; the executor is shut down before this
    returns or raises.  The mean is the running row-by-row sum over the
    count, bitwise numpy's axis-0 mean of an (m, n >= 2) array.  Each block,
    centred on the running mean, gives its mean and sum of squares by the
    corrected two-pass formula, and blocks merge by the update of Chan, Golub
    and LeVeque (Amer. Stat. 37, 1983).  Means are kept less the first
    sample, so a mean far above the spread costs the spread no digits.  A
    mean or standard error that is not finite, as when the squared sums
    overflow, is refused in the name of the estimator.
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
    mean, se = total / m_samples, np.sqrt(m2 / (m_samples - 1)) / math.sqrt(m_samples)
    _refuse_non_finite(f"{estimator}: mean or standard error", mean, se)
    return mean, se


def _refuse_non_finite(what: str, *values: np.ndarray) -> None:
    """Raise FloatingPointError naming ``what`` and the first mode (last axis) at which a value is not finite."""
    bad = np.logical_or.reduce([~np.isfinite(v) for v in values])
    modes = bad.reshape(-1, bad.shape[-1]).any(axis=0)
    if modes.any():
        raise FloatingPointError(f"{what} is not finite, first at mode {int(np.argmax(modes)) + 1}")


def _evaluate_all(fs, states) -> np.ndarray:
    """The (k, rows, n) values of the k observables fs on states; one observable's is a view, not a copy."""
    return fs[0](states)[None] if len(fs) == 1 else np.stack([f(states) for f in fs])


def ou_semigroup_estimate(
    op: SpectralOperator, fs, t: float, x: np.ndarray, m_samples: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Monte Carlo for the driftless semigroup applied to the k observables fs at x: their
    (k, n) means and standard errors over one exact time-t transition draw per sample."""
    if t <= 0.0:
        raise ValueError("t must be positive")

    def values(rng, rows):
        return _evaluate_all(fs, ou_transition_sample(op, x, t, rng, rows))

    return _stream_mean_stderr("ou_semigroup_estimate", m_samples, len(x), seed, values)


def bismut_gradient(
    op: SpectralOperator, fs, t: float, x: np.ndarray, directions: np.ndarray, m_samples: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Semigroup gradients of the j observables fs along the k rows of the (k, n) directions: (j*k, n)
    means and standard errors, row j*k + i for fs[j] and directions[i].

    Each draw contributes f(Z_t) * I/t where I is the stochastic integral of
    the semigroup-flowed direction against the driving noise; no finite
    difference step enters, so the estimator is exactly unbiased.  One joint
    draw per sample, with weights where a direction is nonzero, serves every
    pair.
    """
    if directions.ndim != 2 or directions.shape[1] != len(x):
        raise ValueError("direction and state must have the same mode count")
    support = np.flatnonzero(np.any(directions != 0.0, axis=0))

    def products(rng, rows):
        states, weights = ou_joint_modes_batch(op, x, t, rng, rows, support)
        pulls = (directions[:, support] @ weights.T) / t
        values = _evaluate_all(fs, states)
        del states, weights  # the joint draw, freed before the (j, k, rows, n) products
        return (values[:, None] * pulls[:, :, None]).reshape(-1, rows, len(x))

    return _stream_mean_stderr("bismut_gradient", m_samples, len(x), seed, products)


def _difference_quotient(op, f, t, x, eta) -> Callable[[np.ndarray], np.ndarray]:
    """Central difference quotient of f along eta, step FD_STEP, as an observable of the transition
    from x: the transition from x + c*eta is the one from x shifted, so both endpoints share their
    draws and the quotient stays finite-variance as the step shrinks."""
    if len(eta) != len(x):
        raise ValueError("direction and state must have the same mode count")
    dz = decay_factor(op.eigenvalues[: len(x)], t) * (FD_STEP * eta)  # shift of the transition
    return lambda z: (f(z + dz) - f(z - dz)) / (2.0 * FD_STEP)


def gradient_decay_check(op: SpectralOperator, spec: HolderDriftSpec, time: float, x: np.ndarray, modes) -> dict:
    """Exact size of the drift's semigroup gradient along each checked mode, against two bounds.

    Row i is |D_{e_i} P_t b(x)| at t = 1/lam_i for the drift b frozen at
    ``time``: e^(-lam_i*t)*|E[b_i(m + s*Z)*Z]|/s with m = e^(-lam_i*t)*x_i and
    s**2 = convolution_variance(lam_i, t), one `_gaussian_gradient` call for
    every checked mode (rank_one's row is the diagonal kind's term, its one
    nonzero entry, on mode 1).  Nothing is drawn, so each row's stderr is 0.
    The sup bound is sup_b*sqrt(1 - e^(-2*lam_i*t))/(sqrt(lam_i)*t), sup_b the
    drift's sup norm over the first len(x) modes (`_drift_sup`).  The Holder
    bound follows from E[Z] = 0: E[b_i(m + s*Z)*Z] = E[(b_i(m + s*Z) - b_i(m))*Z],
    and |b_i(u) - b_i(v)| <= c*|h(time)|*lam_i**-beta*|u - v|**epsilon with
    c = `drift.mode_holder_constant`, so the row is at most
    c*|h(time)|*lam_i**-beta*e^(-lam_i*t)*s**(epsilon - 1)*E|Z|**(1 + epsilon),
    E|Z|**(1 + epsilon) = 2**((1 + epsilon)/2)*Gamma(1 + epsilon/2)/sqrt(pi).
    Past mode 1 the canonical drift attains 0.92 of it, and a drift 10%
    larger, with psi's exponent halved or with beta 0.4 exceeds it there.  The
    check is bounded when no row exceeds either bound by more than 1e-9
    relative, a rounding tolerance.  A row or Holder bound that is not finite
    is refused, naming its mode.  The record, in plain Python numbers, holds
    sup_bound, max_ratio (the largest ratio to either bound), bounded and one
    row per mode (mode, estimate, stderr, t, bound_ratio, holder_ratio).
    """
    modes = list(modes)
    if not modes:
        raise ValueError("gradient decay check needs at least one mode")
    if not all(1 <= i <= len(x) for i in modes):
        raise ValueError("mode index beyond the state dimension")
    sup_bound = _drift_sup(spec, op, len(x))
    index = np.array(modes) - 1
    lam = op.eigenvalues[index]
    t = 1.0 / lam
    size = np.abs(_gaussian_gradient(spec, lam, time, t, x[index]))
    eps = spec.epsilon
    moment = 2.0 ** ((1.0 + eps) / 2.0) * math.gamma(1.0 + eps / 2.0) / math.sqrt(math.pi)
    holder = mode_holder_constant(spec) * abs(time_weight(spec, time)) * lam ** (-spec.beta) * decay_factor(lam, t)
    holder *= convolution_variance(lam, t) ** ((eps - 1.0) / 2.0) * moment
    at_mode = np.zeros((2, len(x)))
    at_mode[:, index] = size, holder
    _refuse_non_finite("gradient_decay_check: exact row or Holder bound", at_mode)
    sup_rows = sup_bound * np.sqrt(-np.expm1(-2.0 * lam * t)) / (np.sqrt(lam) * t)
    # a zero row sits at ratio 0, as under a zero drift, whose bounds are 0 too;
    # a nonzero row over a zero bound reads inf and fails
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(size > 0.0, size / np.array([sup_rows, holder]), 0.0)
    rows = [
        {"mode": int(i), "estimate": v, "stderr": 0.0, "t": ti, "bound_ratio": r, "holder_ratio": q}
        for i, v, ti, r, q in zip(modes, size.tolist(), t.tolist(), *ratios.tolist())
    ]
    max_ratio = float(ratios.max())
    return {"sup_bound": sup_bound, "rows": rows, "max_ratio": max_ratio, "bounded": max_ratio <= 1.0 + 1e-9}


def picard_u_lambda(
    lam: float,
    op: SpectralOperator,
    spec: HolderDriftSpec,
    t: float,
    x: np.ndarray,
    horizon: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """First Picard iterate of the integral equation at the state x, a 1-D
    array of 1 to 4 modes: the iterate and its per-coordinate standard
    error, both arrays of x's shape.

    Midpoint rule in time over PICARD_NODES nodes, each of PICARD_SAMPLES
    exact transition draws.  The nodes are independent, so the standard
    error is exact.  At t = horizon the iterate is zero and nothing is drawn.
    An iterate or standard error that is not finite is refused, naming lam.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if not 1 <= len(x) <= 4:
        raise ValueError("state dimension must lie in 1..4")
    if not 0.0 <= t <= horizon:
        raise ValueError("t must lie in [0, horizon]")
    lam_d = _mode_eigenvalues(op, len(x))
    acc = np.zeros(len(x))
    var_acc = np.zeros(len(x))
    if t >= horizon:
        return acc, var_acc
    rng = np.random.default_rng(seed)
    ds = (horizon - t) / PICARD_NODES
    for j in range(PICARD_NODES):
        s = t + (j + 0.5) * ds
        states = ou_transition_sample(op, x, s - t, rng, PICARD_SAMPLES)
        integrand = drift_array(spec, lam_d, s, states)
        weight = math.exp(-lam * (s - t)) * ds
        acc += weight * integrand.mean(axis=0)
        var_acc += weight**2 * integrand.var(axis=0, ddof=1) / PICARD_SAMPLES
    se = np.sqrt(var_acc)
    _refuse_non_finite(f"picard_u_lambda at lam = {lam!r}: iterate or standard error", acc, se)
    return acc, se


def picard_norm_bound(sup_b: float, lam: float, t: float, horizon: float) -> float:
    """First-iterate norm bound sup_b*(1-e^(-lam*(T-t)))/lam."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if t > horizon:
        raise ValueError("t beyond the horizon")
    return sup_b * (-math.expm1(-lam * (horizon - t))) / lam


@functools.cache
def _cusp_rule() -> tuple[np.ndarray, np.ndarray]:
    """The GAUSS_NODES-point Gauss-Legendre rule (v, w) on [0, 1] as column nodes u = v**4, weights
    4*v**3*w, then a tail node u = 1 of weight 0; by Newton's method, not `numpy.polynomial`."""
    n = GAUSS_NODES
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        before, p = np.ones(n), x
        for k in range(1, n):
            before, p = p, ((2 * k + 1) * x * p - k * before) / (k + 1)
        slope = n * (x * p - before) / (x * x - 1.0)
        x = x - p / slope
    v, w = (1.0 - x) / 2.0, 1.0 / ((1.0 - x * x) * slope * slope)
    return np.append(v**4, 1.0)[:, None], np.append(4.0 * w * v**3, 0.0)[:, None]


def _gaussian_gradient(spec, lam, time, tau, x, scale=1.0) -> np.ndarray:
    """Per mode, scale*e^(-lam_i*tau)*E[b_i(m + s*Z)*Z]/s with m = e^(-lam_i*tau)*x_i and
    s**2 = convolution_variance(lam_i, tau): the derivative along e_i at x of the drift frozen at time and
    carried by the driftless semigroup for tau, a time or one per mode.  rank_one's is the diagonal kind's
    per-mode term, its one nonzero entry, on mode 1.  The z integral is cut at |z| = GAUSS_CUT and split at
    psi's cusp z0 and saturation points, past which its tails are closed-form; each side of z0 takes
    `_cusp_rule` in z = z0 + (end - z0)*u.  The drift is read through this module's `drift_array` binding."""
    with np.errstate(over="ignore"):  # an overflowing saturation point lies beyond the cut
        kink = math.inf if spec.kind == "smooth_baseline" else np.power(spec.cap, 1.0 / spec.epsilon)
    per_mode = replace(spec, kind="diagonal") if spec.kind == "rank_one" else spec
    u, w = _cusp_rule()
    sd, decay = np.sqrt(convolution_variance(lam, tau)), decay_factor(lam, tau)
    kinks = np.clip((np.array([0.0, kink, -kink])[:, None] - decay * x) / sd, -GAUSS_CUT, GAUSS_CUT)
    cusp, ends = kinks[0], kinks[1:, None]
    z = cusp + (ends - cusp) * u
    # the tail node u = 1 carries the closed-form tail beyond its end
    weight = np.exp(-0.5 * z * z) / math.sqrt(math.tau) * (w * (ends - cusp) * z + (u == 1.0))
    sides = (drift_array(per_mode, lam, time, decay * x + sd * z) * weight).sum(axis=1)
    return scale * decay * (sides[0] - sides[1]) / sd


def _picard_gradient(op, spec, lam_picard, t, x, horizon) -> np.ndarray:
    """Each mode's one nonzero gradient entry of the first Picard iterate at (t, x), by the midpoint rule
    of SUMMABILITY_NODES nodes in time: node tau adds exp(-lam_picard*tau)*ds times the
    `_gaussian_gradient` of the drift at time t + tau, carried for tau."""
    lam = _mode_eigenvalues(op, len(x))
    ds = (horizon - t) / SUMMABILITY_NODES
    grad = np.zeros(len(x))
    for j in range(SUMMABILITY_NODES):
        tau = (j + 0.5) * ds
        grad += _gaussian_gradient(spec, lam, t + tau, tau, x, math.exp(-lam_picard * tau) * ds)
    return grad


def gradient_summability_probe(
    op: SpectralOperator,
    spec: HolderDriftSpec,
    lam_picard: float,
    t: float,
    x: np.ndarray,
    theta: float,
    horizon: float = 1.0,
) -> dict:
    """Weighted square sum of per-mode gradients of the first Picard iterate.

    Takes grad_i of u at (t, x) for every retained mode from `_picard_gradient`,
    exact in space while the time integral is the midpoint rule of
    SUMMABILITY_NODES nodes; nothing is drawn.  Then reports whether the partial
    sums of lam_i**theta * ||grad_i||**2 flatten out: the last half of the modes
    may add at most SUMMABILITY_GROWTH_CAP times the first half's sum.  A partial
    sum that is not finite is refused, since two infinite sums would read as no
    growth.  The record, in plain Python numbers, holds theta, the partial_sums,
    their growth_ratio and whether they are bounded.
    """
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    if not 0.0 <= t < horizon:
        raise ValueError("t must lie in [0, horizon)")
    n = len(x)
    grad = _picard_gradient(op, spec, lam_picard, t, x, horizon)
    partial_sums = np.cumsum(op.eigenvalues[:n] ** theta * grad * grad)
    _refuse_non_finite("gradient_summability_probe: partial sum", partial_sums)
    half, full = partial_sums[max(1, n // 2) - 1], partial_sums[-1]
    # sums that never grow, all zeros under a zero drift among them, have ratio 1
    growth_ratio = 1.0 if full == half else float(full / half)
    bounded = growth_ratio <= SUMMABILITY_GROWTH_CAP
    return {"theta": theta, "partial_sums": partial_sums.tolist(), "growth_ratio": growth_ratio, "bounded": bounded}


def kolmogorov_suite(
    op: SpectralOperator,
    spec: HolderDriftSpec,
    theta: float,
    m_samples: int,
    decay_modes,
    horizon: float = 1.0,
    seed: int = 2024,
) -> dict:
    """Bundle of checks used by the command-line front end.

    Covers the closed-form agreements of the semigroup and gradient
    estimators, the finite-difference cross-check, per-mode gradient decay,
    the Picard terminal condition, the first-iterate norm bound with its
    large-lam smallness trend over LAM_SWEEP, and the summability probe
    weighted by lam_i**theta.  It draws 2*m_samples states of SUITE_DIMS
    modes (one transition pass, one joint pass) and
    3*PICARD_NODES*PICARD_SAMPLES states of PICARD_DIMS modes for the lam
    sweep, whatever m_samples is.  The decay check and the summability probe
    draw nothing, so m_samples and seed do not reach them; the decay check's
    drift is frozen at time 0.25 and its state is x_i = 1/i up to
    max(decay_modes).  The decay modes are checked before anything is drawn.
    It returns the verdict, the check table and the three records it ran.
    """
    decay_modes = tuple(decay_modes)
    if not decay_modes or not all(1 <= i <= op.n_max for i in decay_modes):
        raise ValueError(f"decay modes must be a non-empty list of indices in 1..{op.n_max}")
    checks = []

    def record(name: str, passed: bool, detail: str):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    t, dims, picard_dims = SUITE_T, min(SUITE_DIMS, op.n_max), min(PICARD_DIMS, op.n_max)
    x = 1.0 / np.arange(1, dims + 1)
    lam1 = float(op.eigenvalues[0])
    e1, w = np.eye(dims)[0], np.linspace(1.0, 0.125, dims)

    def f_lin(z):  # mode 1, along mode 1; unbounded
        return z[..., 0, None] * e1

    def f_smooth(z):  # tanh of a linear form, along mode 1; bounded by 1
        return np.tanh(z @ w)[..., None] * e1

    eta = np.linspace(1.0, 0.25, dims)
    # two passes over shared draws: one transition pass, one joint pass
    quotient = _difference_quotient(op, f_smooth, t, x, eta)
    (est, fd), (se, _fd_se) = ou_semigroup_estimate(op, [f_lin, quotient], t, x, m_samples, seed)
    (best, bis), (bse, bis_se) = bismut_gradient(op, [f_lin, f_smooth], t, x, eta[None], m_samples, seed)

    expected = math.exp(-lam1 * t) * x[0]
    gap = abs(est[0] - expected)
    record(
        "semigroup_linear_closed_form",
        gap <= 3.0 * se[0] + 1e-12,
        f"|{est[0]:.6g} - {expected:.6g}| vs 3*stderr = {3.0 * se[0]:.3g}",
    )

    expected_grad = math.exp(-lam1 * t) * eta[0]
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

    x_decay = 1.0 / np.arange(1, max(decay_modes) + 1)
    decay = gradient_decay_check(op, spec, 0.25, x_decay, decay_modes)
    record(
        "gradient_decay_bounded",
        decay["bounded"],
        f"max ratio {decay['max_ratio']:.4f} to the Holder and sup bounds over modes {decay_modes}",
    )

    x_pic = 1.0 / np.arange(1, picard_dims + 1)
    terminal, _ = picard_u_lambda(LAM_SWEEP[0], op, spec, horizon, x_pic, horizon, seed=seed)
    record("picard_terminal_zero", _norm(terminal) == 0.0, "value at t = horizon")

    sup_b = _drift_sup(spec, op, picard_dims)
    norms, bounds, slacks = [], [], []
    for lam_value in LAM_SWEEP:
        value, value_se = picard_u_lambda(lam_value, op, spec, 0.0, x_pic, horizon, seed=seed)
        norms.append(_norm(value))
        bounds.append(picard_norm_bound(sup_b, lam_value, 0.0, horizon))
        slacks.append(float(np.linalg.norm(value_se)))
    within = all(v <= b + 3.0 * slack for v, b, slack in zip(norms, bounds, slacks))
    monotone = all(
        norms[i + 1] <= norms[i] + 3.0 * (slacks[i] + slacks[i + 1]) for i in range(len(norms) - 1)
    )
    record(
        "picard_norm_bound",
        within,
        "norms " + ", ".join(f"{v:.4g} <= {b:.4g}" for v, b in zip(norms, bounds)),
    )
    record("picard_smallness_trend", monotone, "norms along the sweep: " + ", ".join(f"{v:.4g}" for v in norms))

    summ = gradient_summability_probe(op, spec, LAM_SWEEP[0], 0.0, x_decay, theta, horizon=horizon)
    record(
        "summability_non_exploding",
        summ["bounded"],
        f"partial sum growth ratio {summ['growth_ratio']:.4f} at theta = {theta}",
    )

    return {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "decay": decay,
        "picard": {
            "lam_sweep": list(LAM_SWEEP),
            "norms": norms,
            "bounds": bounds,
            "stderrs": slacks,
        },
        "summability": summ,
    }
