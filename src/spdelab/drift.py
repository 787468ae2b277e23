"""Bounded drift families with mode-wise fractional-power Holder control.

Each drift maps a coefficient vector to a coefficient vector and satisfies,
mode by mode, ||b_t(x) - b_t(x + (y_i - x_i) e_i)|| <= c * lam_i**-beta *
|x_i - y_i|**epsilon, together with an epsilon-Holder bound in time.  The
validators below check both empirically against the analytic constants and
return plain records of Python numbers, as summary.json holds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralOperator

__all__ = [
    "HolderDriftSpec",
    "drift_array",
    "drift_bound",
    "time_weight",
    "time_weight_lipschitz",
    "mode_holder_constant",
    "verify_mode_holder",
    "verify_time_holder",
]

_KINDS = ("diagonal", "rank_one", "smooth_baseline")
_TIME_MODS = ("constant", "cosine")


@dataclass(frozen=True)
class HolderDriftSpec:
    """Parameters of a concrete drift family.

    kind "diagonal": mode i gets amplitude*h(t)*lam_i**-beta*psi(x_i).
    kind "rank_one": the same weighted sum of psi values, all on mode 1.
    kind "smooth_baseline": tanh in place of psi (a smooth reference drift).
    psi(u) = sign(u)*min(|u|**epsilon, cap); h is 1 or cos(2*pi*t/period).
    amplitude == 0 is allowed and switches the drift off.
    """

    kind: str
    beta: float
    epsilon: float
    amplitude: float = 1.0
    cap: float = 1.0
    time_mod: str = "constant"
    period: float = 2.0 * math.pi

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        # written so that a NaN fails each range check
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError("amplitude must be nonnegative and finite")
        if not 0.0 < self.cap < math.inf:
            raise ValueError("cap must be positive and finite")
        if self.time_mod not in _TIME_MODS:
            raise ValueError(f"unknown time modulation {self.time_mod!r}")
        if not 0.0 < self.period < math.inf:
            raise ValueError("period must be positive and finite")


def time_weight(spec: HolderDriftSpec, t):
    """h(t) for a time, or elementwise for an array of times."""
    if spec.time_mod == "constant":
        return 1.0
    phase = 2.0 * math.pi * t / spec.period
    return np.cos(phase) if isinstance(phase, np.ndarray) else math.cos(phase)


def time_weight_lipschitz(spec: HolderDriftSpec) -> float:
    if spec.time_mod == "constant":
        return 0.0
    return 2.0 * math.pi / spec.period


def _psi(u: np.ndarray, epsilon: float, cap: float) -> np.ndarray:
    # sign(u) * min(|u|**epsilon, cap), built in one fresh buffer
    out = np.array(u, dtype=float)
    np.abs(out, out=out)
    np.power(out, epsilon, out=out)
    np.minimum(out, cap, out=out)
    out *= np.sign(u)
    return out


def _nonlinearity(spec: HolderDriftSpec, u: np.ndarray) -> np.ndarray:
    if spec.kind == "smooth_baseline":
        return np.tanh(u)
    return _psi(u, spec.epsilon, spec.cap)


def _nonlinearity_sup(spec: HolderDriftSpec) -> float:
    # sup |psi| = cap, sup |tanh| = 1
    return 1.0 if spec.kind == "smooth_baseline" else spec.cap


def drift_array(spec: HolderDriftSpec, lam: np.ndarray, t, x: np.ndarray) -> np.ndarray:
    """Array core of the drift; broadcasts over leading axes of x.

    t is a time, or an array of times that broadcasts against x, such as
    one time per state with shape (C, 1).  The result is built in the
    nonlinearity's buffer; x is never written.
    """
    values = _nonlinearity(spec, x)
    values *= spec.amplitude * time_weight(spec, t) * lam ** (-spec.beta)
    if spec.kind == "rank_one":
        total = np.sum(values, axis=-1)
        values.fill(0.0)
        values[..., 0] = total
    return values


def drift_bound(spec: HolderDriftSpec, op: SpectralOperator) -> float:
    """Supremum of ||b_t(x)|| over all t and x, on the stored truncation."""
    if spec.amplitude == 0.0:  # switched off; the unscaled size may overflow, and 0 * inf is NaN
        return 0.0
    sup_nl = _nonlinearity_sup(spec)
    weights = op.eigenvalues ** (-spec.beta)
    if spec.kind == "rank_one":
        size = float(np.sum(weights)) * sup_nl
    else:
        size = math.sqrt(float(np.sum(weights**2))) * sup_nl
    # sup_t |h(t)| = 1 for both modulations (cos attains 1 at t = 0)
    bound = spec.amplitude * size
    if not math.isfinite(bound):  # no drift could exceed it, so every check against it would pass
        raise OverflowError(
            f"drift sup bound overflows: amplitude {spec.amplitude!r}, cap {spec.cap!r}, {op.n_max} modes"
        )
    return bound


def mode_holder_constant(spec: HolderDriftSpec) -> float:
    """Constant c in the mode-wise Holder bound for this family: the
    amplitude times the Holder constant 2**(1-e) of psi (and of tanh).

    For u, v >= 0, ||u|**e - |v|**e| <= |u - v|**e; a sign crossing costs at
    most the concavity factor 2**(1-e) (equality at v = -u); capping only
    shrinks differences.  min(d, 2) <= 2**(1-e) * d**e covers tanh as well.
    """
    return spec.amplitude * 2.0 ** (1.0 - spec.epsilon)


_PASS_TOL = 1.0 + 1e-9  # rounding headroom; the analytic constants are attained
# trials per array pass: the working set grows with _BLOCK * n, not with
# trials * n, and trials is user-sized (--paths overrides it)
_BLOCK = 1024


def _row_norms(d: np.ndarray) -> np.ndarray:
    # one dot product per row, as np.linalg.norm takes it for a single state,
    # so a trial's ratio does not depend on the block it is evaluated in
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _worst_trial(trials: int, block_ratios) -> tuple[float, int | None]:
    """Largest ratio over all trials and the first trial that attains it.

    block_ratios maps a slice of trials to their ratios, with 0 for a
    skipped trial; the result is (0.0, None) when no ratio is positive.
    """
    best, worst = 0.0, None
    for lo in range(0, trials, _BLOCK):
        ratios = block_ratios(slice(lo, lo + _BLOCK))
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best, worst = float(ratios[k]), lo + k
    return best, worst


def _record(name: str, passed: bool, trials: int, max_ratio: float, constant: float, worst: dict) -> dict:
    """A validator's outcome, in plain Python numbers, as summary.json holds it."""
    return dict(name=name, passed=passed, trials=trials, max_ratio=max_ratio, constant=constant, worst=worst)


def verify_mode_holder(
    spec: HolderDriftSpec,
    op: SpectralOperator,
    trials: int,
    rng_seed: int = 0,
    horizon: float = 1.0,
) -> dict:
    """Sample the mode-wise Holder ratio against the analytic constant.

    A quarter of the samples are antisymmetric pairs near the origin, where
    the sign-crossing constant 2**(1-epsilon) is attained; a halved
    constant must therefore fail.
    """
    rng = np.random.default_rng(rng_seed)
    n = op.n_max
    lam = op.eigenvalues
    c = mode_holder_constant(spec)
    if c == 0.0:
        return _record("mode_holder", spec.amplitude == 0.0, trials, 0.0, c, {})

    x = rng.normal(0.0, 1.5, size=(trials, n))
    y_val = rng.normal(0.0, 1.5, size=trials)
    idx = rng.integers(0, n, size=trials)
    times = rng.uniform(0.0, horizon, size=trials)

    quarter = trials // 4
    small = 10.0 ** rng.uniform(-3.0, 0.0, size=quarter)
    x[np.arange(quarter), idx[:quarter]] = small
    y_val[:quarter] = -small
    try:
        near_cap = spec.cap ** (1.0 / spec.epsilon)
    except OverflowError:  # the saturation point of psi; errno 34 names no input
        raise OverflowError(f"cap**(1/epsilon) overflows: cap {spec.cap!r}, epsilon {spec.epsilon!r}") from None
    x[np.arange(quarter, 2 * quarter), idx[quarter : 2 * quarter]] = near_cap * rng.uniform(
        0.8, 1.2, size=quarter
    )

    rows = np.arange(trials)
    gap = np.abs(x[rows, idx] - y_val)
    denom = c * lam[idx] ** (-spec.beta) * gap**spec.epsilon

    def block_ratios(blk):
        states = x[blk]
        moved = states.copy()
        moved[rows[: len(states)], idx[blk]] = y_val[blk]
        t = times[blk, None]
        d = drift_array(spec, lam, t, states) - drift_array(spec, lam, t, moved)
        num = _row_norms(d)
        # a zero gap moves nothing and is skipped
        return np.divide(num, denom[blk], out=np.zeros_like(num), where=gap[blk] > 0.0)

    max_ratio, j = _worst_trial(trials, block_ratios)
    worst = {}
    if j is not None:
        i = int(idx[j])
        worst = {"t": float(times[j]), "mode": i, "x_i": float(x[j, i]), "y_i": float(y_val[j])}
    return _record("mode_holder", max_ratio <= _PASS_TOL, trials, max_ratio, c, worst)


def verify_time_holder(
    spec: HolderDriftSpec,
    op: SpectralOperator,
    trials: int,
    rng_seed: int = 0,
    horizon: float = 1.0,
) -> dict:
    """Sample ||b_s(x) - b_t(x)|| against c_time * |s - t|**epsilon.

    c_time combines the size of the drift profile, the Lipschitz constant of
    the modulation, and horizon**(1-epsilon) (Lipschitz implies Holder on a
    bounded interval).
    """
    rng = np.random.default_rng(rng_seed)
    lam = op.eigenvalues
    lip = time_weight_lipschitz(spec)
    c_time = drift_bound(spec, op) * lip * horizon ** (1.0 - spec.epsilon)

    x = rng.normal(0.0, 1.5, size=(trials, op.n_max))
    s_times = rng.uniform(0.0, horizon, size=trials)
    t_times = rng.uniform(0.0, horizon, size=trials)
    gap = np.abs(s_times - t_times)

    def block_ratios(blk):
        states = x[blk]
        d = drift_array(spec, lam, s_times[blk, None], states) - drift_array(spec, lam, t_times[blk, None], states)
        num = _row_norms(d)
        moved = (gap[blk] > 0.0) & (num > 0.0)
        if c_time == 0.0:
            # no time dependence is certified, so any movement fails outright
            return np.where(moved, math.inf, 0.0)
        return np.divide(num, c_time * gap[blk] ** spec.epsilon, out=np.zeros_like(num), where=moved)

    max_ratio, j = _worst_trial(trials, block_ratios)
    worst = {} if j is None else {"s": float(s_times[j]), "t": float(t_times[j])}
    return _record("time_holder", max_ratio <= _PASS_TOL, trials, max_ratio, c_time, worst)

