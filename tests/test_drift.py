"""Tests for the Holder drift families and their validators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab import (
    HolderDriftSpec,
    ModeVector,
    drift_bound,
    drift_eval,
    drift_spec_from_dict,
    drift_spec_to_dict,
    global_holder_constant,
    holder_constant_grid,
    make_heat_operator,
    mode_holder_constant,
    psi_holder_constant,
    time_weight,
    time_weight_lipschitz,
    verify_mode_holder,
    verify_time_holder,
)
from spdelab.drift import drift_array


def _diag(epsilon, beta=0.5, **kw):
    return HolderDriftSpec(kind="diagonal", beta=beta, epsilon=epsilon, **kw)


def test_zero_state_maps_to_zero(heat16, rough_drift):
    out = drift_eval(rough_drift, heat16, 0.3, ModeVector(np.zeros(16)))
    assert np.array_equal(out.coeffs, np.zeros(16))


def test_diagonal_hand_values():
    # beta = eps = 1/2 on the two-mode heat ladder: weights [1, 1/2] exactly
    spec = _diag(0.5)
    op = make_heat_operator(2)
    saturated = drift_eval(spec, op, 0.0, ModeVector([4.0, 0.0]))
    assert np.array_equal(saturated.coeffs, [1.0, 0.0])
    fixed = drift_eval(spec, op, 0.0, ModeVector([0.0, 0.25]))
    assert np.array_equal(fixed.coeffs, [0.0, 0.25])


def test_cap_saturation_and_sign(rough_drift):
    op = make_heat_operator(1)
    big = drift_eval(rough_drift, op, 0.0, ModeVector([100.0]))
    neg = drift_eval(rough_drift, op, 0.0, ModeVector([-100.0]))
    assert big.coeffs[0] == 1.0
    assert neg.coeffs[0] == -1.0


def test_short_state_uses_leading_modes(heat16, rough_drift):
    out = drift_eval(rough_drift, heat16, 0.0, ModeVector([4.0]))
    assert len(out) == 1
    with pytest.raises(ValueError):
        drift_eval(rough_drift, make_heat_operator(2), 0.0, ModeVector([1.0, 1.0, 1.0]))


def test_drift_bound_diagonal_large_truncation():
    spec = _diag(0.9)
    bound = drift_bound(spec, make_heat_operator(100_000))
    assert bound == pytest.approx(1.2825459316914256, rel=1e-12)
    # close to the full-series limit sqrt(pi**2/6)
    assert abs(bound - math.sqrt(math.pi**2 / 6.0)) < 1e-4


def test_drift_bound_variants():
    op = make_heat_operator(50)
    assert drift_bound(_diag(0.5, amplitude=0.0), op) == 0.0
    rank_one = HolderDriftSpec(kind="rank_one", beta=1.0, epsilon=0.5)
    assert drift_bound(rank_one, op) == pytest.approx(1.6251327336215293, rel=1e-12)
    smooth = HolderDriftSpec(kind="smooth_baseline", beta=0.5, epsilon=0.5)
    assert drift_bound(smooth, make_heat_operator(2)) == pytest.approx(
        math.sqrt(1.25), rel=1e-12
    )


def test_time_weight_cosine_default_period(rough_drift):
    assert time_weight(rough_drift, 0.0) == 1.0
    assert time_weight(rough_drift, 0.7) == pytest.approx(math.cos(0.7), rel=1e-12)
    assert time_weight_lipschitz(rough_drift) == pytest.approx(1.0, rel=1e-12)
    flat = _diag(0.9)
    assert time_weight(flat, 123.4) == 1.0
    assert time_weight_lipschitz(flat) == 0.0


def test_mode_holder_validator_passes(heat16, rough_drift):
    report = verify_mode_holder(rough_drift, heat16)
    assert report.passed
    assert report.trials == 10_000
    # the antisymmetric pairs drive the ratio against the constant
    assert 0.97 < report.max_ratio <= 1.0 + 1e-9
    assert report.constant == pytest.approx(mode_holder_constant(rough_drift), rel=1e-15)
    d = report.to_dict()
    assert d["name"] == "mode_holder"
    assert d["passed"] is True


def test_mode_holder_validator_rejects_halved_constant(heat16, rough_drift):
    report = verify_mode_holder(rough_drift, heat16, trials=2000, constant_scale=0.5)
    assert not report.passed
    assert 1.9 < report.max_ratio < 2.1
    assert report.worst  # worst offender is recorded


def test_mode_holder_validator_zero_amplitude(heat16):
    report = verify_mode_holder(_diag(0.9, amplitude=0.0), heat16, trials=100)
    assert report.passed
    assert report.max_ratio == 0.0


def test_time_holder_validator(heat16, rough_drift):
    report = verify_time_holder(rough_drift, heat16)
    assert report.passed
    assert 0.0 < report.max_ratio <= 1.0 + 1e-9
    flat = verify_time_holder(_diag(0.9), heat16, trials=500)
    assert flat.passed
    assert flat.max_ratio == 0.0


@pytest.mark.parametrize("kind", ["diagonal", "rank_one", "smooth_baseline"])
def test_drift_norm_never_exceeds_bound(kind, heat16):
    spec = HolderDriftSpec(kind=kind, beta=0.5, epsilon=0.9, time_mod="cosine")
    bound = drift_bound(spec, heat16)
    rng = np.random.default_rng(5)
    states = rng.normal(0.0, 2.0, size=(100_000, 16))
    values = drift_array(spec, heat16.eigenvalues, 0.25, states)
    norms = np.sqrt(np.sum(values**2, axis=-1))
    assert np.max(norms) <= bound * (1.0 + 1e-12)


def test_global_holder_inequality(heat16, rough_drift):
    c0 = global_holder_constant(rough_drift, heat16)
    rng = np.random.default_rng(17)
    x = rng.normal(0.0, 1.5, size=(5000, 16))
    y = x + rng.normal(0.0, 0.5, size=(5000, 16))
    for t in (0.0, 0.4, 1.0):
        diff = drift_array(rough_drift, heat16.eigenvalues, t, x) - drift_array(
            rough_drift, heat16.eigenvalues, t, y
        )
        lhs = np.sqrt(np.sum(diff**2, axis=-1))
        rhs = c0 * np.sqrt(np.sum((x - y) ** 2, axis=-1)) ** rough_drift.epsilon
        assert np.all(lhs <= rhs * (1.0 + 1e-12))


@given(
    coords=st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=4, max_size=4
    ),
    j=st.integers(min_value=0, max_value=3),
    repl=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_diagonal_drift_is_local(coords, j, repl):
    spec = _diag(0.7)
    lam = make_heat_operator(4).eigenvalues
    x = np.array(coords)
    y = x.copy()
    y[j] = repl
    fx = drift_array(spec, lam, 0.0, x)
    fy = drift_array(spec, lam, 0.0, y)
    keep = np.arange(4) != j
    assert np.array_equal(fx[keep], fy[keep])


def test_rank_one_concentrates_on_first_mode():
    spec = HolderDriftSpec(kind="rank_one", beta=1.0, epsilon=0.5)
    op = make_heat_operator(4)
    out = drift_eval(spec, op, 0.0, ModeVector([4.0, 4.0, 0.0, 1.0]))
    assert np.array_equal(out.coeffs[1:], np.zeros(3))
    # sum of lam**-1 * psi over modes: 1 + 1/4 + 0 + 1/16
    assert out.coeffs[0] == pytest.approx(1.3125, rel=1e-15)


def test_holder_constant_grid_matches_analytic():
    for eps, frozen in ((0.5, 1.4142135623730954), (0.9, 1.0717734625362934)):
        psi = lambda u, e=eps: np.sign(u) * np.minimum(np.abs(u) ** e, 1.0)
        grid = holder_constant_grid(psi, eps)
        assert grid == pytest.approx(frozen, rel=1e-12)
        assert grid <= psi_holder_constant(eps) * (1.0 + 1e-9)
    assert holder_constant_grid(np.tanh, 0.9) <= psi_holder_constant(0.9) * (1.0 + 1e-9)


def test_spec_validation():
    with pytest.raises(ValueError):
        HolderDriftSpec(kind="cubic", beta=0.5, epsilon=0.9)
    with pytest.raises(ValueError):
        _diag(0.0)
    with pytest.raises(ValueError):
        _diag(1.0)
    with pytest.raises(ValueError):
        _diag(0.9, beta=0.0)
    with pytest.raises(ValueError):
        _diag(0.9, amplitude=-1.0)
    with pytest.raises(ValueError):
        _diag(0.9, cap=0.0)
    with pytest.raises(ValueError):
        _diag(0.9, time_mod="square")
    with pytest.raises(ValueError):
        _diag(0.9, period=0.0)


def test_spec_serialization_round_trip(rough_drift):
    data = drift_spec_to_dict(rough_drift)
    assert drift_spec_from_dict(data) == rough_drift
    with pytest.raises(ValueError, match="unknown drift fields"):
        drift_spec_from_dict({**data, "sigma": 2.0})


@pytest.mark.parametrize("kind", ["diagonal", "rank_one", "smooth_baseline"])
@pytest.mark.parametrize("time_mod", ["constant", "cosine"])
def test_drift_array_matches_expression_form(kind, time_mod):
    # the one-buffer kernel against amp*h(t)*lam**-beta*psi(u), bit for bit,
    # on zeros of both signs, negatives and values beyond the cap
    spec = HolderDriftSpec(kind=kind, beta=0.5, epsilon=0.9, amplitude=1.3, cap=0.8, time_mod=time_mod)
    lam = make_heat_operator(8).eigenvalues
    x = np.random.default_rng(3).normal(0.0, 2.0, size=(6, 8))
    x[0, :4] = [0.0, -0.0, 5.0, -5.0]
    x[1, :3] = [0.8 ** (1.0 / 0.9), -1e-300, 1e-300]
    x_before = x.copy()
    t = 0.3
    out = drift_array(spec, lam, t, x)
    assert x.tobytes() == x_before.tobytes()

    if kind == "smooth_baseline":
        nl = np.tanh(x)
    else:
        nl = np.sign(x) * np.minimum(np.abs(x) ** spec.epsilon, spec.cap)
    values = spec.amplitude * time_weight(spec, t) * lam ** (-spec.beta) * nl
    if kind == "rank_one":
        expected = np.zeros_like(values)
        expected[:, 0] = np.sum(values, axis=-1)
    else:
        expected = values
    assert out.shape == expected.shape and out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()
