"""Oracle and property tests for the diagonal spectral calculus."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab.spectral import (
    ModeVector,
    SpectralOperator,
    check_trace_condition,
    convolution_variance,
    decay_factor,
    make_heat_operator,
    make_power_law_operator,
)

finite_coeffs = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=8,
)


def test_heat_ladder_small():
    op = make_heat_operator(3)
    assert np.array_equal(op.eigenvalues, [1.0, 4.0, 9.0])
    assert op.power == 2.0
    assert op.n_max == 3


def test_heat_ladder_large():
    op = make_heat_operator(128)
    assert op.eigenvalues[127] == 16384.0
    assert np.all(np.diff(op.eigenvalues) > 0.0)


def test_operator_validation():
    with pytest.raises(ValueError):
        make_heat_operator(0)
    with pytest.raises(ValueError):
        make_power_law_operator(4, 0.0)
    with pytest.raises(ValueError):
        SpectralOperator(np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        SpectralOperator(np.array([4.0, 1.0]))
    with pytest.raises(ValueError):
        SpectralOperator(np.array([]))
    with pytest.raises(ValueError):
        # power_law ladders must be literally i**power
        SpectralOperator(np.array([1.0, 3.0]), power=2.0)
    with pytest.raises(ValueError):
        SpectralOperator(np.array([1.0, 4.0]), power=0.0)


def test_mode_vector_basics():
    v = ModeVector([3.0, 4.0])
    assert len(v) == 2
    assert v.norm() == 5.0
    with pytest.raises(ValueError):
        ModeVector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ModeVector([math.nan])
    src = np.array([1.0, 2.0])
    w = ModeVector(src)
    src[0] = 99.0
    assert w.coeffs[0] == 1.0


def test_trace_condition_heat_alpha_045():
    report = check_trace_condition(make_heat_operator(128), 0.45)
    assert report.converges is True
    assert report.exponent == pytest.approx(1.1, abs=1e-12)
    # fsum oracle over 128 modes of i**-1.1
    assert report.partial_sum == pytest.approx(4.431127533122982, rel=1e-12)
    # integral-test tail 128**-0.1 / 0.1
    assert report.tail_bound == pytest.approx(6.1557220667245724, rel=1e-12)


def test_trace_condition_divergent_alpha_05():
    report = check_trace_condition(make_heat_operator(64), 0.5)
    assert report.converges is False
    assert report.exponent == pytest.approx(1.0, abs=1e-12)
    assert math.isinf(report.tail_bound)


def test_trace_condition_single_mode():
    report = check_trace_condition(make_heat_operator(1), 0.3)
    assert report.partial_sum == 1.0
    assert report.converges is True
    explicit = check_trace_condition(SpectralOperator(np.array([2.0])), 0.3)
    assert explicit.partial_sum == pytest.approx(0.6155722066724582, rel=1e-12)
    assert explicit.converges is None
    assert math.isinf(explicit.tail_bound)


def test_trace_condition_alpha_range():
    op = make_heat_operator(4)
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            check_trace_condition(op, alpha)


@given(
    power=st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
    alpha=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
)
def test_trace_dichotomy_power_law(power, alpha):
    report = check_trace_condition(make_power_law_operator(8, power), alpha)
    assert report.converges is (power * (1.0 - alpha) > 1.0)


def test_semigroup_identity_at_zero(heat16):
    assert np.array_equal(decay_factor(heat16.eigenvalues, 0.0), np.ones(16))


def test_semigroup_heat_half_life():
    out = decay_factor(make_heat_operator(2).eigenvalues, math.log(2.0))
    assert out[0] == pytest.approx(0.5, rel=1e-14)
    assert out[1] == pytest.approx(0.0625, rel=1e-14)


@given(
    t=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    s=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    coeffs=finite_coeffs,
)
def test_semigroup_contraction_and_composition(t, s, coeffs):
    lam = make_heat_operator(len(coeffs)).eigenvalues
    v = ModeVector(coeffs)
    once = ModeVector(decay_factor(lam, t) * v.coeffs)
    assert once.norm() <= v.norm() * (1.0 + 1e-12)
    twice = decay_factor(lam, s) * once.coeffs
    joint = decay_factor(lam, t + s) * v.coeffs
    np.testing.assert_allclose(twice, joint, rtol=1e-12, atol=1e-15)


def test_regularization_product_bound():
    # lam**gamma * exp(-lam*t) <= t**-gamma uniformly over the ladder
    lam = make_heat_operator(512).eigenvalues
    for gamma in (0.25, 0.5, 1.0):
        for t in (1e-3, 1e-1, 1.0):
            assert np.max(lam**gamma * decay_factor(lam, t)) <= t ** (-gamma) * (1.0 + 1e-12)


def test_exp_difference_holder_bound():
    # |exp(-x) - exp(-y)| <= |x - y|**theta on x, y >= 0 for theta in [0, 1]
    xs = np.linspace(0.0, 50.0, 101)
    decay = decay_factor(xs, 1.0)
    dx = np.abs(xs[:, None] - xs[None, :])
    dv = np.abs(decay[:, None] - decay[None, :])
    mask = dx > 0.0
    for theta in (0.25, 0.5, 1.0):
        assert np.max(dv[mask] / dx[mask] ** theta) <= 1.0 + 1e-12


def test_convolution_variance_values():
    assert convolution_variance(1.0, 1.0) == pytest.approx(0.43233235838169365, rel=1e-15)
    assert convolution_variance(0.0, 0.7) == 0.7
    tiny = convolution_variance(1e-9, 1.0)
    assert 0.0 < 1.0 - tiny < 3e-9
    arr = convolution_variance(np.array([1.0, 4.0]), 0.5)
    assert arr.shape == (2,)
    assert arr[1] == pytest.approx((1.0 - math.exp(-4.0)) / 8.0, rel=1e-15)


def test_decay_factor_values():
    assert decay_factor(2.0, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)
    arr = decay_factor(np.array([1.0, 4.0]), 1.0)
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
