"""Oracle and property tests for the diagonal spectral calculus, and for the
noise-trace row that the hypothesis table reads off the operator."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab.analysis import hypotheses
from spdelab.drift import HolderDriftSpec
from spdelab.scheme import InitialData
from spdelab.spectral import (
    SpectralOperator,
    convolution_variance,
    decay_factor,
    make_heat_operator,
)

finite_coeffs = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=8,
)


def _trace_row(op, alpha):
    drift = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9)
    row = hypotheses(op, drift, alpha, InitialData(profile="power_decay", q=3.0))[0]
    assert row["name"] == "noise_trace_summable"
    return row


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
    with pytest.raises(ValueError, match="n_max"):
        make_heat_operator(0)
    for power in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="power"):
            SpectralOperator(4, power)
    # 8**400 overflows a float, so the ladder is refused, not stored as inf
    with pytest.raises(ValueError, match="overflows"):
        SpectralOperator(8, 400.0)


def test_eigenvalues_are_the_power_law():
    op = SpectralOperator(5, 1.5)
    assert np.array_equal(op.eigenvalues, np.arange(1, 6, dtype=float) ** 1.5)
    assert (op.n_max, op.power) == (5, 1.5)


def test_trace_condition_heat_alpha_045():
    row = _trace_row(make_heat_operator(128), 0.45)
    assert row["holds"] is True
    # fsum oracle over 128 modes of i**-1.1, and the integral-test tail 128**-0.1 / 0.1
    partial = math.fsum(i**-1.1 for i in range(1, 129))
    assert row["value"] == f"exponent 1.1, partial sum {partial:.6g}, tail bound {128**-0.1 / 0.1:.6g}"
    assert row["value"] == "exponent 1.1, partial sum 4.43113, tail bound 6.15572"


def test_trace_condition_divergent_alpha_05():
    row = _trace_row(make_heat_operator(64), 0.5)
    assert row["holds"] is False
    assert row["value"].startswith("exponent 1, ")
    assert row["value"].endswith(", tail bound inf")


def test_trace_condition_single_mode():
    row = _trace_row(make_heat_operator(1), 0.3)
    assert ", partial sum 1, " in row["value"]
    assert row["holds"] is True


def test_trace_condition_alpha_range():
    op = make_heat_operator(4)
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            _trace_row(op, alpha)


@given(
    power=st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
    alpha=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
)
def test_trace_dichotomy_power_law(power, alpha):
    assert _trace_row(SpectralOperator(8, power), alpha)["holds"] is (power * (1.0 - alpha) > 1.0)


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
    v = np.array(coeffs)
    once = decay_factor(lam, t) * v
    assert np.linalg.norm(once) <= np.linalg.norm(v) * (1.0 + 1e-12)
    twice = decay_factor(lam, s) * once
    joint = decay_factor(lam, t + s) * v
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
