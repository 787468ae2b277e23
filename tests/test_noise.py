"""Tests for the counter-based noise lattice and the exact O-U samplers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab.noise import (
    NoiseLattice,
    left_fold_blocks,
    ou_cross_covariance,
    ou_joint_modes_batch,
    ou_transition_sample,
)
from spdelab.spectral import SpectralOperator, convolution_variance, decay_factor, make_heat_operator

from oracles import coarse_increment, increment


def small_lattice(**kw):
    args = {"master_seed": 99, "horizon": 1.0, "levels": 4, "n_modes": 3}
    args.update(kw)
    return NoiseLattice(**args)


def test_prefix_addressability():
    lat = small_lattice()
    row = lat.mode_increments(0, 1)
    assert row.shape == (16,)
    assert np.array_equal(lat.mode_increments(0, 1, 5), row[:5])
    # single-increment lookups in scrambled order agree with the row
    for step in (7, 2, 15, 0, 2):
        assert increment(lat, 0, 1, step) == row[step]


def test_streams_are_distinct():
    lat = small_lattice()
    base = lat.mode_increments(0, 0)
    assert not np.array_equal(base, lat.mode_increments(0, 1))
    assert not np.array_equal(base, lat.mode_increments(1, 0))
    reseeded = small_lattice(master_seed=100)
    assert not np.array_equal(base, reseeded.mode_increments(0, 0))
    # same parameters reproduce the lattice exactly
    assert np.array_equal(base, small_lattice().mode_increments(0, 0))


def test_fine_increments_block():
    lat = small_lattice()
    block = lat.fine_increments(3)
    assert block.shape == (16, 3)
    for m in range(3):
        assert np.array_equal(block[:, m], lat.mode_increments(3, m))
    assert np.array_equal(lat.fine_increments(3, 2), block[:, :2])


def test_increment_variance_calibration():
    lat = NoiseLattice(master_seed=5, horizon=1.0, levels=17, n_modes=1)
    row = lat.mode_increments(0, 0)
    m = row.size
    assert m == 131072
    dt = lat.fine_dt
    assert abs(row.var() - dt) <= 3.0 * math.sqrt(2.0 / m) * dt
    assert abs(row.mean()) <= 3.0 * math.sqrt(dt / m)


def test_coarse_level_equal_to_fine():
    fine = small_lattice().fine_increments(0)
    assert np.array_equal(left_fold_blocks(fine, 1), fine)


def test_coarse_one_level_up_is_pair_sum():
    fine = small_lattice().fine_increments(2)
    coarse = left_fold_blocks(fine, 2)
    assert coarse.shape == (8, 3)
    assert np.array_equal(coarse, fine[0::2] + fine[1::2])


def test_coarse_level_zero_is_whole_row_fold():
    lat = small_lattice()
    row = lat.mode_increments(1, 2)
    acc = row[0]
    for k in range(1, row.size):
        acc = acc + row[k]
    assert coarse_increment(lat, 1, 2, 0, 0) == acc


def test_coarse_matrix_matches_scalar():
    lat = small_lattice(levels=3)
    fine = lat.fine_increments(7)
    for level in range(4):
        grid = left_fold_blocks(fine, 1 << (lat.levels - level))
        for j in range(1 << level):
            for m in range(3):
                assert grid[j, m] == coarse_increment(lat, 7, m, level, j)


def test_coarse_telescoping():
    # the per-level totals agree as sums, but not bit for bit: regrouping a
    # float sum moves the last few ulps, so compare at 1e-12 instead
    lat = small_lattice(levels=6)
    total = math.fsum(lat.mode_increments(0, 0))
    for level in (0, 2, 4, 6):
        sums = [coarse_increment(lat, 0, 0, level, j) for j in range(1 << level)]
        assert math.fsum(sums) == pytest.approx(total, rel=1e-12, abs=1e-14)


@given(
    values=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=8, max_size=8
    ),
    block=st.sampled_from([1, 2, 4, 8]),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
)
def test_left_fold_blocks_matches_scalar_fold(values, block, fractions):
    arr = np.array(values)
    folded = left_fold_blocks(arr, block)
    stops = [round(f * block) for f in fractions] + [0, block]
    sums, running = left_fold_blocks(arr, block, stops)
    assert np.array_equal(sums, folded)
    for j in range(arr.size // block):
        acc = arr[j * block]
        for k in range(1, block):
            acc = acc + arr[j * block + k]
        assert folded[j] == acc
        for i, stop in enumerate(stops):
            # the running sum after `stop` rows, folded one add at a time
            acc = 0.0 if stop == 0 else arr[j * block]
            for k in range(1, stop):
                acc = acc + arr[j * block + k]
            assert running[j, i] == acc
        assert running[j, -2] == 0.0
        assert running[j, -1] == folded[j]


def test_left_fold_blocks_rejects_ragged():
    with pytest.raises(ValueError):
        left_fold_blocks(np.zeros(10), 4)
    with pytest.raises(ValueError):
        left_fold_blocks(np.zeros(8), 4, [5])


def test_lattice_validation():
    with pytest.raises(ValueError):
        small_lattice(master_seed=-1)
    with pytest.raises(ValueError):
        small_lattice(master_seed=1 << 64)
    with pytest.raises(ValueError):
        small_lattice(horizon=0.0)
    with pytest.raises(ValueError):
        small_lattice(levels=31)
    with pytest.raises(ValueError):
        small_lattice(levels=-1)
    with pytest.raises(ValueError):
        small_lattice(n_modes=0)
    with pytest.raises(ValueError):
        small_lattice(scale=-0.5)
    lat = small_lattice()
    with pytest.raises(ValueError):
        lat.mode_increments(-1, 0)
    with pytest.raises(ValueError):
        lat.mode_increments(0, 3)
    with pytest.raises(ValueError):
        lat.mode_increments(0, 0, 17)
    with pytest.raises(ValueError):
        lat.fine_increments(0, 4)


def test_scale_factor():
    zero = small_lattice(scale=0.0)
    assert np.array_equal(zero.mode_increments(0, 0), np.zeros(16))
    unit = small_lattice()
    doubled = small_lattice(scale=2.0)
    # doubling is exact in binary, so the rows match bit for bit
    assert np.array_equal(doubled.mode_increments(0, 0), 2.0 * unit.mode_increments(0, 0))


def test_ou_transition_sample_tiny_time_is_stable(heat16):
    x = np.ones(16)
    t = 1e-14
    out = ou_transition_sample(heat16, x, t, np.random.default_rng(3), 4)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - x)) <= 8.0 * math.sqrt(t)


def test_ou_transition_sample_matches_stated_law(heat16):
    # same seed on both sides: the draw must be literally mean + sd * z
    x = np.linspace(-1.0, 2.0, 16)
    out = ou_transition_sample(heat16, x, 0.7, np.random.default_rng(21), 3)
    lam = heat16.eigenvalues
    z = np.random.default_rng(21).standard_normal((3, 16))
    manual = np.exp(-lam * 0.7) * x + np.sqrt(convolution_variance(lam, 0.7)) * z
    assert np.array_equal(out, manual)


def test_ou_one_step_statistics():
    op = make_heat_operator(1)
    x = np.array([1.3])
    m = 100_000
    draws = ou_transition_sample(op, x, 1.0, np.random.default_rng(8), m)[:, 0]
    true_var = 0.43233235838169365
    true_mean = 1.3 * math.exp(-1.0)
    assert abs(draws.mean() - true_mean) <= 3.0 * math.sqrt(true_var / m)
    assert abs(draws.var() - true_var) <= 3.0 * true_var * math.sqrt(2.0 / m)


def test_transition_sample_at_zero_time(heat16):
    x = np.linspace(0.1, 1.6, 16)
    draws = ou_transition_sample(heat16, x, 0.0, np.random.default_rng(1), 5)
    assert np.array_equal(draws, np.broadcast_to(x, (5, 16)))


def test_sampler_validation(heat16):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ou_transition_sample(heat16, np.zeros(16), -1.0, rng, 4)
    with pytest.raises(ValueError):
        ou_joint_modes_batch(heat16, np.zeros(16), 0.0, rng, 4)
    with pytest.raises(ValueError):
        ou_transition_sample(make_heat_operator(2), np.zeros(3), 0.5, rng, 4)


def test_cross_covariance_closed_form():
    assert ou_cross_covariance(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    arr = ou_cross_covariance(np.array([1.0, 4.0]), 0.5)
    assert arr.shape == (2,)
    assert arr[1] == pytest.approx(0.5 * math.exp(-2.0), rel=1e-15)


def test_joint_second_moments():
    op = make_heat_operator(1)
    m = 200_000
    states, weights = ou_joint_modes_batch(op, np.zeros(1), 1.0, np.random.default_rng(12), m)
    f = states[:, 0]
    w = weights[:, 0]
    v = convolution_variance(1.0, 1.0)
    cov_true = ou_cross_covariance(1.0, 1.0)
    band = 4.0 * v * math.sqrt(2.0 / m)
    assert abs(f.var() - v) <= band
    assert abs(w.var() - v) <= band
    cov = np.mean(f * w) - f.mean() * w.mean()
    assert abs(cov - cov_true) <= 4.0 * math.sqrt((v * v + cov_true**2) / m)


def test_joint_small_lambda_limit():
    op = SpectralOperator(np.array([1e-10]))
    t = 1.0
    assert convolution_variance(1e-10, t) == pytest.approx(t, rel=1e-9)
    assert ou_cross_covariance(1e-10, t) == pytest.approx(t, rel=1e-9)
    states, weights = ou_joint_modes_batch(op, np.zeros(1), t, np.random.default_rng(2), 50_000)
    assert np.all(np.isfinite(weights))
    assert abs(weights[:, 0].var() - t) <= 4.0 * t * math.sqrt(2.0 / 50_000)


def test_total_fluctuation_matches_mode_sum(heat16):
    t = 0.5
    per_mode = convolution_variance(heat16.eigenvalues, t)
    total = float(np.sum(per_mode))
    assert total == pytest.approx(0.6059372316584516, rel=1e-12)
    m = 40_000
    x = np.linspace(0.1, 1.6, 16)
    draws = ou_transition_sample(heat16, x, t, np.random.default_rng(31), m)
    sq = np.sum((draws - np.exp(-heat16.eigenvalues * t) * x) ** 2, axis=1)
    se = math.sqrt(2.0 * float(np.sum(per_mode**2)) / m)
    assert abs(sq.mean() - total) <= 3.0 * se


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("t", [1e-6, 0.5])
def test_joint_batch_matches_expression_form(heat16, t):
    # the in-place sampler against its expression form, bit for bit; at
    # t = 1e-6 modes 1..9 take the small-u series and modes 10..16 do not
    lam = heat16.eigenvalues
    u = lam * t
    if t < 1e-3:
        assert np.any(u < 1e-4) and np.any(u >= 1e-4)
    else:
        assert np.all(u >= 1e-4)
    x = np.linspace(-1.0, 2.0, 16)
    x_before = x.copy()
    states, weights = ou_joint_modes_batch(heat16, x, t, np.random.default_rng(41), 300)
    assert _same_bits(x, x_before)

    rng = np.random.default_rng(41)
    z1 = rng.standard_normal((300, 16))
    z2 = rng.standard_normal((300, 16))
    var = convolution_variance(lam, t)
    cov = ou_cross_covariance(lam, t)
    sd = np.sqrt(var)
    resid = np.sqrt(np.maximum(np.where(u < 1e-4, t * u * u / 3.0 * (1.0 - u), var - cov * cov / var), 0.0))
    assert _same_bits(states, decay_factor(lam, t) * x + sd * z1)
    assert _same_bits(weights, (cov / sd) * z1 + resid * z2)
