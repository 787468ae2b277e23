"""Tests for the counter-based noise lattice and the exact O-U samplers."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab.kolmogorov import _NormalsAhead
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


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("path", [0, 2**64 - 1])
def test_substreams_are_the_keyed_philox_streams(seed, path):
    # a substream is the Philox stream keyed by (seed, path) with the mode in
    # the high counter word, whether opened with other modes of its path or
    # alone, and read in one call or in window-sized pieces
    lat = NoiseLattice(master_seed=seed, horizon=1.0, levels=10, n_modes=5)
    modes = [0, lat.n_modes - 1]
    key = np.array([seed, path], dtype=np.uint64)
    for gen, mode in zip(lat._substreams(path, modes), modes):
        want = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, mode]))
        want = want.standard_normal(lat.fine_steps)
        pieces = np.empty((4, lat.fine_steps // 4))
        for row in pieces:
            gen.standard_normal(out=row)
        assert np.array_equal(pieces.ravel(), want)
        assert np.array_equal(lat._substreams(path, [mode])[0].standard_normal(lat.fine_steps), want)


def test_seeds_from_2_63_are_distinct_streams():
    # numpy reads a key list that mixes a word >= 2**63 with a small one
    # through float64, which once mapped seed 2**64 - 1 onto seed 0 and
    # seeds 2**63 and 2**63 + 1 onto one stream
    rows = {seed: small_lattice(master_seed=seed).mode_increments(0, 0) for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)}
    for a, b in [(0, 2**64 - 1), (2**63, 2**63 + 1), (0, 2**63)]:
        assert not np.array_equal(rows[a], rows[b])


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
    running = left_fold_blocks(arr, block, stops)
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
    # with no fluctuation a subnormal coefficient is the state, and stays
    x = np.linspace(0.1, 1.6, 16)
    x[3] = 5e-324
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
    # the in-place sampler against its per-row expression form, bit for bit:
    # each sample draws z1 and then z2; at t = 1e-6 modes 1..9 take the
    # small-u series and modes 10..16 do not; 2100 rows are more than one
    # 2048-row block of a 16-mode state in the Kolmogorov estimators
    lam = heat16.eigenvalues
    u = lam * t
    if t < 1e-3:
        assert np.any(u < 1e-4) and np.any(u >= 1e-4)
    else:
        assert np.all(u >= 1e-4)
    x = np.linspace(-1.0, 2.0, 16)
    x_before = x.copy()
    var = convolution_variance(lam, t)
    cov = ou_cross_covariance(lam, t)
    sd = np.sqrt(var)
    resid = np.sqrt(np.maximum(np.where(u < 1e-4, t * u * u / 3.0 * (1.0 - u), var - cov * cov / var), 0.0))
    for size in (300, 2100):
        states, weights = ou_joint_modes_batch(heat16, x, t, np.random.default_rng(41), size)
        assert _same_bits(x, x_before)
        z = np.random.default_rng(41).standard_normal((size, 2, 16))
        z1, z2 = z[:, 0], z[:, 1]
        assert _same_bits(states, decay_factor(lam, t) * x + sd * z1)
        assert _same_bits(weights, (cov / sd) * z1 + resid * z2)


PIECES = (1, 511, 512, 513, 463)  # around a 512-row block of a 64-mode state, then the rest


def test_samplers_called_in_pieces_equal_one_call():
    # on one generator, and through the Kolmogorov estimators' source that
    # draws each next piece ahead on a helper thread: PIECES ask it for
    # more than it drew ahead three times, then for less; also with weights
    # on a few modes only
    op = make_heat_operator(64)
    x = 1.0 / np.arange(1.0, 65.0)
    few_weights = functools.partial(ou_joint_modes_batch, weight_modes=[0, 3, 37, 63])
    for sampler in (ou_joint_modes_batch, few_weights, ou_transition_sample):
        whole = sampler(op, x, 0.5, np.random.default_rng(17), sum(PIECES))
        rng = np.random.default_rng(17)
        in_line = [sampler(op, x, 0.5, rng, rows) for rows in PIECES]
        with _NormalsAhead(17) as ahead:
            drawn_ahead = [sampler(op, x, 0.5, ahead, rows) for rows in PIECES]
        for parts in (in_line, drawn_ahead):
            if sampler is ou_transition_sample:
                assert _same_bits(whole, np.concatenate(parts))
                continue
            for k in range(2):
                assert _same_bits(whole[k], np.concatenate([p[k] for p in parts]))


def _unflushed_joint(op, x, t, z, modes):
    """The joint sampler's outputs from its draw z, by the stated formula
    with no coefficient flushed to zero."""
    n = len(x)
    lam = op.eigenvalues[:n]
    var = convolution_variance(lam, t)
    sd, cov = np.sqrt(var), ou_cross_covariance(lam, t)
    resid = np.sqrt(np.maximum(var - cov * cov / var, 0.0))
    states = decay_factor(lam, t) * x + sd * z[:, :n]
    return states, (cov / sd)[modes] * z[:, modes] + resid[modes] * z[:, n:]


def test_subnormal_coefficients_leave_the_bits_unchanged():
    # at t = 0.5 on 64 heat modes, mode 38's decay factor exp(-722) and its
    # cov/sd are subnormal, and the samplers set them to zero: beside sd*z
    # they cannot change a bit, so the outputs are the unflushed formula's
    op, t = make_heat_operator(64), 0.5
    x = 1.0 / np.arange(1.0, 65.0)
    lam = op.eigenvalues
    tiny = np.finfo(float).tiny
    for lane in (decay_factor(lam, t) * x, ou_cross_covariance(lam, t) / np.sqrt(convolution_variance(lam, t))):
        assert np.flatnonzero((lane != 0.0) & (np.abs(lane) < tiny)).tolist() == [37]
    for modes in (np.arange(64), np.array([0, 37, 63]), np.array([], dtype=int)):
        states, weights = ou_joint_modes_batch(op, x, t, np.random.default_rng(6), 700, modes)
        z = np.random.default_rng(6).standard_normal((700, 64 + modes.size))
        want_states, want_weights = _unflushed_joint(op, x, t, z, modes)
        assert _same_bits(states, want_states)
        assert _same_bits(weights, want_weights)
    z = np.random.default_rng(6).standard_normal((700, 64))
    assert _same_bits(ou_transition_sample(op, x, t, np.random.default_rng(6), 700), _unflushed_joint(op, x, t, z, [])[0])


def test_transition_sample_is_the_joint_sampler_with_no_weights(heat16):
    x = np.linspace(-1.0, 2.0, 16)
    for t in (0.0, 1e-14, 0.7):
        states, weights = ou_joint_modes_batch(heat16, x, t, np.random.default_rng(8), 300, [])
        assert weights.shape == (300, 0)
        assert _same_bits(ou_transition_sample(heat16, x, t, np.random.default_rng(8), 300), states)
    with pytest.raises(ValueError):
        ou_joint_modes_batch(heat16, x, 0.0, np.random.default_rng(8), 3, [0])


def test_joint_weights_on_every_mode_in_order_are_the_default(heat16):
    x = np.linspace(-1.0, 2.0, 16)
    default = ou_joint_modes_batch(heat16, x, 0.5, np.random.default_rng(9), 600)
    chosen = ou_joint_modes_batch(heat16, x, 0.5, np.random.default_rng(9), 600, list(range(16)))
    for got, want in zip(chosen, default):
        assert _same_bits(got, want)


def test_joint_weights_on_chosen_modes_have_the_stated_law():
    # weights on modes 3 and 1 of a 3-mode state, in that order: each has
    # variance v and covariance cov with its mode's fluctuation, and its
    # residual after regressing on the fluctuation has variance v - cov^2/v,
    # all within 3 standard errors
    op = make_heat_operator(3)
    m, t = 200_000, 0.3
    states, weights = ou_joint_modes_batch(op, np.zeros(3), t, np.random.default_rng(12), m, [2, 0])
    assert weights.shape == (m, 2)
    for col, j in enumerate((2, 0)):
        f, w = states[:, j], weights[:, col]
        v = convolution_variance(op.eigenvalues[j], t)
        cov_true = ou_cross_covariance(op.eigenvalues[j], t)
        r2 = v - cov_true**2 / v
        assert abs(w.var() - v) <= 3.0 * v * math.sqrt(2.0 / m)
        cov = np.mean(f * w) - f.mean() * w.mean()
        assert abs(cov - cov_true) <= 3.0 * math.sqrt((v * v + cov_true**2) / m)
        assert abs((w - (cov_true / v) * f).var() - r2) <= 3.0 * r2 * math.sqrt(2.0 / m)
