"""Tests for the Kolmogorov-side estimators: semigroup means, gradients,
Picard iterates, and the bundled diagnostic suite."""

import math
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spdelab import kolmogorov
from spdelab.drift import HolderDriftSpec, drift_bound
from spdelab.kolmogorov import (
    DECAY_CSV_HEADER,
    PicardConfig,
    TestFunction,
    bismut_gradient,
    bounded_smooth_function,
    coordinate_function,
    drift_test_function,
    finite_difference_gradient,
    gradient_decay_check,
    gradient_summability_probe,
    kolmogorov_suite,
    ou_semigroup_estimate,
    picard_norm_bound,
    picard_u_lambda,
)
from spdelab.noise import ou_cross_covariance
from spdelab.spectral import ModeVector, convolution_variance, decay_factor, make_heat_operator

from oracles import mean_stderr

DRIFT = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, time_mod="cosine")


def test_test_function_validation(heat16):
    # checks at construction: a 1-based index and a nonzero direction
    with pytest.raises(ValueError):
        coordinate_function(0, [1.0])
    with pytest.raises(ValueError):
        coordinate_function(1, [0.0, 0.0])
    with pytest.raises(ValueError):
        bounded_smooth_function([1.0], [0.0])
    with pytest.raises(ValueError):
        drift_test_function(DRIFT, heat16, 0, time=0.25)
    with pytest.raises(ValueError):
        drift_test_function(DRIFT, heat16, 17, time=0.25)
    # shape mismatches surface when the observable meets a state batch
    lam = make_heat_operator(1).eigenvalues
    states = np.ones((3, 1))
    with pytest.raises(ValueError):
        coordinate_function(2, [1.0]).evaluate(states, lam)
    with pytest.raises(ValueError):
        bounded_smooth_function([], [1.0]).evaluate(states, lam)
    with pytest.raises(ValueError):
        bounded_smooth_function([1.0], [1.0, 1.0]).evaluate(states, lam)


def test_factories(monkeypatch):
    states = np.arange(6.0).reshape(3, 2)
    lam = make_heat_operator(2).eigenvalues
    f = coordinate_function(2, [3.0, 4.0])
    assert f.bound is None
    assert np.array_equal(f.evaluate(states, lam), np.outer(states[:, 1], [0.6, 0.8]))
    weights = np.array([1.0, 0.5])
    g = bounded_smooth_function(weights, [2.0, 0.0])
    weights[0] = 9.0  # the observable keeps its own copy
    assert g.bound == 1.0
    assert np.array_equal(g.evaluate(states, lam)[:, 0], np.tanh(states @ [1.0, 0.5]))
    h = drift_test_function(DRIFT, make_heat_operator(16), 4, time=0.25)
    assert h.bound == pytest.approx(drift_bound(DRIFT, make_heat_operator(4)), rel=1e-15)
    # the drift is looked up at each call, so a rebound module name sees it
    seen = []
    monkeypatch.setattr(kolmogorov, "drift_array", lambda spec, lam, t, x: seen.append(t) or x)
    assert h.evaluate(states, lam) is states
    assert seen == [0.25]


def test_evaluate_shapes_and_values():
    lam = make_heat_operator(3).eigenvalues
    states = np.arange(15.0).reshape(5, 3)
    f = coordinate_function(2, [1.0, 0.0, 0.0])
    out = f.evaluate(states, lam)
    assert out.shape == (5, 3)
    assert np.array_equal(out[:, 0], states[:, 1])
    assert np.array_equal(out[:, 1:], np.zeros((5, 2)))

    g = bounded_smooth_function([0.5, -0.25, 0.1], [0.0, 1.0, 0.0])
    gout = g.evaluate(states, lam)
    assert np.max(np.abs(gout)) <= 1.0
    assert np.array_equal(gout[:, 1], np.tanh(states @ np.array([0.5, -0.25, 0.1])))

    from spdelab.drift import drift_array

    h = drift_test_function(DRIFT, make_heat_operator(3), 3, time=0.25)
    assert np.array_equal(h.evaluate(states, lam), drift_array(DRIFT, lam, 0.25, states))


def test_evaluate_dimension_errors():
    lam = make_heat_operator(2).eigenvalues
    states = np.zeros((4, 2))
    with pytest.raises(ValueError):
        coordinate_function(3, [1.0, 0.0]).evaluate(states, lam)
    with pytest.raises(ValueError):
        coordinate_function(1, [1.0, 0.0, 0.0]).evaluate(states, lam)
    with pytest.raises(ValueError):
        bounded_smooth_function([1.0], [1.0]).evaluate(states, lam)


def test_semigroup_estimate_linear_closed_form(heat16):
    x = ModeVector(1.0 / np.arange(1.0, 17.0))
    f = coordinate_function(1, np.eye(16)[0])
    est, se = ou_semigroup_estimate(heat16, f, 0.5, x, 20_000, seed=2024)
    expected = math.exp(-0.5)
    assert abs(est.coeffs[0] - expected) <= 3.0 * se[0]


def test_semigroup_estimate_odd_function_at_origin(heat16):
    f = bounded_smooth_function(np.linspace(1.0, 0.1, 16), np.eye(16)[0])
    est, se = ou_semigroup_estimate(heat16, f, 0.5, ModeVector(np.zeros(16)), 20_000, seed=1)
    assert abs(est.coeffs[0]) <= 3.0 * se[0] + 1e-12


def test_semigroup_estimate_respects_bound(heat16):
    f = bounded_smooth_function(np.ones(16), np.eye(16)[1])
    est, _ = ou_semigroup_estimate(heat16, f, 0.5, ModeVector(np.ones(16)), 5000, seed=3)
    assert est.norm() <= 1.0 + 1e-12


def test_semigroup_estimate_validation(heat16):
    f = coordinate_function(1, np.eye(16)[0])
    x = ModeVector(np.zeros(16))
    with pytest.raises(ValueError):
        ou_semigroup_estimate(heat16, f, 0.0, x, 100)
    with pytest.raises(ValueError):
        ou_semigroup_estimate(heat16, f, 0.5, x, 1)


def test_bismut_gradient_linear_closed_form(heat16):
    x = ModeVector(1.0 / np.arange(1.0, 17.0))
    eta = ModeVector(np.linspace(1.0, 0.25, 16))
    f = coordinate_function(1, np.eye(16)[0])
    est, se = bismut_gradient(heat16, f, 0.5, x, eta, 40_000, seed=7)
    expected = math.exp(-0.5) * eta.coeffs[0]
    assert abs(est.coeffs[0] - expected) <= 3.0 * se[0]


def test_bismut_gradient_zero_direction_is_exact_zero(heat16):
    f = bounded_smooth_function(np.ones(16), np.eye(16)[0])
    est, se = bismut_gradient(
        heat16, f, 0.5, ModeVector(np.ones(16)), ModeVector(np.zeros(16)), 100, seed=0
    )
    assert np.array_equal(est.coeffs, np.zeros(16))
    assert np.array_equal(se, np.zeros(16))


def test_bismut_gradient_validation(heat16):
    f = coordinate_function(1, np.eye(16)[0])
    x = ModeVector(np.zeros(16))
    eta = ModeVector(np.ones(16))
    with pytest.raises(ValueError):
        bismut_gradient(heat16, f, 0.0, x, eta, 100)
    with pytest.raises(ValueError):
        bismut_gradient(heat16, f, 0.5, x, ModeVector(np.ones(4)), 100)
    with pytest.raises(ValueError):
        bismut_gradient(heat16, f, 0.5, x, eta, 1)


def test_finite_difference_agrees_with_bismut():
    op = make_heat_operator(4)
    x = ModeVector(1.0 / np.arange(1.0, 5.0))
    eta = ModeVector(np.linspace(1.0, 0.25, 4))
    f = bounded_smooth_function(np.linspace(1.0, 0.125, 4), np.eye(4)[0])
    bis, bis_se = bismut_gradient(op, f, 0.5, x, eta, 40_000, seed=2024)
    fd, _ = finite_difference_gradient(op, f, 0.5, x, eta, 40_000, seed=2024)
    gaps = [
        abs(bis.coeffs[i] - fd.coeffs[i]) / abs(bis.coeffs[i])
        for i in range(4)
        if abs(bis.coeffs[i]) > 10.0 * bis_se[i]
    ]
    assert gaps
    assert max(gaps) < 0.05


def test_finite_difference_validation(heat16):
    f = bounded_smooth_function(np.ones(16), np.eye(16)[0])
    x, eta = ModeVector(np.zeros(16)), ModeVector(np.ones(16))
    with pytest.raises(ValueError):
        finite_difference_gradient(heat16, f, 0.0, x, eta, 100)
    with pytest.raises(ValueError):
        finite_difference_gradient(heat16, f, 0.5, x, ModeVector(np.ones(4)), 100)
    # one sample has no standard error and none has no mean
    for m in (0, 1):
        with pytest.raises(ValueError):
            finite_difference_gradient(heat16, f, 0.5, x, eta, m)


@example(m=300, block_rows=1, lead=(2,), n=3, offset=1e6, seed=0)
@given(
    m=st.integers(2, 300),
    block_rows=st.integers(1, 64),
    lead=st.sampled_from([(), (2,)]),
    n=st.sampled_from([1, 3]),
    offset=st.sampled_from([0.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stream_reducer_matches_two_pass_oracle(m, block_rows, lead, n, offset, seed):
    # any split into blocks, one-row blocks included, and a mean 10^6 times
    # the spread, against exactly rounded two-pass sums
    samples = offset + np.random.default_rng(seed).standard_normal((*lead, m, n))
    taken = []

    def block_values(rng, rows):
        start = sum(taken)
        taken.append(rows)
        return samples[..., start : start + rows, :].copy()

    with mock.patch.object(kolmogorov, "_BLOCK_NUMBERS", block_rows * n):
        mean, se = kolmogorov._stream_mean_stderr(m, n, 0, block_values)
    assert sum(taken) == m and max(taken) == min(block_rows, m)
    for j in np.ndindex(*lead):
        want_mean, want_se = mean_stderr(samples[j])
        assert np.all(np.abs(mean[j] - want_mean) <= 1e-12 * (np.abs(want_mean) + want_se * math.sqrt(m)))
        np.testing.assert_allclose(se[j], want_se, rtol=1e-12, atol=0.0)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "sizes",
    [
        [(512, 2, 64)] * 3,  # each request the size drawn ahead
        [1000, 300, 700, 1500, 1000],  # a prefix, then the remainder and more
        [10, (100, 2, 5), 5, 0, 7],  # more than was drawn ahead, and an empty request
    ],
)
def test_normals_ahead_serve_the_generators_stream(sizes):
    rng = np.random.default_rng(11)
    with kolmogorov._NormalsAhead(11) as source:
        for size in sizes:
            assert _same_bits(source.standard_normal(size), rng.standard_normal(size))


def test_normals_ahead_keep_no_served_block():
    # once the caller drops what it was served, the block is freed, also the
    # block whose remainder is kept for the next request
    with kolmogorov._NormalsAhead(3) as source:
        for size in (4096, 4096, 1000, 4096):
            served = source.standard_normal(size)
            owner = weakref.ref(served if served.base is None else served.base)
            del served
            assert owner() is None


def test_normals_ahead_raise_the_helpers_error_on_the_caller():
    error = MemoryError("drawn ahead")

    class FailingSecondDraw:
        def __init__(self):
            self.calls = 0

        def standard_normal(self, size=None, out=None):
            self.calls += 1
            if self.calls == 2:
                raise error
            return np.zeros(size)

    before = threading.active_count()
    with kolmogorov._NormalsAhead(0) as source:
        source._rng = FailingSecondDraw()
        source.standard_normal(8)  # drawn in line; the helper draws the next 8
        with pytest.raises(MemoryError) as raised:
            source.standard_normal(8)
        assert raised.value is error
    assert threading.active_count() == before


def test_no_helper_outlives_an_estimator_that_raises(heat16, monkeypatch):
    # an observable, or for the summability probe the drift, that raises in
    # the second block: the error reaches the caller as raised, after the
    # helper drawing ahead was joined
    class Stop(Exception):
        pass

    error = Stop()
    monkeypatch.setattr(kolmogorov, "_BLOCK_NUMBERS", 100 * 16)
    x, eta = ModeVector(1.0 / np.arange(1.0, 17.0)), ModeVector(np.linspace(1.0, 0.25, 16))

    def raising_on_call(k):
        calls = []

        def evaluate(states, lam):
            calls.append(None)
            if len(calls) == k:
                raise error
            return states

        return TestFunction(evaluate, 1.0)

    def summability():
        raising = raising_on_call(2).evaluate
        monkeypatch.setattr(kolmogorov, "drift_array", lambda spec, lam, t, states: raising(states, lam))
        gradient_summability_probe(heat16, DRIFT, 1.0, 0.0, x, theta=0.45)

    runs = {
        "semigroup": lambda: ou_semigroup_estimate(heat16, raising_on_call(2), 0.5, x, 1000),
        "bismut": lambda: bismut_gradient(heat16, raising_on_call(2), 0.5, x, eta, 1000),
        # two evaluations per block
        "finite_difference": lambda: finite_difference_gradient(heat16, raising_on_call(3), 0.5, x, eta, 1000),
        "decay": lambda: gradient_decay_check(heat16, raising_on_call(2), 0.5, x, (1, 16), 1000),
        "summability": summability,
    }
    before = threading.active_count()
    for name, run in runs.items():
        with pytest.raises(Stop) as raised:
            run()
        assert raised.value is error, name
        assert threading.active_count() == before, name


def test_suite_samples_and_evaluates_on_the_calling_thread(heat16, monkeypatch):
    # the helper only draws normals: every sampler and drift call runs on the
    # caller's thread, where a tracer keeps its one span stack, and the suite
    # leaves no thread behind for a process pool forked after it
    threads, counts = set(), []
    for name in ("ou_joint_modes_batch", "ou_transition_sample", "drift_array"):

        def on_caller(*args, _inner=getattr(kolmogorov, name), **kwargs):
            threads.add(threading.get_ident())
            counts.append(threading.active_count())
            return _inner(*args, **kwargs)

        monkeypatch.setattr(kolmogorov, name, on_caller)
    before = threading.active_count()
    kolmogorov_suite(heat16, DRIFT, m_samples=3000, dims=4, decay_modes=(1, 4, 16))
    assert threads == {threading.get_ident()}
    assert max(counts) == before + 1  # a helper was drawing meanwhile
    assert threading.active_count() == before


def test_gradient_decay_rejects_unbounded_observable(heat16):
    f = coordinate_function(1, np.eye(16)[0])
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, f, 0.5, ModeVector(np.ones(16)), (1, 2), 100)


def test_gradient_decay_report(heat16):
    f = drift_test_function(DRIFT, heat16, 16, time=0.25)
    x = ModeVector(1.0 / np.arange(1.0, 17.0))
    report = gradient_decay_check(heat16, f, 0.5, x, (1, 2, 4), 20_000, seed=2024)
    assert report.bounded
    assert report.max_ratio < 1.0
    sizes = [row.estimate for row in report.rows]
    assert sizes[0] > sizes[1] > sizes[2]
    text = report.csv_text()
    lines = text.splitlines()
    assert lines[0] == DECAY_CSV_HEADER
    assert len(lines) == 4
    summary = report.summary_dict()
    assert summary["bounded"] is True
    assert len(summary["rows"]) == 3
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, f, 0.5, x, (0,), 100)
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, f, 0.5, x, (17,), 100)
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, f, 0.0, x, (1,), 100)
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, f, 0.5, x, (1,), 1)


def _expected_decay_rows(op, f, t, x, modes, mean, se):
    """(rows, max ratio, bounded) of gradient_decay_check from the per-mode
    means and standard errors of its gradient estimates."""
    rows, bounded = [], True
    for i, mean_i, se_i in zip(modes, mean, se):
        size = ModeVector(mean_i).norm()
        lam_i = float(op.eigenvalues[i - 1])
        theory = f.bound * math.sqrt(-math.expm1(-2.0 * lam_i * t)) / (math.sqrt(lam_i) * t)
        rows.append((i, size, float(np.linalg.norm(se_i)), size / theory))
        bounded = bounded and not size > theory + 3.0 * rows[-1][2]
    return rows, max(row[3] for row in rows), bounded


def _report_rows(report):
    return [(row.mode, row.estimate, row.stderr, row.bound_ratio) for row in report.rows]


def test_gradient_decay_matches_per_mode_bismut(heat16, monkeypatch):
    # with one distinct mode i the joint draw has weights on mode i alone,
    # as bismut_gradient's along e_i does, so every row is bitwise that
    # call; 300-row blocks split m = 2000 into six full blocks and a short
    # last one, so the carried sums are exercised; the one-mode states check
    # that an (m, 1) column, which numpy sums pairwise, is reduced the same
    # way for one row and for two; a repeated mode gives equal rows
    t, m, seed = 0.5, 2000, 2024
    for n, modes, block_rows in [(1, (1,), 300), (1, (1, 1), 300), (1, (1, 1), None), (16, (5, 5), 300)]:
        if block_rows is not None:
            monkeypatch.setattr(kolmogorov, "_BLOCK_NUMBERS", block_rows * n)
        f = drift_test_function(DRIFT, heat16, n, time=0.25)
        x = ModeVector(1.0 / np.arange(1.0, n + 1.0))
        report = gradient_decay_check(heat16, f, t, x, modes, m, seed=seed)
        est, se = bismut_gradient(heat16, f, t, x, ModeVector(np.eye(n)[modes[0] - 1]), m, seed=seed)
        rows, max_ratio, bounded = _expected_decay_rows(heat16, f, t, x, modes, [est.coeffs] * 2, [se] * 2)
        assert _report_rows(report) == rows
        assert report.max_ratio == max_ratio
        assert report.bounded is bounded


def _decay_oracle_moments(op, f, t, x, modes, m, seed):
    """Per checked mode, numpy's mean and standard error of the gradient
    products from the check's stated draw: per sample z1 on every mode, then
    z2 on the distinct checked modes in ascending order."""
    n = len(x)
    support = sorted({i - 1 for i in modes})
    lam = op.eigenvalues[:n]
    var = convolution_variance(lam, t)
    sd, cov = np.sqrt(var), ou_cross_covariance(lam, t)
    resid = np.sqrt(var - cov * cov / var)
    z = np.random.default_rng(seed).standard_normal((m, n + len(support)))
    states = decay_factor(lam, t) * x.coeffs + sd * z[:, :n]
    weights = (cov / sd)[support] * z[:, support] + resid[support] * z[:, n:]
    values = f.evaluate(states, lam)
    products = np.stack([(weights[:, support.index(i - 1)] / t)[:, None] * values for i in modes])
    return products.mean(axis=1), products.std(axis=1, ddof=1) / math.sqrt(m)


def test_gradient_decay_matches_its_stated_draw(heat16, monkeypatch):
    # several distinct modes share one joint draw with weights on those
    # modes only: each row's estimate is bitwise the oracle's (the reducer's
    # mean is bitwise numpy's for n >= 2) and its standard error agrees to
    # 1e-12; 300- and 1999-row blocks leave a short and a one-row last block,
    # and repeated or unsorted modes must not change the draw
    t, m, seed = 0.5, 2000, 2024
    cases = [
        (16, (1, 2, 4, 16), None),
        (16, (1, 2, 4, 16), 300),
        (2, (2, 1), 300),
        (16, (3, 3, 1), 300),
        (16, (5, 2), 1999),
    ]
    for n, modes, block_rows in cases:
        if block_rows is not None:
            monkeypatch.setattr(kolmogorov, "_BLOCK_NUMBERS", block_rows * n)
        f = drift_test_function(DRIFT, heat16, n, time=0.25)
        x = ModeVector(1.0 / np.arange(1.0, n + 1.0))
        report = gradient_decay_check(heat16, f, t, x, modes, m, seed=seed)
        mean, se = _decay_oracle_moments(heat16, f, t, x, modes, m, seed)
        rows, max_ratio, bounded = _expected_decay_rows(heat16, f, t, x, modes, mean, se)
        got = _report_rows(report)
        assert [(i, size, ratio) for i, size, _, ratio in got] == [(i, size, ratio) for i, size, _, ratio in rows]
        np.testing.assert_allclose([r[2] for r in got], [r[2] for r in rows], rtol=1e-12, atol=0.0)
        assert report.max_ratio == max_ratio
        assert report.bounded is bounded
        assert len({row[1] for row in got}) == len(set(modes))  # a repeated mode repeats its row


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gradient_decay_memory_is_one_values_array():
    # the only values array of f that the check holds is one block's, not
    # the (m, n) array: at m = 100,000 and n = 64 it peaks below 4 MB,
    # under a twelfth of that array
    op = make_heat_operator(64)
    m, n = 100_000, 64
    f = drift_test_function(DRIFT, op, n, time=0.25)
    x = ModeVector(1.0 / np.arange(1.0, n + 1.0))
    peak = _peak_bytes(lambda: gradient_decay_check(op, f, 0.5, x, (1, 4, 16, 64), m, seed=2024))
    assert peak <= 4e6
    assert peak <= m * n * 8 / 12


def test_gradient_decay_memory_is_values_and_selected_columns(monkeypatch):
    # beyond one block's values of f, their (k, rows, n) products with the k
    # selected weight columns and the (k, rows) pulls, the check holds only
    # buffers of the same block size; a four-times block is checked so the
    # block, not m or the fixed overhead, sets the bound; that is under a
    # quarter of the (m, n) values and (m, k) columns at m = 100,000
    monkeypatch.setattr(kolmogorov, "_BLOCK_NUMBERS", 4 * kolmogorov._BLOCK_NUMBERS)
    op = make_heat_operator(64)
    m, n, modes = 100_000, 64, (1, 4, 16, 64)
    rows, k = kolmogorov._BLOCK_NUMBERS // n, len(modes)
    f = drift_test_function(DRIFT, op, n, time=0.25)
    x = ModeVector(1.0 / np.arange(1.0, n + 1.0))
    peak = _peak_bytes(lambda: gradient_decay_check(op, f, 0.5, x, modes, m, seed=2024))
    assert peak <= 1.5 * (rows * n + k * rows * n + k * rows) * 8 + 1e6
    assert peak <= (m * n + m * k) * 8 / 4


def test_estimator_memory_does_not_grow_with_samples(monkeypatch):
    # every Monte Carlo estimator draws and reduces fixed-size blocks, so its
    # peak at 50,000 samples is within 0.5 MB of its peak at 5,000; the
    # summability probe's samples per node are the module constant, and one
    # node is enough
    op, n = make_heat_operator(64), 64
    x = ModeVector(1.0 / np.arange(1.0, n + 1.0))
    eta = ModeVector(np.linspace(1.0, 0.25, n))
    f_lin = coordinate_function(1, np.eye(n)[0])
    f_smooth = bounded_smooth_function(np.linspace(1.0, 0.125, n), np.eye(n)[0])
    f_drift = drift_test_function(DRIFT, op, n, time=0.25)
    monkeypatch.setattr(kolmogorov, "SUMMABILITY_NODES", 1)

    def summability(m):
        monkeypatch.setattr(kolmogorov, "SUMMABILITY_SAMPLES", m)
        gradient_summability_probe(op, DRIFT, 1.0, 0.0, x, theta=0.45, seed=3)

    estimators = {
        "semigroup": lambda m: ou_semigroup_estimate(op, f_lin, 0.5, x, m, seed=3),
        "bismut": lambda m: bismut_gradient(op, f_smooth, 0.5, x, eta, m, seed=3),
        "finite_difference": lambda m: finite_difference_gradient(op, f_smooth, 0.5, x, eta, m, seed=3),
        "decay": lambda m: gradient_decay_check(op, f_drift, 0.5, x, (1, 4, 16, 64), m, seed=3),
        "summability": summability,
    }
    for name, run in estimators.items():
        small, large = (_peak_bytes(lambda: run(m)) for m in (5_000, 50_000))
        assert abs(large - small) <= 0.5e6, (name, small, large)


def test_gradient_decay_vanishes_at_large_time(heat16):
    f = drift_test_function(DRIFT, heat16, 16, time=0.25)
    x = ModeVector(1.0 / np.arange(1.0, 17.0))
    report = gradient_decay_check(heat16, f, 20.0, x, (1, 2), 20_000, seed=5)
    assert all(row.estimate < 1e-3 for row in report.rows)
    assert report.max_ratio < 0.05


def test_picard_terminal_condition(heat16):
    cfg = PicardConfig(lam=1.0, dims=3)
    value, diag = picard_u_lambda(cfg, heat16, DRIFT, 1.0, ModeVector([1.0, 0.5, 0.25]))
    assert np.array_equal(value.coeffs, np.zeros(3))
    assert diag["completed"] is True
    assert diag["samples_used"] == 0


def test_picard_first_iterate_respects_bound(heat16):
    cfg = PicardConfig(lam=2.0, dims=3)
    x = ModeVector([1.0, 0.5, 1.0 / 3.0])
    value, diag = picard_u_lambda(cfg, heat16, DRIFT, 0.3, x, seed=9)
    sup_b = drift_bound(DRIFT, make_heat_operator(3))
    bound = picard_norm_bound(sup_b, 2.0, 0.3, 1.0)
    assert value.norm() <= bound + 3.0 * float(np.linalg.norm(diag["stderr"]))
    assert diag["nodes_done"] == diag["nodes_total"] == 8


def test_picard_lambda_sweep_monotone(heat16):
    x = ModeVector([1.0, 0.5, 1.0 / 3.0])
    sup_b = drift_bound(DRIFT, make_heat_operator(3))
    norms = []
    for lam in (1.0, 10.0, 100.0):
        cfg = PicardConfig(lam=lam, dims=3)
        value, diag = picard_u_lambda(cfg, heat16, DRIFT, 0.0, x, seed=13)
        bound = picard_norm_bound(sup_b, lam, 0.0, 1.0)
        assert value.norm() <= bound + 3.0 * float(np.linalg.norm(diag["stderr"]))
        norms.append(value.norm())
    assert norms[0] > norms[1] > norms[2]


def test_picard_budget_exhaustion(heat16, monkeypatch):
    monkeypatch.setattr(kolmogorov, "PICARD_SAMPLE_BUDGET", 1500)
    cfg = PicardConfig(lam=1.0, dims=3)
    value, diag = picard_u_lambda(cfg, heat16, DRIFT, 0.0, ModeVector([1.0, 0.5, 0.25]), seed=1)
    assert diag["completed"] is False
    assert diag["nodes_done"] == 2
    assert diag["samples_used"] == 1024
    assert np.all(np.isfinite(value.coeffs))


def test_picard_golden(heat16):
    # the value, its standard error and the draw order must not move
    cfg = PicardConfig(lam=2.0, dims=3, time_nodes=4, outer_samples=64)
    value, diag = picard_u_lambda(cfg, heat16, DRIFT, 0.3, ModeVector([1.0, 0.5, 1.0 / 3.0]), seed=9)
    assert value.coeffs.tolist() == [0.21512874556359815, 0.040588905823528525, 0.010166208548707747]
    assert diag.pop("stderr").tolist() == [0.006231320171272336, 0.003394402893084424, 0.0017339315351508902]
    assert diag == {"completed": True, "samples_used": 256, "nodes_done": 4, "nodes_total": 4}


def test_picard_validation(heat16):
    with pytest.raises(ValueError):
        PicardConfig(lam=0.0)
    with pytest.raises(ValueError):
        PicardConfig(lam=1.0, dims=5)
    with pytest.raises(ValueError):
        PicardConfig(lam=1.0, outer_samples=1)
    cfg = PicardConfig(lam=1.0, dims=3)
    with pytest.raises(ValueError):
        picard_u_lambda(cfg, heat16, DRIFT, 0.0, ModeVector([1.0, 0.5]))
    with pytest.raises(ValueError):
        picard_u_lambda(cfg, heat16, DRIFT, 1.5, ModeVector([1.0, 0.5, 0.25]))


def test_picard_norm_bound_values():
    assert picard_norm_bound(1.0, 2.0, 0.5, 1.0) == pytest.approx(
        (1.0 - math.exp(-1.0)) / 2.0, rel=1e-15
    )
    assert picard_norm_bound(1.0, 1.0, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        picard_norm_bound(1.0, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        picard_norm_bound(1.0, 1.0, 2.0, 1.0)


def test_summability_probe(heat16):
    x = ModeVector(1.0 / np.arange(1.0, 17.0))
    report = gradient_summability_probe(heat16, DRIFT, 1.0, 0.0, x, theta=0.45, seed=4)
    assert report.bounded
    assert report.growth_ratio >= 1.0
    assert np.all(np.diff(report.partial_sums) >= 0.0)
    assert report.summary_dict()["theta"] == 0.45
    with pytest.raises(ValueError):
        gradient_summability_probe(heat16, DRIFT, 1.0, 0.0, x, theta=-0.1)
    with pytest.raises(ValueError):
        gradient_summability_probe(heat16, DRIFT, 1.0, 1.0, x, theta=0.45)


def test_kolmogorov_suite_passes(heat16):
    result = kolmogorov_suite(heat16, DRIFT, m_samples=4000)
    assert result["passed"] is True
    assert [c["name"] for c in result["checks"]] == [
        "semigroup_linear_closed_form",
        "bismut_linear_closed_form",
        "bismut_matches_finite_difference",
        "gradient_decay_bounded",
        "picard_terminal_zero",
        "picard_norm_bound",
        "picard_smallness_trend",
        "summability_non_exploding",
    ]
    assert all(c["passed"] for c in result["checks"])
    assert result["decay_csv"].startswith(DECAY_CSV_HEADER)
    assert len(result["picard"]["norms"]) == 3


def _suite_draws(m_samples, dims, n_decay, picard: PicardConfig) -> int:
    """States the suite draws: one transition pass for the semigroup and the
    finite difference and one joint pass for both Bismut gradients at dims
    modes, the decay check at n_decay modes, three depth-1 Picard
    evaluations and the summability probe at n_decay modes."""
    return (
        2 * m_samples * dims
        + m_samples * n_decay
        + 3 * picard.time_nodes * picard.outer_samples * picard.dims
        + kolmogorov.SUMMABILITY_NODES * kolmogorov.SUMMABILITY_SAMPLES * n_decay
    )


def test_suite_draws_go_through_the_sampler_bindings(heat16, monkeypatch):
    # every state is drawn through the module's bindings of the two samplers,
    # the names the benchmark's tracer counts at, so the count has a closed
    # form; 3000 samples at 16 modes take two blocks
    drawn = []
    for name in ("ou_joint_modes_batch", "ou_transition_sample"):

        def counted(*args, _sampler=getattr(kolmogorov, name), **kwargs):
            result = _sampler(*args, **kwargs)
            drawn.append((result[0] if isinstance(result, tuple) else result).size)
            return result

        monkeypatch.setattr(kolmogorov, name, counted)
    kolmogorov_suite(heat16, DRIFT, m_samples=3000, dims=4, decay_modes=(1, 4, 16))
    picard = PicardConfig(lam=1.0, dims=3)
    assert sum(drawn) == _suite_draws(3000, 4, 16, picard)
    # the kolmogorov-probe benchmark workload: m = 10^5, decay modes up to 64
    assert _suite_draws(100_000, 4, 64, picard) == 9_334_016


def _suite_normals(m_samples, dims, decay_modes, picard: PicardConfig) -> int:
    """Normals the suite draws: a state's per mode, and a joint draw's weight
    normals on the modes its directions touch, every mode for the suite's
    dense direction and the summability probe, the distinct checked modes
    for the decay check."""
    n_decay = max(decay_modes)
    return (
        m_samples * dims
        + 2 * m_samples * dims
        + m_samples * (n_decay + len(set(decay_modes)))
        + 3 * picard.time_nodes * picard.outer_samples * picard.dims
        + kolmogorov.SUMMABILITY_NODES * kolmogorov.SUMMABILITY_SAMPLES * 2 * n_decay
    )


def test_suite_draws_only_the_normals_it_reads(heat16, monkeypatch):
    # every normal a sampler asks its rng for, counted at the module's
    # sampler bindings; the repeated decay mode adds no weight normals
    requested = []

    class Counting:
        def __init__(self, rng):
            self._rng = rng

        def standard_normal(self, size):
            requested.append(math.prod(size))
            return self._rng.standard_normal(size)

    for name in ("ou_joint_modes_batch", "ou_transition_sample"):

        def counted(op, x, t, rng, *args, _sampler=getattr(kolmogorov, name)):
            return _sampler(op, x, t, Counting(rng), *args)

        monkeypatch.setattr(kolmogorov, name, counted)
    decay_modes = (1, 4, 16, 16)
    kolmogorov_suite(heat16, DRIFT, m_samples=3000, dims=4, decay_modes=decay_modes)
    picard = PicardConfig(lam=1.0, dims=3)
    assert sum(requested) == _suite_normals(3000, 4, decay_modes, picard)
    # the kolmogorov-probe benchmark workload, against 19,431,168 when every
    # estimator drew weights on all modes and the shared passes were drawn twice
    assert _suite_normals(100_000, 4, (1, 4, 16, 64), picard) == 12_231_168


# re-recorded when each joint draw began to take a sample's z1 and z2
# together, and the decay rows again when the decay check's joint draw began
# to take weight normals only on the checked modes; the suite must
# reproduce it byte for byte
GOLDEN_DECAY_CSV = (
    "i,estimate,stderr,bound_ratio\n"
    "1,0.45873708432748894,0.017087607311921816,0.22600392197338348\n"
    "4,0.010249344196308522,0.005886517137100088,0.016058618368381718\n"
    "16,0.00022230985093658892,0.0014058020076506063,0.0013932555240494802\n"
    "64,0.00010322071170614664,0.0003537269126614411,0.002587610511635464\n"
)
GOLDEN_DETAILS = [
    ("semigroup_linear_closed_form", "|0.596154 - 0.606531| vs 3*stderr = 0.0366", True),
    ("bismut_linear_closed_form", "|0.552888 - 0.606531| vs 3*stderr = 0.0769", True),
    ("bismut_matches_finite_difference", "max relative gap 0.0754 over 1 significant coordinates", False),
    ("gradient_decay_bounded", "max bound ratio 0.2260 over modes (1, 4, 16, 64)", True),
    ("picard_terminal_zero", "value at t = horizon", True),
    ("picard_norm_bound", "norms 0.3654 <= 0.7375, 0.07972 <= 0.1167, 0.0002187 <= 0.01167", True),
    ("picard_smallness_trend", "norms along the sweep: 0.3654, 0.07972, 0.0002187", True),
    ("summability_non_exploding", "partial sum growth ratio 1.0016 at theta = 0.45", True),
]


def test_kolmogorov_suite_fails_unfinished_picard(heat16, monkeypatch):
    # 1500 samples cover two 512-sample nodes of eight; the partial sum is
    # smaller than the full one, so it must pass neither the norm bound nor
    # the smallness trend
    monkeypatch.setattr(kolmogorov, "PICARD_SAMPLE_BUDGET", 1500)
    result = kolmogorov_suite(heat16, DRIFT, m_samples=4000)
    for name in ("picard_norm_bound", "picard_smallness_trend"):
        check = next(c for c in result["checks"] if c["name"] == name)
        assert check["passed"] is False
        for lam in (1, 10, 100):
            assert f"; lam {lam} stopped at 2/8 nodes" in check["detail"]
    assert result["passed"] is False


def test_kolmogorov_suite_golden():
    result = kolmogorov_suite(make_heat_operator(64), DRIFT, m_samples=2000, decay_modes=(1, 4, 16, 64))
    assert result["decay_csv"] == GOLDEN_DECAY_CSV
    assert [(c["name"], c["detail"], c["passed"]) for c in result["checks"]] == GOLDEN_DETAILS
