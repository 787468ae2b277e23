"""Tests for the Kolmogorov-side estimators: semigroup means, gradients,
Picard iterates, and the bundled diagnostic suite."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spdelab import cli, kolmogorov
from spdelab.drift import HolderDriftSpec, drift_array, drift_bound
from spdelab.kolmogorov import (
    PICARD_NODES,
    PICARD_SAMPLES,
    bismut_gradient,
    drift_test_function,
    gradient_decay_check,
    gradient_summability_probe,
    kolmogorov_suite,
    ou_semigroup_estimate,
    picard_norm_bound,
    picard_u_lambda,
)
from spdelab.noise import ou_cross_covariance
from spdelab.spectral import convolution_variance, decay_factor, make_heat_operator

from oracles import mean_stderr, summability_gradient_dense, summability_gradient_monte_carlo

DRIFT = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, time_mod="cosine")


def coordinate(n):
    """Mode 1 sent along mode 1 of n modes: the suite's linear observable, unbounded."""
    e1 = np.eye(n)[0]
    return lambda z: z[..., 0, None] * e1


def tanh_form(weights, direction):
    """tanh of a linear form along a unit output direction: bounded by 1."""
    w, u = np.array(weights, dtype=float), np.array(direction, dtype=float)
    return lambda z: np.tanh(z @ w)[..., None] * u


def test_factories(monkeypatch):
    states = np.arange(6.0).reshape(3, 2)
    h = drift_test_function(DRIFT, make_heat_operator(16), time=0.25)
    # the drift is looked up at each call, so a rebound module name sees it,
    # with the operator's eigenvalues of the state's modes
    seen = []
    monkeypatch.setattr(kolmogorov, "drift_array", lambda spec, lam, t, x: seen.append((lam.tolist(), t)) or x)
    assert h(states) is states
    assert seen == [(make_heat_operator(2).eigenvalues.tolist(), 0.25)]


def test_evaluate_shapes_and_values():
    lam = make_heat_operator(3).eigenvalues
    states = np.arange(15.0).reshape(5, 3)
    h = drift_test_function(DRIFT, make_heat_operator(16), time=0.25)
    out = h(states)
    assert out.shape == (5, 3)
    assert np.array_equal(out, drift_array(DRIFT, lam, 0.25, states))


def test_norm_sums_the_squares_exactly():
    # the squares 1e16, 1 and 1 sum to 1e16 + 2 only when summed exactly, and
    # order or zero padding cannot change an exact sum
    assert kolmogorov._norm(np.array([3.0, 4.0])) == 5.0
    assert math.sqrt(1e16 + 1.0 + 1.0) == 1e8
    want = math.sqrt(1e16 + 2.0)
    assert want > 1e8
    assert kolmogorov._norm(np.array([1e8, 1.0, 1.0])) == want
    assert kolmogorov._norm(np.array([1.0, 0.0, 1e8, 1.0, 0.0])) == want
    assert kolmogorov._norm(np.zeros(3)) == 0.0


def test_semigroup_estimate_linear_closed_form(heat16):
    x = 1.0 / np.arange(1.0, 17.0)
    f = coordinate(16)
    (est,), (se,) = ou_semigroup_estimate(heat16, [f], 0.5, x, 20_000, seed=2024)
    expected = math.exp(-0.5)
    assert abs(est[0] - expected) <= 3.0 * se[0]


def test_semigroup_estimate_odd_function_at_origin(heat16):
    f = tanh_form(np.linspace(1.0, 0.1, 16), np.eye(16)[0])
    (est,), (se,) = ou_semigroup_estimate(heat16, [f], 0.5, np.zeros(16), 20_000, seed=1)
    assert abs(est[0]) <= 3.0 * se[0] + 1e-12


def test_semigroup_estimate_respects_bound(heat16):
    f = tanh_form(np.ones(16), np.eye(16)[1])
    (est,), _ = ou_semigroup_estimate(heat16, [f], 0.5, np.ones(16), 5000, seed=3)
    assert np.linalg.norm(est) <= 1.0 + 1e-12


def test_semigroup_estimate_validation(heat16):
    f = coordinate(16)
    x = np.zeros(16)
    with pytest.raises(ValueError):
        ou_semigroup_estimate(heat16, [f], 0.0, x, 100)
    with pytest.raises(ValueError):
        ou_semigroup_estimate(heat16, [f], 0.5, x, 1)


def test_bismut_gradient_linear_closed_form(heat16):
    x = 1.0 / np.arange(1.0, 17.0)
    eta = np.linspace(1.0, 0.25, 16)
    f = coordinate(16)
    (est,), (se,) = bismut_gradient(heat16, [f], 0.5, x, eta[None], 40_000, seed=7)
    expected = math.exp(-0.5) * eta[0]
    assert abs(est[0] - expected) <= 3.0 * se[0]


def test_bismut_gradient_zero_direction_is_exact_zero(heat16):
    f = tanh_form(np.ones(16), np.eye(16)[0])
    est, se = bismut_gradient(heat16, [f], 0.5, np.ones(16), np.zeros((1, 16)), 100, seed=0)
    assert np.array_equal(est, np.zeros((1, 16)))
    assert np.array_equal(se, np.zeros((1, 16)))


def test_bismut_gradient_validation(heat16):
    f = coordinate(16)
    x = np.zeros(16)
    eta = np.ones((1, 16))
    with pytest.raises(ValueError):
        bismut_gradient(heat16, [f], 0.0, x, eta, 100)
    for directions in (np.ones((1, 4)), np.ones(16)):
        with pytest.raises(ValueError, match="same mode count"):
            bismut_gradient(heat16, [f], 0.5, x, directions, 100)
    with pytest.raises(ValueError):
        bismut_gradient(heat16, [f], 0.5, x, eta, 1)


def test_finite_difference_agrees_with_bismut():
    op = make_heat_operator(4)
    x = 1.0 / np.arange(1.0, 5.0)
    eta = np.linspace(1.0, 0.25, 4)
    f = tanh_form(np.linspace(1.0, 0.125, 4), np.eye(4)[0])
    (bis,), (bis_se,) = bismut_gradient(op, [f], 0.5, x, eta[None], 40_000, seed=2024)
    quotient = kolmogorov._difference_quotient(op, f, 0.5, x, eta)
    (fd,), _ = ou_semigroup_estimate(op, [quotient], 0.5, x, 40_000, seed=2024)
    gaps = [abs(bis[i] - fd[i]) / abs(bis[i]) for i in range(4) if abs(bis[i]) > 10.0 * bis_se[i]]
    assert gaps
    assert max(gaps) < 0.05


def test_finite_difference_validation(heat16):
    f = tanh_form(np.ones(16), np.eye(16)[0])
    x, eta = np.zeros(16), np.ones(16)
    quotient = kolmogorov._difference_quotient(heat16, f, 0.5, x, eta)
    with pytest.raises(ValueError):
        ou_semigroup_estimate(heat16, [quotient], 0.0, x, 100)
    with pytest.raises(ValueError):
        kolmogorov._difference_quotient(heat16, f, 0.5, x, np.ones(4))
    # one sample has no standard error and none has no mean
    for m in (0, 1):
        with pytest.raises(ValueError):
            ou_semigroup_estimate(heat16, [quotient], 0.5, x, m)


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
        mean, se = kolmogorov._stream_mean_stderr("oracle", m, n, 0, block_values)
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


def test_normals_ahead_leave_a_failed_order_uncollected():
    # the block ordered last is never asked for and its draw failed: leaving
    # the with block waits for it, drops it unread and leaves no thread
    class FailingThirdDraw:
        def __init__(self):
            self.inner, self.calls = np.random.default_rng(5), 0

        def standard_normal(self, size=None, out=None):
            self.calls += 1
            if self.calls == 3:
                raise MemoryError("drawn ahead")
            return self.inner.standard_normal(size, out=out)

    rng, failing = np.random.default_rng(5), FailingThirdDraw()
    before = threading.active_count()
    with kolmogorov._NormalsAhead(5) as source:
        source._rng = failing
        # in line, then the helper's first order; its second order fails
        for size in (8, (2, 4)):
            assert _same_bits(source.standard_normal(size), rng.standard_normal(size))
    assert failing.calls == 3
    assert threading.active_count() == before


def test_no_helper_outlives_an_estimator_that_raises(heat16, monkeypatch):
    # an observable that raises in the second block: the error reaches the
    # caller as raised, after the helper drawing ahead was joined
    class Stop(Exception):
        pass

    error = Stop()
    monkeypatch.setattr(kolmogorov, "_BLOCK_NUMBERS", 100 * 16)
    x, eta = 1.0 / np.arange(1.0, 17.0), np.linspace(1.0, 0.25, 16)

    def raising_on_call(k):
        calls = []

        def evaluate(states):
            calls.append(None)
            if len(calls) == k:
                raise error
            return states

        return evaluate

    runs = {
        "semigroup": lambda: ou_semigroup_estimate(heat16, [raising_on_call(2)], 0.5, x, 1000),
        "bismut": lambda: bismut_gradient(heat16, [raising_on_call(2)], 0.5, x, eta[None], 1000),
        # two evaluations per block
        "finite_difference": lambda: ou_semigroup_estimate(
            heat16, [kolmogorov._difference_quotient(heat16, raising_on_call(3), 0.5, x, eta)], 0.5, x, 1000
        ),
        "decay": lambda: gradient_decay_check(heat16, raising_on_call(2), 1.0, 0.5, x, (1, 16), 1000),
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
    kolmogorov_suite(heat16, DRIFT, 0.45, m_samples=3000, decay_modes=(1, 4, 16))
    assert threads == {threading.get_ident()}
    assert max(counts) == before + 1  # a helper was drawing meanwhile
    assert threading.active_count() == before


def test_gradient_decay_refuses_no_modes_before_drawing(heat16, monkeypatch):
    f = drift_test_function(DRIFT, heat16, time=0.25)
    monkeypatch.setattr(kolmogorov, "ou_joint_modes_batch", mock.Mock(side_effect=AssertionError("drew")))
    with pytest.raises(ValueError, match="at least one mode"):
        gradient_decay_check(heat16, f, 1.0, 0.5, np.ones(16), (), 1000)


@pytest.mark.parametrize("decay_modes", [(), (0, 4), (1, 17)], ids=["none", "zero", "beyond-n-max"])
def test_suite_refuses_decay_modes_before_drawing(heat16, monkeypatch, decay_modes):
    # no modes used to fail in max() after both point-check passes had drawn
    for name in ("ou_joint_modes_batch", "ou_transition_sample"):
        monkeypatch.setattr(kolmogorov, name, mock.Mock(side_effect=AssertionError("drew")))
    with pytest.raises(ValueError, match=r"decay modes must be a non-empty list of indices in 1\.\.16"):
        kolmogorov_suite(heat16, DRIFT, 0.45, m_samples=100_000, decay_modes=decay_modes)


def test_gradient_decay_report(heat16):
    f = drift_test_function(DRIFT, heat16, time=0.25)
    x = 1.0 / np.arange(1.0, 17.0)
    sup = kolmogorov._drift_sup(DRIFT, heat16, 16)
    report = gradient_decay_check(heat16, f, sup, 0.5, x, (1, 2, 4), 20_000, seed=2024)
    assert report["bounded"] is True
    assert report["max_ratio"] < 1.0
    sizes = [row["estimate"] for row in report["rows"]]
    assert sizes[0] > sizes[1] > sizes[2]
    assert [row["mode"] for row in report["rows"]] == [1, 2, 4]
    # plain Python numbers, so the record is summary.json's as it stands
    assert {type(v) for row in report["rows"] for v in row.values()} == {int, float}
    assert type(report["max_ratio"]) is float and type(report["sup_bound"]) is float
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, f, sup, 0.5, x, (0,), 100)
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, f, sup, 0.5, x, (17,), 100)
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, f, sup, 0.0, x, (1,), 100)
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, f, sup, 0.5, x, (1,), 1)


def _expected_decay_rows(op, sup, t, modes, mean, se):
    """(rows, max ratio, bounded) of gradient_decay_check from the per-mode
    means and standard errors of its gradient estimates."""
    rows, bounded = [], True
    for i, mean_i, se_i in zip(modes, mean, se):
        size = kolmogorov._norm(mean_i)
        lam_i = float(op.eigenvalues[i - 1])
        theory = sup * math.sqrt(-math.expm1(-2.0 * lam_i * t)) / (math.sqrt(lam_i) * t)
        rows.append((i, size, float(np.linalg.norm(se_i)), size / theory))
        bounded = bounded and not size > theory + 3.0 * rows[-1][2]
    return rows, max(row[3] for row in rows), bounded


def _report_rows(report):
    return [(row["mode"], row["estimate"], row["stderr"], row["bound_ratio"]) for row in report["rows"]]


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
        f = drift_test_function(DRIFT, heat16, time=0.25)
        x = 1.0 / np.arange(1.0, n + 1.0)
        sup = kolmogorov._drift_sup(DRIFT, heat16, n)
        report = gradient_decay_check(heat16, f, sup, t, x, modes, m, seed=seed)
        est, se = bismut_gradient(heat16, [f], t, x, np.eye(n)[[modes[0] - 1]], m, seed=seed)
        rows, max_ratio, bounded = _expected_decay_rows(heat16, sup, t, modes, [est[0]] * 2, [se[0]] * 2)
        assert _report_rows(report) == rows
        assert report["max_ratio"] == max_ratio
        assert report["bounded"] is bounded


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
    states = decay_factor(lam, t) * x + sd * z[:, :n]
    weights = (cov / sd)[support] * z[:, support] + resid[support] * z[:, n:]
    values = f(states)
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
        f = drift_test_function(DRIFT, heat16, time=0.25)
        x = 1.0 / np.arange(1.0, n + 1.0)
        sup = kolmogorov._drift_sup(DRIFT, heat16, n)
        report = gradient_decay_check(heat16, f, sup, t, x, modes, m, seed=seed)
        mean, se = _decay_oracle_moments(heat16, f, t, x, modes, m, seed)
        rows, max_ratio, bounded = _expected_decay_rows(heat16, sup, t, modes, mean, se)
        got = _report_rows(report)
        assert [(i, size, ratio) for i, size, _, ratio in got] == [(i, size, ratio) for i, size, _, ratio in rows]
        np.testing.assert_allclose([r[2] for r in got], [r[2] for r in rows], rtol=1e-12, atol=0.0)
        assert report["max_ratio"] == max_ratio
        assert report["bounded"] is bounded
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
    f = drift_test_function(DRIFT, op, time=0.25)
    x = 1.0 / np.arange(1.0, n + 1.0)
    peak = _peak_bytes(lambda: gradient_decay_check(op, f, 1.0, 0.5, x, (1, 4, 16, 64), m, seed=2024))
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
    f = drift_test_function(DRIFT, op, time=0.25)
    x = 1.0 / np.arange(1.0, n + 1.0)
    peak = _peak_bytes(lambda: gradient_decay_check(op, f, 1.0, 0.5, x, modes, m, seed=2024))
    assert peak <= 1.5 * (rows * n + k * rows * n + k * rows) * 8 + 1e6
    assert peak <= (m * n + m * k) * 8 / 4


def test_estimator_memory_does_not_grow_with_samples():
    # every Monte Carlo estimator draws and reduces fixed-size blocks, so its
    # peak at 50,000 samples is within 0.5 MB of its peak at 5,000
    op, n = make_heat_operator(64), 64
    x = 1.0 / np.arange(1.0, n + 1.0)
    eta = np.linspace(1.0, 0.25, n)
    f_lin = coordinate(n)
    f_smooth = tanh_form(np.linspace(1.0, 0.125, n), np.eye(n)[0])
    f_drift = drift_test_function(DRIFT, op, time=0.25)

    estimators = {
        "semigroup": lambda m: ou_semigroup_estimate(op, [f_lin], 0.5, x, m, seed=3),
        "bismut": lambda m: bismut_gradient(op, [f_smooth], 0.5, x, eta[None], m, seed=3),
        "finite_difference": lambda m: ou_semigroup_estimate(
            op, [kolmogorov._difference_quotient(op, f_smooth, 0.5, x, eta)], 0.5, x, m, seed=3
        ),
        "decay": lambda m: gradient_decay_check(op, f_drift, 1.0, 0.5, x, (1, 4, 16, 64), m, seed=3),
    }
    for name, run in estimators.items():
        small, large = (_peak_bytes(lambda: run(m)) for m in (5_000, 50_000))
        assert abs(large - small) <= 0.5e6, (name, small, large)


def test_gradient_decay_vanishes_at_large_time(heat16):
    f = drift_test_function(DRIFT, heat16, time=0.25)
    x = 1.0 / np.arange(1.0, 17.0)
    sup = kolmogorov._drift_sup(DRIFT, heat16, 16)
    report = gradient_decay_check(heat16, f, sup, 20.0, x, (1, 2), 20_000, seed=5)
    assert all(row["estimate"] < 1e-3 for row in report["rows"])
    assert report["max_ratio"] < 0.05


def test_picard_terminal_condition(heat16):
    value, _ = picard_u_lambda(1.0, heat16, DRIFT, 1.0, np.array([1.0, 0.5, 0.25]))
    assert np.array_equal(value, np.zeros(3))


def test_picard_draws_its_nodes_through_the_transition_binding(heat16, monkeypatch):
    # one call of PICARD_SAMPLES rows per node before the horizon, none at it
    rows = []

    def counted(op, x, t, rng, size, _sampler=kolmogorov.ou_transition_sample):
        rows.append(size)
        return _sampler(op, x, t, rng, size)

    monkeypatch.setattr(kolmogorov, "ou_transition_sample", counted)
    x = np.array([1.0, 0.5, 0.25])
    picard_u_lambda(1.0, heat16, DRIFT, 0.0, x, seed=1)
    assert rows == [PICARD_SAMPLES] * PICARD_NODES
    rows.clear()
    _, se = picard_u_lambda(1.0, heat16, DRIFT, 2.0, x, horizon=2.0, seed=1)
    assert rows == []
    assert np.array_equal(se, np.zeros(3))


def test_picard_first_iterate_respects_bound(heat16):
    x = np.array([1.0, 0.5, 1.0 / 3.0])
    value, se = picard_u_lambda(2.0, heat16, DRIFT, 0.3, x, seed=9)
    sup_b = drift_bound(DRIFT, make_heat_operator(3))
    bound = picard_norm_bound(sup_b, 2.0, 0.3, 1.0)
    assert np.linalg.norm(value) <= bound + 3.0 * float(np.linalg.norm(se))


def test_picard_lambda_sweep_monotone(heat16):
    x = np.array([1.0, 0.5, 1.0 / 3.0])
    sup_b = drift_bound(DRIFT, make_heat_operator(3))
    norms = []
    for lam in (1.0, 10.0, 100.0):
        value, se = picard_u_lambda(lam, heat16, DRIFT, 0.0, x, seed=13)
        bound = picard_norm_bound(sup_b, lam, 0.0, 1.0)
        assert np.linalg.norm(value) <= bound + 3.0 * float(np.linalg.norm(se))
        norms.append(np.linalg.norm(value))
    assert norms[0] > norms[1] > norms[2]


def test_picard_golden(heat16):
    # the value, its standard error and the draw order must not move
    value, se = picard_u_lambda(2.0, heat16, DRIFT, 0.3, np.array([1.0, 0.5, 1.0 / 3.0]), seed=9)
    assert value.tolist() == [0.22530727595000155, 0.03866758474099669, 0.010354927421232599]
    assert se.tolist() == [0.0014788152737012289, 0.0007995889700161969, 0.0004296839680449389]


def test_picard_validation(heat16):
    x = np.array([1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        picard_u_lambda(0.0, heat16, DRIFT, 0.0, x)
    for dims in (0, 5):
        with pytest.raises(ValueError):
            picard_u_lambda(1.0, heat16, DRIFT, 0.0, np.ones(dims))
    for t in (-0.1, 1.5):
        with pytest.raises(ValueError):
            picard_u_lambda(1.0, heat16, DRIFT, t, x)


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
    x = 1.0 / np.arange(1.0, 17.0)
    report = gradient_summability_probe(heat16, DRIFT, 1.0, 0.0, x, theta=0.45)
    assert report["bounded"] is True
    assert report["growth_ratio"] >= 1.0
    assert np.all(np.diff(report["partial_sums"]) >= 0.0)
    assert report["theta"] == 0.45
    assert type(report["growth_ratio"]) is float and {type(s) for s in report["partial_sums"]} == {float}
    with pytest.raises(ValueError):
        gradient_summability_probe(heat16, DRIFT, 1.0, 0.0, x, theta=-0.1)
    with pytest.raises(ValueError):
        gradient_summability_probe(heat16, DRIFT, 1.0, 1.0, x, theta=0.45)


def test_cusp_rule_is_the_substituted_gauss_legendre_rule():
    # Gauss-Legendre in v is exact to degree 127, so the rule in u = v**4,
    # with its weights 4*v**3*w, integrates u**j exactly for j <= 31;
    # numpy's leggauss, whose weights carry 1e-12 more rounding, places the
    # same nodes
    from numpy.polynomial.legendre import leggauss

    u, weights = kolmogorov._cusp_rule()
    assert u.shape == weights.shape == (kolmogorov.GAUSS_NODES + 1, 1)
    assert (u[-1, 0], weights[-1, 0]) == (1.0, 0.0)
    u, weights = u[:-1, 0], weights[:-1, 0]
    moments = np.array([weights @ u**j for j in range(32)])
    np.testing.assert_allclose(moments, 1.0 / np.arange(1.0, 33.0), rtol=1e-13, atol=0)
    x, w = leggauss(kolmogorov.GAUSS_NODES)
    np.testing.assert_allclose(u, ((x + 1.0) / 2.0) ** 4, rtol=1e-13, atol=0)
    np.testing.assert_allclose(weights, 2.0 * w * ((x + 1.0) / 2.0) ** 3, rtol=1e-11, atol=0)


@pytest.mark.parametrize(
    "kind, t, lam_picard, horizon, modes",
    [
        ("diagonal", 0.0, 1.0, 1.0, (1, 2, 4, 16, 64)),
        ("smooth_baseline", 0.0, 1.0, 1.0, (1, 2, 4, 16, 64)),
        ("diagonal", 0.3, 10.0, 2.0, (1, 3, 16)),
        ("smooth_baseline", 0.3, 10.0, 2.0, (1, 3, 16)),
    ],
)
def test_summability_gradient_matches_a_dense_rule(kind, t, lam_picard, horizon, modes):
    # each mode's one nonzero entry, against a 400,001-point midpoint rule in
    # z, at heat16 and at the suite's shape (64 modes, x = 1/i), whose first
    # 16 modes are heat16's; rank_one's entries are the diagonal kind's, so
    # the diagonal's reference serves it too
    x = 1.0 / np.arange(1.0, 65.0)
    index = np.array(modes) - 1
    spec = dataclasses.replace(DRIFT, kind=kind)
    lam = make_heat_operator(64).eigenvalues[index]
    exact = summability_gradient_dense(spec, lam, lam_picard, t, x[index], horizon)
    for checked in (spec, dataclasses.replace(DRIFT, kind="rank_one")) if kind == "diagonal" else (spec,):
        for n in (16, 64):
            got = kolmogorov._picard_gradient(make_heat_operator(n), checked, lam_picard, t, x[:n], horizon)
            keep = index < n
            np.testing.assert_allclose(got[index[keep]], exact[keep], rtol=1e-9, atol=0)


@pytest.mark.parametrize("kind", ["diagonal", "rank_one", "smooth_baseline"])
def test_summability_gradient_lies_within_the_monte_carlo_oracle(heat16, kind):
    # seeds and sample sizes were fixed before the first run; each mode's one
    # nonzero entry lies within 4 standard errors of the Monte Carlo estimate,
    # and each other entry, exactly 0, within 5 (up to 240 per run); an entry
    # with no spread, as rank_one's columns past the first, must be exact
    spec = dataclasses.replace(DRIFT, kind=kind)
    x = 1.0 / np.arange(1.0, 17.0)
    exact = np.zeros((16, 16))
    column = np.zeros(16, dtype=int) if kind == "rank_one" else np.arange(16)
    exact[np.arange(16), column] = kolmogorov._picard_gradient(heat16, spec, 1.0, 0.0, x, 1.0)
    support = exact != 0.0
    assert support.sum() == 16
    for seed in (4, 2024):
        for samples in (1024, 4096):
            grad, se = summability_gradient_monte_carlo(heat16, spec, 1.0, 0.0, x, samples, seed)
            assert np.array_equal(grad[se == 0.0], exact[se == 0.0])
            z = np.abs(grad - exact) / np.where(se == 0.0, 1.0, se)
            assert z[support].max() <= 4.0, (seed, samples, z[support].max())
            assert z[~support].max() <= 5.0, (seed, samples, z[~support].max())


def test_summability_gate_can_decide(heat16):
    # the exact probe fails a sum that grows and passes one that is flat to
    # 2e-4, where the Monte Carlo estimate it replaced (4096 joint draws per
    # node, seed 4) read a growth of 1.626 and failed
    grows = gradient_summability_probe(heat16, DRIFT, 1.0, 0.0, 1.0 / np.arange(1.0, 9.0), theta=4.0)
    assert grows["bounded"] is False
    assert grows["growth_ratio"] == pytest.approx(2.379, abs=5e-4)
    x = 1.0 / np.arange(1.0, 17.0)
    flat = gradient_summability_probe(heat16, DRIFT, 1.0, 0.0, x, theta=2.0)
    assert flat["bounded"] is True
    assert flat["growth_ratio"] == pytest.approx(1.0002, abs=5e-5)
    grad, _ = summability_gradient_monte_carlo(heat16, DRIFT, 1.0, 0.0, x, 4096, seed=4)
    estimated = np.cumsum(heat16.eigenvalues**2.0 * np.einsum("ij,ij->i", grad, grad))
    assert estimated[-1] / estimated[7] == pytest.approx(1.626, abs=5e-4)


def test_summability_probe_loads_no_polynomial_module_and_no_eigen_solver():
    # its Gauss-Legendre nodes are formed at first use, not at import, and by
    # Newton's method: numpy.polynomial costs about 0.8 MB of resident memory,
    # its leggauss 1.2 MB more and a LAPACK eigen-solver 2 MB, against the
    # benchmark's peak memory; a fresh interpreter shows what is loaded
    script = textwrap.dedent(
        """
        import sys
        import numpy as np

        def refuse(*args, **kwargs):
            raise AssertionError("an eigen-solver was called")

        for name in ("eigh", "eig", "eigvals", "eigvalsh"):
            setattr(np.linalg, name, refuse)
        from spdelab import kolmogorov
        from spdelab.drift import HolderDriftSpec
        from spdelab.spectral import make_heat_operator

        assert kolmogorov._cusp_rule.cache_info().currsize == 0, "formed at import"
        spec = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, time_mod="cosine")
        kolmogorov.kolmogorov_suite(make_heat_operator(16), spec, 0.45, m_samples=200, decay_modes=(1, 16))
        assert kolmogorov._cusp_rule.cache_info().currsize == 1, "never formed"
        assert "numpy.polynomial" not in sys.modules, "numpy.polynomial imported"
        """
    )
    src = os.path.dirname(os.path.dirname(kolmogorov.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_estimators_refuse_statistics_that_are_not_finite(heat16):
    # values near 1e300 are finite, but their squared sums overflow; the
    # standard errors, and the summability sums, used to come out inf or NaN
    # and pass every gate; numpy's warnings are errors in the test suite
    x = 1.0 / np.arange(1.0, 17.0)
    scale = np.where(np.arange(16) >= 2, 1e300, 1.0)
    hot = dataclasses.replace(DRIFT, amplitude=1e300, cap=1e300)
    refusals = {
        "ou_semigroup_estimate: mean or standard error is not finite, first at mode 3":
            lambda: ou_semigroup_estimate(heat16, [lambda z: z * scale], 0.5, x, 1000),
        "bismut_gradient: mean or standard error is not finite, first at mode 3":
            lambda: bismut_gradient(heat16, [lambda z: z * scale], 0.5, x, np.eye(16)[:1], 1000),
        "picard_u_lambda at lam = 10.0: iterate or standard error is not finite, first at mode 1":
            lambda: picard_u_lambda(10.0, heat16, hot, 0.0, x[:3]),
        "gradient_summability_probe: partial sum is not finite, first at mode 1":
            lambda: gradient_summability_probe(heat16, hot, 1.0, 0.0, x, theta=0.45),
    }
    for message, run in refusals.items():
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as raised:
            run()
        assert str(raised.value) == message


def test_kolmogorov_suite_passes(heat16):
    result = kolmogorov_suite(heat16, DRIFT, 0.45, m_samples=4000, decay_modes=(1, 4, 16))
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
    assert [row["mode"] for row in result["decay"]["rows"]] == [1, 4, 16]
    assert len(result["picard"]["norms"]) == 3


def _suite_draws(m_samples, dims, n_decay) -> int:
    """States the suite draws: one transition pass for the semigroup and the
    finite difference and one joint pass for both Bismut gradients at dims
    modes, the decay check at n_decay modes and the three Picard evaluations
    of the lam sweep at 3 modes; the summability probe draws none."""
    return 2 * m_samples * dims + m_samples * n_decay + 3 * PICARD_NODES * PICARD_SAMPLES * 3


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
    kolmogorov_suite(heat16, DRIFT, 0.45, m_samples=3000, decay_modes=(1, 4, 16))
    assert sum(drawn) == _suite_draws(3000, 4, 16)
    # the kolmogorov-probe benchmark workload: m = 10^5, decay modes up to 64;
    # 9,334,016 while the summability probe drew 8 * 4096 states of 64 modes
    assert _suite_draws(100_000, 4, 64) == 7_236_864


def _suite_normals(m_samples, dims, decay_modes) -> int:
    """Normals the suite draws: a state's per mode, and a joint draw's weight
    normals on the modes its directions touch, every mode for the suite's
    dense direction, the distinct checked modes for the decay check."""
    n_decay = max(decay_modes)
    return (
        m_samples * dims
        + 2 * m_samples * dims
        + m_samples * (n_decay + len(set(decay_modes)))
        + 3 * PICARD_NODES * PICARD_SAMPLES * 3
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
    kolmogorov_suite(heat16, DRIFT, 0.45, m_samples=3000, decay_modes=decay_modes)
    assert sum(requested) == _suite_normals(3000, 4, decay_modes)
    # the kolmogorov-probe benchmark workload, against 19,431,168 when every
    # estimator drew weights on all modes and the shared passes were drawn
    # twice, and 12,231,168 while the summability probe drew 8 * 4096 * 128
    assert _suite_normals(100_000, 4, (1, 4, 16, 64)) == 8_036_864


def _decay_csv(result) -> str:
    """The suite's decay rows as kolmogorov-check writes them to report.csv."""
    return cli._csv("i,estimate,stderr,bound_ratio", (row.values() for row in result["decay"]["rows"]))


# re-recorded when each joint draw began to take a sample's z1 and z2
# together, and the decay rows again when the decay check's joint draw began
# to take weight normals only on the checked modes; the summability line
# when the probe's gradients became exact in space (the Monte Carlo
# estimate read 1.0016); the suite must reproduce it byte for byte
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
    ("summability_non_exploding", "partial sum growth ratio 1.0000 at theta = 0.45", True),
]


def test_kolmogorov_suite_golden():
    result = kolmogorov_suite(make_heat_operator(64), DRIFT, 0.45, m_samples=2000, decay_modes=(1, 4, 16, 64))
    assert _decay_csv(result) == GOLDEN_DECAY_CSV
    assert [(c["name"], c["detail"], c["passed"]) for c in result["checks"]] == GOLDEN_DETAILS


# recorded for the other two drift kinds before states became plain arrays,
# and the summability lines again when the probe became exact in space (the
# estimates read 1.0024 and 1.0014); the point checks read no drift, so
# only the decay rows and the last four details differ from the diagonal
# drift's
GOLDEN_KIND_DECAY_CSV = {
    "rank_one": (
        "i,estimate,stderr,bound_ratio\n"
        "1,0.44727665617322676,0.017207081291997356,0.059294114302478024\n"
        "4,0.010877307085873188,0.006028915111648397,0.004585816967003215\n"
        "16,0.0001978158358494381,0.0014662981858297637,0.0003335925549129487\n"
        "64,7.890796193211723e-05,0.00036628485089370573,0.0005322750529223307\n"
    ),
    "smooth_baseline": (
        "i,estimate,stderr,bound_ratio\n"
        "1,0.39352690024841075,0.015102382841171446,0.19387711588339057\n"
        "4,0.008262692416294964,0.004943216683154529,0.012945942849337843\n"
        "16,0.0002759104682661421,0.001183042671723469,0.001729180161991699\n"
        "64,9.495050806463885e-05,0.0002964678653321006,0.0023802871409436\n"
    ),
}
GOLDEN_KIND_DETAILS = {
    "rank_one": GOLDEN_DETAILS[:3] + [
        ("gradient_decay_bounded", "max bound ratio 0.0593 over modes (1, 4, 16, 64)", True),
        ("picard_terminal_zero", "value at t = horizon", True),
        ("picard_norm_bound", "norms 0.4251 <= 1.159, 0.09985 <= 0.1833, 0.0002799 <= 0.01833", True),
        ("picard_smallness_trend", "norms along the sweep: 0.4251, 0.09985, 0.0002799", True),
        ("summability_non_exploding", "partial sum growth ratio 1.0000 at theta = 0.45", True),
    ],
    "smooth_baseline": GOLDEN_DETAILS[:3] + [
        ("gradient_decay_bounded", "max bound ratio 0.1939 over modes (1, 4, 16, 64)", True),
        ("picard_terminal_zero", "value at t = horizon", True),
        ("picard_norm_bound", "norms 0.3029 <= 0.7375, 0.06524 <= 0.1167, 0.0001782 <= 0.01167", True),
        ("picard_smallness_trend", "norms along the sweep: 0.3029, 0.06524, 0.0001782", True),
        ("summability_non_exploding", "partial sum growth ratio 1.0000 at theta = 0.45", True),
    ],
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_KIND_DECAY_CSV))
def test_kolmogorov_suite_golden_per_drift_kind(kind):
    spec = dataclasses.replace(DRIFT, kind=kind)
    result = kolmogorov_suite(make_heat_operator(64), spec, 0.45, m_samples=2000, decay_modes=(1, 4, 16, 64))
    assert _decay_csv(result) == GOLDEN_KIND_DECAY_CSV[kind]
    assert [(c["name"], c["detail"], c["passed"]) for c in result["checks"]] == GOLDEN_KIND_DETAILS[kind]
