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
    gradient_decay_check,
    gradient_summability_probe,
    kolmogorov_suite,
    ou_semigroup_estimate,
    picard_norm_bound,
    picard_u_lambda,
)
from spdelab.spectral import make_heat_operator

import oracles
from oracles import (
    decay_rows_dense,
    drift_test_function,
    mean_stderr,
    summability_gradient_dense,
    summability_gradient_monte_carlo,
)

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
    # the Monte Carlo oracle's drift observable reads the drift at each call,
    # with the operator's eigenvalues of the state's modes
    h = drift_test_function(DRIFT, make_heat_operator(16), time=0.25)
    seen = []
    monkeypatch.setattr(oracles, "drift_array", lambda spec, lam, t, x: seen.append((lam.tolist(), t)) or x)
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
    # 1000-row blocks, so each point pass takes three and its helper draws ahead
    monkeypatch.setattr(kolmogorov, "_BLOCK_NUMBERS", 1000 * 4)
    before = threading.active_count()
    kolmogorov_suite(heat16, DRIFT, 0.45, m_samples=3000, decay_modes=(1, 4, 16))
    assert threads == {threading.get_ident()}
    assert max(counts) == before + 1  # a helper was drawing meanwhile
    assert threading.active_count() == before


def test_gradient_decay_refuses_no_modes_before_drawing(heat16, monkeypatch):
    monkeypatch.setattr(kolmogorov, "_gaussian_gradient", mock.Mock(side_effect=AssertionError("evaluated")))
    with pytest.raises(ValueError, match="at least one mode"):
        gradient_decay_check(heat16, DRIFT, 0.25, np.ones(16), ())


def test_gradient_decay_draws_nothing(monkeypatch):
    # every row is a quadrature, so neither sampler binding is called, at the
    # kolmogorov-probe shape
    for name in ("ou_joint_modes_batch", "ou_transition_sample"):
        monkeypatch.setattr(kolmogorov, name, mock.Mock(side_effect=AssertionError("drew")))
    x = 1.0 / np.arange(1.0, 65.0)
    assert gradient_decay_check(make_heat_operator(64), DRIFT, 0.25, x, (1, 4, 16, 64))["bounded"] is True


@pytest.mark.parametrize("decay_modes", [(), (0, 4), (1, 17)], ids=["none", "zero", "beyond-n-max"])
def test_suite_refuses_decay_modes_before_drawing(heat16, monkeypatch, decay_modes):
    # no modes used to fail in max() after both point-check passes had drawn
    for name in ("ou_joint_modes_batch", "ou_transition_sample"):
        monkeypatch.setattr(kolmogorov, name, mock.Mock(side_effect=AssertionError("drew")))
    with pytest.raises(ValueError, match=r"decay modes must be a non-empty list of indices in 1\.\.16"):
        kolmogorov_suite(heat16, DRIFT, 0.45, m_samples=100_000, decay_modes=decay_modes)


def test_gradient_decay_report(heat16):
    x = 1.0 / np.arange(1.0, 17.0)
    report = gradient_decay_check(heat16, DRIFT, 0.25, x, (1, 2, 4))
    assert report["bounded"] is True
    assert 0.0 < report["max_ratio"] < 1.0
    assert report["sup_bound"] == kolmogorov._drift_sup(DRIFT, heat16, 16)
    sizes = [row["estimate"] for row in report["rows"]]
    assert sizes[0] > sizes[1] > sizes[2] > 0.0
    assert [row["mode"] for row in report["rows"]] == [1, 2, 4]
    assert [row["t"] for row in report["rows"]] == [1.0, 0.25, 1.0 / 16.0]
    assert {row["stderr"] for row in report["rows"]} == {0.0}
    assert report["max_ratio"] == max(max(row["bound_ratio"], row["holder_ratio"]) for row in report["rows"])
    # plain Python numbers, so the record is summary.json's as it stands
    assert {type(v) for row in report["rows"] for v in row.values()} == {int, float}
    assert type(report["max_ratio"]) is float and type(report["sup_bound"]) is float
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, DRIFT, 0.25, x, (0,))
    with pytest.raises(ValueError):
        gradient_decay_check(heat16, DRIFT, 0.25, x, (17,))
    with pytest.raises(ValueError, match="more modes than the operator"):
        gradient_decay_check(heat16, DRIFT, 0.25, np.ones(17), (1,))


def test_gradient_decay_matches_per_mode_bismut(heat16):
    # the Monte Carlo oracle: bismut_gradient along e_i at t_i = 1/lam_i, for
    # each drift kind; seeds and sample sizes were fixed before the first run;
    # the entry the row measures (mode i, or mode 1 for rank_one) lies within
    # 4 standard errors of the signed exact value, whose size is the row, and
    # every other entry, exactly 0, within 5, or is exact where it has no spread
    x, modes = 1.0 / np.arange(1.0, 17.0), (1, 4, 16)
    index = np.array(modes) - 1
    lam = heat16.eigenvalues[index]
    for kind in ("diagonal", "rank_one", "smooth_baseline"):
        spec = dataclasses.replace(DRIFT, kind=kind)
        rows = gradient_decay_check(heat16, spec, 0.25, x, modes)["rows"]
        f = drift_test_function(spec, heat16, time=0.25)
        for row, signed in zip(rows, kolmogorov._gaussian_gradient(spec, lam, 0.25, 1.0 / lam, x[index])):
            i = row["mode"]
            assert row["estimate"] == abs(signed)
            column = 0 if kind == "rank_one" else i - 1
            exact = np.zeros(16)
            exact[column] = signed
            for seed in (4, 2024):
                for m in (4000, 16000):
                    (mean,), (se,) = bismut_gradient(heat16, [f], row["t"], x, np.eye(16)[i - 1 : i], m, seed)
                    assert np.array_equal(mean[se == 0.0], exact[se == 0.0])
                    z = np.abs(mean - exact) / np.where(se == 0.0, 1.0, se)
                    assert z[column] <= 4.0, (kind, i, seed, m, z[column])
                    assert np.delete(z, column).max() <= 5.0, (kind, i, seed, m)


@pytest.mark.parametrize("kind", ["diagonal", "rank_one", "smooth_baseline"])
def test_gradient_decay_matches_a_dense_rule(kind):
    # the rows against a 400,001-point midpoint rule in z, at t_i = 1/lam_i
    # and at the old fixed time 0.5, where the diagonal's rows are 0.4463,
    # 9.33e-5, 2.05e-57 and 0 on modes 1, 4, 16 and 64; rank_one's per-mode
    # term is the diagonal's, so the diagonal's reference serves it too
    spec = dataclasses.replace(DRIFT, kind=kind)
    reference = dataclasses.replace(DRIFT, kind="diagonal") if kind == "rank_one" else spec
    op, modes = make_heat_operator(64), (1, 4, 16, 64)
    x = 1.0 / np.arange(1.0, 65.0)
    index = np.array(modes) - 1
    lam = op.eigenvalues[index]
    rows = gradient_decay_check(op, spec, 0.25, x, modes)["rows"]
    exact = decay_rows_dense(reference, lam, 1.0 / lam, x[index])
    np.testing.assert_allclose([row["estimate"] for row in rows], np.abs(exact), rtol=1e-9, atol=0)
    at_half = kolmogorov._gaussian_gradient(spec, lam, 0.25, 0.5, x[index])
    exact = decay_rows_dense(reference, lam, np.full(4, 0.5), x[index])
    np.testing.assert_allclose(at_half, exact, rtol=1e-9, atol=0)
    if kind != "smooth_baseline":
        assert [f"{v:.3g}" for v in at_half[:3]] == ["0.446", "9.33e-05", "2.05e-57"]
        assert at_half[3] == 0.0


@pytest.mark.parametrize("kind", ["diagonal", "rank_one", "smooth_baseline"])
@pytest.mark.parametrize("n, modes", [(16, (1, 4, 16)), (64, (1, 4, 16, 64))], ids=["test-size", "probe-shape"])
def test_gradient_decay_holder_ratios_lie_in_the_unit_interval(kind, n, modes):
    # unmutated, every row is positive and within its Holder bound; past mode 1
    # the canonical drift attains 0.919 of it
    spec = dataclasses.replace(DRIFT, kind=kind)
    report = gradient_decay_check(make_heat_operator(n), spec, 0.25, 1.0 / np.arange(1.0, n + 1.0), modes)
    ratios = [row["holder_ratio"] for row in report["rows"]]
    assert all(0.0 < r <= 1.0 for r in ratios), ratios
    assert report["bounded"] is True
    if kind != "smooth_baseline":
        np.testing.assert_allclose(ratios, [0.7674, *[0.9192] * (len(modes) - 1)], atol=5e-5)


def _rebound(**changes):
    """A drift_array that evaluates the spec it is given with ``changes`` applied."""
    return lambda spec, lam, t, x: drift_array(dataclasses.replace(spec, **changes), lam, t, x)


@pytest.mark.parametrize(
    "mutant, bounded",
    [
        (_rebound(epsilon=0.45), False),  # psi's exponent halved
        (_rebound(beta=0.4), False),
        (_rebound(amplitude=1.1), False),
        (_rebound(kind="smooth_baseline"), True),  # tanh in place of psi: smoother, rightly passes
        (_rebound(amplitude=0.0), True),  # a zero drift, whose rows sit at ratio 0 (test_cli pins the CLI's)
    ],
    ids=["exponent-halved", "beta-0.4", "amplitude-1.1", "tanh", "zero"],
)
def test_gradient_decay_gate_catches_wrong_drifts(heat16, monkeypatch, mutant, bounded):
    # the mutant is bound to the module's drift_array, as the benchmark's
    # tracer wraps it, while the bounds still read the unmutated spec
    monkeypatch.setattr(kolmogorov, "drift_array", mutant)
    report = gradient_decay_check(heat16, DRIFT, 0.25, 1.0 / np.arange(1.0, 17.0), (1, 4, 16))
    assert report["bounded"] is bounded
    assert (report["max_ratio"] > 1.0 + 1e-9) is not bounded


def test_gradient_decay_refuses_a_row_that_is_not_finite(heat16, monkeypatch):
    # a drift that is infinite on mode 4 alone; the message names the mode,
    # not its place among the checked modes
    monkeypatch.setattr(kolmogorov, "drift_array", lambda spec, lam, t, x: np.where(lam == 16.0, np.inf, 1.0) * x)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError) as raised:
        gradient_decay_check(heat16, DRIFT, 0.25, 1.0 / np.arange(1.0, 17.0), (16, 4, 1))
    assert str(raised.value) == "gradient_decay_check: exact row or Holder bound is not finite, first at mode 4"


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gradient_decay_memory_is_one_values_array():
    # the check holds one (2, GAUSS_NODES + 1, k) array of drift values at its
    # quadrature points and a few of that size, not the (m, n) values of a
    # Monte Carlo pass (51 MB at m = 100,000 and n = 64); the rule is formed first
    op, modes = make_heat_operator(64), (1, 4, 16, 64)
    x = 1.0 / np.arange(1.0, 65.0)
    kolmogorov._cusp_rule()
    peak = _peak_bytes(lambda: gradient_decay_check(op, DRIFT, 0.25, x, modes))
    assert peak <= 16 * 2 * (kolmogorov.GAUSS_NODES + 1) * len(modes) * 8


def test_estimator_memory_does_not_grow_with_samples():
    # every Monte Carlo estimator draws and reduces fixed-size blocks, so its
    # peak at 50,000 samples is within 0.5 MB of its peak at 5,000
    op, n = make_heat_operator(64), 64
    x = 1.0 / np.arange(1.0, n + 1.0)
    eta = np.linspace(1.0, 0.25, n)
    f_lin = coordinate(n)
    f_smooth = tanh_form(np.linspace(1.0, 0.125, n), np.eye(n)[0])

    estimators = {
        "semigroup": lambda m: ou_semigroup_estimate(op, [f_lin], 0.5, x, m, seed=3),
        "bismut": lambda m: bismut_gradient(op, [f_smooth], 0.5, x, eta[None], m, seed=3),
        "finite_difference": lambda m: ou_semigroup_estimate(
            op, [kolmogorov._difference_quotient(op, f_smooth, 0.5, x, eta)], 0.5, x, m, seed=3
        ),
    }
    for name, run in estimators.items():
        small, large = (_peak_bytes(lambda: run(m)) for m in (5_000, 50_000))
        assert abs(large - small) <= 0.5e6, (name, small, large)


def test_gradient_decay_vanishes_at_large_time(heat16):
    # carried for t = 20, the exact per-mode gradient is below e^(-20) of the drift's size
    x = 1.0 / np.arange(1.0, 3.0)
    rows = kolmogorov._gaussian_gradient(DRIFT, heat16.eigenvalues[:2], 0.25, 20.0, x)
    assert np.all(np.abs(rows) < 1e-8)
    assert np.all(rows != 0.0)


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
    # nor does the decay check, which shares its rule; the Gauss-Legendre
    # nodes are formed at first use, not at import, and by Newton's method:
    # numpy.polynomial costs about 0.8 MB of resident memory, its leggauss
    # 1.2 MB more and a LAPACK eigen-solver 2 MB, against the benchmark's peak
    # memory; a fresh interpreter shows what is loaded
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
        kolmogorov.gradient_decay_check(make_heat_operator(16), spec, 0.25, np.ones(16), (1, 16))
        assert kolmogorov._cusp_rule.cache_info().currsize == 1, "not formed by the decay check"
        assert "numpy.polynomial" not in sys.modules, "numpy.polynomial imported by the decay check"
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


def _suite_draws(m_samples, dims) -> int:
    """States the suite draws: one transition pass for the semigroup and the
    finite difference and one joint pass for both Bismut gradients at dims
    modes, and the three Picard evaluations of the lam sweep at 3 modes; the
    decay check and the summability probe draw none."""
    return 2 * m_samples * dims + 3 * PICARD_NODES * PICARD_SAMPLES * 3


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
    assert sum(drawn) == _suite_draws(3000, 4)
    # the kolmogorov-probe benchmark workload: m = 10^5; 9,334,016 while the
    # summability probe drew 8 * 4096 states of 64 modes, and 7,236,864 while
    # the decay check drew 10^5 states of 64 modes
    assert _suite_draws(100_000, 4) == 836_864


def _suite_normals(m_samples, dims) -> int:
    """Normals the suite draws: a state's per mode, and a joint draw's weight
    normals on the modes its directions touch, every mode for the suite's
    dense direction."""
    return m_samples * dims + 2 * m_samples * dims + 3 * PICARD_NODES * PICARD_SAMPLES * 3


def test_suite_draws_only_the_normals_it_reads(heat16, monkeypatch):
    # every normal a sampler asks its rng for, counted at the module's
    # sampler bindings; the decay modes add none
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
    assert sum(requested) == _suite_normals(3000, 4)
    # the kolmogorov-probe benchmark workload, against 19,431,168 when every
    # estimator drew weights on all modes and the shared passes were drawn
    # twice, 12,231,168 while the summability probe drew 8 * 4096 * 128, and
    # 8,036,864 while the decay check drew 10^5 * (64 + 4)
    assert _suite_normals(100_000, 4) == 1_236_864


def _decay_csv(result) -> str:
    """The suite's decay rows as kolmogorov-check writes them to report.csv."""
    return cli._csv("i,estimate,stderr,t,bound_ratio,holder_ratio", (row.values() for row in result["decay"]["rows"]))


# re-recorded when each joint draw began to take a sample's z1 and z2
# together, and the decay rows again when the decay check's joint draw began
# to take weight normals only on the checked modes; the summability line
# when the probe's gradients became exact in space (the Monte Carlo
# estimate read 1.0016); the decay rows and line when the rows became exact
# at t = 1/lam_i with a Holder bound (Monte Carlo at t = 0.5 read 0.4587,
# 0.01025, 2.2e-4 and 1.0e-4 against exact 0.4463, 9.33e-5, 2.05e-57 and 0);
# the suite must reproduce it byte for byte
GOLDEN_DECAY_CSV = (
    "i,estimate,stderr,t,bound_ratio,holder_ratio\n"
    "1,0.2951195843985753,0.0,1.0,0.2486315520355419,0.7674049732532092\n"
    "4,0.1015144081704249,0.0,0.0625,0.021380896246531923,0.9191962797311882\n"
    "16,0.029152358799433183,0.0,0.00390625,0.001535012541731848,0.9191962917433713\n"
    "64,0.008371816649298059,0.0,0.000244140625,0.00011020414884919946,0.9191962917433714\n"
)
GOLDEN_DETAILS = [
    ("semigroup_linear_closed_form", "|0.596154 - 0.606531| vs 3*stderr = 0.0366", True),
    ("bismut_linear_closed_form", "|0.552888 - 0.606531| vs 3*stderr = 0.0769", True),
    ("bismut_matches_finite_difference", "max relative gap 0.0754 over 1 significant coordinates", False),
    ("gradient_decay_bounded", "max ratio 0.9192 to the Holder and sup bounds over modes (1, 4, 16, 64)", True),
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
# the summability lines again when the probe became exact in space (the
# estimates read 1.0024 and 1.0014), and the decay rows and lines when the
# rows became exact at t = 1/lam_i (rank_one's rows are the diagonal's, with
# its larger sup bound); the point checks read no drift, so only the decay
# rows and the details from the decay line on can differ from the diagonal
# drift's
GOLDEN_KIND_DECAY_CSV = {
    "rank_one": (
        "i,estimate,stderr,t,bound_ratio,holder_ratio\n"
        "1,0.2951195843985753,0.0,1.0,0.066902056678135,0.7674049732532092\n"
        "4,0.1015144081704249,0.0,0.0625,0.005753195524879815,0.9191962797311882\n"
        "16,0.029152358799433183,0.0,0.00390625,0.00041304289511056035,0.9191962917433713\n"
        "64,0.008371816649298059,0.0,0.000244140625,2.9653855884794595e-05,0.9191962917433714\n"
    ),
    "smooth_baseline": (
        "i,estimate,stderr,t,bound_ratio,holder_ratio\n"
        "1,0.2503837483307677,0.0,1.0,0.21094262544053594,0.6510775422864098\n"
        "4,0.08614680135615463,0.0,0.0625,0.01814418125429365,0.7800451260512685\n"
        "16,0.02222849487482802,0.0,0.00390625,0.0011704376531392906,0.7008815375987937\n"
        "64,0.005568649589389282,0.0,0.000244140625,7.330407651600267e-05,0.6114183177929554\n"
    ),
}
GOLDEN_KIND_DETAILS = {
    "rank_one": GOLDEN_DETAILS[:3] + [
        ("gradient_decay_bounded", "max ratio 0.9192 to the Holder and sup bounds over modes (1, 4, 16, 64)", True),
        ("picard_terminal_zero", "value at t = horizon", True),
        ("picard_norm_bound", "norms 0.4251 <= 1.159, 0.09985 <= 0.1833, 0.0002799 <= 0.01833", True),
        ("picard_smallness_trend", "norms along the sweep: 0.4251, 0.09985, 0.0002799", True),
        ("summability_non_exploding", "partial sum growth ratio 1.0000 at theta = 0.45", True),
    ],
    "smooth_baseline": GOLDEN_DETAILS[:3] + [
        ("gradient_decay_bounded", "max ratio 0.7800 to the Holder and sup bounds over modes (1, 4, 16, 64)", True),
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
