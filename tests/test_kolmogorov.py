"""Tests for the Kolmogorov-side estimators: semigroup means, gradients,
Picard iterates, and the bundled diagnostic suite."""

import math
import tracemalloc
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
from spdelab.spectral import ModeVector, make_heat_operator

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


def test_gradient_decay_matches_per_mode_bismut(heat16, monkeypatch):
    # oracle: one bismut_gradient call per mode along e_i with the shared seed.
    # 300-row blocks split m = 2000 into six full blocks and a short last one,
    # and 1999-row blocks leave a one-row last block, so the carried sums are
    # exercised; the one-mode states check that an (m, 1) column, which numpy
    # sums pairwise, is reduced the same way for one mode and for several,
    # also for a repeated mode; a repeated mode on a 16-mode state gives two
    # equal rows.
    t, m, seed = 0.5, 2000, 2024
    cases = [
        (16, (1, 2, 4, 16), None),
        (16, (1, 2, 4, 16), 300),
        (1, (1,), 300),
        (1, (1, 1), 300),
        (1, (1, 1), None),
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
        bounded = True
        assert [row.mode for row in report.rows] == list(modes)
        for row, i in zip(report.rows, modes):
            est, se = bismut_gradient(heat16, f, t, x, ModeVector(np.eye(n)[i - 1]), m, seed=seed)
            size = est.norm()
            se_size = float(np.linalg.norm(se))
            lam_i = float(heat16.eigenvalues[i - 1])
            theory = f.bound * math.sqrt(-math.expm1(-2.0 * lam_i * t)) / (math.sqrt(lam_i) * t)
            assert row.estimate == size
            assert row.stderr == se_size
            assert row.bound_ratio == size / theory
            bounded = bounded and not size > theory + 3.0 * se_size
        assert report.max_ratio == max(row.bound_ratio for row in report.rows)
        assert report.bounded is bounded


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
    """States the suite draws: semigroup, two Bismut gradients and the finite
    difference at dims modes, the decay check at n_decay modes, three depth-1
    Picard evaluations and the summability probe at n_decay modes."""
    return (
        4 * m_samples * dims
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
    assert _suite_draws(100_000, 4, 64, picard) == 10_134_016


# re-recorded when each joint draw began to take a sample's z1 and z2
# together; the suite must reproduce it byte for byte
GOLDEN_DECAY_CSV = (
    "i,estimate,stderr,bound_ratio\n"
    "1,0.4458412689818409,0.01648888404917244,0.21965059902493758\n"
    "4,0.008998326943672454,0.005477144505719316,0.014098531142549296\n"
    "16,0.0007189286791057589,0.0014129451539034985,0.0045056543798745255\n"
    "64,0.0003367194925398295,0.0003429267544860302,0.008441124692581804\n"
)
GOLDEN_DETAILS = [
    ("semigroup_linear_closed_form", "|0.596154 - 0.606531| vs 3*stderr = 0.0366", True),
    ("bismut_linear_closed_form", "|0.552888 - 0.606531| vs 3*stderr = 0.0769", True),
    ("bismut_matches_finite_difference", "max relative gap 0.0754 over 1 significant coordinates", False),
    ("gradient_decay_bounded", "max bound ratio 0.2197 over modes (1, 4, 16, 64)", True),
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
