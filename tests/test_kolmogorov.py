"""Tests for the Kolmogorov-side estimators: semigroup means, gradients,
Picard iterates, and the bundled diagnostic suite."""

import math
import tracemalloc

import numpy as np
import pytest

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
    # sums pairwise, is still reduced exactly, also for a repeated mode, where
    # a fused (m, 2, 1) sum would go row by row; a repeated mode on a 16-mode
    # state gives two equal rows of one fused pass.
    t, m, seed = 0.5, 2000, 2024
    cases = [
        (16, (1, 2, 4, 16), None),
        (16, (1, 2, 4, 16), 300),
        (1, (1,), 300),
        (1, (1, 1), 300),
        (2, (2, 1), 300),
        (16, (3, 3, 1), 300),
        (16, (5, 2), 1999),
    ]
    for n, modes, chunk_rows in cases:
        if chunk_rows is not None:
            monkeypatch.setattr(kolmogorov, "_DECAY_CHUNK_ROWS", chunk_rows)
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


def test_gradient_decay_memory_is_one_values_array():
    # the streamed check holds the (m, n) values of f and chunk-sized buffers,
    # not the whole joint draw and a per-mode (m, n) product
    op = make_heat_operator(64)
    m, n = 50_000, 64
    f = drift_test_function(DRIFT, op, n, time=0.25)
    x = ModeVector(1.0 / np.arange(1.0, n + 1.0))
    tracemalloc.start()
    try:
        gradient_decay_check(op, f, 0.5, x, (1, 4, 16, 64), m, seed=2024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * m * n * 8


def test_gradient_decay_memory_is_values_and_selected_columns():
    # beyond the (m, n) values of f and the (m, k) selected weight columns the
    # check holds only block-sized buffers
    op = make_heat_operator(64)
    m, n, modes = 50_000, 64, (1, 4, 16, 64)
    f = drift_test_function(DRIFT, op, n, time=0.25)
    x = ModeVector(1.0 / np.arange(1.0, n + 1.0))
    tracemalloc.start()
    try:
        gradient_decay_check(op, f, 0.5, x, modes, m, seed=2024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (m * n + m * len(modes)) * 8 + 4e6


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
    assert diag["depth"] == 1
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


def test_picard_depth_two_smoke(heat16):
    cfg = PicardConfig(lam=1.0, depth=2, dims=2, time_nodes=2, outer_samples=4, inner_samples=4)
    value, diag = picard_u_lambda(cfg, heat16, DRIFT, 0.0, ModeVector([1.0, 0.5]), seed=2)
    assert diag["depth"] == 2
    assert diag["completed"] is True
    assert "stderr" not in diag
    assert np.all(np.isfinite(value.coeffs))


def test_picard_golden(heat16, monkeypatch):
    # recorded when picard_u_lambda and _picard_level each carried their own
    # node loop; the values, the draw order and the budget accounting must
    # not move.  The 380-sample budget runs out inside the third node's
    # inner loop, after six of its twelve-sample inner draws.
    depth1 = PicardConfig(lam=2.0, dims=3, time_nodes=4, outer_samples=64)
    value, diag = picard_u_lambda(depth1, heat16, DRIFT, 0.3, ModeVector([1.0, 0.5, 1.0 / 3.0]), seed=9)
    assert value.coeffs.tolist() == [0.21512874556359815, 0.040588905823528525, 0.010166208548707747]
    assert diag.pop("stderr").tolist() == [0.006231320171272336, 0.003394402893084424, 0.0017339315351508902]
    assert diag == {"completed": True, "samples_used": 256, "nodes_done": 4, "nodes_total": 4, "depth": 1}
    expected = {
        5_000_000: ([0.3535129575428056, -0.14639362257981947], True, 450, 3),
        380: ([0.2577554253061074, -0.16471926087533656], False, 378, 2),
    }
    for budget, (coeffs, completed, used, nodes) in expected.items():
        monkeypatch.setattr(kolmogorov, "PICARD_SAMPLE_BUDGET", budget)
        cfg = PicardConfig(lam=1.0, depth=2, dims=2, time_nodes=3, outer_samples=6, inner_samples=4)
        value, diag = picard_u_lambda(cfg, heat16, DRIFT, 0.25, ModeVector([1.0, 0.5]), seed=5)
        assert value.coeffs.tolist() == coeffs
        assert diag == {
            "completed": completed,
            "samples_used": used,
            "nodes_done": nodes,
            "nodes_total": 3,
            "depth": 2,
        }


def test_picard_validation(heat16):
    with pytest.raises(ValueError):
        PicardConfig(lam=0.0)
    with pytest.raises(ValueError):
        PicardConfig(lam=1.0, depth=3)
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


# recorded with the per-mode loop of earlier releases (one joint draw and one
# drift evaluation per decay mode); the suite must reproduce it byte for byte
GOLDEN_DECAY_CSV = (
    "i,estimate,stderr,bound_ratio\n"
    "1,0.43872675580090975,0.01634588992647181,0.2161455240337169\n"
    "4,0.008207499843969209,0.005643805460917406,0.012859467418444633\n"
    "16,0.0012179861945164256,0.0013749328194287952,0.007633336924012661\n"
    "64,8.0763117895624e-05,0.000357617518791521,0.0020246275128785636\n"
)
GOLDEN_DETAILS = [
    ("semigroup_linear_closed_form", "|0.596154 - 0.606531| vs 3*stderr = 0.0366", True),
    ("bismut_linear_closed_form", "|0.55661 - 0.606531| vs 3*stderr = 0.0763", True),
    ("bismut_matches_finite_difference", "max relative gap 0.0722 over 1 significant coordinates", False),
    ("gradient_decay_bounded", "max bound ratio 0.2161 over modes (1, 4, 16, 64)", True),
    ("picard_terminal_zero", "value at t = horizon", True),
    ("picard_norm_bound", "norms 0.3654 <= 0.7375, 0.07972 <= 0.1167, 0.0002187 <= 0.01167", True),
    ("picard_smallness_trend", "norms along the sweep: 0.3654, 0.07972, 0.0002187", True),
    ("summability_non_exploding", "partial sum growth ratio 1.0021 at theta = 0.45", True),
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
