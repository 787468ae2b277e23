"""Tests for rate theory, the error functional, and the study drivers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab import (
    HolderDriftSpec,
    HypothesisViolation,
    InitialData,
    NoiseLattice,
    RateParams,
    SchemeConfig,
    increment_statistic,
    make_heat_operator,
    rate_exponent,
    simulate_path,
    spatial_study,
    temporal_study,
    theoretical_nu,
)
from spdelab.analysis import (
    CSV_HEADER,
    OFFGRID_RULE,
    _driftless_increment_means,
    _driftless_increment_slope,
    _increment_chunk,
    _ladder_chunk,
    _slope_stderr,
    fit_rate,
    integrated_square_error,
)
from spdelab import scheme
from spdelab.drift import drift_array
from spdelab.scheme import Trajectory

CANONICAL = RateParams(alpha=0.45, beta=0.5, epsilon=0.9)

DRIFT = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, time_mod="cosine")
DRIFTLESS = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, amplitude=0.0)
INITIAL = InitialData(profile="power_decay", q=3.0)


def test_rate_params_validation():
    for bad in (dict(alpha=0.0), dict(alpha=1.0), dict(beta=0.0), dict(epsilon=0.0), dict(epsilon=1.0)):
        args = dict(alpha=0.45, beta=0.5, epsilon=0.9)
        args.update(bad)
        with pytest.raises(ValueError):
            RateParams(**args)


def test_theoretical_nu_canonical():
    assert theoretical_nu(CANONICAL) == pytest.approx(0.08225, rel=1e-12)


def test_theoretical_nu_rejections():
    with pytest.raises(HypothesisViolation) as exc:
        theoretical_nu(RateParams(alpha=0.49, beta=1.0, epsilon=0.7))
    assert exc.value.hypothesis == "rate_exponent_positive"
    with pytest.raises(HypothesisViolation) as exc:
        theoretical_nu(RateParams(alpha=0.99, beta=1.0, epsilon=0.99))
    assert exc.value.hypothesis == "rate_exponent_below_half"
    # both gates violated: the weight constraint is checked first
    weak = RateParams(alpha=0.1, beta=0.1, epsilon=0.5)
    assert rate_exponent(weak) < 0.0
    with pytest.raises(HypothesisViolation) as exc:
        theoretical_nu(weak)
    assert exc.value.hypothesis == "drift_weight_constraint"


def test_rate_exponent_is_ungated():
    assert rate_exponent(RateParams(alpha=0.49, beta=1.0, epsilon=0.7)) == pytest.approx(
        -0.03995, rel=1e-12
    )


def test_admissibility_boundary_in_epsilon():
    # with beta large the positivity threshold is alpha > (2-eps)/(2+eps^2);
    # at eps = sqrt(3)-1 that threshold sits exactly at 1/2, so no alpha < 1/2
    # works there, while eps = 0.75 leaves a sliver
    crossing = math.sqrt(3.0) - 1.0
    assert crossing == pytest.approx(0.7320508075688772, rel=1e-15)
    assert (2.0 - crossing) / (2.0 + crossing**2) >= 0.5
    assert (2.0 - 0.75) / (2.0 + 0.75**2) == pytest.approx(0.4878048780487805, rel=1e-12)
    assert theoretical_nu(RateParams(alpha=0.49, beta=1.0, epsilon=0.75)) == pytest.approx(
        0.0028125, abs=1e-12
    )
    with pytest.raises(HypothesisViolation) as exc:
        theoretical_nu(RateParams(alpha=0.48, beta=1.0, epsilon=0.75))
    assert exc.value.hypothesis == "rate_exponent_positive"


@given(
    alpha=st.floats(min_value=0.05, max_value=0.95),
    eps=st.floats(min_value=0.05, max_value=0.95),
    bump=st.floats(min_value=0.001, max_value=0.04),
)
def test_rate_exponent_monotone_on_smooth_branch(alpha, eps, bump):
    # with beta = 1 the min() always picks alpha*eps^2, and the exponent
    # grows in both alpha and eps
    base = rate_exponent(RateParams(alpha=alpha, beta=1.0, epsilon=eps))
    assert rate_exponent(RateParams(alpha=alpha + bump, beta=1.0, epsilon=eps)) > base
    assert rate_exponent(RateParams(alpha=alpha, beta=1.0, epsilon=eps + bump)) > base


def test_fit_rate_exact_half_power():
    h = 2.0 ** -np.arange(1, 7, dtype=float)
    slope, intercept, r2 = fit_rate(h, h**0.5)
    assert slope == pytest.approx(0.5, rel=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_two_points():
    slope, _, r2 = fit_rate(np.array([1.0, 0.5]), np.array([1.0, 0.25]))
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_with_multiplicative_noise():
    h = 2.0 ** -np.arange(1, 7, dtype=float)
    wiggle = np.exp(0.05 * np.random.default_rng(7).standard_normal(6))
    slope, _, _ = fit_rate(h, h**0.5 * wiggle)
    assert slope == pytest.approx(0.5161604237127557, rel=1e-12)
    assert abs(slope - 0.5) < 0.05


def test_fit_rate_scaling_invariance():
    h = 2.0 ** -np.arange(1, 7, dtype=float)
    err2 = h**0.7
    base, _, _ = fit_rate(h, err2)
    scaled, _, _ = fit_rate(h, 17.0 * err2)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_rate(np.array([1.0, 0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_rate(np.array([1.0, -0.5]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        fit_rate(np.array([1.0, 0.5]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        fit_rate(np.array([1.0, 0.5]), np.array([1.0, math.nan]))


def _lattice(levels=4, n_modes=8, seed=3, scale=1.0):
    return NoiseLattice(master_seed=seed, horizon=1.0, levels=levels, n_modes=n_modes, scale=scale)


def _config(level, n_dim, n_op=8):
    return SchemeConfig(make_heat_operator(n_op), DRIFT, INITIAL, 1.0, level, n_dim)


def test_integrated_error_of_path_with_itself_is_zero():
    lat = _lattice()
    traj = simulate_path(_config(4, 8), lat, 0)
    assert integrated_square_error(traj, traj, lat) == 0.0


def test_integrated_error_constant_offset():
    lat = _lattice(levels=3)
    cfg = _config(3, 4)
    traj = simulate_path(cfg, lat, 0)
    v = np.array([0.2, -0.1, 0.05, 0.3])
    shifted = Trajectory(cfg, 0, traj.grid + v)
    got = integrated_square_error(shifted, traj, lat)
    # left Riemann sum of a constant ||v||^2 over [0, T]
    assert got == pytest.approx(float(np.sum(v**2)), rel=1e-12)
    # shifting the other way gives the same distance (up to the rounding of
    # grid +- v itself, which perturbs the stored offsets)
    flipped = integrated_square_error(Trajectory(cfg, 0, traj.grid - v), traj, lat)
    assert flipped == pytest.approx(got, rel=1e-12)


def test_integrated_error_mode_limit_monotone():
    lat = _lattice(levels=4)
    ref = simulate_path(_config(4, 8), lat, 1)
    approx = simulate_path(_config(2, 4), lat, 1)
    vals = [integrated_square_error(ref, approx, lat, n_limit=n) for n in range(4, 9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == integrated_square_error(ref, approx, lat)


def test_integrated_error_validation():
    lat = _lattice(levels=4)
    ref = simulate_path(_config(4, 8), lat, 1)
    approx = simulate_path(_config(2, 4), lat, 1)
    other = simulate_path(_config(2, 4), lat, 2)
    with pytest.raises(ValueError):
        integrated_square_error(ref, other, lat)
    with pytest.raises(ValueError):
        integrated_square_error(approx, ref, lat)
    with pytest.raises(ValueError):
        integrated_square_error(ref, approx, lat, n_limit=0)
    with pytest.raises(ValueError):
        integrated_square_error(ref, approx, lat, n_limit=9)
    with pytest.raises(ValueError):
        integrated_square_error(ref, approx, _lattice(levels=3))
    # the approximation's sub-step values come from the lattice, so a grid
    # that is not the scheme's path on it is refused, not half used
    for level in (2, 4):
        elsewhere = simulate_path(_config(level, 4), _lattice(levels=4, seed=4), 1)
        with pytest.raises(ValueError, match="not the scheme's path"):
            integrated_square_error(ref, elsewhere, lat)


def test_one_drift_evaluation_per_step(monkeypatch):
    # each scheme step gives its next state and its sub-step values from one
    # kernel call, so the drift is evaluated once per step and path
    states = []

    def counting(spec, lam, t, x):
        states.append(x.size // x.shape[-1])
        return drift_array(spec, lam, t, x)

    monkeypatch.setattr(scheme, "drift_array", counting)
    lat = _lattice(levels=6)
    path_ids = [0, 1, 2]
    ref_cfg, configs = _config(5, 8), [_config(lev, 8) for lev in (2, 3, 4)]
    _ladder_chunk((ref_cfg, configs, lat, path_ids))
    assert sum(states) == len(path_ids) * sum(cfg.steps for cfg in [ref_cfg, *configs])
    states.clear()
    levels = [2, 3, 4]
    _increment_chunk((make_heat_operator(8), DRIFT, INITIAL, lat, levels, 8, (0.25, 0.5), path_ids))
    assert sum(states) == len(path_ids) * sum(1 << lev for lev in levels)


def _temporal(workers=1):
    lat = NoiseLattice(master_seed=31, horizon=1.0, levels=7, n_modes=8)
    return temporal_study(
        make_heat_operator(8),
        DRIFT,
        INITIAL,
        lat,
        levels=[3, 4, 5],
        ref_level=7,
        n_dim=8,
        m_paths=40,
        rate=CANONICAL,
        workers=workers,
        chunk_size=10,
    )


def test_temporal_study_report_shape():
    report = _temporal()
    assert report.study == "temporal"
    assert [r.resolution for r in report.rows] == [3, 4, 5]
    assert [r.delta for r in report.rows] == [0.125, 0.0625, 0.03125]
    assert all(r.n_modes == 8 and r.m_paths == 40 for r in report.rows)
    assert report.nu_theory == pytest.approx(0.08225, rel=1e-12)
    assert set(report.pass_flags) == {
        "err2_strictly_decreasing",
        "slope_at_least_nu_minus_margin",
        "r2_at_least_min",
    }
    assert report.passed == all(report.pass_flags.values())
    assert report.summary_dict()["offgrid_rule"] == OFFGRID_RULE
    text = report.csv_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert text.endswith("\n")
    summary = report.summary_dict()
    assert summary["study"] == "temporal"
    assert summary["nu_theory"] == report.nu_theory
    assert summary["pass"] == report.passed
    assert summary["fit_points"] == report.fit_points == 3
    # errors shrink as the step refines on this toy ladder
    means = [r.err2_mean for r in report.rows]
    assert means[0] > means[1] > means[2]


def test_temporal_study_worker_count_invariance():
    solo = _temporal(workers=1)
    pooled = _temporal(workers=2)
    assert solo.csv_text() == pooled.csv_text()
    assert solo.slope == pooled.slope


@pytest.mark.parametrize("workers, pool_size", [(2, 2), (4, 4), (8, 4)])
def test_pool_is_no_larger_than_the_chunk_count(monkeypatch, workers, pool_size):
    # an executor may start all max_workers processes at its first submit, so
    # a pool larger than the 4 chunks of _temporal would fork idle processes
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr("spdelab.analysis.ProcessPoolExecutor", InProcessPool)
    assert _temporal(workers=workers).csv_text() == _temporal(workers=1).csv_text()
    assert sizes == [pool_size]


# Golden study outputs, recorded when each study still wrote out its own copy
# of the sub-step formula and its own chunk worker; they pin the bytes the
# shared kernel and ladder driver must reproduce.
GOLDEN_TEMPORAL_CSV = (
    "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr\n"
    "3,0.125,8,40,0.05046628178883998,0.0011095988541394407\n"
    "4,0.0625,8,40,0.022813271783279316,0.0004472199338604753\n"
    "5,0.03125,8,40,0.007742199547384943,0.00012008982724737079\n"
)
GOLDEN_SPATIAL_CSV = (
    "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr\n"
    "2,0.125,2,30,0.015097802184799716,0.0015375089383122733\n"
    "4,0.125,4,30,0.00025020773638166643,2.189060215297957e-05\n"
    "8,0.125,8,30,5.337350811971184e-07,2.0694046383688158e-11\n"
)
GOLDEN_INCREMENT_CSV = (
    "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr\n"
    "2,0.25,8,30,0.18678147474950538,0.04157866828163509\n"
    "3,0.125,8,30,0.1379481428824908,0.023477380076068727\n"
    "4,0.0625,8,30,0.12014724838203354,0.01292851841176566\n"
)


def _spatial(seed=5, m_paths=30, drift=DRIFT):
    lat = NoiseLattice(master_seed=seed, horizon=1.0, levels=3, n_modes=16)
    return spatial_study(
        make_heat_operator(16),
        drift,
        INITIAL,
        lat,
        mode_ladder=[2, 4, 8],
        ref_modes=16,
        level=3,
        m_paths=m_paths,
        rate=CANONICAL,
    )


def test_temporal_study_golden():
    report = _temporal()
    assert report.csv_text() == GOLDEN_TEMPORAL_CSV
    assert repr(report.slope) == "1.3522521998399442"


def test_spatial_study_golden():
    report = _spatial()
    assert report.csv_text() == GOLDEN_SPATIAL_CSV
    assert repr(report.slope) == "-3.6969637959871195"


def test_increment_statistic_golden():
    lat = NoiseLattice(master_seed=7, horizon=1.0, levels=6, n_modes=8)
    report = increment_statistic(
        make_heat_operator(8),
        DRIFT,
        INITIAL,
        lat,
        levels=[2, 3, 4],
        n_dim=8,
        m_paths=30,
        sample_fractions=(0.25, 0.5),
        chunk_size=7,
        alpha=0.45,
    )
    assert report.csv_text() == GOLDEN_INCREMENT_CSV
    assert repr(report.slope) == "0.3182738827174801"
    assert repr(report.slope_stderr) == "0.16676456395423334"


# Multi-window goldens, recorded before the coupled pass streamed the noise
# through time windows.  Their lattices hold 512 or 1024 fine rows, so every
# study crosses window seams.
GOLDEN_TEMPORAL_WINDOWS_CSV = (
    "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr\n"
    "3,0.125,16,13,0.07418309543340362,0.003937165055357333\n"
    "4,0.0625,16,13,0.040892547162501645,0.0008543752271127866\n"
    "5,0.03125,16,13,0.019464938889503396,0.0002963650811781863\n"
    "6,0.015625,16,13,0.007553482210822047,9.332723304890034e-05\n"
)
GOLDEN_INCREMENT_WINDOWS_CSV = (
    "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr\n"
    "3,0.125,8,12,0.1762830771978955,0.05091845685617451\n"
    "4,0.0625,8,12,0.15693113383341492,0.028687621452990617\n"
    "5,0.03125,8,12,0.09938770276321784,0.014266233861827416\n"
)
GOLDEN_SPATIAL_WINDOWS_CSV = (
    "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr\n"
    "2,0.001953125,2,12,0.146209523639347,0.005689954249316507\n"
    "4,0.001953125,4,12,0.0666519322167516,0.001927738004376435\n"
    "8,0.001953125,8,12,0.021508422266578276,0.0002532228572660557\n"
)


def test_temporal_study_golden_across_windows():
    lat = NoiseLattice(master_seed=43, horizon=1.0, levels=10, n_modes=16)
    report = temporal_study(
        make_heat_operator(16), DRIFT, INITIAL, lat, levels=[3, 4, 5, 6], ref_level=8,
        n_dim=16, m_paths=13, rate=CANONICAL, chunk_size=5,
    )
    assert report.csv_text() == GOLDEN_TEMPORAL_WINDOWS_CSV
    assert repr(report.slope) == "1.0958590131862938"


def test_increment_statistic_golden_across_windows():
    lat = NoiseLattice(master_seed=47, horizon=1.0, levels=10, n_modes=8)
    report = increment_statistic(
        make_heat_operator(8), DRIFT, INITIAL, lat, levels=[3, 4, 5], n_dim=8, m_paths=12,
        sample_fractions=(0.25, 0.5), chunk_size=5, alpha=0.45,
    )
    assert report.csv_text() == GOLDEN_INCREMENT_WINDOWS_CSV
    assert repr(report.slope) == "0.4133773611490132"
    assert repr(report.slope_stderr) == "0.24663149879256746"


def test_spatial_study_golden_across_windows():
    lat = NoiseLattice(master_seed=53, horizon=1.0, levels=9, n_modes=16)
    report = spatial_study(
        make_heat_operator(16), DRIFT, INITIAL, lat, mode_ladder=[2, 4, 8], ref_modes=16,
        level=9, m_paths=12, rate=CANONICAL, chunk_size=5,
    )
    assert report.csv_text() == GOLDEN_SPATIAL_WINDOWS_CSV
    assert repr(report.slope) == "-0.691265920270509"


def test_integrated_error_golden_across_windows():
    lat = NoiseLattice(master_seed=59, horizon=1.0, levels=10, n_modes=8)
    ref = simulate_path(_config(10, 8), lat, 6)
    assert repr(integrated_square_error(ref, simulate_path(_config(3, 5), lat, 6), lat)) == "0.08898852650178339"
    coarse = simulate_path(_config(5, 5), lat, 6)
    assert repr(integrated_square_error(ref, coarse, lat, n_limit=6)) == "0.01976430377043229"
    # a reference coarser than the lattice: four fine rows per reference step
    mid = simulate_path(_config(8, 8), lat, 6)
    assert repr(integrated_square_error(mid, simulate_path(_config(3, 5), lat, 6), lat)) == "0.08086959951173064"


def test_temporal_study_ladder_validation():
    lat = NoiseLattice(master_seed=1, horizon=1.0, levels=5, n_modes=4)
    with pytest.raises(ValueError):
        temporal_study(
            make_heat_operator(4), DRIFT, INITIAL, lat, [], 5, 4, 4, CANONICAL
        )
    with pytest.raises(ValueError):
        temporal_study(
            make_heat_operator(4), DRIFT, INITIAL, lat, [3, 5], 5, 4, 4, CANONICAL
        )


def test_spatial_study_report_shape():
    report = _spatial()
    assert report.study == "spatial"
    assert [r.resolution for r in report.rows] == [2, 4, 8]
    assert all(r.delta == 0.125 for r in report.rows)
    assert report.slope < 0.0
    assert set(report.pass_flags) == {
        "err2_strictly_decreasing",
        "slope_at_most_neg_nu_plus_margin",
    }
    means = [r.err2_mean for r in report.rows]
    assert means[0] > means[1] > means[2]


def test_spatial_study_ladder_validation():
    lat = NoiseLattice(master_seed=5, horizon=1.0, levels=3, n_modes=16)
    with pytest.raises(ValueError):
        spatial_study(
            make_heat_operator(16), DRIFT, INITIAL, lat, [], 16, 3, 4, CANONICAL
        )
    with pytest.raises(ValueError):
        spatial_study(
            make_heat_operator(16), DRIFT, INITIAL, lat, [4, 16], 16, 3, 4, CANONICAL
        )


def test_increment_statistic_zero_noise_closed_form():
    # deterministic recursion: frozen values from an independent scalar oracle
    lat = NoiseLattice(master_seed=0, horizon=1.0, levels=5, n_modes=4, scale=0.0)
    report = increment_statistic(
        make_heat_operator(4),
        DRIFT,
        INITIAL,
        lat,
        levels=[2, 3],
        n_dim=4,
        m_paths=2,
        sample_fractions=(0.5,),
        alpha=0.45,
    )
    assert report.rows[0].err2_mean == pytest.approx(0.0027020364466804436, rel=1e-12)
    assert report.rows[1].err2_mean == pytest.approx(0.0009046038404684865, rel=1e-12)
    assert report.rows[0].err2_stderr == 0.0
    assert report.rows[1].err2_stderr == 0.0
    assert math.isnan(report.nu_theory)
    assert report.pass_flags["finite"]
    assert "slope_at_least_alpha_minus_margin" in report.pass_flags


def _driftless_increment_oracle(level, n_dim, fraction, lattice_levels, scale=1.0):
    """E||Y_t - Y_(k delta)||^2 of the driftless heat scheme from INITIAL at
    t = (k + fraction) delta, one scalar loop per step and mode; returns a
    list over steps k."""
    delta = 1.0 / (1 << level)
    fine_dt = 1.0 / (1 << lattice_levels)
    tau = round(fraction * (1 << (lattice_levels - level))) * fine_dt
    cells = []
    for k in range(1 << level):
        total = 0.0
        for i in range(1, n_dim + 1):
            a = math.exp(-i * i * delta)
            a_tau = math.exp(-i * i * tau)
            mean = a**k * i**-3.0
            var = 0.0
            for j in range(1, k + 1):
                var += scale**2 * a ** (2 * j) * delta
            total += (a_tau - 1.0) ** 2 * (mean**2 + var) + a_tau**2 * scale**2 * tau
        cells.append(total)
    return cells


def test_driftless_increment_slope_closed_form():
    lat = NoiseLattice(master_seed=7, horizon=1.0, levels=6, n_modes=8)
    op = make_heat_operator(8)
    worst = [max(_driftless_increment_oracle(lev, 8, 0.5, 6)) for lev in (2, 3)]
    s0 = math.log(worst[1] / worst[0]) / math.log(0.125 / 0.25)
    assert round(s0, 4) == 0.3835
    assert _driftless_increment_slope(op, INITIAL, lat, [2, 3], 8, (0.5,)) == pytest.approx(s0, abs=1e-12)
    for lev in (2, 3):
        exact = _driftless_increment_means(op, INITIAL, lat, lev, 8, (0.5,))[0]
        np.testing.assert_allclose(exact, _driftless_increment_oracle(lev, 8, 0.5, 6), rtol=1e-12)
    half = NoiseLattice(master_seed=7, horizon=1.0, levels=6, n_modes=8, scale=0.5)
    np.testing.assert_allclose(
        _driftless_increment_means(op, INITIAL, half, 3, 8, (0.25, 0.75)),
        [_driftless_increment_oracle(3, 8, phi, 6, scale=0.5) for phi in (0.25, 0.75)],
        rtol=1e-12,
    )


def test_driftless_increment_monte_carlo_matches_closed_form():
    # with the drift switched off every (step, fraction) cell of the sampled
    # statistic is an unbiased estimate of the closed form
    lat = NoiseLattice(master_seed=7, horizon=1.0, levels=6, n_modes=8)
    m = 3000
    out = _increment_chunk((make_heat_operator(8), DRIFTLESS, INITIAL, lat, [2, 3], 8, (0.5,), list(range(m))))
    for lev in (2, 3):
        per_path = out[lev][:, 0, :]
        means = per_path.mean(axis=0)
        stderrs = per_path.std(axis=0, ddof=1) / math.sqrt(m)
        exact = np.array(_driftless_increment_oracle(lev, 8, 0.5, 6))
        assert np.all(np.abs(means - exact) <= 3.0 * stderrs), (lev, (means - exact) / stderrs)


def _driftless_temporal_oracle(levels, ref_level, n_dim):
    """E[err2] of the driftless heat scheme at unit noise scale, per level.

    The reference value at step r is a^r x0 + sum_{l<r} a^(r-l) dW_l with
    a = exp(-lam_i d), d the reference step.  Read at the same time, the
    coarse value carries the same initial term and weights each dW_l with
    exp(-lam_i (r - R floor(l/R)) d), R reference steps to a coarse step, so
    E err2 = d^2 sum_r sum_i sum_{l<r} c^2 with c the gap of the weights.
    """
    d = 1.0 / (1 << ref_level)
    out = []
    for lev in levels:
        ratio = 1 << (ref_level - lev)
        total = 0.0
        for r in range(1 << ref_level):
            for i in range(1, n_dim + 1):
                lam = float(i * i)
                for l in range(r):
                    c = math.exp(-lam * (r - l) * d) - math.exp(-lam * (r - ratio * (l // ratio)) * d)
                    total += c * c
        out.append(d * d * total)
    return out


def _driftless_spatial_oracle(ladder, ref_modes, level):
    """E[err2] of the driftless heat scheme at unit noise scale, per mode
    count n: the modes up to n agree exactly, so only the reference's tail
    modes count, each with mean^2 + var at every left grid point."""
    d = 1.0 / (1 << level)
    out = []
    for n in ladder:
        total = 0.0
        for k in range(1 << level):
            for i in range(n + 1, ref_modes + 1):
                a = math.exp(-i * i * d)
                var = sum(d * a ** (2 * j) for j in range(1, k + 1))
                total += (a**k * i**-3.0) ** 2 + var
        out.append(d * total)
    return out


def _assert_rungs_match(report, exact):
    z = [(r.err2_mean - e) / r.err2_stderr for r, e in zip(report.rows, exact)]
    assert all(abs(v) <= 3.0 for v in z), z


def test_driftless_temporal_study_matches_oracle():
    lat = NoiseLattice(master_seed=11, horizon=1.0, levels=7, n_modes=8)
    report = temporal_study(
        make_heat_operator(8), DRIFTLESS, INITIAL, lat, [2, 3, 4], 6, 8, 2000, CANONICAL, chunk_size=250
    )
    _assert_rungs_match(report, _driftless_temporal_oracle([2, 3, 4], 6, 8))


def test_driftless_spatial_study_matches_oracle():
    report = _spatial(seed=11, m_paths=2000, drift=DRIFTLESS)
    _assert_rungs_match(report, _driftless_spatial_oracle([2, 4, 8], 16, 3))


def test_slope_stderr_paired_delta_method():
    rng = np.random.default_rng(3)
    h = np.array([0.25, 0.125])
    shared = rng.standard_normal(400)
    samples = np.stack(
        [h[i] ** 0.4 * np.exp(0.3 * shared + 0.4 * rng.standard_normal(400)) for i in range(2)], axis=1
    )
    means = samples.mean(axis=0)
    # two rungs: the slope is a difference quotient, so its delta-method
    # error is that of the paired per-path z below
    z = (samples[:, 1] / means[1] - samples[:, 0] / means[0]) / math.log(h[1] / h[0])
    expected = np.std(z, ddof=1) / math.sqrt(400)
    assert _slope_stderr(h, samples) == pytest.approx(expected, rel=1e-12)
    assert _slope_stderr(h, np.broadcast_to(h**0.4, (5, 2))) == 0.0
    assert _slope_stderr(h, samples[:1]) == 0.0


def test_increment_gate_passes_and_fails():
    # at zero noise the statistic is deterministic, so the flag is exactly
    # slope >= min(alpha, s0) - alpha_margin and can go either way
    lat = NoiseLattice(master_seed=0, horizon=1.0, levels=5, n_modes=4, scale=0.0)
    op = make_heat_operator(4)
    s0 = _driftless_increment_slope(op, INITIAL, lat, [2, 3], 4, (0.5,))

    def gate(alpha):
        return increment_statistic(op, DRIFT, INITIAL, lat, levels=[2, 3], n_dim=4, m_paths=2, alpha=alpha)

    coarse = gate(0.45)
    assert coarse.slope_threshold == pytest.approx(0.35)
    assert coarse.pass_flags["slope_at_least_alpha_minus_margin"]
    # claiming alpha = 2 caps the threshold at s0 - 0.1; the drift lowers
    # the slope by more than the margin, so the gate fails
    smooth = gate(2.0)
    assert s0 < 2.0
    assert smooth.slope_threshold == pytest.approx(s0 - 0.1, abs=1e-12)
    assert smooth.slope < smooth.slope_threshold
    assert not smooth.pass_flags["slope_at_least_alpha_minus_margin"]
    assert not smooth.passed
    summary = smooth.summary_dict()
    assert summary["slope_threshold"] == smooth.slope_threshold
    assert summary["slope_stderr"] == 0.0


def test_studies_check_configs_against_the_lattice():
    lat = NoiseLattice(master_seed=0, horizon=1.0, levels=5, n_modes=4)
    op = make_heat_operator(8)
    # more modes than the lattice stores
    with pytest.raises(ValueError, match="more modes than the lattice"):
        temporal_study(op, DRIFT, INITIAL, lat, [2, 3], 5, 8, 2, CANONICAL)
    with pytest.raises(ValueError, match="more modes than the lattice"):
        spatial_study(op, DRIFT, INITIAL, lat, [2, 4], 8, 3, 2, CANONICAL)
    with pytest.raises(ValueError, match="more modes than the lattice"):
        increment_statistic(op, DRIFT, INITIAL, lat, [2, 3], 8, 2, alpha=0.45)
    # a reference finer than the lattice
    with pytest.raises(ValueError, match="finer than the lattice"):
        temporal_study(op, DRIFT, INITIAL, lat, [2, 3], 6, 4, 2, CANONICAL)
    with pytest.raises(ValueError, match="finer than the lattice"):
        spatial_study(op, DRIFT, INITIAL, lat, [2], 4, 6, 2, CANONICAL)


def test_increment_statistic_validation():
    lat = NoiseLattice(master_seed=0, horizon=1.0, levels=5, n_modes=4)
    op = make_heat_operator(4)
    with pytest.raises(ValueError):
        increment_statistic(op, DRIFT, INITIAL, lat, [5], 4, 2, 0.45)
    with pytest.raises(ValueError):
        increment_statistic(op, DRIFT, INITIAL, lat, [], 4, 2, 0.45)
    with pytest.raises(ValueError):
        increment_statistic(op, DRIFT, INITIAL, lat, [3], 4, 2, 0.45, sample_fractions=(0.0,))
    with pytest.raises(ValueError):
        increment_statistic(op, DRIFT, INITIAL, lat, [3], 4, 2, 0.45, sample_fractions=(1.0,))
    with pytest.raises(ValueError):
        # 1/3 of a 4-substep block lands between lattice points
        increment_statistic(op, DRIFT, INITIAL, lat, [3], 4, 2, 0.45, sample_fractions=(1.0 / 3.0,))
