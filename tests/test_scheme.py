"""Tests for the exponential integrator: steps, paths, coupling, interpolation."""

import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab.analysis import hypotheses
from spdelab.drift import HolderDriftSpec, drift_bound
from spdelab.noise import NoiseLattice
from spdelab.scheme import (
    InitialData,
    SchemeConfig,
    SimulationError,
    Trajectory,
    _advance,
    simulate_coupled,
    simulate_path,
)
from spdelab.spectral import SpectralOperator, make_heat_operator

from oracles import ei_step, interpolate_substep


def make_config(level=3, n_dim=4, drift=None, initial=None, horizon=1.0, n_op=None):
    op = make_heat_operator(n_op if n_op is not None else n_dim)
    if drift is None:
        drift = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, time_mod="cosine")
    if initial is None:
        initial = InitialData(profile="power_decay", q=3.0)
    return SchemeConfig(
        operator=op, drift=drift, initial=initial, horizon=horizon, level=level, n_dim=n_dim
    )


def test_initial_data_profiles():
    decay = InitialData(profile="power_decay", q=3.0)
    assert np.array_equal(decay.mode_coefficients(3), [1.0, 0.125, 1.0 / 27.0])
    explicit = InitialData(profile="explicit", coeffs=(2.0, -1.0))
    assert np.array_equal(explicit.mode_coefficients(4), [2.0, -1.0, 0.0, 0.0])
    assert np.array_equal(explicit.mode_coefficients(1), [2.0])


def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialData(profile="power_decay")
    with pytest.raises(ValueError):
        InitialData(profile="explicit")
    with pytest.raises(ValueError):
        InitialData(profile="explicit", coeffs=(math.inf,))
    with pytest.raises(ValueError):
        InitialData(profile="bumps", q=1.0)


def test_initial_domain_check(heat16):
    # the last row of the hypothesis table: sum lam_i^2 x_i^2 has series exponent 2*2 - 2*q
    def domain_row(initial):
        drift = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9)
        row = hypotheses(heat16, drift, 0.45, initial)[-1]
        assert row["name"] == "initial_state_in_domain"
        return row["holds"], row["value"]

    ok, why = domain_row(InitialData(profile="power_decay", q=3.0))
    assert (ok, why) == (True, "series exponent -2 < -1, sum lam_i^2 x_i^2 converges")
    bad, why = domain_row(InitialData(profile="power_decay", q=2.0))
    assert (bad, why) == (False, "series exponent 0 >= -1, sum lam_i^2 x_i^2 diverges")
    edge, why = domain_row(InitialData(profile="power_decay", q=2.5))
    assert (edge, why) == (False, "series exponent -1 >= -1, sum lam_i^2 x_i^2 diverges")
    exp_ok, why = domain_row(InitialData(profile="explicit", coeffs=(1.0,)))
    assert (exp_ok, why) == (True, "finite mode expansion, trivially in the domain")


def test_scheme_config_properties():
    cfg = make_config(level=3, n_dim=4)
    assert cfg.steps == 8
    assert cfg.delta == 0.125
    assert np.array_equal(cfg.initial_coefficients(), [1.0, 0.125, 1.0 / 27.0, 0.015625])


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        make_config(horizon=0.0)
    with pytest.raises(ValueError):
        make_config(level=31)
    with pytest.raises(ValueError):
        make_config(n_dim=0)
    with pytest.raises(ValueError):
        make_config(n_dim=5, n_op=4)


_DRIFT = {"kind": "diagonal", "beta": 0.5, "epsilon": 0.9}
# each model type's number fields, built with one value replaced
_WITH_FIELD = {
    "beta": lambda v: HolderDriftSpec(**{**_DRIFT, "beta": v}),
    "epsilon": lambda v: HolderDriftSpec(**{**_DRIFT, "epsilon": v}),
    "amplitude": lambda v: HolderDriftSpec(**_DRIFT, amplitude=v),
    "cap": lambda v: HolderDriftSpec(**_DRIFT, cap=v),
    "period": lambda v: HolderDriftSpec(**_DRIFT, time_mod="cosine", period=v),
    "q": lambda v: InitialData(profile="power_decay", q=v),
    "horizon": lambda v: make_config(horizon=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", list(_WITH_FIELD))
def test_model_types_refuse_non_finite_numbers(field, value):
    # a NaN passes a bare `x <= 0` check, and drift_bound or the initial
    # coefficients would carry it into every result
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        _WITH_FIELD[field](value)


def test_ei_step_pure_decay():
    drift = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, amplitude=0.0)
    cfg = make_config(level=2, n_dim=3, drift=drift)
    y = np.array([1.0, 0.5, 0.25])
    out = ei_step(cfg, 0, y, np.zeros(3))
    lam = cfg.operator.eigenvalues
    assert np.array_equal(out, np.exp(-lam * cfg.delta) * y)


def test_ei_step_hand_value():
    drift = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, amplitude=0.0)
    cfg = make_config(level=0, n_dim=1, drift=drift)
    out = ei_step(cfg, 0, np.array([1.0]), np.array([0.5]))
    # 1.5 * exp(-1)
    assert out[0] == pytest.approx(0.5518191617571635, rel=1e-15)


def test_ei_step_is_diagonal():
    cfg = make_config(level=2, n_dim=4)
    y = np.array([0.3, -0.7, 1.1, 0.0])
    dw = np.array([0.01, -0.02, 0.03, 0.04])
    base = ei_step(cfg, 1, y, dw)
    y2, dw2 = y.copy(), dw.copy()
    y2[2], dw2[2] = -5.0, 0.5
    moved = ei_step(cfg, 1, y2, dw2)
    keep = np.array([True, True, False, True])
    assert np.array_equal(base[keep], moved[keep])


def test_ei_step_validation():
    cfg = make_config(level=1, n_dim=2)
    with pytest.raises(ValueError):
        ei_step(cfg, 0, np.array([1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        ei_step(cfg, 2, np.array([1.0, 1.0]), np.array([0.0, 0.0]))


def test_interpolate_substep_endpoints():
    cfg = make_config(level=2, n_dim=3)
    y = np.array([0.4, -0.2, 0.9])
    zero = np.zeros(3)
    left = interpolate_substep(cfg, 1, y, 1 * cfg.delta, zero)
    assert np.array_equal(left, y)
    dw = np.array([0.05, -0.01, 0.02])
    right = interpolate_substep(cfg, 1, y, 2 * cfg.delta, dw)
    assert np.array_equal(right, ei_step(cfg, 1, y, dw))
    mid = interpolate_substep(cfg, 1, y, 1.5 * cfg.delta, dw)
    assert np.all(np.isfinite(mid))


@given(
    coords=st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=3, max_size=3
    ),
    noise=st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False), min_size=3, max_size=3
    ),
    k=st.integers(min_value=0, max_value=3),
)
def test_interpolation_grid_point_equality(coords, noise, k):
    cfg = make_config(level=2, n_dim=3)
    y = np.array(coords)
    dw = np.array(noise)
    full = interpolate_substep(cfg, k, y, (k + 1) * cfg.delta, dw)
    assert np.array_equal(full, ei_step(cfg, k, y, dw))


def test_substep_reader_matches_oracle():
    # the sub-step values the error integrators read, against the scalar
    # oracle, bit for bit, at both ends and inside every step
    cfg = make_config(level=2, n_dim=3)
    lat = NoiseLattice(master_seed=5, horizon=1.0, levels=4, n_modes=3)
    traj = simulate_path(cfg, lat, 0)
    fine = lat.fine_increments(0)
    stops = np.array([3, 0, 4, 1])
    y0 = traj.grid[:1]
    fine_b = fine[:, None, :]
    # read in two windows of two steps each: steps 2 and 3 come from the
    # second window's rows and take the drift at their global times
    grid_a, values_a = _advance(cfg, lat, fine_b[:8], y0, 0, stops, [0])
    grid_b, values_b = _advance(cfg, lat, fine_b[8:], grid_a[-1], 2, stops, [0])
    assert np.array_equal(grid_a[:, 0], traj.grid[:3])
    assert np.array_equal(grid_b[:, 0], traj.grid[2:])
    for k, stack in enumerate([*values_a, *values_b]):
        for row, j in zip(stack, stops):
            partial = np.zeros(3)
            for m in range(j):
                partial = partial + fine[4 * k + m]
            t = k * cfg.delta + j * lat.fine_dt
            want = interpolate_substep(cfg, k, traj.grid[k], t, partial)
            assert np.array_equal(row[0], want)
    # with no stops the values are the grid rows at the start of each step
    grid, values = _advance(cfg, lat, fine_b[8:], grid_a[-1], 2, None, [0])
    assert np.array_equal(grid, grid_b)
    assert np.array_equal(values, grid_b[:-1, None])


def test_advance_writes_only_what_it_owns():
    # the kernel writes each step's sub-step values over the fold's stack; the
    # noise window and the incoming state, a read-only view at the start of
    # a pass and a carried grid row later, are only read
    cfg = make_config(level=3, n_dim=4)
    lat = NoiseLattice(master_seed=5, horizon=1.0, levels=6, n_modes=4)
    window = np.stack([lat.fine_increments(pid) for pid in (0, 1)], axis=1)
    start = np.broadcast_to(cfg.initial_coefficients(), (2, 4))
    carried = start + 0.5
    for stops in (None, [0, 3, 8, 5]):
        for y in (start, carried):
            window_before, y_before = window.copy(), y.copy()
            _advance(cfg, lat, window, y, 0, stops, [0, 1])
            assert np.array_equal(window, window_before)
            assert np.array_equal(y, y_before)


def test_interpolate_substep_validation():
    cfg = make_config(level=2, n_dim=2)
    y = np.array([1.0, 1.0])
    zero = np.array([0.0, 0.0])
    with pytest.raises(ValueError):
        interpolate_substep(cfg, 1, y, 0.9 * cfg.delta, zero)
    with pytest.raises(ValueError):
        interpolate_substep(cfg, 1, y, 2.1 * cfg.delta, zero)
    with pytest.raises(ValueError):
        interpolate_substep(cfg, 1, np.array([1.0]), 1.5 * cfg.delta, zero)


def test_zero_noise_zero_drift_is_semigroup():
    drift = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, amplitude=0.0)
    cfg = make_config(level=4, n_dim=4, drift=drift)
    lat = NoiseLattice(master_seed=1, horizon=1.0, levels=4, n_modes=4, scale=0.0)
    traj = simulate_path(cfg, lat, 0)
    x = cfg.initial_coefficients()
    lam = cfg.operator.eigenvalues
    for k in range(cfg.steps + 1):
        np.testing.assert_allclose(
            traj.grid[k], np.exp(-lam * (k * cfg.delta)) * x, rtol=1e-12, atol=0.0
        )


def test_simulation_is_reproducible():
    cfg = make_config(level=5, n_dim=4)
    lat = NoiseLattice(master_seed=42, horizon=1.0, levels=5, n_modes=4)
    a = simulate_path(cfg, lat, 3)
    b = simulate_path(cfg, lat, 3)
    assert np.array_equal(a.grid, b.grid)
    other = simulate_path(cfg, NoiseLattice(43, 1.0, 5, 4), 3)
    assert not np.array_equal(a.grid, other.grid)


def test_projection_consistency_diagonal():
    lat = NoiseLattice(master_seed=7, horizon=1.0, levels=4, n_modes=6)
    wide = simulate_path(make_config(level=4, n_dim=6, n_op=6), lat, 2)
    narrow = simulate_path(make_config(level=4, n_dim=3, n_op=6), lat, 2)
    assert np.array_equal(wide.grid[:, :3], narrow.grid)


def test_projection_consistency_fails_for_rank_one():
    mixing = HolderDriftSpec(kind="rank_one", beta=1.0, epsilon=0.9)
    lat = NoiseLattice(master_seed=7, horizon=1.0, levels=4, n_modes=6)
    wide = simulate_path(make_config(level=4, n_dim=6, n_op=6, drift=mixing), lat, 2)
    narrow = simulate_path(make_config(level=4, n_dim=3, n_op=6, drift=mixing), lat, 2)
    # mode 1 aggregates psi over all active modes, so truncation changes it
    assert not np.array_equal(wide.grid[:, :3], narrow.grid)


def test_coupled_matches_standalone():
    lat = NoiseLattice(master_seed=11, horizon=1.0, levels=5, n_modes=4)
    configs = [
        make_config(level=3, n_dim=4, n_op=4),
        make_config(level=5, n_dim=2, n_op=4),
    ]
    coupled = simulate_coupled(configs, lat, 9)
    for cfg, traj in zip(configs, coupled):
        solo = simulate_path(cfg, lat, 9)
        assert np.array_equal(traj.grid, solo.grid)


# sha256 of each grid's little-endian float64 bytes, recorded before the
# coupled pass streamed the noise through time windows; levels 3-10 on a
# 1024-row lattice cross every window seam
GOLDEN_COUPLED_GRIDS = {
    3: "b843d73ea0bf338ae945dc6e3b37a0c8de5d728b4b2f8c3f7d8da7ec1cae12b1",
    4: "55b9cee6d2370f03d387d8538db25951df00335d3ab29c14428e1d7f695a8193",
    5: "62abda8b8390757700f001e8ed14f08271cfe0471b706f42f2c04d4833ac898b",
    6: "3273075afbfd772b11182eb7c7bf7b44963aeb74ba39c6ba84f2b33b897a0730",
    7: "a02fb32518b8f0ef3468a715b3756ebbfe2d979edbc00f2a06fcb8c4fae0669c",
    8: "e2088127bed7022774424e3fa96c0abac4ac1e809f758fa3fe3d9f42835e956d",
    9: "aa1bce3f09733d3d36b1c40c005ea8dab4831580a60b9369288c9b020d872a3b",
    10: "c9173094456943163d02df2e792d954ed0b7154003841db92fc519f0a49debac",
}


def test_coupled_grids_golden_across_windows():
    lat = NoiseLattice(master_seed=59, horizon=1.0, levels=10, n_modes=8)
    # odd levels carry 5 of the 8 modes, so the coupled pass serves mixed widths
    configs = [make_config(level=lev, n_dim=8 if lev % 2 == 0 else 5, n_op=8) for lev in range(3, 11)]
    for cfg, traj in zip(configs, simulate_coupled(configs, lat, 6)):
        assert traj.grid.dtype == np.dtype("<f8")
        assert hashlib.sha256(traj.grid.tobytes()).hexdigest() == GOLDEN_COUPLED_GRIDS[cfg.level]


def test_reference_consumes_each_increment_once():
    cfg = make_config(level=3, n_dim=3, n_op=3)
    lat = NoiseLattice(master_seed=13, horizon=1.0, levels=3, n_modes=3)
    traj = simulate_path(cfg, lat, 0)
    dw = lat.fine_increments(0, 3)
    y = cfg.initial_coefficients()
    for k in range(cfg.steps):
        y = ei_step(cfg, k, y, dw[k])
        assert np.array_equal(traj.grid[k + 1], y)


def test_coupled_validation():
    lat = NoiseLattice(master_seed=1, horizon=1.0, levels=3, n_modes=4)
    base = make_config(level=3, n_dim=4)
    with pytest.raises(ValueError):
        simulate_coupled([], lat, 0)
    with pytest.raises(ValueError):
        simulate_coupled([base, make_config(level=3, n_dim=4, horizon=2.0)], lat, 0)
    other_drift = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.5)
    with pytest.raises(ValueError):
        simulate_coupled([base, make_config(level=3, n_dim=4, drift=other_drift)], lat, 0)
    with pytest.raises(ValueError):
        simulate_coupled(
            [base, make_config(level=3, n_dim=4, initial=InitialData("power_decay", q=4.0))],
            lat,
            0,
        )
    with pytest.raises(ValueError):
        simulate_path(make_config(level=4, n_dim=4), lat, 0)
    with pytest.raises(ValueError):
        simulate_path(make_config(level=3, n_dim=5, n_op=5), lat, 0)


def test_operators_and_configs_compare_and_hash_by_value():
    # an operator is its (n_max, power); the ladder it computes stays out of
    # the comparison, so equal parts give equal, equally hashed configs
    heat = make_heat_operator(8)
    assert heat == SpectralOperator(8, 2.0) and hash(heat) == hash(SpectralOperator(8, 2.0))
    assert heat != SpectralOperator(8, 2.5) and heat != make_heat_operator(9)
    cfg, twin = make_config(level=3, n_dim=4, n_op=8), make_config(level=3, n_dim=4, n_op=8)
    assert cfg is not twin and cfg == twin and hash(cfg) == hash(twin)
    assert cfg != make_config(level=4, n_dim=4, n_op=8)
    # the process pool sends configs to its workers pickled
    back_heat, back_cfg = pickle.loads(pickle.dumps((heat, cfg)))
    assert back_heat == heat and hash(back_heat) == hash(heat)
    assert back_cfg == cfg and hash(back_cfg) == hash(cfg)
    assert np.array_equal(back_cfg.operator.eigenvalues, heat.eigenvalues)


def test_simulation_error_on_overflow():
    hot = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, amplitude=1.6e308)
    cfg = make_config(
        level=0, n_dim=1, drift=hot, initial=InitialData(profile="explicit", coeffs=(1.5e308,))
    )
    lat = NoiseLattice(master_seed=0, horizon=1.0, levels=0, n_modes=1, scale=0.0)
    with np.errstate(over="ignore"), pytest.raises(SimulationError, match="step 1 of 1"):
        simulate_path(cfg, lat, 0)


def test_simulation_error_names_global_step_path_and_mode():
    # 1**1e-20 and 2**1e-20 round to 1.0, so the drift weights are 1 and the
    # decay is exp(-delta); mode 2 grows by about 1.4e305 a step from 1.3e308
    # and overflows at step 390, in the seventh 64-row noise window of a
    # 1024-step grid; mode 1 stays 0
    op = SpectralOperator(2, 1e-20)
    hot = HolderDriftSpec(kind="diagonal", beta=0.5, epsilon=0.9, amplitude=8.2e30, cap=1e300)
    cfg = SchemeConfig(op, hot, InitialData("explicit", coeffs=(0.0, 1.3e308)), 1.0, 10, 2)
    y, step = cfg.initial_coefficients(), 0
    with np.errstate(over="ignore"):
        while True:
            y = ei_step(cfg, step, y, np.zeros(2))
            if not np.all(np.isfinite(y)):  # the step that left the finite range
                break
            step += 1
    assert step + 1 > 256
    lat = NoiseLattice(master_seed=0, horizon=1.0, levels=10, n_modes=2, scale=0.0)
    want = f"step {step + 1} of 1024 on path 5, first in mode 2"
    with np.errstate(over="ignore"), pytest.raises(SimulationError, match=want):
        simulate_path(cfg, lat, 5)


def test_trajectory_accessors():
    cfg = make_config(level=1, n_dim=2)
    lat = NoiseLattice(master_seed=2, horizon=1.0, levels=1, n_modes=2)
    traj = simulate_path(cfg, lat, 0)
    assert np.array_equal(traj.grid[0], cfg.initial_coefficients())
    with pytest.raises(ValueError):
        Trajectory(cfg, 0, np.zeros((2, 2)))


def test_moment_sanity_across_levels():
    # sup_k E||Y||^2 stays finite, below the crude a-priori cap, and stable
    # between resolutions (bounded drift + contraction leave no room to grow)
    lat = NoiseLattice(master_seed=29, horizon=1.0, levels=5, n_modes=8)
    sups = []
    for level in (3, 5):
        cfg = make_config(level=level, n_dim=8, n_op=8)
        grids = np.stack([simulate_path(cfg, lat, pid).grid for pid in range(16)])
        msq = np.mean(np.sum(grids**2, axis=-1), axis=0)
        assert np.all(np.isfinite(msq))
        sups.append(float(np.max(msq)))
    cfg = make_config(level=3, n_dim=8, n_op=8)
    x_sq = float(np.sum(cfg.initial_coefficients() ** 2))
    cap = 3.0 * (x_sq + drift_bound(cfg.drift, cfg.operator) ** 2 + 8.0)
    assert max(sups) <= cap
    assert 0.5 <= sups[0] / sups[1] <= 2.0
