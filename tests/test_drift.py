"""Tests for the Holder drift families and their validators."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdelab import drift
from spdelab.drift import (
    HolderDriftSpec,
    _worst_trial,
    drift_array,
    drift_bound,
    mode_holder_constant,
    time_weight,
    time_weight_lipschitz,
    verify_mode_holder,
    verify_time_holder,
)
from spdelab.spectral import make_heat_operator

from oracles import holder_constant_grid, holder_ratio_at


def _diag(epsilon, beta=0.5, **kw):
    return HolderDriftSpec(kind="diagonal", beta=beta, epsilon=epsilon, **kw)


def test_zero_state_maps_to_zero(heat16, rough_drift):
    out = drift_array(rough_drift, heat16.eigenvalues, 0.3, np.zeros(16))
    assert np.array_equal(out, np.zeros(16))


def test_diagonal_hand_values():
    # beta = eps = 1/2 on the two-mode heat ladder: weights [1, 1/2] exactly
    spec = _diag(0.5)
    lam = make_heat_operator(2).eigenvalues
    saturated = drift_array(spec, lam, 0.0, np.array([4.0, 0.0]))
    assert np.array_equal(saturated, [1.0, 0.0])
    fixed = drift_array(spec, lam, 0.0, np.array([0.0, 0.25]))
    assert np.array_equal(fixed, [0.0, 0.25])


def test_cap_saturation_and_sign(rough_drift):
    lam = make_heat_operator(1).eigenvalues
    assert drift_array(rough_drift, lam, 0.0, np.array([100.0]))[0] == 1.0
    assert drift_array(rough_drift, lam, 0.0, np.array([-100.0]))[0] == -1.0


def test_short_state_uses_leading_modes(heat16, rough_drift):
    # a diagonal drift on the leading modes is the leading part of the full drift
    x = np.linspace(-2.0, 2.0, 16)
    full = drift_array(rough_drift, heat16.eigenvalues, 0.3, x)
    short = drift_array(rough_drift, heat16.eigenvalues[:1], 0.3, x[:1])
    assert short.shape == (1,)
    assert np.array_equal(short, full[:1])


def test_drift_bound_diagonal_large_truncation():
    spec = _diag(0.9)
    bound = drift_bound(spec, make_heat_operator(100_000))
    assert bound == pytest.approx(1.2825459316914256, rel=1e-12)
    # close to the full-series limit sqrt(pi**2/6)
    assert abs(bound - math.sqrt(math.pi**2 / 6.0)) < 1e-4


def test_drift_bound_variants():
    op = make_heat_operator(50)
    assert drift_bound(_diag(0.5, amplitude=0.0), op) == 0.0
    rank_one = HolderDriftSpec(kind="rank_one", beta=1.0, epsilon=0.5)
    assert drift_bound(rank_one, op) == pytest.approx(1.6251327336215293, rel=1e-12)
    smooth = HolderDriftSpec(kind="smooth_baseline", beta=0.5, epsilon=0.5)
    assert drift_bound(smooth, make_heat_operator(2)) == pytest.approx(
        math.sqrt(1.25), rel=1e-12
    )


def test_drift_bound_refuses_a_bound_that_overflows():
    # amplitude 1e10 and cap 1e300 are finite, but their product is not: the
    # bound used to be inf, which no drift size can exceed
    spec = _diag(0.9, amplitude=1e10, cap=1e300)
    op = make_heat_operator(64)
    with pytest.raises(OverflowError, match=r"overflows: amplitude 10000000000\.0, cap 1e\+300, 64 modes"):
        drift_bound(spec, op)
    assert drift_bound(_diag(0.9, amplitude=1e300), op) == 1e300 * drift_bound(_diag(0.9), op)  # 1.28e300


def test_drift_bound_of_a_switched_off_drift_is_zero():
    # cap 1e308 times the rank-one weight sum overflows, and 0 * inf is NaN:
    # the bound used to raise for a drift whose amplitude turns it off
    op = make_heat_operator(64)
    off = HolderDriftSpec("rank_one", 0.5, 0.9, amplitude=0.0, cap=1e308)
    assert drift_bound(off, op) == 0.0
    assert verify_time_holder(off, op, trials=50)["passed"]
    with pytest.raises(OverflowError, match="drift sup bound overflows"):
        drift_bound(HolderDriftSpec("rank_one", 0.5, 0.9, amplitude=1e-300, cap=1e308), op)


def test_time_weight_cosine_default_period(rough_drift):
    assert time_weight(rough_drift, 0.0) == 1.0
    assert time_weight(rough_drift, 0.7) == pytest.approx(math.cos(0.7), rel=1e-12)
    assert time_weight_lipschitz(rough_drift) == pytest.approx(1.0, rel=1e-12)
    flat = _diag(0.9)
    assert time_weight(flat, 123.4) == 1.0
    assert time_weight_lipschitz(flat) == 0.0


def test_mode_holder_validator_passes(heat16, rough_drift):
    report = verify_mode_holder(rough_drift, heat16, trials=10_000)
    assert report["passed"]
    assert report["trials"] == 10_000
    # the antisymmetric pairs drive the ratio against the constant
    assert 0.97 < report["max_ratio"] <= 1.0 + 1e-9
    assert report["constant"] == pytest.approx(mode_holder_constant(rough_drift), rel=1e-15)
    # plain Python numbers, so reports print and serialize as numbers
    assert report["name"] == "mode_holder"
    assert report["passed"] is True
    assert type(report["max_ratio"]) is float and type(report["constant"]) is float


def test_mode_holder_validator_rejects_halved_constant(heat16, rough_drift, monkeypatch):
    full = drift.mode_holder_constant
    monkeypatch.setattr(drift, "mode_holder_constant", lambda spec: 0.5 * full(spec))
    report = verify_mode_holder(rough_drift, heat16, trials=2000)
    assert not report["passed"]
    assert 1.9 < report["max_ratio"] < 2.1
    assert report["worst"]  # worst offender is recorded


def test_mode_holder_validator_zero_amplitude(heat16):
    report = verify_mode_holder(_diag(0.9, amplitude=0.0), heat16, trials=100)
    assert report["passed"]
    assert report["max_ratio"] == 0.0


def test_time_holder_validator(heat16, rough_drift):
    report = verify_time_holder(rough_drift, heat16, trials=10_000)
    assert report["passed"]
    assert 0.0 < report["max_ratio"] <= 1.0 + 1e-9
    flat = verify_time_holder(_diag(0.9), heat16, trials=500)
    assert flat["passed"]
    assert flat["max_ratio"] == 0.0


def test_worst_trial_scans_every_block():
    # every trial is seen across block edges, and the first of tied maxima wins
    n = 2 * drift._BLOCK + 3
    ramp = np.arange(n, dtype=float)
    assert _worst_trial(n, lambda blk: ramp[blk]) == (n - 1.0, n - 1)
    edges = np.zeros(n)
    edges[drift._BLOCK - 1] = edges[-1] = 2.0
    assert _worst_trial(n, lambda blk: edges[blk]) == (2.0, drift._BLOCK - 1)
    assert _worst_trial(n, lambda blk: np.zeros(n)[blk]) == (0.0, None)


@pytest.mark.parametrize("kind", ["diagonal", "rank_one", "smooth_baseline"])
def test_drift_norm_never_exceeds_bound(kind, heat16):
    spec = HolderDriftSpec(kind=kind, beta=0.5, epsilon=0.9, time_mod="cosine")
    bound = drift_bound(spec, heat16)
    rng = np.random.default_rng(5)
    states = rng.normal(0.0, 2.0, size=(100_000, 16))
    values = drift_array(spec, heat16.eigenvalues, 0.25, states)
    norms = np.sqrt(np.sum(values**2, axis=-1))
    assert np.max(norms) <= bound * (1.0 + 1e-12)


@given(
    coords=st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=4, max_size=4
    ),
    j=st.integers(min_value=0, max_value=3),
    repl=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_diagonal_drift_is_local(coords, j, repl):
    spec = _diag(0.7)
    lam = make_heat_operator(4).eigenvalues
    x = np.array(coords)
    y = x.copy()
    y[j] = repl
    fx = drift_array(spec, lam, 0.0, x)
    fy = drift_array(spec, lam, 0.0, y)
    keep = np.arange(4) != j
    assert np.array_equal(fx[keep], fy[keep])


def test_rank_one_concentrates_on_first_mode():
    spec = HolderDriftSpec(kind="rank_one", beta=1.0, epsilon=0.5)
    lam = make_heat_operator(4).eigenvalues
    out = drift_array(spec, lam, 0.0, np.array([4.0, 4.0, 0.0, 1.0]))
    assert np.array_equal(out[1:], np.zeros(3))
    # sum of lam**-1 * psi over modes: 1 + 1/4 + 0 + 1/16
    assert out[0] == pytest.approx(1.3125, rel=1e-15)


def test_holder_constant_grid_matches_analytic():
    for eps, frozen in ((0.5, 1.4142135623730954), (0.9, 1.0717734625362934)):
        psi = lambda u, e=eps: np.sign(u) * np.minimum(np.abs(u) ** e, 1.0)
        grid = holder_constant_grid(psi, eps)
        assert grid == pytest.approx(frozen, rel=1e-12)
        assert grid <= mode_holder_constant(_diag(eps)) * (1.0 + 1e-9)
    assert holder_constant_grid(np.tanh, 0.9) <= mode_holder_constant(_diag(0.9)) * (1.0 + 1e-9)


def test_spec_validation():
    with pytest.raises(ValueError):
        HolderDriftSpec(kind="cubic", beta=0.5, epsilon=0.9)
    with pytest.raises(ValueError):
        _diag(0.0)
    with pytest.raises(ValueError):
        _diag(1.0)
    with pytest.raises(ValueError):
        _diag(0.9, beta=0.0)
    with pytest.raises(ValueError):
        _diag(0.9, amplitude=-1.0)
    with pytest.raises(ValueError):
        _diag(0.9, cap=0.0)
    with pytest.raises(ValueError):
        _diag(0.9, time_mod="square")
    with pytest.raises(ValueError):
        _diag(0.9, period=0.0)


def test_spec_serialization_round_trip(rough_drift):
    data = asdict(rough_drift)
    assert HolderDriftSpec(**data) == rough_drift


@pytest.mark.parametrize("kind", ["diagonal", "rank_one", "smooth_baseline"])
@pytest.mark.parametrize("time_mod", ["constant", "cosine"])
def test_drift_array_matches_expression_form(kind, time_mod):
    # the one-buffer kernel against amp*h(t)*lam**-beta*psi(u), bit for bit,
    # on zeros of both signs, negatives and values beyond the cap
    spec = HolderDriftSpec(kind=kind, beta=0.5, epsilon=0.9, amplitude=1.3, cap=0.8, time_mod=time_mod)
    lam = make_heat_operator(8).eigenvalues
    x = np.random.default_rng(3).normal(0.0, 2.0, size=(6, 8))
    x[0, :4] = [0.0, -0.0, 5.0, -5.0]
    x[1, :3] = [0.8 ** (1.0 / 0.9), -1e-300, 1e-300]
    x_before = x.copy()
    t = 0.3
    out = drift_array(spec, lam, t, x)
    assert x.tobytes() == x_before.tobytes()

    if kind == "smooth_baseline":
        nl = np.tanh(x)
    else:
        nl = np.sign(x) * np.minimum(np.abs(x) ** spec.epsilon, spec.cap)
    values = spec.amplitude * time_weight(spec, t) * lam ** (-spec.beta) * nl
    if kind == "rank_one":
        expected = np.zeros_like(values)
        expected[:, 0] = np.sum(values, axis=-1)
    else:
        expected = values
    assert out.shape == expected.shape and out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()

    # one time per state: each row is the drift at its own time, bit for bit
    times = np.linspace(0.0, 0.9, 6)
    rows = drift_array(spec, lam, times[:, None], x)
    for r in range(6):
        assert rows[r].tobytes() == drift_array(spec, lam, times[r], x[r]).tobytes()


# Recorded from the per-trial loop validators on the 16-mode heat ladder, 10k
# trials: (kind, time_mod, seed, validator, passed, constant, max_ratio, worst)
VALIDATOR_GOLDEN = [
    ("diagonal", "constant", 0, "mode", True, 1.0717734625362931, 1.0000000000000004,
     {"t": 0.5314916072374146, "mode": 13, "x_i": 0.004616790429035762, "y_i": -0.004616790429035762}),
    ("diagonal", "constant", 0, "time", True, 0.0, 0.0,
     {}),
    ("diagonal", "constant", 1, "mode", True, 1.0717734625362931, 1.0000000000000004,
     {"t": 0.09226896413386121, "mode": 13, "x_i": 0.005209957678123232, "y_i": -0.005209957678123232}),
    ("diagonal", "constant", 1, "time", True, 0.0, 0.0,
     {}),
    ("diagonal", "constant", 7, "mode", True, 1.0717734625362931, 1.0000000000000004,
     {"t": 0.984697497380695, "mode": 6, "x_i": 0.0011486620768456422, "y_i": -0.0011486620768456422}),
    ("diagonal", "constant", 7, "time", True, 0.0, 0.0,
     {}),
    ("diagonal", "cosine", 0, "mode", True, 1.0717734625362931, 0.9999999961761663,
     {"t": 8.745094209761106e-05, "mode": 8, "x_i": 0.0017279316006336514, "y_i": -0.0017279316006336514}),
    ("diagonal", "cosine", 0, "time", True, 1.2587082797236964, 0.6531273621897887,
     {"s": 0.989990344401882, "t": 0.7548793524418798}),
    ("diagonal", "cosine", 1, "mode", True, 1.0717734625362931, 0.999999869374605,
     {"t": 0.0005111269859709999, "mode": 1, "x_i": 0.030347394977866073, "y_i": -0.030347394977866073}),
    ("diagonal", "cosine", 1, "time", True, 1.2587082797236964, 0.6557323994341236,
     {"s": 0.7288176510273463, "t": 0.9931849059006819}),
    ("diagonal", "cosine", 7, "mode", True, 1.0717734625362931, 0.9999999974203323,
     {"t": 7.182851073339602e-05, "mode": 7, "x_i": 0.007072718543584862, "y_i": -0.007072718543584862}),
    ("diagonal", "cosine", 7, "time", True, 1.2587082797236964, 0.6525605970555507,
     {"s": 0.7256956868989294, "t": 0.9976732697267473}),
    ("rank_one", "constant", 0, "mode", True, 1.0717734625362931, 1.000000000000565,
     {"t": 0.2404895665697856, "mode": 10, "x_i": 0.0011147737294051204, "y_i": -0.0011147737294051204}),
    ("rank_one", "constant", 0, "time", True, 0.0, 0.0,
     {}),
    ("rank_one", "constant", 1, "mode", True, 1.0717734625362931, 1.0000000000007945,
     {"t": 0.32088010955847923, "mode": 12, "x_i": 0.0010338335071904078, "y_i": -0.0010338335071904078}),
    ("rank_one", "constant", 1, "time", True, 0.0, 0.0,
     {}),
    ("rank_one", "constant", 7, "mode", True, 1.0717734625362931, 1.0000000000005673,
     {"t": 0.5656964311550562, "mode": 15, "x_i": 0.0012560117799993741, "y_i": -0.0012560117799993741}),
    ("rank_one", "constant", 7, "time", True, 0.0, 0.0,
     {}),
    ("rank_one", "cosine", 0, "mode", True, 1.0717734625362931, 0.9999999961760367,
     {"t": 8.745094209761106e-05, "mode": 8, "x_i": 0.0017279316006336514, "y_i": -0.0017279316006336514}),
    ("rank_one", "cosine", 0, "time", True, 3.3807289932289937, 0.4953148984138512,
     {"s": 0.6360511070112979, "t": 0.9439532126338567}),
    ("rank_one", "cosine", 1, "mode", True, 1.0717734625362931, 0.9999998693746056,
     {"t": 0.0005111269859709999, "mode": 1, "x_i": 0.030347394977866073, "y_i": -0.030347394977866073}),
    ("rank_one", "cosine", 1, "time", True, 3.3807289932289937, 0.4697808346669456,
     {"s": 0.9452612220185244, "t": 0.7285704799019611}),
    ("rank_one", "cosine", 7, "mode", True, 1.0717734625362931, 0.9999999974203313,
     {"t": 7.182851073339602e-05, "mode": 7, "x_i": 0.007072718543584862, "y_i": -0.007072718543584862}),
    ("rank_one", "cosine", 7, "time", True, 3.3807289932289937, 0.5045390532402853,
     {"s": 0.7243059763959206, "t": 0.9027562211063529}),
    ("smooth_baseline", "constant", 0, "mode", True, 1.0717734625362931, 0.8667064077991217,
     {"t": 0.289632903681448, "mode": 6, "x_i": 0.4016216496170794, "y_i": -0.4016216496170794}),
    ("smooth_baseline", "constant", 0, "time", True, 0.0, 0.0,
     {}),
    ("smooth_baseline", "constant", 1, "mode", True, 1.0717734625362931, 0.8667058321856672,
     {"t": 0.23942384755279889, "mode": 1, "x_i": 0.4006402257528616, "y_i": -0.4006402257528616}),
    ("smooth_baseline", "constant", 1, "time", True, 0.0, 0.0,
     {}),
    ("smooth_baseline", "constant", 7, "mode", True, 1.0717734625362931, 0.8667063969912576,
     {"t": 0.3952151099632393, "mode": 12, "x_i": 0.401542107787468, "y_i": -0.401542107787468}),
    ("smooth_baseline", "constant", 7, "time", True, 0.0, 0.0,
     {}),
    ("smooth_baseline", "cosine", 0, "mode", True, 1.0717734625362931, 0.8664402471152106,
     {"t": 0.013038089661882357, "mode": 4, "x_i": 0.42156748716492937, "y_i": -0.42156748716492937}),
    ("smooth_baseline", "cosine", 0, "time", True, 1.2587082797236964, 0.6448993892920838,
     {"s": 0.9929462949892476, "t": 0.8157980967961264}),
    ("smooth_baseline", "cosine", 1, "mode", True, 1.0717734625362931, 0.8664657172358358,
     {"t": 0.010744336685843292, "mode": 12, "x_i": 0.4214716158822168, "y_i": -0.4214716158822168}),
    ("smooth_baseline", "cosine", 1, "time", True, 1.2587082797236964, 0.6379026334111927,
     {"s": 0.9978072464895896, "t": 0.8088702054822201}),
    ("smooth_baseline", "cosine", 7, "mode", True, 1.0717734625362931, 0.8663279922763438,
     {"t": 0.029535246107224356, "mode": 14, "x_i": 0.40263648546430814, "y_i": -0.40263648546430814}),
    ("smooth_baseline", "cosine", 7, "time", True, 1.2587082797236964, 0.6298211472890035,
     {"s": 0.7391221366311337, "t": 0.9809478716531418}),
]


@pytest.mark.parametrize(
    "kind, time_mod, seed, which, passed, constant, max_ratio, worst",
    VALIDATOR_GOLDEN,
    ids=[f"{g[0]}-{g[1]}-{g[2]}-{g[3]}" for g in VALIDATOR_GOLDEN],
)
def test_validator_golden(heat16, kind, time_mod, seed, which, passed, constant, max_ratio, worst):
    spec = HolderDriftSpec(kind=kind, beta=0.5, epsilon=0.9, amplitude=1.0, cap=1.0, time_mod=time_mod)
    verify = verify_mode_holder if which == "mode" else verify_time_holder
    report = verify(spec, heat16, trials=10_000, rng_seed=seed)
    assert report["passed"] == passed
    assert report["trials"] == 10_000
    assert report["constant"] == constant
    assert math.isclose(report["max_ratio"], max_ratio, rel_tol=1e-14)
    if not worst:
        assert report["worst"] == {}
        return
    # many trials attain the constant to within rounding, so the worst record
    # may name another trial, as long as its reference ratio ties the maximum
    assert report["worst"].keys() == worst.keys()
    ratio = holder_ratio_at(spec, heat16, which, 10_000, seed, report["worst"])
    assert math.isclose(ratio, max_ratio, rel_tol=1e-14)
