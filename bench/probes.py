"""Micro-probes of public `spdelab` functions on pinned inputs.

They cover per-layer costs that the CLI workloads hide or never reach: a
single Philox stream set-up, long streams, the dyadic fold, the EI
recursion, the sub-step error integral, the drift validators, a depth-2
Picard evaluation and the joint OU sampler.  Each probe repeats its call and
reports the median.  A probe whose public function is gone or changed its
signature is reported as unavailable with the value 0.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import NOISE_SPANS, Tracer, WORKLOAD_TARGETS

_SEED = 2024
_NOISE_TARGETS = tuple(t for t in WORKLOAD_TARGETS if t[1] in NOISE_SPANS)

# (name, unit) in the order they are reported
PROBES = (
    ("noise.stream_setup_us", "us"),
    ("noise.ns_per_normal_long", "ns"),
    ("noise.fold_ns_per_elem", "ns"),
    ("scheme.ns_per_step_mode", "ns"),
    ("analysis.err2_ns_per_refstep_mode", "ns"),
    ("drift.mode_holder_us_per_trial", "us"),
    ("drift.time_holder_us_per_trial", "us"),
    ("kolmogorov.picard_depth2_s", "s"),
    ("noise.ou_joint_ns_per_draw", "ns"),
)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _net_of_noise(fn) -> float:
    """Seconds spent in fn outside the noise layer's spans."""
    with Tracer(_NOISE_TARGETS) as tracer:
        total = _timed(fn)
    noise = sum(v for k, v in tracer.self_seconds().items() if k in NOISE_SPANS)
    return total - noise


def _model(n_max: int):
    from spdelab.drift import HolderDriftSpec
    from spdelab.scheme import InitialData
    from spdelab.spectral import make_heat_operator

    drift = HolderDriftSpec(
        kind="diagonal", beta=0.5, epsilon=0.9, amplitude=1.0, cap=1.0, time_mod="cosine"
    )
    return make_heat_operator(n_max), drift, InitialData("power_decay", q=3.0)


def _stream_setup(reps):
    from spdelab.noise import NoiseLattice

    lattice = NoiseLattice(_SEED, 1.0, 12, 64)
    calls = 64 * 64

    def batch(offset):
        for pid in range(offset, offset + 64):
            for mode in range(64):
                lattice.mode_increments(pid, mode, 1)

    return [_timed(lambda: batch(64 * r)) / calls * 1e6 for r in range(reps)]


def _long_stream(reps):
    from spdelab.noise import NoiseLattice

    lattice = NoiseLattice(_SEED, 1.0, 16, 8)
    count = 1 << 16

    def batch(pid):
        for mode in range(8):
            lattice.mode_increments(pid, mode, count)

    return [_timed(lambda: batch(r)) / (8 * count) * 1e9 for r in range(reps)]


def _fold(reps):
    from spdelab.noise import left_fold_blocks

    arr = np.random.default_rng(_SEED).standard_normal((4096, 25, 64))
    return [_timed(lambda: left_fold_blocks(arr, 16)) / arr.size * 1e9 for _ in range(reps)]


def _recursion(reps):
    from spdelab.noise import NoiseLattice
    from spdelab.scheme import SchemeConfig, simulate_coupled

    op, drift, initial = _model(64)
    lattice = NoiseLattice(_SEED, 1.0, 10, 64)
    configs = [SchemeConfig(op, drift, initial, 1.0, lev, 64) for lev in range(4, 11)]
    step_modes = sum(cfg.steps for cfg in configs) * 64
    return [
        _net_of_noise(lambda: simulate_coupled(configs, lattice, r)) / step_modes * 1e9
        for r in range(reps)
    ]


def _err2(reps):
    from spdelab.analysis import integrated_square_error
    from spdelab.noise import NoiseLattice
    from spdelab.scheme import SchemeConfig, simulate_path

    op, drift, initial = _model(64)
    lattice = NoiseLattice(_SEED, 1.0, 10, 64)
    ref_cfg = SchemeConfig(op, drift, initial, 1.0, 10, 64)
    approx_cfg = SchemeConfig(op, drift, initial, 1.0, 4, 64)
    out = []
    for r in range(reps):
        ref = simulate_path(ref_cfg, lattice, r)
        approx = simulate_path(approx_cfg, lattice, r)
        seconds = _net_of_noise(lambda: integrated_square_error(ref, approx, lattice))
        out.append(seconds / (ref_cfg.steps * 64) * 1e9)
    return out


def _holder(which):
    def probe(reps):
        from spdelab import drift as drift_module

        verify = getattr(drift_module, which)
        op, drift, _ = _model(64)
        trials = 10_000
        return [
            _timed(lambda: verify(drift, op, trials=trials, rng_seed=_SEED + r)) / trials * 1e6
            for r in range(reps)
        ]

    return probe


def _picard(reps):
    from spdelab.kolmogorov import PicardConfig, picard_u_lambda
    from spdelab.spectral import ModeVector

    op, drift, _ = _model(64)
    cfg = PicardConfig(lam=1.0, depth=2, dims=3, time_nodes=8, outer_samples=64, inner_samples=32)
    x = ModeVector(1.0 / np.arange(1, 4))
    return [_timed(lambda: picard_u_lambda(cfg, op, drift, 0.0, x, seed=_SEED + r)) for r in range(reps)]


def _ou_joint(reps):
    from spdelab.noise import ou_joint_modes_batch

    op, _, _ = _model(64)
    x = 1.0 / np.arange(1, 65)
    size = 20_000
    out = []
    for r in range(reps):
        rng = np.random.default_rng(_SEED + r)
        out.append(_timed(lambda: ou_joint_modes_batch(op, x, 0.5, rng, size)) / (size * 64) * 1e9)
    return out


_RUNNERS = {
    "noise.stream_setup_us": _stream_setup,
    "noise.ns_per_normal_long": _long_stream,
    "noise.fold_ns_per_elem": _fold,
    "scheme.ns_per_step_mode": _recursion,
    "analysis.err2_ns_per_refstep_mode": _err2,
    "drift.mode_holder_us_per_trial": _holder("verify_mode_holder"),
    "drift.time_holder_us_per_trial": _holder("verify_time_holder"),
    "kolmogorov.picard_depth2_s": _picard,
    "noise.ou_joint_ns_per_draw": _ou_joint,
}


def run_probes(reps: int) -> tuple[dict[str, float], dict[str, str]]:
    """Median of `reps` repetitions per probe, and the probes that could not run."""
    values: dict[str, float] = {}
    unavailable: dict[str, str] = {}
    for name, _unit in PROBES:
        try:
            samples = _RUNNERS[name](reps)
        except (ImportError, AttributeError, TypeError) as exc:
            unavailable[name] = f"{type(exc).__name__}: {exc}"
            values[name] = 0.0
            continue
        values[name] = statistics.median(samples)
    return values, unavailable
