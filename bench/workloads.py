"""The four pinned `spdelab` CLI studies the benchmark times.

All four share the canonical model: heat operator, the rough diagonal drift
(beta 0.5, epsilon 0.9, cosine time modulation), alpha 0.45, power-decay
initial data with q = 3, horizon 1.  The master seed is not part of a config;
the benchmark passes it to every run as `--seed`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

_DRIFT = {
    "kind": "diagonal",
    "beta": 0.5,
    "epsilon": 0.9,
    "amplitude": 1.0,
    "cap": 1.0,
    "time_mod": "cosine",
}


def _doc(n_max: int, levels: int, n_modes: int, study: dict) -> dict:
    return {
        "operator": {"kind": "heat", "n_max": n_max},
        "drift": dict(_DRIFT),
        "rate_params": {"alpha": 0.45, "beta": 0.5, "epsilon": 0.9},
        "initial": {"profile": "power_decay", "q": 3.0},
        "noise": {"seed": 0, "levels": levels, "n_modes": n_modes, "horizon": 1.0},
        "study": study,
        "output": {"directory": "out"},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    doc: dict
    pooled: bool  # timed runs use the process pool; every other run is --deterministic
    expected_rows: int  # data rows report.csv must hold
    smoke_size: int  # the `--paths` override of the smoke mode

    def mode_args(self) -> list[str]:
        """Worker flags of a timed run: at most two pool workers, never more than nproc."""
        if self.pooled:
            return ["--workers", str(min(2, os.cpu_count() or 1))]
        return ["--deterministic"]


WORKLOADS = {
    w.name: w
    for w in [
        # long Philox streams, the dyadic fold, sub-step error integration and
        # the 52 MB fine block; the only workload that uses the process pool
        Workload(
            "temporal-fine",
            "temporal-study",
            _doc(64, 12, 64, {"kind": "temporal", "ladder": [4, 5, 6, 7, 8],
                              "reference_level": 10, "n_modes": 64, "m_paths": 50}),
            pooled=True,
            expected_rows=5,
            smoke_size=4,
        ),
        # ratio 1 and block 1: no fold work, no sub-step integration, no pool;
        # dominated by Philox stream set-up (51,200 streams of 128 draws)
        Workload(
            "spatial-wide",
            "spatial-study",
            _doc(512, 7, 512, {"kind": "spatial", "ladder": [32, 64, 128, 256],
                               "reference_modes": 512, "level": 7, "m_paths": 100}),
            pooled=False,
            expected_rows=4,
            smoke_size=4,
        ),
        # the temporal layers used differently: a full per-block prefix read at
        # three offsets and no reference grid
        Workload(
            "increment-multi",
            "increment-study",
            _doc(64, 12, 32, {"kind": "increment", "ladder": [3, 4, 5, 6, 7], "n_modes": 32,
                              "sample_fractions": [0.25, 0.5, 0.75], "m_paths": 100}),
            pooled=False,
            expected_rows=5,
            smoke_size=4,
        ),
        # no lattice and no scheme: exact OU/Bismut samplers and drift on
        # (1e5, 64) batches; the no-change control and the memory-heavy case
        Workload(
            "kolmogorov-probe",
            "kolmogorov-check",
            _doc(64, 6, 8, {"kind": "kolmogorov", "m_samples": 100_000,
                            "decay_modes": [1, 4, 16, 64]}),
            pooled=False,
            expected_rows=4,
            smoke_size=2_000,
        ),
    ]
}

KOLMOGOROV_CHECKS = (
    "semigroup_linear_closed_form",
    "bismut_linear_closed_form",
    "bismut_matches_finite_difference",
    "gradient_decay_bounded",
    "picard_terminal_zero",
    "picard_norm_bound",
    "picard_smallness_trend",
    "summability_non_exploding",
)
