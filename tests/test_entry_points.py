"""The public names and call shapes that callers outside the package use.

The benchmark's per-layer probes (bench/probes.py) call the functions below
with these positional counts and keywords.  A probe that can no longer make
its call is reported there as unavailable, not failed, so a refactor that
drops a name or renames a keyword must fail here instead.  Likewise the
benchmark's tracer (bench/tracer.py) wraps the module bindings below and
silently records no span for one that is gone.  The benchmark's pinned
configs (bench/workloads.py) must parse and satisfy every hypothesis.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "module",
    ["spdelab", "spdelab.spectral", "spdelab.drift", "spdelab.noise", "spdelab.scheme",
     "spdelab.analysis", "spdelab.kolmogorov", "spdelab.cli"],
)
def test_every_exported_name_resolves(module):
    target = importlib.import_module(module)
    missing = [name for name in target.__all__ if not hasattr(target, name)]
    assert missing == []
    assert len(set(target.__all__)) == len(target.__all__)


# (module, attribute path, positional arguments, keywords), as the probes call them
PROBE_CALLS = [
    ("spdelab.analysis", "integrated_square_error", 3, ()),
    ("spdelab.scheme", "simulate_coupled", 3, ()),
    ("spdelab.scheme", "simulate_path", 3, ()),
    ("spdelab.noise", "left_fold_blocks", 2, ()),
    ("spdelab.noise", "NoiseLattice.mode_increments", 4, ()),
    ("spdelab.noise", "ou_joint_modes_batch", 5, ()),
    ("spdelab.drift", "verify_mode_holder", 2, ("trials", "rng_seed")),
    ("spdelab.drift", "verify_time_holder", 2, ("trials", "rng_seed")),
    ("spdelab.kolmogorov", "picard_u_lambda", 5, ("seed",)),
    (
        "spdelab.kolmogorov",
        "PicardConfig",
        0,
        ("lam", "depth", "dims", "time_nodes", "outer_samples", "inner_samples"),
    ),
]


@pytest.mark.parametrize("module, path, n_positional, keywords", PROBE_CALLS)
def test_probe_calls_still_bind(module, path, n_positional, keywords):
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part)
    # raises TypeError when the call shape no longer fits the signature
    inspect.signature(target).bind(*range(n_positional), **dict.fromkeys(keywords))


# the targets bench/tracer.py wraps, as "module:attribute.path"; it also lists
# spdelab.analysis:drift_array, which has been gone since every drift
# evaluation of the studies moved into the scheme
TRACER_TARGETS = [
    "spdelab.noise:NoiseLattice.mode_increments",
    "spdelab.scheme:left_fold_blocks",
    "spdelab.scheme:drift_array",
    "spdelab.kolmogorov:drift_array",
    "spdelab.kolmogorov:ou_transition_sample",
    "spdelab.kolmogorov:ou_joint_modes_batch",
    "spdelab.cli:temporal_study",
    "spdelab.cli:spatial_study",
    "spdelab.cli:increment_statistic",
    "spdelab.cli:kolmogorov_suite",
]


@pytest.mark.parametrize("target", TRACER_TARGETS)
def test_tracer_targets_resolve(target):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _bench_workloads():
    """bench/workloads.py, loaded from its file without importing bench."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["temporal-fine", "spatial-wide", "increment-multi", "kolmogorov-probe"])
def test_benchmark_configs_parse_and_hold(name):
    # the benchmark times these configs; a config schema change that refuses
    # one, or a hypothesis that no longer holds for it, must fail here
    from spdelab.cli import _COMMANDS, hypothesis_rows, parse_config

    workload = _bench_workloads()[name]
    cfg = parse_config(workload.doc)
    assert cfg.study["kind"] == _COMMANDS[workload.command][1]
    assert [(row["name"], row["holds"]) for row in hypothesis_rows(cfg)] == [
        (n, True)
        for n in (
            "noise_trace_summable",
            "drift_weight_constraint",
            "rate_exponent_positive",
            "rate_exponent_below_half",
            "initial_state_in_domain",
        )
    ]
