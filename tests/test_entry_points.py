"""The public names and call shapes that callers outside the package use.

The benchmark's per-layer probes (bench/probes.py) call the functions below
with these positional counts and keywords.  A probe that can no longer make
its call is reported there as unavailable, not failed, so a refactor that
drops a name or renames a keyword must fail here instead.  Likewise the
benchmark's tracer (bench/tracer.py) wraps the module bindings below and
silently records no span for one that is gone.  The benchmark's pinned
configs (bench/workloads.py) must parse and satisfy every hypothesis.  And
the public surface is no larger than its callers: each exported name is
used by the package itself or by the benchmark.  The package imports only
the standard library and the dependencies pyproject.toml declares.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "module",
    ["spdelab.spectral", "spdelab.drift", "spdelab.noise", "spdelab.scheme",
     "spdelab.analysis", "spdelab.kolmogorov", "spdelab.cli"],
)
def test_every_exported_name_resolves(module):
    target = importlib.import_module(module)
    missing = [name for name in target.__all__ if not hasattr(target, name)]
    assert missing == []
    assert len(set(target.__all__)) == len(target.__all__)
    # each name has one import path: a module exports only what it defines
    borrowed = [
        name
        for name in target.__all__
        if (inspect.isclass(getattr(target, name)) or inspect.isfunction(getattr(target, name)))
        and getattr(target, name).__module__ != module
    ]
    assert borrowed == []


def test_package_imports_nothing():
    # the package is no second import path: every name comes from its module
    spec = importlib.util.find_spec("spdelab")
    tree = ast.parse(Path(spec.origin).read_text())
    assert [type(node).__name__ for node in tree.body[1:]] == []


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
    # the probe kolmogorov.picard_depth2_s has not bound since the nested
    # depth-2 Picard path was deleted: it passes depth=2 to a config type
    # that is now gone too; the call to time is
    # picard_u_lambda(lam, op, spec, t, x, horizon, seed)
    ("spdelab.kolmogorov", "picard_u_lambda", 5, ("seed",)),
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


SRC = Path(__file__).resolve().parents[1] / "src" / "spdelab"


def _loaded_names(tree: ast.Module, skip: str) -> set[str]:
    """Names the module's code reads, outside the definition of ``skip``."""
    return {
        node.id
        for top in tree.body
        if not (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__")))
def test_every_exported_name_has_a_caller(module):
    # the public surface is what the package, the CLI and the benchmark use:
    # an exported name is imported by a sibling module, read by its own
    # module's code outside its definition, or called by a probe or traced
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    imported = {
        alias.name
        for stem, tree in trees.items()
        if stem != module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    benchmarked = {path.split(".")[0] for _, path, _, _ in PROBE_CALLS}
    benchmarked |= {target.partition(":")[2].split(".")[0] for target in TRACER_TARGETS}
    uncalled = [
        name
        for name in importlib.import_module(f"spdelab.{module}").__all__
        if name not in imported | benchmarked and name not in _loaded_names(trees[module], name)
    ]
    assert uncalled == []


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
    from spdelab.analysis import hypotheses
    from spdelab.cli import _COMMANDS, parse_config

    workload = _bench_workloads()[name]
    cfg = parse_config(workload.doc)
    assert cfg.study["kind"] == _COMMANDS[workload.command][1]
    assert parse_config(cfg.doc).doc == cfg.doc
    rows = hypotheses(cfg.operator, cfg.drift, cfg.alpha, cfg.initial)
    assert [(row["name"], row["holds"]) for row in rows] == [
        (n, True)
        for n in (
            "noise_trace_summable",
            "drift_weight_constraint",
            "rate_exponent_positive",
            "rate_exponent_below_half",
            "initial_state_in_domain",
        )
    ]


def test_imports_are_stdlib_or_declared_dependencies():
    # a module installed here but not declared (scipy, say) would pass every
    # local test and fail on a clean install; imports inside functions count
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", dep)[0].lower() for dep in pyproject["project"]["dependencies"]}
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    # the pool's imports sit inside analysis._run_chunks
    assert {("analysis.py", "concurrent"), ("analysis.py", "numpy")} <= imported
    assert "numpy" in declared
    assert sorted(pair for pair in imported if pair[1] not in sys.stdlib_module_names | declared) == []
