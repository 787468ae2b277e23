"""Command line front end: JSON study configs in, CSV and JSON reports out.

Every invocation loads one config document, checks the standing hypotheses
of the rate theorem against it through the library's one gate
(`analysis.theoretical_nu`) and runs the command `_COMMANDS` names.  A
config field the parser does not read for its section's kind is an error,
as are a key repeated in one object and `--workers` on a command with no
worker pool.  An override is the field it sets, checked by that field's
rule: `--seed` sets noise.seed, `--out` output.directory and, on a study
command, `--paths` the study's size field.  A command that writes refuses
an output directory over an existing non-directory before it runs.  The one
writer `_emit` puts `report.csv`, `summary.json` (with the parser's record
of the config and the hypothesis table `analysis.hypotheses`) and `plot.gp`
(plain plotting commands) into the output directory.  The library returns
plain records; `cli` builds every CSV from them with `_csv`, each report.csv
table and `simulate`'s trajectory files, so no other module writes CSV
text.  A study's fields, `kind` aside, are keywords of its function, which
is looked up by its module-level name at each call, so a tracer that
rebinds it here sees every run.  noise.levels is `simulate`'s level and only
bounds a study's lattice, drawn at the level the study reads; it stays
required while the benchmark's configs carry it.
Exit codes: 0 all pass flags true, 1 a study gate failed, 2 every failure
before the command starts (a bad option, a config that cannot be read,
decoded, parsed or allocated, a refused output directory), 3 hypothesis
violated (stderr `hypothesis violated [<row name>]: <row value>`, the first
row of the hypothesis table that does not hold), 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .spectral import SpectralOperator, make_heat_operator
from .drift import HolderDriftSpec, verify_mode_holder, verify_time_holder
from .noise import _MASK64, NoiseLattice
from .scheme import InitialData, SchemeConfig, SimulationError, simulate_path
from .analysis import (
    R2_MIN_POINTS,
    HypothesisViolation,
    _check_sample_fractions,
    hypotheses,
    increment_statistic,
    rate_exponent,
    spatial_study,
    temporal_study,
    theoretical_nu,
)
from .kolmogorov import kolmogorov_suite

__all__ = [
    "ConfigError",
    "StudyConfig",
    "load_config",
    "parse_config",
    "main",
]

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_RUNTIME = 4

# name -> (help text, the study kind its config must describe, or None)
_COMMANDS = {
    "simulate": ("simulate paths at the lattice resolution and dump them as CSV", None),
    "temporal-study": ("self-convergence in the step size", "temporal"),
    "spatial-study": ("self-convergence in the mode count", "spatial"),
    "increment-study": ("off-grid increment regularity", "increment"),
    "kolmogorov-check": ("semigroup, gradient, and Picard probes", "kolmogorov"),
    "validate-drift": ("stress the drift regularity certificates", "validate"),
    "hypotheses": ("print the standing-hypothesis table", None),
}

_STUDY_KINDS = tuple(kind for _, kind in _COMMANDS.values() if kind is not None)
# the studies that run path chunks in workers -> the name of their function here
_POOLED_STUDIES = {"temporal": "temporal_study", "spatial": "spatial_study", "increment": "increment_statistic"}
# the study field that --paths sets: the pooled studies' path count, else the sample size
_SIZE_FIELDS = {**dict.fromkeys(_POOLED_STUDIES, "m_paths"), "kolmogorov": "m_samples", "validate": "trials"}


class ConfigError(ValueError):
    """Structurally invalid configuration document."""


@dataclass
class StudyConfig:
    """A parsed config: the objects the commands run on and `doc`, the
    parser's record of the document.

    `doc` holds every field the parser read, converted, with its default
    filled in and any override applied; it is the `config` of summary.json
    and parses back to itself.  `lattice` is the lattice the command draws;
    `alpha`, the noise regularity, is the one rate exponent not the drift's.
    """

    operator: SpectralOperator
    drift: HolderDriftSpec
    alpha: float
    initial: InitialData
    lattice: NoiseLattice
    doc: dict

    @property
    def study(self) -> dict:
        return self.doc["study"]

    @property
    def output_dir(self) -> str:
        return self.doc["output"]["directory"]


class _Section:
    """One config section: the document's values and the record of the
    fields the parser read from it, so that parse_config can refuse every
    other field."""

    def __init__(self, name: str, values: dict):
        self.name = name
        self.values = dict(values)
        self.record: dict = {}


def _section(doc: dict, name: str, default=MISSING) -> _Section:
    value = doc.get(name, default)
    if value is MISSING:
        raise ConfigError(f"missing section {name!r}")
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return _Section(name, value)


def _get(section: _Section, name: str, default=MISSING, convert=None):
    """Read one field, or its default, pass it through `convert(value,
    "<section>.<name>")` and record the result."""
    value = section.values.get(name, default)
    if value is MISSING:
        raise ConfigError(f"missing field {name!r} in section {section.name!r}")
    if convert is not None:
        value = convert(value, f"{section.name}.{name}")
    section.record[name] = value
    return value


def _integer(value, where: str, minimum: int, maximum: int | None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer")
    if value < minimum or (maximum is not None and value > maximum):
        raise ConfigError(f"{where} out of range")
    return value


def _int_field(section, name, minimum, maximum=None, default=MISSING) -> int:
    return _get(section, name, default, lambda v, where: _integer(v, where, minimum, maximum))


def _int_list(values, where: str, minimum: int, maximum: int | None) -> list[int]:
    """A non-empty list of distinct integers in [minimum, maximum], sorted."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where} must be a non-empty list")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum or (maximum is not None and v > maximum):
            bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
            raise ConfigError(f"{where} entries must be integers {bounds}")
    if len(set(values)) != len(values):
        raise ConfigError(f"{where} entries must be distinct")
    return sorted(values)


def _int_list_field(section, name, minimum, maximum=None, default=MISSING) -> list[int]:
    return _get(section, name, default, lambda v, where: _int_list(v, where, minimum, maximum))


_DRIFT_NUMBERS = ("beta", "epsilon", "amplitude", "cap", "period")


def _number(value, what: str) -> float:
    """A finite JSON number; strings and booleans are refused."""
    # an int too large for a float raises OverflowError, a config error in parse_config
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number")
    return float(value)


def _float_field(section, name, default=MISSING) -> float:
    return _get(section, name, default, _number)


def _numbers(values, where: str) -> list[float]:
    """A non-empty list of finite numbers, in the given order."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where} must be a non-empty list")
    return [_number(v, f"{where} entries") for v in values]


def _float_list_field(section, name, default=MISSING) -> list[float]:
    return _get(section, name, default, _numbers)


def _build_operator(section: _Section) -> SpectralOperator:
    kind = _get(section, "kind")
    if kind == "heat":
        return make_heat_operator(_int_field(section, "n_max", 1))
    if kind == "power_law":
        power = _float_field(section, "power")
        return SpectralOperator(_int_field(section, "n_max", 1), power)
    raise ConfigError(f"unknown operator kind {kind!r}")


def _normalize_study(section: _Section, wanted, paths, levels: int, modes: int, op: SpectralOperator) -> int:
    """Read the study section for its kind; `wanted` is the kind the
    command runs (None for any), `paths` sets the kind's size field, and
    the finest lattice level the kind reads is returned (`levels` if none)."""
    kind = _get(section, "kind")
    if kind not in _STUDY_KINDS:
        raise ConfigError(f"unknown study kind {kind!r}")
    if wanted is not None and kind != wanted:
        raise ConfigError(f"config describes a {kind!r} study, not {wanted!r}")
    if paths is not None:
        section.values[_SIZE_FIELDS[kind]] = paths
    if kind in _POOLED_STUDIES:
        ladder = _int_list_field(section, "ladder", 0)
        # the study fits a rate through the rungs; simulate and hypotheses run none
        if wanted is not None and len(ladder) < 2:
            raise ConfigError("study.ladder needs at least two rungs to fit a rate")
    read = levels
    if kind == "temporal":
        if ladder[-1] >= (read := _int_field(section, "reference_level", 0, levels)):
            raise ConfigError("study.ladder must stay strictly below the reference level")
        _int_field(section, "n_modes", 1, modes, default=modes)
        _int_field(section, "m_paths", 2)
    elif kind == "spatial":
        if ladder[0] < 1 or ladder[-1] >= _int_field(section, "reference_modes", 1, modes):
            raise ConfigError("study.ladder must be mode counts strictly below reference_modes")
        read = _int_field(section, "level", 0, levels)
        _int_field(section, "m_paths", 2)
    elif kind == "increment":
        if ladder[-1] >= levels:
            raise ConfigError("study.ladder must stay strictly below the lattice levels")
        fractions = _float_list_field(section, "sample_fractions", default=[0.5])
        read = ladder[-1] + _check_sample_fractions(fractions, ladder[-1], levels)
        _int_field(section, "n_modes", 1, modes, default=modes)
        _int_field(section, "m_paths", 2)
    elif kind == "kolmogorov":
        # the default keeps the modes the operator has, as the suite caps its dimensions
        _int_list_field(section, "decay_modes", 1, op.n_max, default=[i for i in (1, 4, 16) if i <= op.n_max])
        _int_field(section, "m_samples", 2, default=20_000)
    else:
        _int_field(section, "trials", 1, default=10_000)
    return read


def _directory(value, where: str) -> str:
    # str() would turn null into the directory ./None, and "" is the working directory
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string")
    return value


_SECTIONS = ("operator", "drift", "rate_params", "initial", "noise", "study")  # output is optional


def parse_config(doc: dict, kind=None, seed=None, paths=None, out=None) -> StudyConfig:
    """Parse a config document for a command that runs study `kind` (None
    for any).  The overrides set their fields before any field is read:
    `seed` noise.seed, `out` output.directory and `paths` the study's size
    field (`_SIZE_FIELDS`); each then passes that field's rule."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - {*_SECTIONS, "output"}
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    try:
        sections = {name: _section(doc, name) for name in _SECTIONS}
        sections["output"] = _section(doc, "output", default={"directory": "out"})
        for name, field, value in (("noise", "seed", seed), ("output", "directory", out)):
            if value is not None:
                sections[name].values[field] = value
        op = _build_operator(sections["operator"])
        drift_section = sections["drift"]
        drift = HolderDriftSpec(
            **{
                f.name: _get(drift_section, f.name, f.default, _number if f.name in _DRIFT_NUMBERS else None)
                for f in fields(HolderDriftSpec)
            }
        )
        rate_section = sections["rate_params"]
        alpha = _float_field(rate_section, "alpha")
        # the drift owns beta and epsilon; the section repeats them, checked below
        repeated = (_float_field(rate_section, "beta"), _float_field(rate_section, "epsilon"))
        rate_exponent(alpha, drift)  # refuses an alpha outside (0, 1)
        initial_section = sections["initial"]
        profile = _get(initial_section, "profile")
        if profile == "power_decay":
            initial = InitialData("power_decay", q=_float_field(initial_section, "q"))
        elif profile == "explicit":
            coeffs = _float_list_field(initial_section, "coeffs")
            # a coefficient past the operator's modes would be dropped unseen
            if len(coeffs) > op.n_max:
                raise ConfigError(
                    f"initial.coeffs holds {len(coeffs)} coefficients, more than operator.n_max {op.n_max}"
                )
            initial = InitialData("explicit", coeffs=tuple(coeffs))
        else:
            raise ConfigError(f"unknown initial profile {profile!r}")
        noise = sections["noise"]
        seed = _int_field(noise, "seed", 0, _MASK64)
        levels = _int_field(noise, "levels", 0, 30)
        n_modes = _int_field(noise, "n_modes", 1, op.n_max)
        horizon = _float_field(noise, "horizon", default=1.0)
        if horizon <= 0.0:
            raise ConfigError("noise.horizon must be positive")
        read = _normalize_study(sections["study"], kind, paths, levels, n_modes, op)
        lattice = NoiseLattice(seed, horizon, levels if kind is None else read, n_modes)
        _get(sections["output"], "directory", convert=_directory)
        for section in sections.values():
            if unread := sorted(set(section.values) - set(section.record)):
                raise ConfigError(f"unknown fields in section {section.name!r}: {unread}")
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    except MemoryError as exc:  # numpy cannot allocate, say, an operator's ladder
        raise ConfigError(f"config needs more memory than there is: {exc}") from exc
    if repeated != (drift.beta, drift.epsilon):
        raise ConfigError("rate_params must repeat the drift's beta and epsilon")
    doc = {name: section.record for name, section in sections.items()}
    return StudyConfig(op, drift, alpha, initial, lattice, doc)


def _reject_constant(name: str):
    raise ConfigError(f"config holds the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is out of the floating-point range")
    return value


def _unique_keys(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"config repeats the key {key!r}")
        doc[key] = value
    return doc


def load_config(path, kind=None, seed=None, paths=None, out=None) -> StudyConfig:
    """Read and parse a config file; the arguments are those of parse_config."""
    try:
        # json accepts NaN, Infinity and overflowing literals such as 1e400,
        # and keeps the last of repeated keys; none of them is a valid
        # setting, so they are refused here
        doc = json.loads(
            Path(path).read_text(), object_pairs_hook=_unique_keys,
            parse_constant=_reject_constant, parse_float=_finite_float,
        )
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # json recurses once per nesting level
        raise ConfigError(f"config nests too deeply: {exc}") from exc
    return parse_config(doc, kind, seed, paths, out)


def _sanitize(value):
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sanitize(float(v)) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value


def _csv(header: str, rows) -> str:
    """report.csv text: the header, then each row's cells as text, comma-separated."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def _plot(*lines: str) -> str:
    """plot.gp text: the shared header, then the given gnuplot commands."""
    return "\n".join(["# plotting commands for a gnuplot-compatible tool", "set datafile separator ','", *lines, ""])


def _check_output_dir(directory: str) -> None:
    """Refuse an output directory that is, or lies under, an existing non-directory."""
    path = Path(directory)
    try:
        for part in (path, *path.parents):
            if part.exists():
                if not part.is_dir():
                    raise ConfigError(f"output.directory {directory!r}: {part} exists and is not a directory")
                return
    except OSError as exc:  # a name too long, say
        raise ConfigError(f"output.directory {directory!r}: {exc}") from exc


def _emit(cfg: StudyConfig, summary: dict, plot: str, report_csv: str | None = None) -> Path:
    """Write the outputs of one command into the output directory and return it.

    `summary.json` gets the config and the hypothesis table added; `plot.gp`
    holds `plot`; `report.csv` is written when given.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if report_csv is not None:
        (outdir / "report.csv").write_text(report_csv)
    summary["config"] = cfg.doc
    summary["hypotheses"] = hypotheses(cfg.operator, cfg.drift, cfg.alpha, cfg.initial)
    (outdir / "summary.json").write_text(json.dumps(_sanitize(summary), indent=2, sort_keys=True) + "\n")
    (outdir / "plot.gp").write_text(plot)
    return outdir


def _emit_convergence(cfg: StudyConfig, summary: dict) -> int:
    """Write a convergence study's record as summary.json, its rows as
    report.csv, and print the rows and the verdict."""
    xcol, xlabel = (3, "retained modes") if summary["study"] == "spatial" else (2, "step size")
    if cfg.lattice.levels != cfg.doc["noise"]["levels"]:  # drawn below its bound
        summary["lattice_levels"] = cfg.lattice.levels
    plot = _plot(
        "set logscale xy",
        f"set xlabel '{xlabel}'",
        "set ylabel 'mean integrated squared error'",
        "set key left top",
        f"slope = {summary['slope']!r}",
        f"intercept = {summary['intercept']!r}",
        f"plot 'report.csv' skip 1 using {xcol}:5:6 with yerrorlines title 'measured', \\",
        "     exp(intercept) * x**slope with lines title sprintf('fit, slope %.3f', slope)",
    )
    header = "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr"
    outdir = _emit(cfg, summary, plot, _csv(header, (row.values() for row in summary["rows"])))
    for row in summary["rows"]:
        print(
            f"resolution {row['resolution']:>4}  delta {row['delta']:.6g}  "
            f"err2 {row['err2_mean']:.6g} +- {row['err2_stderr']:.3g}"
        )
    verdict = "pass" if summary["pass"] else "FAIL"
    gate = ""
    if "slope_threshold" in summary:
        gate = f"  stderr {summary['slope_stderr']:.4f}  threshold {summary['slope_threshold']:.4f}"
    points = summary["fit_points"]
    r2 = f"r2 {summary['r2']:.4f}" if points >= R2_MIN_POINTS else f"r2 n/a ({points} points)"
    print(
        f"{summary['study']} study: slope {summary['slope']:.4f}{gate}  {r2}  "
        f"nu {summary['nu_theory']:.5g}  -> {verdict}"
    )
    for name, ok in summary["pass_flags"].items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    print(f"wrote {outdir / 'report.csv'}, {outdir / 'summary.json'}, {outdir / 'plot.gp'}")
    return EXIT_OK if summary["pass"] else EXIT_ACCEPTANCE


def _cmd_convergence(cfg: StudyConfig, workers: int) -> int:
    fields = {k: v for k, v in cfg.study.items() if k != "kind"}
    study = globals()[_POOLED_STUDIES[cfg.study["kind"]]]
    record = study(cfg.operator, cfg.drift, cfg.initial, cfg.lattice, **fields, alpha=cfg.alpha, workers=workers)
    return _emit_convergence(cfg, record)


def _cmd_kolmogorov(cfg: StudyConfig) -> int:
    # the kolmogorov study's fields are kolmogorov_suite's keywords; its theta is alpha
    settings = {k: v for k, v in cfg.study.items() if k != "kind"}
    lat = cfg.lattice
    suite = kolmogorov_suite(cfg.operator, cfg.drift, cfg.alpha, horizon=lat.horizon, seed=lat.master_seed, **settings)
    plot = _plot(
        "set logscale y",
        "set xlabel 'mode index'",
        "set ylabel 'gradient size at t = 1/lam_i'",
        "plot 'report.csv' skip 1 using 1:2 with linespoints title 'exact gradient size', \\",
        "     'report.csv' skip 1 using 1:($2/$5) with lines title 'sup bound', \\",
        "     'report.csv' skip 1 using 1:($2/$6) with lines title 'Holder bound'",
    )
    decay_csv = _csv("i,estimate,stderr,t,bound_ratio,holder_ratio", (row.values() for row in suite["decay"]["rows"]))
    outdir = _emit(cfg, suite, plot, decay_csv)
    for check in suite["checks"]:
        print(f"  [{'ok' if check['passed'] else 'FAIL'}] {check['name']}: {check['detail']}")
    print(f"wrote {outdir / 'report.csv'}, {outdir / 'summary.json'}, {outdir / 'plot.gp'}")
    return EXIT_OK if suite["passed"] else EXIT_ACCEPTANCE


def _cmd_validate(cfg: StudyConfig) -> int:
    lattice, trials = cfg.lattice, cfg.study["trials"]
    reports = [
        verify(cfg.drift, cfg.operator, trials=trials, rng_seed=lattice.master_seed, horizon=lattice.horizon)
        for verify in (verify_mode_holder, verify_time_holder)
    ]
    columns = ("name", "passed", "trials", "max_ratio", "constant")
    report_csv = _csv(",".join(columns), ([rep[c] for c in columns] for rep in reports))
    passed = all(rep["passed"] for rep in reports)
    _emit(cfg, {"pass": passed, "validators": reports}, "# nothing to plot for validator reports\n", report_csv)
    for rep in reports:
        print(f"  [{'ok' if rep['passed'] else 'FAIL'}] {rep['name']}: max ratio {rep['max_ratio']:.6f}")
    return EXIT_OK if passed else EXIT_ACCEPTANCE


def _cmd_simulate(cfg: StudyConfig, n_paths: int) -> int:
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    lattice = cfg.lattice
    scheme = SchemeConfig(cfg.operator, cfg.drift, cfg.initial, lattice.horizon, lattice.levels, lattice.n_modes)
    header = ",".join(["t", *(f"mode_{i + 1}" for i in range(scheme.n_dim))])
    files = []
    for pid in range(n_paths):
        grid = simulate_path(scheme, lattice, pid).grid
        target = outdir / f"trajectory_{pid}.csv"
        target.write_text(_csv(header, ([k * scheme.delta, *row.tolist()] for k, row in enumerate(grid))))
        files.append(target.name)
    summary = {"paths": n_paths, "level": lattice.levels, "n_modes": lattice.n_modes, "files": files}
    plot = _plot(
        "set xlabel 't'",
        "set ylabel 'first mode'",
        "plot 'trajectory_0.csv' skip 1 using 1:2 with lines title 'mode 1'",
    )
    _emit(cfg, summary, plot)
    print(f"wrote {n_paths} trajectories to {outdir}")
    return EXIT_OK


def _cmd_hypotheses(cfg: StudyConfig) -> int:
    rows = hypotheses(cfg.operator, cfg.drift, cfg.alpha, cfg.initial)
    width = max(len(r["name"]) for r in rows)
    for row in rows:
        print(f"{row['name']:<{width}}  {'holds' if row['holds'] else 'fails':<12}  {row['value']}")
    return EXIT_OK if all(row["holds"] for row in rows) else EXIT_HYPOTHESIS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdelab",
        description="Convergence and regularity studies for a spectral "
        "exponential-integrator scheme with rough bounded drifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON study config")
        sp.add_argument("--seed", type=int, default=None, help="override the master seed")
        sp.add_argument("--paths", type=int, default=None, help="override the Monte Carlo size")
        sp.add_argument("--out", default=None, help="override the output directory")
        sp.add_argument(
            "--workers", type=int, default=None, help="path-chunk workers of a convergence study (default: cpu count)"
        )
        sp.add_argument(
            "--deterministic",
            action="store_true",
            help="run everything in-process; results match any worker count bit for bit",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    wanted = _COMMANDS[args.command][1]
    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigError("worker count must be positive")
        if args.workers is not None and wanted not in _POOLED_STUDIES:
            raise ConfigError(f"{args.command} has no worker pool, so it takes no --workers")
        if args.workers is not None and args.deterministic:
            raise ConfigError("--deterministic runs in-process, so it takes no --workers")
        # simulate reads --paths as a path count and hypotheses runs no study,
        # so only the commands with a study kind take it as a study size
        simulate = args.command == "simulate"
        if simulate and args.paths is not None and args.paths < 1:
            raise ConfigError("path override must be positive")
        cfg = load_config(args.config, wanted, args.seed, None if wanted is None else args.paths, args.out)
        # checked before any study runs, and here so that parsing reads no file system
        if args.command != "hypotheses":
            _check_output_dir(cfg.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    workers = 1 if args.deterministic else (args.workers or os.cpu_count() or 1)
    try:
        if args.command == "hypotheses":
            return _cmd_hypotheses(cfg)
        theoretical_nu(cfg.operator, cfg.drift, cfg.alpha, cfg.initial)
        if simulate:
            return _cmd_simulate(cfg, args.paths or 1)
        if wanted == "kolmogorov":
            return _cmd_kolmogorov(cfg)
        if wanted == "validate":
            return _cmd_validate(cfg)
        return _cmd_convergence(cfg, workers)
    except HypothesisViolation as exc:
        print(f"hypothesis violated [{exc.hypothesis}]: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (SimulationError, MemoryError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # a study must never die without a coded exit
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
