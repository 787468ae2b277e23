"""Command line front end: JSON study configs in, CSV and JSON reports out.

Every invocation loads one config document, checks the standing hypotheses
of the rate theorem against it and runs the command `_COMMANDS` names.  A
config field the parser does not read for its section's kind is an error,
as is `--workers` on a command with no worker pool.  The one writer `_emit`
puts `report.csv`, `summary.json` (with the config and the hypothesis table)
and `plot.gp` (plain plotting commands) into the output directory.  Study
functions are looked up by their module-level names at each call, never kept
in a table, so a tracer that rebinds them here sees every run.
Exit codes: 0 all pass flags true, 1 a study gate failed, 2 invalid config,
3 hypothesis violated (stderr `hypothesis violated [<row name>]: <row
value>`, the first row of the hypothesis table that does not hold),
4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .spectral import (
    SpectralOperator,
    check_trace_condition,
    make_heat_operator,
    make_power_law_operator,
)
from .drift import HolderDriftSpec, verify_mode_holder, verify_time_holder
from .noise import _MASK64, NoiseLattice
from .scheme import (
    InitialData,
    SchemeConfig,
    SimulationError,
    initial_domain_check,
    simulate_path,
    write_trajectory_csv,
)
from .analysis import (
    R2_MIN_POINTS,
    ConvergenceReport,
    HypothesisViolation,
    RateParams,
    _check_sample_fractions,
    increment_statistic,
    rate_hypotheses,
    spatial_study,
    temporal_study,
)
from .kolmogorov import kolmogorov_suite

__all__ = [
    "ConfigError",
    "StudyConfig",
    "load_config",
    "parse_config",
    "hypothesis_rows",
    "enforce_hypotheses",
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
_POOLED_KINDS = ("temporal", "spatial", "increment")  # the studies that run path chunks in workers


class ConfigError(ValueError):
    """Structurally invalid configuration document."""


@dataclass
class StudyConfig:
    operator: SpectralOperator
    drift: HolderDriftSpec
    rate: RateParams
    initial: InitialData
    master_seed: int
    levels: int
    n_modes: int
    horizon: float
    study: dict
    output_dir: str

    def to_dict(self) -> dict:
        power = self.operator.power
        op: dict = {"kind": "heat", "n_max": self.operator.n_max}
        if power is None:
            op = {"kind": "explicit", "eigenvalues": [float(v) for v in self.operator.eigenvalues]}
        elif power != 2.0:
            op = {"kind": "power_law", "n_max": self.operator.n_max, "power": power}
        initial: dict = {"profile": self.initial.profile}
        if self.initial.profile == "power_decay":
            initial["q"] = self.initial.q
        else:
            initial["coeffs"] = list(self.initial.coeffs)
        return {
            "operator": op,
            "drift": asdict(self.drift),
            "rate_params": {
                "alpha": self.rate.alpha,
                "beta": self.rate.beta,
                "epsilon": self.rate.epsilon,
            },
            "initial": initial,
            "noise": {
                "seed": self.master_seed,
                "levels": self.levels,
                "n_modes": self.n_modes,
                "horizon": self.horizon,
            },
            "study": dict(self.study),
            "output": {"directory": self.output_dir},
        }

    def lattice(self) -> NoiseLattice:
        return NoiseLattice(self.master_seed, self.horizon, self.levels, self.n_modes)


class _Section(dict):
    """One config section; it records the fields the parser reads from it,
    so that parse_config can refuse every other field."""

    def __init__(self, name: str, values: dict):
        super().__init__(values)
        self.name = name
        self.read: set[str] = set()


_MISSING = object()


def _section(doc: dict, name: str, default=_MISSING) -> _Section:
    value = doc.get(name, default)
    if value is _MISSING:
        raise ConfigError(f"missing section {name!r}")
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return _Section(name, value)


def _get(section: _Section, name: str, default=_MISSING):
    section.read.add(name)
    if name in section:
        return section[name]
    if default is _MISSING:
        raise ConfigError(f"missing field {name!r} in section {section.name!r}")
    return default


def _int_field(section, name, minimum, maximum=None, default=_MISSING) -> int:
    value = _get(section, name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{section.name}.{name} must be an integer")
    if value < minimum or (maximum is not None and value > maximum):
        raise ConfigError(f"{section.name}.{name} out of range")
    return value


def _int_list_field(section, name, minimum, maximum=None, default=_MISSING) -> list[int]:
    """A non-empty list of distinct integers in [minimum, maximum], sorted."""
    values = _get(section, name, default)
    where = f"{section.name}.{name}"
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where} must be a non-empty list")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum or (maximum is not None and v > maximum):
            bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
            raise ConfigError(f"{where} entries must be integers {bounds}")
    if len(set(values)) != len(values):
        raise ConfigError(f"{where} entries must be distinct")
    return sorted(values)


_DRIFT_NUMBERS = ("beta", "epsilon", "amplitude", "cap", "period")


def _number(value, what: str) -> float:
    """A finite JSON number; strings and booleans are refused."""
    # an int too large for a float raises OverflowError, a config error in parse_config
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number")
    return float(value)


def _float_field(section, name, default=_MISSING) -> float:
    return _number(_get(section, name, default), f"{section.name}.{name}")


def _float_list_field(section, name, default=_MISSING) -> list[float]:
    """A non-empty list of finite numbers, in the given order."""
    values = _get(section, name, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{section.name}.{name} must be a non-empty list")
    return [_number(v, f"{section.name}.{name} entries") for v in values]


def _build_operator(section: _Section) -> SpectralOperator:
    kind = _get(section, "kind")
    if kind == "heat":
        return make_heat_operator(_int_field(section, "n_max", 1))
    if kind == "power_law":
        power = _float_field(section, "power")
        return make_power_law_operator(_int_field(section, "n_max", 1), power)
    if kind == "explicit":
        return SpectralOperator(np.asarray(_float_list_field(section, "eigenvalues")))
    raise ConfigError(f"unknown operator kind {kind!r}")


def _normalize_study(section: _Section, cfg_levels: int, cfg_modes: int, op: SpectralOperator, rate: RateParams) -> dict:
    kind = _get(section, "kind")
    if kind not in _STUDY_KINDS:
        raise ConfigError(f"unknown study kind {kind!r}")
    out: dict = {"kind": kind}
    if kind == "temporal":
        ladder = _int_list_field(section, "ladder", 0)
        ref = _int_field(section, "reference_level", 0, cfg_levels)
        if ladder[-1] >= ref:
            raise ConfigError("study.ladder must stay strictly below the reference level")
        n_modes = _int_field(section, "n_modes", 1, min(cfg_modes, op.n_max), default=min(cfg_modes, op.n_max))
        out.update(
            ladder=ladder,
            reference_level=ref,
            n_modes=n_modes,
            m_paths=_int_field(section, "m_paths", 2),
        )
    elif kind == "spatial":
        ladder = _int_list_field(section, "ladder", 0)
        ref = _int_field(section, "reference_modes", 1, min(cfg_modes, op.n_max))
        if ladder[0] < 1 or ladder[-1] >= ref:
            raise ConfigError("study.ladder must be mode counts strictly below reference_modes")
        out.update(
            ladder=ladder,
            reference_modes=ref,
            level=_int_field(section, "level", 0, cfg_levels),
            m_paths=_int_field(section, "m_paths", 2),
        )
    elif kind == "increment":
        ladder = _int_list_field(section, "ladder", 0)
        if ladder[-1] >= cfg_levels:
            raise ConfigError("study.ladder must stay strictly below the lattice levels")
        fractions = _float_list_field(section, "sample_fractions", default=[0.5])
        _check_sample_fractions(fractions, ladder[-1], cfg_levels)
        out.update(
            ladder=ladder,
            n_modes=_int_field(section, "n_modes", 1, min(cfg_modes, op.n_max), default=min(cfg_modes, op.n_max)),
            m_paths=_int_field(section, "m_paths", 2),
            sample_fractions=fractions,
        )
    elif kind == "kolmogorov":
        dims = _int_field(section, "dims", 1, min(4, op.n_max), default=min(4, op.n_max))
        decay_modes = _int_list_field(section, "decay_modes", 1, op.n_max, default=[1, 4, 16])
        lam_sweep = _float_list_field(section, "lam_sweep", default=[1.0, 10.0, 100.0])
        if any(v <= 0.0 for v in lam_sweep) or sorted(lam_sweep) != lam_sweep:
            raise ConfigError("study.lam_sweep must be positive and ascending")
        t = _float_field(section, "t", default=0.5)
        if t <= 0.0:
            raise ConfigError("study.t must be positive")
        theta = _float_field(section, "theta", default=rate.alpha)
        if theta < 0.0:
            raise ConfigError("study.theta must be nonnegative")
        out.update(
            m_samples=_int_field(section, "m_samples", 2, default=20_000),
            dims=dims,
            t=t,
            decay_modes=decay_modes,
            picard_dims=_int_field(section, "picard_dims", 1, min(4, op.n_max), default=min(3, op.n_max)),
            lam_sweep=lam_sweep,
            theta=theta,
        )
    else:
        out.update(trials=_int_field(section, "trials", 1, default=10_000))
    return out


_SECTIONS = ("operator", "drift", "rate_params", "initial", "noise", "study")  # output is optional


def parse_config(doc: dict) -> StudyConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - {*_SECTIONS, "output"}
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    try:
        sections = {name: _section(doc, name) for name in _SECTIONS}
        sections["output"] = _section(doc, "output", default={"directory": "out"})
        op = _build_operator(sections["operator"])
        drift_section = sections["drift"]
        drift = HolderDriftSpec(
            **{
                f.name: _float_field(drift_section, f.name) if f.name in _DRIFT_NUMBERS else _get(drift_section, f.name)
                for f in fields(HolderDriftSpec)
                if f.name in drift_section
            }
        )
        rate_section = sections["rate_params"]
        rate = RateParams(
            alpha=_float_field(rate_section, "alpha"),
            beta=_float_field(rate_section, "beta"),
            epsilon=_float_field(rate_section, "epsilon"),
        )
        initial_section = sections["initial"]
        profile = _get(initial_section, "profile")
        if profile == "power_decay":
            initial = InitialData("power_decay", q=_float_field(initial_section, "q"))
        elif profile == "explicit":
            initial = InitialData("explicit", coeffs=tuple(_float_list_field(initial_section, "coeffs")))
        else:
            raise ConfigError(f"unknown initial profile {profile!r}")
        noise = sections["noise"]
        seed = _int_field(noise, "seed", 0, _MASK64)
        levels = _int_field(noise, "levels", 0, 30)
        n_modes = _int_field(noise, "n_modes", 1, op.n_max)
        horizon = _float_field(noise, "horizon", default=1.0)
        if horizon <= 0.0:
            raise ConfigError("noise.horizon must be positive")
        study = _normalize_study(sections["study"], levels, n_modes, op, rate)
        out_dir = str(_get(sections["output"], "directory"))
        for section in sections.values():
            if unread := sorted(set(section) - section.read):
                raise ConfigError(f"unknown fields in section {section.name!r}: {unread}")
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    if drift.beta != rate.beta or drift.epsilon != rate.epsilon:
        raise ConfigError("rate_params must repeat the drift's beta and epsilon")
    return StudyConfig(
        operator=op,
        drift=drift,
        rate=rate,
        initial=initial,
        master_seed=seed,
        levels=levels,
        n_modes=n_modes,
        horizon=horizon,
        study=study,
        output_dir=out_dir,
    )


def _reject_constant(name: str):
    raise ConfigError(f"config holds the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is out of the floating-point range")
    return value


def load_config(path, seed=None, paths=None, out=None) -> StudyConfig:
    try:
        # json accepts NaN, Infinity and overflowing literals such as 1e400;
        # none of them is a valid setting, so they are refused here
        doc = json.loads(Path(path).read_text(), parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = parse_config(doc)
    if seed is not None:
        # the same 64-bit bound as noise.seed: the lattice's master seed
        if not 0 <= seed <= _MASK64:
            raise ConfigError("seed override must fit in 64 bits")
        cfg.master_seed = seed
    if paths is not None:
        if paths < 1:
            raise ConfigError("path override must be positive")
        if paths < 2 and any(k in cfg.study for k in ("m_paths", "m_samples")):
            raise ConfigError("this study needs at least 2 paths")
        for key in ("m_paths", "m_samples", "trials"):
            if key in cfg.study:
                cfg.study[key] = paths
    if out is not None:
        cfg.output_dir = str(out)
    return cfg


def hypothesis_rows(cfg: StudyConfig) -> list[dict]:
    """One row per standing hypothesis (name, computed value, verdict): the
    noise trace, the rate rows of `analysis.rate_hypotheses`, the initial datum."""
    trace = check_trace_condition(cfg.operator, cfg.rate.alpha)
    in_domain, why = initial_domain_check(cfg.initial, cfg.operator)
    return [
        {
            "name": "noise_trace_summable",
            "value": f"exponent {trace.exponent:.6g}, partial sum {trace.partial_sum:.6g}, "
            f"tail bound {trace.tail_bound:.6g}",
            "holds": trace.converges,
        },
        *rate_hypotheses(cfg.rate),
        {"name": "initial_state_in_domain", "value": why, "holds": in_domain},
    ]


def enforce_hypotheses(cfg: StudyConfig) -> None:
    """Gate a run: raise the violation of the first row of the hypothesis
    table whose verdict is not True."""
    for row in hypothesis_rows(cfg):
        if row["holds"] is not True:
            raise HypothesisViolation(row["name"], row["value"])


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


def _plot(*lines: str) -> str:
    """plot.gp text: the shared header, then the given gnuplot commands."""
    return "\n".join(["# plotting commands for a gnuplot-compatible tool", "set datafile separator ','", *lines, ""])


def _emit(cfg: StudyConfig, summary: dict, plot: str, report_csv: str | None = None) -> Path:
    """Write the outputs of one command into the output directory and return it.

    `summary.json` gets the config and the hypothesis table added; `plot.gp`
    holds `plot`; `report.csv` is written when given.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if report_csv is not None:
        (outdir / "report.csv").write_text(report_csv)
    summary["config"] = cfg.to_dict()
    summary["hypotheses"] = hypothesis_rows(cfg)
    (outdir / "summary.json").write_text(json.dumps(_sanitize(summary), indent=2, sort_keys=True) + "\n")
    (outdir / "plot.gp").write_text(plot)
    return outdir


def _emit_convergence(cfg: StudyConfig, report: ConvergenceReport, xcol: int, xlabel: str) -> int:
    summary = report.summary_dict()
    summary["rows"] = [asdict(r) for r in report.rows]
    plot = _plot(
        "set logscale xy",
        f"set xlabel '{xlabel}'",
        "set ylabel 'mean integrated squared error'",
        "set key left top",
        f"slope = {report.slope!r}",
        f"intercept = {report.intercept!r}",
        f"plot 'report.csv' skip 1 using {xcol}:5:6 with yerrorlines title 'measured', \\",
        "     exp(intercept) * x**slope with lines title sprintf('fit, slope %.3f', slope)",
    )
    outdir = _emit(cfg, summary, plot, report.csv_text())
    for row in report.rows:
        print(
            f"resolution {row.resolution:>4}  delta {row.delta:.6g}  "
            f"err2 {row.err2_mean:.6g} +- {row.err2_stderr:.3g}"
        )
    verdict = "pass" if report.passed else "FAIL"
    gate = ""
    if report.slope_threshold is not None:
        gate = f"  stderr {report.slope_stderr:.4f}  threshold {report.slope_threshold:.4f}"
    if report.fit_points >= R2_MIN_POINTS:
        r2 = f"r2 {report.r_squared:.4f}"
    else:
        r2 = f"r2 n/a ({report.fit_points} points)"
    print(
        f"{report.study} study: slope {report.slope:.4f}{gate}  {r2}  "
        f"nu {report.nu_theory:.5g}  -> {verdict}"
    )
    for name, ok in report.pass_flags.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    print(f"wrote {outdir / 'report.csv'}, {outdir / 'summary.json'}, {outdir / 'plot.gp'}")
    return EXIT_OK if report.passed else EXIT_ACCEPTANCE


def _cmd_convergence(cfg: StudyConfig, workers: int) -> int:
    st = cfg.study
    common = (cfg.operator, cfg.drift, cfg.initial, cfg.lattice(), st["ladder"])
    if st["kind"] == "spatial":
        report = spatial_study(*common, st["reference_modes"], st["level"], st["m_paths"], cfg.rate, workers=workers)
        return _emit_convergence(cfg, report, xcol=3, xlabel="retained modes")
    if st["kind"] == "temporal":
        report = temporal_study(*common, st["reference_level"], st["n_modes"], st["m_paths"], cfg.rate, workers=workers)
    else:
        report = increment_statistic(
            *common,
            st["n_modes"],
            st["m_paths"],
            sample_fractions=st["sample_fractions"],
            workers=workers,
            alpha=cfg.rate.alpha,
        )
    return _emit_convergence(cfg, report, xcol=2, xlabel="step size")


def _cmd_kolmogorov(cfg: StudyConfig) -> int:
    st = cfg.study
    suite = kolmogorov_suite(
        cfg.operator,
        cfg.drift,
        t=st["t"],
        dims=st["dims"],
        m_samples=st["m_samples"],
        decay_modes=st["decay_modes"],
        picard_dims=st["picard_dims"],
        lam_sweep=st["lam_sweep"],
        horizon=cfg.horizon,
        theta=st["theta"],
        seed=cfg.master_seed,
    )
    report_csv = suite.pop("decay_csv")
    plot = _plot(
        "set logscale y",
        "set xlabel 'mode index'",
        "set ylabel 'gradient estimate'",
        "plot 'report.csv' skip 1 using 1:2:3 with yerrorlines title 'estimated gradient size', \\",
        "     'report.csv' skip 1 using 1:($2/$4) with lines title 'decay bound'",
    )
    outdir = _emit(cfg, suite, plot, report_csv)
    for check in suite["checks"]:
        print(f"  [{'ok' if check['passed'] else 'FAIL'}] {check['name']}: {check['detail']}")
    print(f"wrote {outdir / 'report.csv'}, {outdir / 'summary.json'}, {outdir / 'plot.gp'}")
    return EXIT_OK if suite["passed"] else EXIT_ACCEPTANCE


def _cmd_validate(cfg: StudyConfig) -> int:
    trials = cfg.study["trials"]
    reports = [
        verify_mode_holder(cfg.drift, cfg.operator, trials=trials, rng_seed=cfg.master_seed, horizon=cfg.horizon),
        verify_time_holder(cfg.drift, cfg.operator, trials=trials, rng_seed=cfg.master_seed, horizon=cfg.horizon),
    ]
    lines = ["name,passed,trials,max_ratio,constant"]
    for rep in reports:
        lines.append(f"{rep.name},{rep.passed},{rep.trials},{rep.max_ratio!r},{rep.constant!r}")
    passed = all(r.passed for r in reports)
    summary = {"pass": passed, "validators": [asdict(r) for r in reports]}
    _emit(cfg, summary, "# nothing to plot for validator reports\n", "\n".join(lines) + "\n")
    for rep in reports:
        print(f"  [{'ok' if rep.passed else 'FAIL'}] {rep.name}: max ratio {rep.max_ratio:.6f}")
    return EXIT_OK if passed else EXIT_ACCEPTANCE


def _cmd_simulate(cfg: StudyConfig, n_paths: int) -> int:
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    scheme = SchemeConfig(
        cfg.operator, cfg.drift, cfg.initial, cfg.horizon, cfg.levels, cfg.n_modes
    )
    lattice = cfg.lattice()
    files = []
    for pid in range(n_paths):
        traj = simulate_path(scheme, lattice, pid)
        target = outdir / f"trajectory_{pid}.csv"
        write_trajectory_csv(traj, target)
        files.append(target.name)
    summary = {"paths": n_paths, "level": cfg.levels, "n_modes": cfg.n_modes, "files": files}
    plot = _plot(
        "set xlabel 't'",
        "set ylabel 'first mode'",
        "plot 'trajectory_0.csv' skip 1 using 1:2 with lines title 'mode 1'",
    )
    _emit(cfg, summary, plot)
    print(f"wrote {n_paths} trajectories to {outdir}")
    return EXIT_OK


def _cmd_hypotheses(cfg: StudyConfig) -> int:
    rows = hypothesis_rows(cfg)
    width = max(len(r["name"]) for r in rows)
    verdicts = {True: "holds", False: "fails", None: "undetermined"}
    for row in rows:
        print(f"{row['name']:<{width}}  {verdicts[row['holds']]:<12}  {row['value']}")
    return EXIT_OK if all(row["holds"] is True for row in rows) else EXIT_HYPOTHESIS


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
        if args.workers is not None and wanted not in _POOLED_KINDS:
            raise ConfigError(f"{args.command} has no worker pool, so it takes no --workers")
        # simulate reads --paths as a path count and hypotheses runs no study,
        # so only the commands with a study kind take it as a study size
        simulate = args.command == "simulate"
        if simulate and args.paths is not None and args.paths < 1:
            raise ConfigError("path override must be positive")
        cfg = load_config(args.config, seed=args.seed, paths=None if wanted is None else args.paths, out=args.out)
        if wanted is not None and cfg.study["kind"] != wanted:
            raise ConfigError(f"config describes a {cfg.study['kind']!r} study, not {wanted!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    workers = 1 if args.deterministic else (args.workers or os.cpu_count() or 1)
    try:
        if args.command == "hypotheses":
            return _cmd_hypotheses(cfg)
        enforce_hypotheses(cfg)
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
