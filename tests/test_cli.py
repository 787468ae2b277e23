"""End-to-end tests of the command-line front end, run in process."""

import importlib.metadata
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdelab
from spdelab import cli
from spdelab.analysis import HypothesisViolation, hypotheses, increment_statistic, spatial_study, temporal_study
from spdelab.kolmogorov import kolmogorov_suite
from spdelab.noise import NoiseLattice
from spdelab.scheme import SchemeConfig, simulate_path
from spdelab.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_RUNTIME,
    _SIZE_FIELDS,
    _STUDY_KINDS,
    ConfigError,
    _emit_convergence,
    load_config,
    main,
    parse_config,
)


def canonical_doc(study, out="out", **overrides):
    doc = {
        "operator": {"kind": "heat", "n_max": 64},
        "drift": {
            "kind": "diagonal",
            "beta": 0.5,
            "epsilon": 0.9,
            "amplitude": 1.0,
            "cap": 1.0,
            "time_mod": "cosine",
        },
        "rate_params": {"alpha": 0.45, "beta": 0.5, "epsilon": 0.9},
        "initial": {"profile": "power_decay", "q": 3.0},
        "noise": {"seed": 7, "levels": 6, "n_modes": 8, "horizon": 1.0},
        "study": study,
        "output": {"directory": out},
    }
    doc.update(overrides)
    return doc


def temporal_study_doc(out, **kw):
    study = {"kind": "temporal", "ladder": [2, 3], "reference_level": 5, "m_paths": 12}
    study.update(kw)
    return canonical_doc(study, out=out)


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main(args)


def test_config_round_trip_is_idempotent(tmp_path):
    cfg = parse_config(temporal_study_doc(str(tmp_path / "out")))
    once = cfg.doc
    again = parse_config(once).doc
    assert again == once


def test_parse_rejections(tmp_path):
    good = temporal_study_doc("out")
    with pytest.raises(ConfigError, match="unknown sections"):
        parse_config({**good, "extras": {}})
    with pytest.raises(ConfigError, match="missing section"):
        parse_config({k: v for k, v in good.items() if k != "noise"})
    with pytest.raises(ConfigError):
        parse_config("not a dict")
    with pytest.raises(ConfigError, match="repeat the drift"):
        parse_config({**good, "rate_params": {"alpha": 0.45, "beta": 0.6, "epsilon": 0.9}})
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigError, match="alpha must lie in"):
            parse_config({**good, "rate_params": {"alpha": alpha, "beta": 0.5, "epsilon": 0.9}})
    # any other JSON value used to be stringified: null wrote into ./None and
    # "" into the working directory
    for directory in (None, 5, True, [1], {"a": 1}, ""):
        with pytest.raises(ConfigError, match="output.directory must be a non-empty string"):
            parse_config({**good, "output": {"directory": directory}})
    with pytest.raises(ConfigError, match="output.directory"):
        parse_config(good, out="")
    with pytest.raises(ConfigError, match="ladder"):
        parse_config(canonical_doc({"kind": "temporal", "ladder": [], "reference_level": 5, "m_paths": 4}))
    with pytest.raises(ConfigError, match="ladder"):
        parse_config(canonical_doc({"kind": "temporal", "ladder": [2, 5], "reference_level": 5, "m_paths": 4}))
    with pytest.raises(ConfigError, match="study kind"):
        parse_config(canonical_doc({"kind": "bootstrap"}))
    with pytest.raises(ConfigError, match="m_paths"):
        parse_config(canonical_doc({"kind": "temporal", "ladder": [2], "reference_level": 5, "m_paths": 1}))
    bad_noise = dict(good)
    bad_noise["noise"] = {"seed": 7, "levels": 31, "n_modes": 8}
    with pytest.raises(ConfigError, match="levels"):
        parse_config(bad_noise)
    # the operator is the power law i**power; an explicit eigenvalue list is
    # no kind, as its trace condition could not be decided beyond its length
    explicit = {"kind": "explicit", "eigenvalues": [float(i * i) for i in range(1, 9)]}
    for operator in ({"kind": "laplace", "n_max": 4}, explicit):
        with pytest.raises(ConfigError, match="unknown operator kind"):
            parse_config({**good, "operator": operator})


def test_removed_aliases_are_config_errors(tmp_path):
    # study.M, noise.L and an output directory given as a bare string were
    # once accepted in place of m_paths, levels and output.directory
    with pytest.raises(ConfigError, match=r"unknown fields in section 'study': \['M'\]"):
        parse_config(canonical_doc({"kind": "temporal", "ladder": [2], "reference_level": 5, "m_paths": 4, "M": 9}))
    doc = temporal_study_doc("out")
    doc["noise"] = {"seed": 7, "L": 6, "n_modes": 8}
    with pytest.raises(ConfigError, match="missing field 'levels' in section 'noise'"):
        parse_config(doc)
    with pytest.raises(ConfigError, match="section 'output' must be an object"):
        parse_config(canonical_doc(temporal_study_doc("out")["study"], output="out"))


def test_temporal_study_end_to_end(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_doc(tmp_path, temporal_study_doc(str(out_a)))
    assert run(["temporal-study", "--config", cfg, "--deterministic"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "temporal study" in stdout
    assert (out_a / "report.csv").exists()
    assert (out_a / "summary.json").exists()
    assert (out_a / "plot.gp").exists()

    cfg_b = write_doc(tmp_path, temporal_study_doc(str(out_b)), name="config_b.json")
    assert run(["temporal-study", "--config", cfg_b, "--deterministic"]) == EXIT_OK
    # identical study, identical bytes, regardless of where the output lands
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["study"] == "temporal"
    assert summary["nu_theory"] == pytest.approx(0.08225, rel=1e-12)
    assert [row["m_paths"] for row in summary["rows"]] == [12, 12]
    assert len(summary["hypotheses"]) == 5


@pytest.mark.parametrize("ladder", [[2, 3], [2, 3, 4]])
def test_r2_reported_only_from_three_points(tmp_path, capsys, ladder):
    # two points always fit a line with R^2 = 1, so the flag is left out and
    # the verdict line says why
    out = tmp_path / "o"
    cfg = write_doc(tmp_path, temporal_study_doc(str(out), ladder=ladder))
    run(["temporal-study", "--config", cfg, "--deterministic"])
    stdout = capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fit_points"] == len(ladder)
    if len(ladder) == 2:
        assert summary["r2"] == 1.0
        assert "r2_at_least_min" not in summary["pass_flags"]
        assert "  r2 n/a (2 points)  " in stdout
        assert "r2_at_least_min" not in stdout
    else:
        assert "r2_at_least_min" in summary["pass_flags"]
        assert f"  r2 {summary['r2']:.4f}  " in stdout
        assert "] r2_at_least_min" in stdout


def test_seed_override_changes_results(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_doc(tmp_path, temporal_study_doc(str(out_a)))
    assert run(["temporal-study", "--config", cfg, "--deterministic"]) == EXIT_OK
    cfg_b = write_doc(tmp_path, temporal_study_doc(str(out_b)), name="config_b.json")
    assert run(["temporal-study", "--config", cfg_b, "--seed", "123", "--deterministic"]) == EXIT_OK
    capsys.readouterr()
    assert (out_a / "report.csv").read_bytes() != (out_b / "report.csv").read_bytes()


def test_paths_override_reaches_report(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_doc(tmp_path, temporal_study_doc(str(out)))
    assert run(["temporal-study", "--config", cfg, "--paths", "8", "--deterministic"]) == EXIT_OK
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert [row["m_paths"] for row in summary["rows"]] == [8, 8]


def test_spatial_study_end_to_end(tmp_path, capsys):
    out = tmp_path / "o"
    doc = canonical_doc(
        {"kind": "spatial", "ladder": [2, 4], "reference_modes": 8, "level": 3, "m_paths": 10},
        out=str(out),
    )
    doc["noise"] = {"seed": 7, "levels": 3, "n_modes": 8, "horizon": 1.0}
    cfg = write_doc(tmp_path, doc)
    assert run(["spatial-study", "--config", cfg, "--deterministic"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "spatial study" in stdout
    assert (out / "report.csv").exists()


def test_increment_study_end_to_end(tmp_path, capsys):
    # at 20 paths the slope's standard error (about 0.3-0.5) dwarfed the 0.1
    # margin and the verdict turned on the seed; at 20,000 the slope clears
    # its threshold by more than three standard errors
    out = tmp_path / "o"
    doc = canonical_doc(
        {"kind": "increment", "ladder": [2, 3], "m_paths": 20_000}, out=str(out)
    )
    cfg = write_doc(tmp_path, doc)
    assert run(["increment-study", "--config", cfg, "--deterministic"]) == EXIT_OK
    capsys.readouterr()
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr"
    assert len(lines) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slope"] - summary["slope_threshold"] > 3.0 * summary["slope_stderr"]


def test_off_lattice_increment_fractions_are_config_errors(tmp_path, capsys):
    # 0.3 of a 16-row step on the finest rung falls between lattice times
    doc = canonical_doc({"kind": "increment", "ladder": [2, 3], "m_paths": 4, "sample_fractions": [0.3]})
    cfg = write_doc(tmp_path, doc)
    assert run(["increment-study", "--config", cfg, "--deterministic"]) == EXIT_CONFIG
    assert "sample fractions must hit off-grid lattice times" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_validate_drift_end_to_end(tmp_path, capsys):
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "validate", "trials": 400}, out=str(out))
    doc["operator"] = {"kind": "heat", "n_max": 16}
    doc["noise"] = {"seed": 7, "levels": 4, "n_modes": 16, "horizon": 1.0}
    cfg = write_doc(tmp_path, doc)
    assert run(["validate-drift", "--config", cfg]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "mode_holder" in stdout
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "name,passed,trials,max_ratio,constant"
    assert lines[1].startswith("mode_holder,True,400")
    assert lines[2].startswith("time_holder,True,400")
    # after the name, every cell is a plain number or a boolean
    for line in lines[1:]:
        for cell in line.split(",")[1:]:
            assert cell in ("True", "False") or float(cell) >= 0.0


def test_validate_drift_reports_a_failing_validator(tmp_path, capsys, monkeypatch):
    # a halved constant is beaten by the antisymmetric pairs near the origin,
    # so the mode validator fails; the command exits with the acceptance code
    # and still writes both validators' rows and records
    full = spdelab.drift.mode_holder_constant
    monkeypatch.setattr(spdelab.drift, "mode_holder_constant", lambda spec: 0.5 * full(spec))
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "validate", "trials": 2000}, out=str(out))
    doc["operator"] = {"kind": "heat", "n_max": 16}
    doc["noise"] = {"seed": 7, "levels": 4, "n_modes": 16, "horizon": 1.0}
    assert run(["validate-drift", "--config", write_doc(tmp_path, doc)]) == EXIT_ACCEPTANCE
    assert "[FAIL] mode_holder" in capsys.readouterr().out
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[1].startswith("mode_holder,False,2000,")
    assert lines[2].startswith("time_holder,True,2000,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False
    assert [v["passed"] for v in summary["validators"]] == [False, True]


def test_validate_drift_checks_the_noise_horizon(tmp_path, capsys):
    # Lipschitz in time gives Holder on [0, T] with constant ~ T**(1-epsilon)
    constants = []
    for horizon in (1.0, 2.0):
        out = tmp_path / f"h{horizon}"
        doc = canonical_doc({"kind": "validate", "trials": 200}, out=str(out))
        doc["operator"] = {"kind": "heat", "n_max": 16}
        doc["noise"] = {"seed": 7, "levels": 4, "n_modes": 16, "horizon": horizon}
        assert run(["validate-drift", "--config", write_doc(tmp_path, doc)]) == EXIT_OK
        validators = json.loads((out / "summary.json").read_text())["validators"]
        constants.append({v["name"]: v["constant"] for v in validators})
    capsys.readouterr()
    assert constants[1]["mode_holder"] == constants[0]["mode_holder"]
    assert constants[1]["time_holder"] == pytest.approx(constants[0]["time_holder"] * 2.0**0.1, rel=1e-14)


def _record_draws(monkeypatch) -> tuple[set, list]:
    """Patch the substream opener: the levels of the lattices a run opens
    substreams on, and the size of every normal draw it makes from them."""
    levels, drawn = set(), []
    opened = NoiseLattice._substreams

    class Counted:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            values = self.gen.standard_normal(*args, **kwargs)
            drawn.append(values.size)
            return values

    def substreams(self, path_id, modes):
        levels.add(self.levels)
        return [Counted(gen) for gen in opened(self, path_id, modes)]

    monkeypatch.setattr(NoiseLattice, "_substreams", substreams)
    return levels, drawn


def test_temporal_study_draws_its_lattice_at_the_reference_level(tmp_path, capsys, monkeypatch):
    levels, drawn = _record_draws(monkeypatch)
    out = tmp_path / "o"
    cfg = write_doc(tmp_path, temporal_study_doc(str(out)))
    assert run(["temporal-study", "--config", cfg, "--deterministic"]) == EXIT_OK
    capsys.readouterr()
    # paths x modes x 2**reference_level, not 2**noise.levels
    assert levels == {5}
    assert sum(drawn) == 12 * 8 * 2**5
    assert json.loads((out / "summary.json").read_text())["lattice_levels"] == 5


@pytest.mark.parametrize(
    "fractions, level", [([0.5], 4), ([0.25, 0.75], 5), ([0.5, 0.125], 6)], ids=["halves", "quarters", "eighths"]
)
def test_increment_study_draws_its_lattice_at_the_finest_sampled_time(tmp_path, capsys, monkeypatch, fractions, level):
    # the finest rung is level 3, and a fraction k / 2**d needs d levels more
    levels, drawn = _record_draws(monkeypatch)
    out = tmp_path / "o"
    study = {"kind": "increment", "ladder": [2, 3], "m_paths": 4, "sample_fractions": fractions}
    doc = canonical_doc(study, out=str(out))
    run(["increment-study", "--config", write_doc(tmp_path, doc), "--deterministic"])
    capsys.readouterr()
    assert levels == {level}
    assert sum(drawn) == 4 * 8 * 2**level
    summary = json.loads((out / "summary.json").read_text())
    assert summary.get("lattice_levels", summary["config"]["noise"]["levels"]) == level


def test_noise_levels_above_the_read_level_leave_the_report_unchanged(tmp_path, capsys):
    # noise.levels only bounds a study's lattice: 12 and the reference level
    # 5 draw the same lattice, and only the wider bound is recorded
    reports, summaries = [], []
    for bound in (12, 5):
        out = tmp_path / f"levels{bound}"
        doc = temporal_study_doc(str(out))
        doc["noise"]["levels"] = bound
        assert run(["temporal-study", "--config", write_doc(tmp_path, doc), "--deterministic"]) == EXIT_OK
        reports.append((out / "report.csv").read_bytes())
        summaries.append(json.loads((out / "summary.json").read_text()))
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert summaries[0]["lattice_levels"] == 5 and "lattice_levels" not in summaries[1]
    assert summaries[0]["config"]["noise"]["levels"] == 12


def test_simulate_writes_trajectories(tmp_path, capsys, monkeypatch):
    levels, drawn = _record_draws(monkeypatch)
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "temporal", "ladder": [2], "reference_level": 5, "m_paths": 4}, out=str(out))
    cfg = write_doc(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--paths", "2"]) == EXIT_OK
    capsys.readouterr()
    # simulate runs at noise.levels, whatever level the study section reads
    assert levels == {6}
    assert sum(drawn) == 2 * 8 * 2**6
    assert (out / "trajectory_0.csv").exists()
    assert (out / "trajectory_1.csv").exists()
    lines = (out / "trajectory_0.csv").read_text().splitlines()
    assert lines[0].startswith("t,mode_1")
    assert len(lines) == 1 + 2**6 + 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["paths"] == 2


def test_simulate_trajectory_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "temporal", "ladder": [1], "reference_level": 2, "m_paths": 4}, out=str(out))
    doc["noise"].update(seed=3, levels=2, n_modes=3)
    path = write_doc(tmp_path, doc)
    assert run(["simulate", "--config", path, "--paths", "2"]) == EXIT_OK
    capsys.readouterr()
    cfg = load_config(path)
    scheme = SchemeConfig(cfg.operator, cfg.drift, cfg.initial, 1.0, 2, 3)
    traj = simulate_path(scheme, cfg.lattice, 1)
    data = (out / "trajectory_1.csv").read_bytes()
    # LF line ends, as in every report.csv; csv.writer used to end rows with CRLF
    assert b"\r" not in data and data.endswith(b"\n")
    rows = [line.split(",") for line in data.decode().splitlines()]
    assert rows[0] == ["t", "mode_1", "mode_2", "mode_3"]
    assert len(rows) == scheme.steps + 2
    for k, row in enumerate(rows[1:]):
        assert float(row[0]) == k * scheme.delta
        assert np.array_equal(np.array([float(v) for v in row[1:]]), traj.grid[k])


@pytest.mark.parametrize("paths", ["0", "-5"])
def test_simulate_refuses_nonpositive_path_count(tmp_path, capsys, paths):
    out = tmp_path / "o"
    cfg = write_doc(tmp_path, temporal_study_doc(str(out)))
    assert run(["simulate", "--config", cfg, "--paths", paths]) == EXIT_CONFIG
    assert "config error: path override must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, study, section, field, value",
    [
        ("increment-study", {"kind": "increment", "ladder": [2, 3], "m_paths": 4}, "study", "sample_fraction", [0.25]),
        ("kolmogorov-check", {"kind": "kolmogorov", "m_samples": 200}, "study", "lam_swep", [1.0, 10.0]),
        ("temporal-study", None, "operator", "power", 3.0),
        ("temporal-study", None, "noise", "scale", 2.0),
        ("temporal-study", None, "drift", "sigma", 2.0),
        ("temporal-study", None, "rate_params", "gamma", 0.1),
        ("temporal-study", None, "initial", "coeffs", [1.0]),
        ("temporal-study", None, "output", "format", "csv"),
        ("hypotheses", None, "study", "m_samples", 100),
        # the suite's fixed shape, once study fields that no config varied
        ("kolmogorov-check", {"kind": "kolmogorov", "m_samples": 200}, "study", "t", 0.5),
        ("kolmogorov-check", {"kind": "kolmogorov", "m_samples": 200}, "study", "dims", 4),
        ("kolmogorov-check", {"kind": "kolmogorov", "m_samples": 200}, "study", "picard_dims", 3),
        ("kolmogorov-check", {"kind": "kolmogorov", "m_samples": 200}, "study", "lam_sweep", [1.0, 10.0, 100.0]),
        ("kolmogorov-check", {"kind": "kolmogorov", "m_samples": 200}, "study", "theta", 0.45),
    ],
)
def test_unknown_config_fields_are_config_errors(tmp_path, capsys, command, study, section, field, value):
    # a field the parser does not read for its section's kind would be
    # silently ignored, so a typo would run with the default instead
    out = tmp_path / "o"
    doc = temporal_study_doc(str(out)) if study is None else canonical_doc(study, out=str(out))
    doc[section][field] = value
    assert run([command, "--config", write_doc(tmp_path, doc), "--deterministic"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: unknown fields in section {section!r}: [{field!r}]" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["temporal-study", "simulate", "hypotheses"])
def test_seed_range_is_one_config_check(tmp_path, capsys, command):
    # the config field and the --seed override share the lattice's 64-bit bound
    doc = temporal_study_doc(str(tmp_path / "o"))
    doc["noise"]["seed"] = 1 << 64
    assert run([command, "--config", write_doc(tmp_path, doc, "big.json")]) == EXIT_CONFIG
    assert "config error: noise.seed out of range" in capsys.readouterr().err
    cfg = write_doc(tmp_path, temporal_study_doc(str(tmp_path / "o")))
    assert run([command, "--config", cfg, "--seed", str(1 << 64)]) == EXIT_CONFIG
    assert "config error: noise.seed out of range" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    doc["noise"]["seed"] = (1 << 64) - 1
    assert parse_config(doc).lattice.master_seed == (1 << 64) - 1
    assert load_config(cfg, seed=(1 << 64) - 1).lattice.master_seed == (1 << 64) - 1


@pytest.mark.parametrize(
    "command, study",
    [
        ("kolmogorov-check", {"kind": "kolmogorov", "m_samples": 200}),
        ("validate-drift", {"kind": "validate", "trials": 50}),
        ("simulate", None),
        ("hypotheses", None),
    ],
)
def test_workers_on_a_command_without_a_pool_is_a_config_error(tmp_path, capsys, command, study):
    out = tmp_path / "o"
    doc = temporal_study_doc(str(out)) if study is None else canonical_doc(study, out=str(out))
    cfg = write_doc(tmp_path, doc)
    for flags in (["--workers", "2"], ["--workers", "1", "--deterministic"]):
        assert run([command, "--config", cfg, *flags]) == EXIT_CONFIG
        assert f"config error: {command} has no worker pool" in capsys.readouterr().err
        assert not out.exists()
    # --deterministic stays accepted by every command (a gate may still fail
    # at this size)
    assert run([command, "--config", cfg, "--deterministic"]) in (EXIT_OK, EXIT_ACCEPTANCE)


@pytest.mark.parametrize("command", ["temporal-study", "spatial-study", "increment-study"])
def test_workers_with_deterministic_is_a_config_error(tmp_path, capsys, command):
    # --deterministic runs in-process, so a worker count beside it would be
    # silently dropped
    out = tmp_path / "o"
    kind = command.split("-")[0]
    cfg = write_doc(tmp_path, canonical_doc(_MINIMAL_STUDIES[kind], out=str(out)))
    assert run([command, "--config", cfg, "--workers", "2", "--deterministic"]) == EXIT_CONFIG
    assert "config error: --deterministic runs in-process, so it takes no --workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["temporal-study", "spatial-study", "increment-study"])
def test_one_rung_ladder_is_a_config_error(tmp_path, capsys, command):
    # the study fits a rate through its rungs; one rung used to fail in the
    # fit after the run (exit 4)
    out = tmp_path / "o"
    kind = command.split("-")[0]
    cfg = write_doc(tmp_path, canonical_doc(_MINIMAL_STUDIES[kind], out=str(out)))
    assert run([command, "--config", cfg, "--deterministic"]) == EXIT_CONFIG
    assert "config error: study.ladder needs at least two rungs to fit a rate" in capsys.readouterr().err
    assert not out.exists()
    # hypotheses fits nothing, so the same config serves it
    assert run(["hypotheses", "--config", cfg]) == EXIT_OK


@pytest.mark.parametrize(
    "command, rung",
    [("temporal-study", "rung 2 (delta 0.25, 8 modes)"), ("spatial-study", "rung 2 (delta 0.125, 2 modes)"),
     ("increment-study", "rung 2 (delta 0.25, 8 modes)")],
)
def test_overflowing_study_statistic_names_its_rung_and_path(tmp_path, capsys, command, rung):
    # a drift near 1e300 keeps every state finite but overflows the squared
    # errors; the fit used to refuse them with "rate fitting needs positive
    # finite inputs", which names no rung
    out = tmp_path / "o"
    kind = command.split("-")[0]
    doc = canonical_doc({**_MINIMAL_STUDIES[kind], "ladder": [2, 3]}, out=str(out))
    doc["drift"]["amplitude"] = 1e300
    cfg = write_doc(tmp_path, doc)
    with np.errstate(over="ignore", invalid="ignore"):
        code = run([command, "--config", cfg, "--deterministic"])
    assert code == EXIT_RUNTIME
    assert f"statistic not finite at ladder {rung}, first on path 0" in capsys.readouterr().err
    assert not out.exists()


def _run_script(script):
    src = str(Path(spdelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_commands_without_noise_leave_numpy_random_unimported(tmp_path):
    # numpy.random is imported on the first noise draw, the process pool
    # where a pool starts and the thread executor where kolmogorov-check
    # starts its helper; importing the package and the CLI, or running
    # hypotheses or kolmogorov-check, which start no pool, must not pay for
    # what they never use
    cfg = write_doc(tmp_path, temporal_study_doc(str(tmp_path / "o")))
    doc = canonical_doc({"kind": "kolmogorov", "m_samples": 4000}, out=str(tmp_path / "k"))
    doc["operator"] = {"kind": "heat", "n_max": 16}
    doc["noise"] = {"seed": 2024, "levels": 4, "n_modes": 16, "horizon": 1.0}
    kcfg = write_doc(tmp_path, doc, name="kolmogorov.json")
    pool = "assert not {'concurrent.futures.process', 'multiprocessing'} & set(sys.modules), "
    unused = "assert not {'numpy.random', 'concurrent.futures'} & set(sys.modules), "
    _run_script(
        "import sys, spdelab, spdelab.cli\n"
        f"{unused}'imported by import'\n"
        f"{pool}'imported by import'\n"
        f"assert spdelab.cli.main(['hypotheses', '--config', {cfg!r}]) == 0\n"
        f"{unused}'imported by hypotheses'\n"
        f"{pool}'imported by hypotheses'\n"
        f"assert spdelab.cli.main(['kolmogorov-check', '--config', {kcfg!r}]) == 0\n"
        f"{pool}'imported by kolmogorov-check'\n"
    )


def test_pool_workers_are_forked_with_numpy_random_loaded(tmp_path):
    # the pooled run's parent draws no noise, so unless numpy.random is
    # imported before the pool forks, every worker imports it again
    cfg = write_doc(tmp_path, temporal_study_doc(str(tmp_path / "o"), m_paths=30))
    _run_script(
        "import sys, concurrent.futures\n"
        "seen = []\n"
        "class RecordingPool:\n"
        "    def __init__(self, max_workers):\n"
        "        seen.append('numpy.random' in sys.modules)\n"
        "    def __enter__(self):\n"
        "        return self\n"
        "    def __exit__(self, *exc):\n"
        "        return False\n"
        "    def map(self, fn, payloads):\n"
        "        return map(fn, payloads)\n"
        "concurrent.futures.ProcessPoolExecutor = RecordingPool\n"
        "import spdelab.cli\n"
        f"assert spdelab.cli.main(['temporal-study', '--config', {cfg!r}, '--workers', '2']) == 0\n"
        "assert seen == [True], seen\n"
    )


@pytest.mark.parametrize("command", ["temporal-study", "simulate", "hypotheses"])
@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("deterministic", [[], ["--deterministic"]], ids=["pooled", "deterministic"])
def test_workers_below_one_is_a_config_error(tmp_path, capsys, command, workers, deterministic):
    out = tmp_path / "o"
    cfg = write_doc(tmp_path, temporal_study_doc(str(out)))
    assert run([command, "--config", cfg, "--workers", workers, *deterministic]) == EXIT_CONFIG
    assert "config error: worker count must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_kolmogorov_check_end_to_end(tmp_path, capsys):
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "kolmogorov", "m_samples": 4000}, out=str(out))
    doc["operator"] = {"kind": "heat", "n_max": 16}
    doc["noise"] = {"seed": 2024, "levels": 4, "n_modes": 16, "horizon": 1.0}
    cfg = write_doc(tmp_path, doc)
    assert run(["kolmogorov-check", "--config", cfg]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "semigroup_linear_closed_form" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert len(summary["checks"]) == 8


def test_kolmogorov_check_reports_measured_failure(tmp_path, capsys, monkeypatch):
    # a mutant norm bound of 0 fails the first-iterate bound check, whatever
    # the draws; the command must exit with the acceptance code, not a config
    # or runtime code
    monkeypatch.setattr(spdelab.kolmogorov, "picard_norm_bound", lambda sup_b, lam, t, horizon: 0.0)
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "kolmogorov", "m_samples": 4000}, out=str(out))
    doc["operator"] = {"kind": "heat", "n_max": 16}
    doc["noise"] = {"seed": 11, "levels": 4, "n_modes": 16, "horizon": 1.0}
    cfg = write_doc(tmp_path, doc)
    assert run(["kolmogorov-check", "--config", cfg]) == EXIT_ACCEPTANCE
    stdout = capsys.readouterr().out
    assert "FAIL" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    failed = {c["name"] for c in summary["checks"] if not c["passed"]}
    assert "picard_norm_bound" in failed


def test_kolmogorov_check_with_zero_drift(tmp_path, capsys):
    # amplitude 0 switches the drift off: the decay bound and estimate are
    # both exact zeros, as is every summability partial sum, and they must
    # report ratio 0 and growth 1, not a runtime failure or a null.  The
    # shape is the benchmark's kolmogorov-probe; the finite-difference check
    # may fail at this sample count, so only the drift's checks are asserted.
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "kolmogorov", "m_samples": 100_000, "decay_modes": [1, 4, 16, 64]}, out=str(out))
    doc["drift"]["amplitude"] = 0.0
    cfg = write_doc(tmp_path, doc)
    assert run(["kolmogorov-check", "--config", cfg, "--paths", "500"]) in (EXIT_OK, EXIT_ACCEPTANCE)
    capsys.readouterr()
    text = (out / "summary.json").read_text()
    assert "null" not in text and "NaN" not in text
    summary = json.loads(text)
    passed = {c["name"]: c["passed"] for c in summary["checks"]}
    assert passed["gradient_decay_bounded"] and passed["summability_non_exploding"]
    assert summary["decay"]["max_ratio"] == 0.0
    assert summary["summability"]["growth_ratio"] == 1.0
    assert set(summary["summability"]["partial_sums"]) == {0.0}


def test_kolmogorov_check_refuses_an_overflowing_drift(tmp_path, capsys):
    # drift values near 1e300 are finite, but an estimator's squared sums
    # overflow; the standard errors used to come out inf or NaN, and every
    # check read [ok] (decay rows "1,inf,nan,nan", Picard norms "inf <= inf",
    # growth ratio 1); the first estimator to meet them now stops the run.
    # cap 1 keeps the drift's sup bound finite (1.28e300), so the run gets
    # past the bound's own refusal to the estimators.  The exact decay rows,
    # about 1e300, are finite and within their bounds, so the first Picard
    # iterate's squared sums are the first to overflow
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "kolmogorov", "m_samples": 2000, "decay_modes": [1, 4, 16, 64]}, out=str(out))
    doc["drift"].update(amplitude=1e300, cap=1.0)
    cfg = write_doc(tmp_path, doc)
    # outside the test suite numpy only warns of the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["kolmogorov-check", "--config", cfg, "--seed", "0"])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "picard_u_lambda at lam = 1.0: iterate or standard error is not finite, first at mode 1" in err
    assert not out.exists()


def _overflowing_bound_doc(study, out):
    # psi never reaches the cap (|u|**0.9 < 1e278 for every float u), so every
    # drift value is finite, but the sup bound amplitude * cap * |lam**-beta|
    # overflows
    doc = canonical_doc(study, out=str(out))
    doc["drift"].update(amplitude=1e10, cap=1e300)
    return doc


def test_kolmogorov_check_refuses_a_drift_bound_that_overflows(tmp_path, capsys):
    # the bound used to be inf, and every check against it passed: exit 0
    # with a decay bound ratio of 0 and Picard norms "3.964e+09 <= inf"
    out = tmp_path / "o"
    doc = _overflowing_bound_doc({"kind": "kolmogorov", "m_samples": 100_000, "decay_modes": [1, 4, 16, 64]}, out)
    cfg = write_doc(tmp_path, doc)
    assert run(["kolmogorov-check", "--config", cfg, "--paths", "2000", "--seed", "0"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "drift sup bound overflows: amplitude 10000000000.0, cap 1e+300, 64 modes" in err
    assert not out.exists()


def test_validate_drift_names_the_cap_that_overflows(tmp_path, capsys):
    # the mode validator's saturation point cap**(1/epsilon) used to die as a
    # bare "OverflowError: (34, 'Numerical result out of range')"
    out = tmp_path / "o"
    cfg = write_doc(tmp_path, _overflowing_bound_doc({"kind": "validate", "trials": 200}, out))
    assert run(["validate-drift", "--config", cfg]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "overflows: cap 1e+300, epsilon 0.9" in err
    assert not out.exists()


def test_validate_drift_passes_a_switched_off_drift(tmp_path, capsys):
    # the time validator's drift bound used to overflow on the cap of a drift
    # whose zero amplitude turns it off, and the command exited 4
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "validate", "trials": 200}, out=str(out))
    doc["drift"].update(kind="rank_one", amplitude=0.0, cap=1e308)
    assert run(["validate-drift", "--config", write_doc(tmp_path, doc)]) == EXIT_OK
    assert "[ok] time_holder" in capsys.readouterr().out
    assert json.loads((out / "summary.json").read_text())["pass"] is True


def test_hypotheses_canonical_table(tmp_path, capsys):
    cfg = write_doc(tmp_path, temporal_study_doc("out"))
    assert run(["hypotheses", "--config", cfg]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "0.08225" in stdout
    assert "fails" not in stdout
    assert stdout.count("holds") == 5


def test_hypotheses_ignores_study_size_override(tmp_path, capsys):
    cfg = write_doc(tmp_path, temporal_study_doc("out"))
    assert run(["hypotheses", "--config", cfg]) == EXIT_OK
    table = capsys.readouterr().out
    for paths in ("1", "0"):
        assert run(["hypotheses", "--config", cfg, "--paths", paths]) == EXIT_OK
        assert capsys.readouterr().out == table


def test_hypotheses_flags_divergent_trace(tmp_path, capsys):
    doc = temporal_study_doc("out")
    doc["rate_params"]["alpha"] = 0.5
    cfg = write_doc(tmp_path, doc)
    assert run(["hypotheses", "--config", cfg]) == EXIT_HYPOTHESIS
    stdout = capsys.readouterr().out
    assert "noise_trace_summable" in stdout
    assert "fails" in stdout


def test_hypotheses_flags_initial_datum(tmp_path, capsys):
    doc = temporal_study_doc("out")
    doc["initial"]["q"] = 2.0
    cfg = write_doc(tmp_path, doc)
    assert run(["hypotheses", "--config", cfg]) == EXIT_HYPOTHESIS
    stdout = capsys.readouterr().out
    assert "initial_state_in_domain" in stdout


def test_study_refuses_rough_drift_outside_admissible_range(tmp_path, capsys):
    doc = temporal_study_doc(str(tmp_path / "o"))
    doc["drift"]["epsilon"] = 0.7
    doc["rate_params"]["epsilon"] = 0.7
    cfg = write_doc(tmp_path, doc)
    assert run(["temporal-study", "--config", cfg, "--deterministic"]) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert "rate_exponent_positive" in err


@pytest.mark.parametrize(
    "section, field, value",
    [("rate_params", "alpha", 0.5), ("initial", "q", 2.0), ("epsilon", None, 0.7), ("epsilon", None, 0.2)],
    ids=["trace", "domain", "nu-positive", "weight-constraint"],
)
def test_hypothesis_exit_names_the_table_row(tmp_path, capsys, section, field, value):
    # a refused run names the first row of the hypotheses table that does
    # not hold, with that row's value; a direct study call meets the same gate
    doc = temporal_study_doc(str(tmp_path / "o"))
    if section == "epsilon":
        doc["drift"]["epsilon"] = doc["rate_params"]["epsilon"] = value
    else:
        doc[section][field] = value
    cfg = write_doc(tmp_path, doc)
    parsed = load_config(cfg)
    table = hypotheses(parsed.operator, parsed.drift, parsed.alpha, parsed.initial)
    row = next(r for r in table if r["holds"] is not True)
    for command, extra in (("temporal-study", ["--deterministic"]), ("simulate", ["--paths", "1"])):
        assert run([command, "--config", cfg, *extra]) == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == f"hypothesis violated [{row['name']}]: {row['value']}\n"
    assert run(["hypotheses", "--config", cfg]) == EXIT_HYPOTHESIS
    assert f"{row['value']}" in capsys.readouterr().out
    fields = {k: v for k, v in parsed.study.items() if k != "kind"}
    with pytest.raises(HypothesisViolation) as exc:
        temporal_study(parsed.operator, parsed.drift, parsed.initial, parsed.lattice, **fields, alpha=parsed.alpha)
    assert (exc.value.hypothesis, str(exc.value)) == (row["name"], row["value"])


def test_explicit_initial_data_may_not_outnumber_the_modes(tmp_path, capsys):
    # coefficients past operator.n_max would be dropped without a word
    doc = temporal_study_doc(str(tmp_path / "o"))
    doc["operator"]["n_max"] = doc["noise"]["n_modes"] = doc["study"]["n_modes"] = 4
    doc["initial"] = {"profile": "explicit", "coeffs": [1, 2, 3, 4, 5, 6, 7, 8]}
    cfg = write_doc(tmp_path, doc)
    for command in ("temporal-study", "hypotheses"):
        assert run([command, "--config", cfg, "--deterministic"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: initial.coeffs holds 8 coefficients, more than operator.n_max 4\n"
        )
    # as many as the operator has modes, or fewer (zero-padded), still parse
    doc["initial"]["coeffs"] = [1, 2, 3, 4]
    assert parse_config(doc).initial.mode_coefficients(4).tolist() == [1.0, 2.0, 3.0, 4.0]
    doc["initial"]["coeffs"] = [1]
    assert parse_config(doc).initial.mode_coefficients(4).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_study_refuses_bad_initial_datum(tmp_path, capsys):
    doc = temporal_study_doc(str(tmp_path / "o"))
    doc["initial"]["q"] = 2.0
    cfg = write_doc(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--paths", "1"]) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert "initial_state_in_domain" in err


def test_config_error_exit_codes(tmp_path, capsys):
    doc = temporal_study_doc("out")
    cfg = write_doc(tmp_path, doc)
    assert run(["spatial-study", "--config", cfg]) == EXIT_CONFIG
    assert "describes a 'temporal' study" in capsys.readouterr().err

    missing = str(tmp_path / "nope.json")
    assert run(["hypotheses", "--config", missing]) == EXIT_CONFIG

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(["hypotheses", "--config", str(broken)]) == EXIT_CONFIG

    assert run(["temporal-study", "--config", cfg, "--seed", "-1"]) == EXIT_CONFIG
    assert run(["temporal-study", "--config", cfg, "--paths", "1"]) == EXIT_CONFIG

    empty = write_doc(
        tmp_path,
        canonical_doc({"kind": "temporal", "ladder": [], "reference_level": 5, "m_paths": 4}),
        name="empty_ladder.json",
    )
    assert run(["temporal-study", "--config", empty]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, repeated, key",
    [
        ('"m_paths": 12', '"m_paths": 50, "m_paths": 3', "m_paths"),
        ('"study": {', '"study": {"kind": "spatial"}, "study": {', "study"),
    ],
    ids=["field", "section"],
)
def test_repeated_config_keys_are_config_errors(tmp_path, capsys, text, repeated, key):
    # json keeps the last of repeated keys, so a document that sets a field
    # twice used to run with whichever came last
    out = tmp_path / "o"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(temporal_study_doc(str(out))).replace(text, repeated, 1))
    assert run(["temporal-study", "--config", str(path), "--deterministic"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config repeats the key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["kolmogorov-check", "temporal-study", "simulate"])
def test_output_directory_over_a_file_is_refused_before_running(tmp_path, capsys, monkeypatch, command, below):
    # the study used to run in full and then fail to create the directory (exit 4)
    def no_run(*_, **__):
        raise AssertionError("a study ran")

    for name in ("kolmogorov_suite", "temporal_study", "_cmd_simulate"):
        monkeypatch.setattr(cli, name, no_run)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "o" if below else blocker
    doc = _kolmogorov_doc("out") if command == "kolmogorov-check" else temporal_study_doc("out")
    cfg = write_doc(tmp_path, doc)
    assert run([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: output.directory {str(out)!r}: {blocker} exists and is not a directory\n"
    )
    # hypotheses writes nothing, so it does not look at the directory
    assert run(["hypotheses", "--config", cfg, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "config is not valid JSON: 'utf-8' codec can't decode"),
        (b"[" * 10_000, "config nests too deeply"),
    ],
    ids=["not-utf8", "too-deep"],
)
def test_undecodable_config_is_a_config_error(tmp_path, capsys, content, message):
    # both used to escape load_config with a traceback and exit 1, the code
    # of a failed study gate
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert run(["hypotheses", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_operator_too_large_to_allocate_is_a_config_error(tmp_path, capsys, monkeypatch):
    # an n_max of 10**13 needs a 73 TiB ladder; numpy's MemoryError used to
    # escape parse_config.  The constructor is patched, as a real request
    # that large may be overcommitted on some hosts
    def no_memory(*_):
        raise MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)")

    monkeypatch.setattr(cli, "SpectralOperator", no_memory)
    doc = temporal_study_doc(str(tmp_path / "o"))
    doc["operator"] = {"kind": "power_law", "n_max": 10**13, "power": 2.0}
    assert run(["hypotheses", "--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: config needs more memory than there is: "
        "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)\n"
    )


def test_overflowing_power_law_is_a_config_error(tmp_path, capsys):
    doc = temporal_study_doc(str(tmp_path / "o"))
    doc["operator"] = {"kind": "power_law", "n_max": 8, "power": 400}
    assert run(["hypotheses", "--config", write_doc(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: eigenvalue 8**400 overflows\n"


def test_output_directory_name_too_long_is_a_config_error(tmp_path, capsys):
    # the existence check raised OSError (ENAMETOOLONG) before any study ran
    out = tmp_path / ("a" * 300) / "o"
    cfg = write_doc(tmp_path, temporal_study_doc("out"))
    assert run(["temporal-study", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: output.directory {str(out)!r}: ")


def _kolmogorov_doc(out, **study):
    doc = canonical_doc({"kind": "kolmogorov", "m_samples": 200, **study}, out=out)
    doc["operator"] = {"kind": "heat", "n_max": 16}
    doc["noise"] = {"seed": 2, "levels": 4, "n_modes": 16, "horizon": 1.0}
    return doc


@pytest.mark.parametrize(
    "command, section, field, literal",
    [
        ("temporal-study", "noise", "horizon", "NaN"),
        ("temporal-study", "drift", "amplitude", "NaN"),
        ("temporal-study", "drift", "amplitude", "1e400"),
        ("temporal-study", "rate_params", "alpha", "-Infinity"),
        ("temporal-study", "noise", "horizon", "1" + "0" * 400),
        ("kolmogorov-check", "study", "m_samples", "1e400"),
        # numbers written as JSON strings
        ("temporal-study", "rate_params", "alpha", '"0.45"'),
        ("temporal-study", "noise", "horizon", '"nan"'),
        ("temporal-study", "initial", "q", '"nan"'),
        ("kolmogorov-check", "study", "decay_modes", '["1"]'),
        # JSON booleans, which Python reads as 1 and 0
        ("temporal-study", "drift", "amplitude", "true"),
        ("temporal-study", "drift", "cap", "true"),
        ("temporal-study", "initial", "coeffs", "[true, 0.5]"),
        ("kolmogorov-check", "noise", "levels", "true"),
        ("kolmogorov-check", "study", "m_samples", "true"),
    ],
    ids=[
        "horizon-nan",
        "amplitude-nan",
        "amplitude-1e400",
        "alpha-neg-inf",
        "horizon-huge-int",
        "m-samples-1e400",
        "alpha-string",
        "horizon-nan-string",
        "q-nan-string",
        "decay-modes-string-entry",
        "amplitude-bool",
        "cap-bool",
        "coeffs-bool-entry",
        "levels-bool",
        "m-samples-bool",
    ],
)
def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys, command, section, field, literal):
    # json reads NaN, +-Infinity and 1e400 as floats, a string holds any
    # text and a boolean passes for an integer; a study must refuse them up
    # front instead of failing mid-run or passing them through
    out = tmp_path / "o"
    doc = temporal_study_doc(str(out)) if command == "temporal-study" else _kolmogorov_doc(str(out))
    if field == "coeffs":
        doc["initial"] = {"profile": "explicit"}
    doc[section][field] = "@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    assert run([command, "--config", str(path), "--deterministic"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("modes", [[True, 4], [1, 4, 4], [0, 4], [1, 17], [1.0, 4], []])
def test_decay_modes_validated_like_ladder(tmp_path, modes):
    with pytest.raises(ConfigError, match="decay_modes"):
        parse_config(_kolmogorov_doc("out", decay_modes=modes))
    assert parse_config(_kolmogorov_doc("out", decay_modes=[16, 1, 4])).study["decay_modes"] == [1, 4, 16]


@pytest.mark.parametrize("n_max, modes", [(16, [1, 4, 16]), (8, [1, 4]), (3, [1])])
def test_default_decay_modes_are_capped_at_the_operator(n_max, modes):
    # the default [1, 4, 16] used to be refused below 16 modes, blaming a
    # field the config never set
    doc = canonical_doc({"kind": "kolmogorov", "m_samples": 200})
    doc["operator"] = {"kind": "heat", "n_max": n_max}
    doc["noise"] = {"seed": 2, "levels": 4, "n_modes": n_max, "horizon": 1.0}
    assert parse_config(doc).study["decay_modes"] == modes


def test_load_config_overrides(tmp_path):
    cfg_path = write_doc(tmp_path, temporal_study_doc("out"))
    cfg = load_config(cfg_path, seed=55, paths=6, out="elsewhere")
    assert cfg.lattice.master_seed == 55
    assert cfg.study["m_paths"] == 6
    assert cfg.output_dir == "elsewhere"
    with pytest.raises(ConfigError):
        load_config(cfg_path, seed=-2)


@pytest.mark.parametrize(
    "command, study, paths, field",
    [
        ("temporal-study", {"kind": "temporal", "ladder": [2, 3], "reference_level": 5, "m_paths": 12}, "1", "m_paths"),
        ("kolmogorov-check", {"kind": "kolmogorov", "m_samples": 200}, "1", "m_samples"),
        ("validate-drift", {"kind": "validate", "trials": 50}, "0", "trials"),
    ],
)
def test_paths_override_passes_the_size_field_rule(tmp_path, capsys, command, study, paths, field):
    # --paths sets the study's size field, so the field's own range check
    # refuses it and names the field
    out = tmp_path / "o"
    cfg = write_doc(tmp_path, canonical_doc(study, out=str(out)))
    assert run([command, "--config", cfg, "--paths", paths]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: study.{field} out of range\n"
    assert not out.exists()


def test_paths_override_replaces_the_field_before_its_check(tmp_path, capsys):
    # m_paths 1 alone is refused; the override's 4 paths run the study.  The
    # verdict of 4 paths is noise, so only completion is asserted
    out = tmp_path / "o"
    cfg = write_doc(tmp_path, temporal_study_doc(str(out), m_paths=1))
    assert run(["temporal-study", "--config", cfg, "--paths", "4", "--deterministic"]) in (EXIT_OK, EXIT_ACCEPTANCE)
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert [row["m_paths"] for row in summary["rows"]] == [4, 4]
    assert summary["config"]["study"]["m_paths"] == 4


def test_summary_config_is_the_parsed_record(tmp_path, capsys):
    # a power_law operator with power 2 is recorded as given, not as heat
    out = tmp_path / "o"
    doc = temporal_study_doc(str(out))
    doc["operator"] = {"kind": "power_law", "n_max": 64, "power": 2}
    assert run(["temporal-study", "--config", write_doc(tmp_path, doc), "--deterministic"]) == EXIT_OK
    capsys.readouterr()
    config = json.loads((out / "summary.json").read_text())["config"]
    assert config["operator"] == {"kind": "power_law", "n_max": 64, "power": 2.0}
    assert config == parse_config(doc).doc


_MINIMAL_STUDIES = {
    "temporal": {"kind": "temporal", "ladder": [2], "reference_level": 5, "m_paths": 4},
    "spatial": {"kind": "spatial", "ladder": [2], "reference_modes": 8, "level": 3, "m_paths": 4},
    "increment": {"kind": "increment", "ladder": [2], "m_paths": 4},
    "kolmogorov": {"kind": "kolmogorov"},
    "validate": {"kind": "validate"},
}


def test_size_fields_cover_every_study_kind():
    # --paths looks the size field up by kind; a kind without one, or a
    # size field its parser does not read, would be refused as unknown
    assert set(_SIZE_FIELDS) == set(_STUDY_KINDS) == set(_MINIMAL_STUDIES)
    for kind, size in _SIZE_FIELDS.items():
        assert size in parse_config(canonical_doc(_MINIMAL_STUDIES[kind])).study


@pytest.mark.parametrize(
    "kind, study",
    [
        ("temporal", temporal_study),
        ("spatial", spatial_study),
        ("increment", increment_statistic),
        ("kolmogorov", kolmogorov_suite),
    ],
)
def test_study_fields_are_keywords_of_the_called_function(kind, study):
    # the CLI passes a study's fields to its function by name, beside the
    # arguments it fills itself, so a field the function does not take, or
    # one of those, would fail at run time (exit 4)
    settings = set(parse_config(canonical_doc(_MINIMAL_STUDIES[kind])).study) - {"kind"}
    if kind == "kolmogorov":
        filled = {"op", "spec", "theta", "horizon", "seed"}
    else:
        filled = {"operator", "drift_spec", "initial", "lattice", "alpha", "workers"}
    assert settings <= set(inspect.signature(study).parameters) - filled
    if kind != "kolmogorov":
        assert cli._POOLED_STUDIES[kind] == study.__name__


def test_increment_verdict_line_shows_gate(tmp_path, capsys):
    # a deterministic zero-noise report whose gate fails: the verdict line
    # and summary.json show the threshold it missed
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "increment", "ladder": [2, 3], "m_paths": 2}, out=str(out))
    cfg = load_config(write_doc(tmp_path, doc))
    report = increment_statistic(
        cfg.operator,
        cfg.drift,
        cfg.initial,
        NoiseLattice(cfg.lattice.master_seed, cfg.lattice.horizon, cfg.lattice.levels, cfg.lattice.n_modes, scale=0.0),
        [2, 3],
        8,
        2,
        alpha=2.0,
        sample_fractions=(0.5,),
    )
    assert _emit_convergence(cfg, report) == EXIT_ACCEPTANCE
    stdout = capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slope_stderr"] == 0.0
    assert summary["slope_threshold"] == report["slope_threshold"] > report["slope"]
    assert f"slope {report['slope']:.4f}  stderr 0.0000  threshold {report['slope_threshold']:.4f}" in stdout
    assert "[FAIL] slope_at_least_alpha_minus_margin" in stdout


def _declared_console_script():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["spdelab"]


def test_console_script_runs(tmp_path):
    # runs the declared entry point through the shim a console script
    # executes, so no install is needed
    target = _declared_console_script()
    assert target == "spdelab.cli:main"
    entry = importlib.metadata.EntryPoint(name="spdelab", value=target, group="console_scripts")
    assert entry.load() is main
    shim = f"import sys; from {entry.module} import {entry.attr}; sys.exit({entry.attr}())"
    src_dir = str(Path(spdelab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    cfg = write_doc(tmp_path, temporal_study_doc("out"))
    proc = subprocess.run(
        [sys.executable, "-c", shim, "hypotheses", "--config", cfg],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "rate_exponent_positive" in proc.stdout


@pytest.mark.skipif(shutil.which("spdelab") is None, reason="spdelab is not installed on PATH")
def test_installed_console_script_runs(tmp_path):
    cfg = write_doc(tmp_path, temporal_study_doc("out"))
    proc = subprocess.run(
        [shutil.which("spdelab"), "hypotheses", "--config", cfg],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "rate_exponent_positive" in proc.stdout
