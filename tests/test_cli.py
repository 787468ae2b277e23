"""End-to-end tests of the command-line front end, run in process."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spdelab
from spdelab import NoiseLattice, increment_statistic
from spdelab.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    ConfigError,
    _emit_convergence,
    hypothesis_rows,
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
    once = cfg.to_dict()
    again = parse_config(once).to_dict()
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
    bad_op = dict(good)
    bad_op["operator"] = {"kind": "laplace", "n_max": 4}
    with pytest.raises(ConfigError, match="operator kind"):
        parse_config(bad_op)


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
    out = tmp_path / "o"
    doc = canonical_doc(
        {"kind": "increment", "ladder": [2, 3], "m_paths": 20}, out=str(out)
    )
    cfg = write_doc(tmp_path, doc)
    assert run(["increment-study", "--config", cfg, "--deterministic"]) == EXIT_OK
    capsys.readouterr()
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr"
    assert len(lines) == 3


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


def test_simulate_writes_trajectories(tmp_path, capsys):
    out = tmp_path / "o"
    doc = canonical_doc({"kind": "temporal", "ladder": [2], "reference_level": 5, "m_paths": 4}, out=str(out))
    cfg = write_doc(tmp_path, doc)
    assert run(["simulate", "--config", cfg, "--paths", "2"]) == EXIT_OK
    capsys.readouterr()
    assert (out / "trajectory_0.csv").exists()
    assert (out / "trajectory_1.csv").exists()
    header = (out / "trajectory_0.csv").read_text().splitlines()[0]
    assert header.startswith("t,mode_1")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["paths"] == 2


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
    assert "config error: seed override must fit in 64 bits" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    doc["noise"]["seed"] = (1 << 64) - 1
    assert parse_config(doc).master_seed == (1 << 64) - 1
    assert load_config(cfg, seed=(1 << 64) - 1).master_seed == (1 << 64) - 1


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


def test_kolmogorov_check_reports_measured_failure(tmp_path, capsys):
    # at 4000 samples the 5 percent finite-difference tolerance is tighter
    # than the Monte Carlo noise for this seed; the command must exit with
    # the acceptance code, not a config or runtime code
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
    # not hold, with that row's value
    doc = temporal_study_doc(str(tmp_path / "o"))
    if section == "epsilon":
        doc["drift"]["epsilon"] = doc["rate_params"]["epsilon"] = value
    else:
        doc[section][field] = value
    cfg = write_doc(tmp_path, doc)
    row = next(r for r in hypothesis_rows(load_config(cfg)) if r["holds"] is not True)
    for command, extra in (("temporal-study", ["--deterministic"]), ("simulate", ["--paths", "1"])):
        assert run([command, "--config", cfg, *extra]) == EXIT_HYPOTHESIS
        assert capsys.readouterr().err == f"hypothesis violated [{row['name']}]: {row['value']}\n"
    assert run(["hypotheses", "--config", cfg]) == EXIT_HYPOTHESIS
    assert f"{row['value']}" in capsys.readouterr().out


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
        ("kolmogorov-check", "study", "theta", "NaN"),
        # numbers written as JSON strings
        ("temporal-study", "rate_params", "alpha", '"0.45"'),
        ("temporal-study", "noise", "horizon", '"nan"'),
        ("temporal-study", "initial", "q", '"nan"'),
        ("kolmogorov-check", "study", "t", '"nan"'),
        ("kolmogorov-check", "study", "lam_sweep", '[1.0, "10", 100.0]'),
        # JSON booleans, which Python reads as 1 and 0
        ("temporal-study", "drift", "amplitude", "true"),
        ("temporal-study", "drift", "cap", "true"),
        ("temporal-study", "initial", "coeffs", "[true, 0.5]"),
        ("kolmogorov-check", "noise", "levels", "true"),
    ],
    ids=[
        "horizon-nan",
        "amplitude-nan",
        "amplitude-1e400",
        "alpha-neg-inf",
        "horizon-huge-int",
        "theta-nan",
        "alpha-string",
        "horizon-nan-string",
        "q-nan-string",
        "t-nan-string",
        "lam-sweep-string-entry",
        "amplitude-bool",
        "cap-bool",
        "coeffs-bool-entry",
        "levels-bool",
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


def test_load_config_overrides(tmp_path):
    cfg_path = write_doc(tmp_path, temporal_study_doc("out"))
    cfg = load_config(cfg_path, seed=55, paths=6, out="elsewhere")
    assert cfg.master_seed == 55
    assert cfg.study["m_paths"] == 6
    assert cfg.output_dir == "elsewhere"
    with pytest.raises(ConfigError):
        load_config(cfg_path, seed=-2)


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
        NoiseLattice(cfg.master_seed, cfg.horizon, cfg.levels, cfg.n_modes, scale=0.0),
        [2, 3],
        8,
        2,
        alpha=2.0,
    )
    assert _emit_convergence(cfg, report, xcol=2, xlabel="step size") == EXIT_ACCEPTANCE
    stdout = capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slope_stderr"] == 0.0
    assert summary["slope_threshold"] == report.slope_threshold > report.slope
    assert f"slope {report.slope:.4f}  stderr 0.0000  threshold {report.slope_threshold:.4f}" in stdout
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
