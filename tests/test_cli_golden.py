"""Byte-for-byte goldens of every CLI command's outputs.

Each of the seven commands runs in process at a tiny size with
`--deterministic`.  The test pins its exit code, its stdout and every file
it writes (`report.csv`, `summary.json`, `plot.gp` and trajectory files).
The output directory differs from run to run, so it is replaced by `<out>`
in stdout and in the files; that leaves `summary.json` pinned whole except
for `config.output`.  The goldens in `cli_golden.json` were recorded at
662d93e, before the CLI's output writers and command list were merged; the
kolmogorov-check `bismut_matches_finite_difference` detail was re-recorded
when a comparison of no coordinates got its own wording, and its decay rows
when the decay check began to draw weight normals only on the checked modes.
"""

import json
from pathlib import Path

import pytest

from spdelab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _doc(study, levels=6, n_modes=8, n_max=64, seed=7):
    return {
        "operator": {"kind": "heat", "n_max": n_max},
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
        "noise": {"seed": seed, "levels": levels, "n_modes": n_modes, "horizon": 1.0},
        "study": study,
        "output": {"directory": "unused"},
    }


_TEMPORAL = {"kind": "temporal", "ladder": [2, 3], "reference_level": 5, "m_paths": 4}

RUNS = {
    "temporal-study": (_doc(_TEMPORAL), []),
    "spatial-study": (
        _doc({"kind": "spatial", "ladder": [2, 4], "reference_modes": 8, "level": 3, "m_paths": 4}, levels=3),
        [],
    ),
    "increment-study": (_doc({"kind": "increment", "ladder": [2, 3], "m_paths": 4}), []),
    "kolmogorov-check": (_doc({"kind": "kolmogorov", "m_samples": 200}, levels=4, n_modes=16, n_max=16, seed=2), []),
    "validate-drift": (_doc({"kind": "validate", "trials": 50}, levels=4, n_modes=16, n_max=16), []),
    "simulate": (
        _doc({"kind": "temporal", "ladder": [1], "reference_level": 2, "m_paths": 4}, levels=3, n_modes=4),
        ["--paths", "2"],
    ),
    "hypotheses": (_doc(_TEMPORAL), []),
}


def run_command(command, tmp_path, capsys) -> dict:
    """Exit code, stdout and written files of one command, with the output
    directory replaced by `<out>`."""
    doc, extra = RUNS[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main([command, "--config", str(config), "--out", str(out), "--deterministic", *extra])
    captured = capsys.readouterr()
    files = {}
    if out.exists():
        files = {p.name: p.read_text().replace(str(out), "<out>") for p in sorted(out.iterdir())}
    return {"exit": code, "stdout": captured.out.replace(str(out), "<out>"), "files": files}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_cli_command_golden(tmp_path, capsys, command):
    got = run_command(command, tmp_path, capsys)
    want = GOLDEN[command]
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]
    assert sorted(got["files"]) == sorted(want["files"])
    for name, text in want["files"].items():
        assert got["files"][name] == text, name
