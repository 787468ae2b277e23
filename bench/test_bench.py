"""Smoke tests of the benchmark itself: tiny Monte Carlo sizes, one run per mode.

Run from the root of a checkout with `python -m pytest -q bench`.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_lists_only_workloads_run_py_knows():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # error_rate = failed / attempted is 0 at this commit
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    if trace:
        spans = json.loads((run.OUT / f"{workload}-spans.json").read_text())["spans"]
        assert spans and spans[0][0] == "cli.main" and spans[0][3] is None
        children = [0] * len(spans)
        for name, start, end, parent in spans:
            assert start <= end
            if parent is not None:
                _, p_start, p_end, _ = spans[parent]
                assert p_start <= start and end <= p_end, name
                children[parent] += end - start
        for (name, start, end, _), inside in zip(spans, children):
            assert inside <= end - start, name


def test_tracer_wraps_restores_and_reports_absent_targets():
    import spdelab.noise
    import spdelab.scheme

    fold = spdelab.scheme.left_fold_blocks
    draw = vars(spdelab.noise.NoiseLattice)["mode_increments"]
    targets = (
        ("spdelab.scheme:left_fold_blocks", "noise.fold", None),
        ("spdelab.noise:NoiseLattice.mode_increments", "noise.draw", None),
        ("spdelab.scheme:_no_such_kernel", "gone", None),
        ("spdelab.no_such_module:anything", "gone", None),
    )
    with Tracer(targets) as tracer:
        assert spdelab.scheme.left_fold_blocks is not fold
        lattice = spdelab.noise.NoiseLattice(1, 1.0, 2, 1)
        spdelab.scheme.left_fold_blocks(lattice.fine_increments(0), 2)
    assert spdelab.scheme.left_fold_blocks is fold
    assert vars(spdelab.noise.NoiseLattice)["mode_increments"] is draw
    assert tracer.absent == ["spdelab.scheme:_no_such_kernel", "spdelab.no_such_module:anything"]
    assert [s[0] for s in tracer.spans] == ["noise.draw", "noise.fold"]


def _outdir(tmp_path, csv: str, summary: dict) -> Path:
    tmp_path.joinpath("report.csv").write_text(csv)
    tmp_path.joinpath("summary.json").write_text(json.dumps(summary))
    return tmp_path


def test_check_output_counts_only_real_failures(tmp_path):
    w = WORKLOADS["spatial-wide"]
    rows = "".join(f"{n},0.0078125,{n},4,1e-12,0.0\n" for n in (32, 64, 128, 256))
    csv = "resolution,delta,n_modes,m_paths,err2_mean,err2_stderr\n" + rows
    out = _outdir(tmp_path, csv, {"pass": False, "slope": -0.4})
    problems, info = run.check_output(w, 1, out, csv.encode())
    assert problems == [] and info["gates_pass"] is False  # exit 1 is a gate verdict
    assert run.check_output(w, 4, out, None)[0] == ["exit 4"]
    assert run.check_output(w, 0, out, b"other")[0] == [
        "report.csv differs from the --deterministic reference"
    ]
    bad = _outdir(tmp_path, csv.replace("1e-12", "nan", 1), {"pass": True})
    assert len(run.check_output(w, 0, bad, None)[0]) == 1


def test_hypothesis_violation_fails_fast_naming_the_workload(tmp_path):
    base = WORKLOADS["temporal-fine"]
    doc = json.loads(json.dumps(base.doc))
    doc["drift"]["beta"] = doc["rate_params"]["beta"] = 0.1  # 2*beta/(2-eps) < 1-alpha
    w = Workload("too-rough", base.command, doc, False, base.expected_rows, base.smoke_size)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(run.BenchError, match="workload too-rough: a standing hypothesis"):
        run.validate_config(w, config, tmp_path / "setup.log")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "temporal-fine", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
