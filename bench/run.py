"""Benchmark of the `spdelab` CLI studies, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload temporal-fine --seed 1 --seconds 55 --trace 0

With `--trace 0` the named workload runs as a closed loop with one client:
one fresh `python -m spdelab ...` process at a time, for `--seconds`
seconds.  Each run's wall time, CPU time of the whole process tree and
peak RSS (of the largest single process in the tree, from `wait4`) are
recorded and its output is checked.  `setup_s` is the median wall time of
`spdelab hypotheses` on the same config.

With `--trace 1` the study runs in this process with `--deterministic`,
alternating untraced and traced runs; the traced runs give per-layer self
times and counts (see tracer.py), and the pinned probes in probes.py run once.

`--workload all` runs every workload both ways and prints every table.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import KOLMOGOROV_CHECKS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
SETUP_RUNS = 10
PROBE_REPS = 3

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# every per-layer figure the traced run prints
LAYER_UNITS = {
    "noise.self_s": "s",
    "noise.draw_s": "s",
    "noise.streams": "count",
    "noise.normals": "count",
    "noise.ns_per_normal": "ns",
    "noise.fold_s": "s",
    "noise.fold_elems": "count",
    "noise.ou_s": "s",
    "noise.ou_draws": "count",
    "noise.fine_block_mb_computed": "MB",
    "drift.eval_s": "s",
    "drift.eval_elems": "count",
    "drift.ns_per_elem": "ns",
    "analysis.self_s": "s",
    "kolmogorov.self_s": "s",
    "study.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}

# the subset reported in the result line: a layer a workload never enters
# would read as a time of exactly 0 on every run, so its time is reported
# only through the sums noise.self_s and study.self_s
REPORTED_LAYERS = (
    "noise.self_s",
    "noise.streams",
    "noise.normals",
    "noise.fold_elems",
    "noise.ou_draws",
    "noise.fine_block_mb_computed",
    "drift.eval_s",
    "drift.eval_elems",
    "drift.ns_per_elem",
    "study.self_s",
    "cli.self_s",
    "trace.overhead",
)


class BenchError(Exception):
    """The benchmark cannot measure this workload; nothing is reported."""


# ---------------------------------------------------------------- processes


def _child_env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def spawn(argv: list[str], log: Path) -> dict:
    """Run one child to completion: exit code, wall s, CPU s of its tree, peak RSS MB."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        # wait4 reports the child together with its reaped descendants (the pool)
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def _spdelab(*args: str) -> list[str]:
    return [sys.executable, "-m", "spdelab", *args]


def validate_config(w: Workload, config: Path, log: Path) -> dict:
    """One `spdelab hypotheses` run; refuses to time a config it rejects."""
    sample = spawn(_spdelab("hypotheses", "--config", str(config)), log)
    if sample["exit"] != 0:
        what = "a standing hypothesis is violated" if sample["exit"] == 3 else "hypotheses failed"
        raise BenchError(
            f"workload {w.name}: {what} (spdelab hypotheses exit {sample['exit']}); see {log}"
        )
    return sample


# ---------------------------------------------------------------- checks


def check_output(w: Workload, exit_code: int, outdir: Path, reference: bytes | None):
    """Problems that make a run count as failed, and information that does not.

    Exit 1 is a statistical gate verdict and passes; 2, 3 and 4 fail.
    """
    if exit_code not in (0, 1):
        return [f"exit {exit_code}"], {"exit": exit_code}
    try:
        report = (outdir / "report.csv").read_bytes()
        summary = json.loads((outdir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], {"exit": exit_code}
    problems = []
    if reference is not None and report != reference:
        problems.append("report.csv differs from the --deterministic reference")
    header, *rows = report.decode(errors="replace").splitlines() or [""]
    if len(rows) != w.expected_rows:
        problems.append(f"report.csv has {len(rows)} rows, expected {w.expected_rows}")
    for row in rows:
        for column, field in zip(header.split(","), row.split(",")):
            try:
                value = float(field)
            except ValueError:
                value = math.nan
            # a standard error is 0 where every path has the same error, as on
            # spatial rungs whose tail modes decay to 0 in one step
            floor_ok = value >= 0.0 if column.endswith("stderr") else value > 0.0
            if not (math.isfinite(value) and floor_ok):
                problems.append(f"report.csv {column} = {field!r} is out of range")
    if w.command == "kolmogorov-check":
        names = tuple(c.get("name") for c in summary.get("checks", ()))
        if names != KOLMOGOROV_CHECKS:
            problems.append(f"kolmogorov checks incomplete: {names}")
        verdict = summary.get("passed")
    else:
        verdict = summary.get("pass")
    info = {
        "exit": exit_code,
        "gates_pass": verdict,
        "slope": summary.get("slope"),
        "report_sha256": hashlib.sha256(report).hexdigest()[:16],
    }
    return problems, info


# ---------------------------------------------------------------- statistics


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def print_table(title: str, units: dict, samples: dict) -> None:
    print(title)
    print(f"  {'metric':<30} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}")
    for name, unit in units.items():
        q = quartiles(samples[name])
        print(
            f"  {name:<30} {unit:<6} {q['median']:>14.6g} {q['q1']:>14.6g} "
            f"{q['q3']:>14.6g} {q['n']:>4}"
        )


def environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            sha = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "seed": seed,
        "thread_env": dict(THREAD_ENV),
    }


# ---------------------------------------------------------------- workloads


def _study_args(w: Workload, config: Path, seed: int, out: Path, smoke: bool) -> list[str]:
    args = [w.command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    return args + (["--paths", str(w.smoke_size)] if smoke else [])


def measure_cli(w: Workload, seed: int, seconds: float, smoke: bool, work: Path, config: Path):
    """Closed loop of fresh CLI processes; returns (runs, e2e samples)."""
    # the first set-up run also validates the config; the rest are spread
    # over the window so that they see the same machine load as the runs
    setup = [validate_config(w, config, work / "setup.log")["wall_s"]]
    deadline = time.perf_counter() + seconds
    next_setup = time.perf_counter() + seconds / SETUP_RUNS
    ref_dir = work / "reference"
    ref = spawn(_spdelab(*_study_args(w, config, seed, ref_dir, smoke), "--deterministic"),
                work / "reference.log")
    ref_problems, info = check_output(w, ref["exit"], ref_dir, None)
    ref.update(info, problems=ref_problems)
    reference = None if ref_problems else (ref_dir / "report.csv").read_bytes()
    # the reference run of an in-process workload is also its first timed run
    runs = [] if w.pooled else [ref]
    # stop before a run that would likely end after the deadline
    while not runs or not smoke and time.perf_counter() + runs[-1]["wall_s"] <= deadline:
        if not smoke and time.perf_counter() >= next_setup:
            setup.append(validate_config(w, config, work / "setup.log")["wall_s"])
            next_setup += seconds / SETUP_RUNS
        out = work / f"run-{len(runs)}"
        sample = spawn(_spdelab(*_study_args(w, config, seed, out, smoke), *w.mode_args()),
                       work / "run.log")
        problems, info = check_output(w, sample["exit"], out, reference)
        sample.update(info, problems=[f"reference: {p}" for p in ref_problems] + problems)
        runs.append(sample)
        shutil.rmtree(out, ignore_errors=True)

    samples = {k: [r[k] for r in runs] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setup
    return runs, samples


def layer_metrics(tracer) -> dict[str, float]:
    self_s = tracer.self_seconds()
    counts = tracer.counts
    draw, fold, ou = (self_s.get(k, 0.0) for k in ("noise.draw", "noise.fold", "noise.ou"))
    drift = self_s.get("drift.eval", 0.0)
    analysis = self_s.get("analysis.study", 0.0)
    kolmogorov = self_s.get("kolmogorov.study", 0.0)
    normals = counts.get("noise.normals", 0)
    elems = counts.get("drift.eval_elems", 0)
    return {
        "noise.self_s": draw + fold + ou,
        "noise.draw_s": draw,
        "noise.streams": counts.get("noise.streams", 0),
        "noise.normals": normals,
        "noise.ns_per_normal": draw / normals * 1e9 if normals else 0.0,
        "noise.fold_s": fold,
        "noise.fold_elems": counts.get("noise.fold_elems", 0),
        "noise.ou_s": ou,
        "noise.ou_draws": counts.get("noise.ou_draws", 0),
        "noise.fine_block_mb_computed": counts.get("noise.fine_block_bytes", 0) / 1e6,
        "drift.eval_s": drift,
        "drift.eval_elems": elems,
        "drift.ns_per_elem": drift / elems * 1e9 if elems else 0.0,
        "analysis.self_s": analysis,
        "kolmogorov.self_s": kolmogorov,
        "study.self_s": analysis + kolmogorov,
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def measure_traced(w: Workload, seed: int, seconds: float, smoke: bool, work: Path, config: Path):
    """Alternating untraced and traced in-process runs, then the probes."""
    validate_config(w, config, work / "setup.log")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from spdelab.cli import main as spdelab_main

    from probes import run_probes
    from tracer import Tracer

    def once(out: Path, tracer=None) -> dict:
        argv = _study_args(w, config, seed, out, smoke) + ["--deterministic"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            if tracer is None:
                code = spdelab_main(argv)
            else:
                with tracer, tracer.span("cli.main"):
                    code = spdelab_main(argv)
            wall = time.perf_counter() - t0
        return {"exit": code, "wall_s": wall, "traced": tracer is not None}

    deadline = time.perf_counter() + seconds
    probes, unavailable = run_probes(1 if smoke else PROBE_REPS)
    ref_dir = work / "reference"
    ref = once(ref_dir)
    ref_problems, info = check_output(w, ref["exit"], ref_dir, None)
    ref.update(info, problems=ref_problems)
    reference = None if ref_problems else (ref_dir / "report.csv").read_bytes()

    runs, layers, last = [ref], [], None
    for pair in itertools.count():
        started = time.perf_counter()
        # alternate which side goes first so drift in machine load cancels
        for traced in (pair % 2 == 1, pair % 2 == 0):
            out = work / f"run-{len(runs)}"
            tracer = Tracer() if traced else None
            sample = once(out, tracer)
            problems, info = check_output(w, sample["exit"], out, reference)
            sample.update(info, problems=[f"reference: {p}" for p in ref_problems] + problems)
            runs.append(sample)
            shutil.rmtree(out, ignore_errors=True)
            if tracer is not None:
                layers.append(layer_metrics(tracer))
                last = tracer
        now = time.perf_counter()
        if smoke or now + (now - started) > deadline:
            break

    untraced = statistics.median(r["wall_s"] for r in runs[1:] if not r["traced"])
    traced = statistics.median(r["wall_s"] for r in runs if r["traced"])
    samples = {name: [m[name] for m in layers] for name in LAYER_UNITS if name != "trace.overhead"}
    samples["trace.overhead"] = [traced / untraced - 1.0]
    return runs, samples, probes, unavailable, last


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    from probes import PROBES

    w = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(w.doc, indent=2))
        detail = {"workload": name, "trace": trace, "smoke": smoke, "env": environment(seed)}
        print(f"== {name}  trace {trace}  env {json.dumps(detail['env'], sort_keys=True)}")
        if trace:
            runs, samples, probes, unavailable, tracer = measure_traced(
                w, seed, seconds, smoke, work, config
            )
            print_table("per-layer figures of the traced in-process runs", LAYER_UNITS, samples)
            print(f"  {'probe':<36} {'unit':<6} {'median':>14}")
            for probe, unit in PROBES:
                print(f"  {probe:<36} {unit:<6} {probes[probe]:>14.6g}")
            for probe, why in unavailable.items():
                print(f"  probe {probe} unavailable: {why}")
            if tracer.absent:
                print(f"  absent wrap targets: {', '.join(tracer.absent)}")
            metrics = {k: statistics.median(samples[k]) for k in REPORTED_LAYERS}
            metrics.update(probes)
            units = {**LAYER_UNITS, **dict(PROBES)}
            detail.update(probes=probes, probes_unavailable=unavailable, absent=tracer.absent)
            (OUT / f"{name}-spans.json").write_text(json.dumps({"spans": tracer.spans}))
        else:
            runs, samples = measure_cli(w, seed, seconds, smoke, work, config)
            print_table(
                "end to end (peak_rss_mb: largest single process in the tree, not a sum)",
                E2E_UNITS, samples,
            )
            metrics = {k: statistics.median(samples[k]) for k in E2E_UNITS}
            units = E2E_UNITS
        failed = sum(1 for r in runs if r["problems"])
        gates = sorted({str(r.get("gates_pass")) for r in runs})
        print(f"  runs {len(runs)}  failed {failed}  error_rate {failed / len(runs):.4g}  "
              f"gates_pass {gates}")
        for r in runs:
            for problem in r["problems"]:
                print(f"  FAILED run: {problem}")
        detail.update(runs=runs, samples=samples)
        (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail, indent=1))
        return {
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny Monte Carlo sizes and one run per mode, for the tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")
    # pin the BLAS/OpenMP pools before numpy is imported by the traced runs
    os.environ.update(THREAD_ENV)
    if not (SRC / "spdelab" / "__init__.py").is_file():
        print(f"bench: no spdelab sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        # untraced first: a child's ru_maxrss includes this process's own peak
        # RSS at spawn time, which the in-process traced runs raise
        jobs = [(name, trace) for trace in (0, 1) for name in WORKLOADS]
    else:
        jobs = [(args.workload, args.trace)]
    try:
        results = {job: run_workload(job[0], args.seed, args.seconds, job[1], args.smoke)
                   for job in jobs}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for (name, _), r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
