"""End-to-end benchmark of dualchain through its public ``cli.run_one`` path.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Runs one workload's scenarios one at a time in this process (a closed loop
with one client), repeating the pass over them, checks every output against
an independent oracle, and prints one JSON object as the last line of
standard output: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``perfbench/README.md`` for the workloads
and metrics.

Exit codes: 0 all outputs checked correct, 1 an output check failed (the
result is still printed), 2 the program could not be found or imported.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# seconds one pass over a workload takes on a quiet 2-core Xeon; a run makes
# round(--seconds / this) passes, at least one, so its work is fixed by its
# arguments alone and repeats exactly
NOMINAL_PASS_S = {"presets": 2.3, "dual-newton": 2.6, "periodic-direct": 4.6}
SETUP_REPEATS = 7
CALIBRATION_STEPS = 12000
# calibration_s() on a quiet 2-core Xeon; scenario times are rescaled to it
CALIBRATION_REF_S = 0.0312
# how much of the calibration's slowdown the measured work suffers, on a log
# scale: when the loop took twice as long, presets scenarios took about
# 1.7x, the generated ones 1.4-1.6x.  Over ten runs per workload, 0.75 left
# the least spread on all three taken together
CALIBRATION_EXPONENT = 0.75
EPS = float(np.finfo(float).eps)

_SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from dualchain.cli import load_config
for path, sets in json.loads(sys.argv[2]):
    load_config(path, sets=sets)
print(time.perf_counter() - start)
"""


def setup_seconds(configs) -> list:
    """(seconds, calibration) over fresh interpreters of importing dualchain
    and loading every config of the workload; the calibration is the mean
    of the loops timed just before and just after each interpreter."""
    arg = json.dumps(configs)
    samples = []
    calib = calibration_s()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), arg],
                             capture_output=True, text=True, timeout=120, check=True)
        after = calibration_s()
        samples.append((float(out.stdout.strip().splitlines()[-1]), 0.5 * (calib + after)))
        calib = after
    return samples


def calibration_s() -> float:
    """Wall time of a fixed loop of small-array numpy arithmetic, the kind of
    interpreted work that dominates the package.  Timed beside every
    scenario, it measures how much other tenants slowed this core just then:
    about CALIBRATION_REF_S on a quiet host, up to twice that on a busy one."""
    x, v, a = np.zeros(8), np.ones(8), np.eye(8)
    begun = perf_counter()
    for _ in range(CALIBRATION_STEPS):
        x = x + 1e-3 * v
        v = v - 1e-3 * (a @ x)
    return perf_counter() - begun


def quiet_seconds(wall_s: float, calib_s: float) -> float:
    """``wall_s`` rescaled to a quiet host, given the calibration time
    measured beside it."""
    return wall_s * (CALIBRATION_REF_S / calib_s) ** CALIBRATION_EXPONENT


def run_pass(cli, scenarios, out_dir: Path, tracer=None):
    """Run every scenario once; returns (wall seconds, per-scenario rows).
    Each row holds the scenario's wall time and the mean of the
    calibration times just before and just after it."""
    rows = []
    start = perf_counter()
    calib = calibration_s()
    for sc in scenarios:
        if tracer is not None:
            tracer.scenario = sc.name
        row = {"scenario": sc.name, "code": None}
        begun = perf_counter()
        try:
            row["code"] = cli.run_one(sc.config, out_dir / sc.name, sets=sc.sets)
        except Exception:
            row["error"] = traceback.format_exc(limit=4)
        row["s"] = perf_counter() - begun
        after = calibration_s()
        row["calib_s"] = 0.5 * (calib + after)
        calib = after
        rows.append(row)
    return perf_counter() - start, rows


def measure(cli, checker, pass_list, out_root: Path, tracer=None):
    """Run every pass, then check every output.  Returns the pass wall times
    and one row per run, with its outcome: ok, and the relative oracle
    deviation or the reason it failed.  The checks run in one batch after
    the last pass, so chains of one size share one oracle loop."""
    walls, runs = [], []
    for i, scenarios in enumerate(pass_list):
        out_dir = out_root / f"pass{i}"
        wall, rows = run_pass(cli, scenarios, out_dir, tracer)
        walls.append(wall)
        for sc, row in zip(scenarios, rows):
            row["pass"] = i
            runs.append((sc, row, out_dir / sc.name))
    results = iter(checker.check([(sc, dest) for sc, row, dest in runs if row["code"] == 0]))
    for sc, row, dest in runs:
        row["bytes"] = sum(p.stat().st_size for p in dest.iterdir()) if dest.exists() else 0
        result = next(results) if row["code"] == 0 else None
        row["ok"] = isinstance(result, float)
        if row["ok"]:
            row["rel_deviation"] = result
        elif isinstance(result, checks.CheckError):
            row["check_error"] = str(result)
    shutil.rmtree(out_root, ignore_errors=True)
    return walls, [row for _, row, _ in runs]


def end_to_end(rows, passes: int, setup_s: float) -> dict:
    ok = [r for r in rows if r["ok"]]
    # On a shared host other tenants slow this core by up to 2x, for
    # stretches from milliseconds to minutes.  Each repeat counts in
    # quiet-host seconds, and each scenario with the median of its repeats
    quiet: dict[str, list] = {}
    for r in rows:
        quiet.setdefault(r["scenario"], []).append(quiet_seconds(r["s"], r["calib_s"]))
    quiet_s = sum(statistics.median(v) for v in quiet.values())
    return {
        "setup_s": (setup_s, "s"),
        "solved_per_s": (len(ok) / passes / quiet_s, "1/s"),
        "ok_ratio": (len(ok) / len(rows), "ratio"),
        # mean over results of -log10 of the deviation from the oracle
        # relative to the state's size: the digits a result agrees to.  The
        # largest deviation hangs on the single hardest draw of a run; every
        # result is still held to 5 h^2 by the checks
        "oracle_digits": (statistics.mean(-math.log10(max(EPS, r["rel_deviation"]))
                                          for r in ok) if ok else 0.0, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, rows, untraced_wall: float, traced_wall: float) -> dict:
    totals = tracer.totals()
    out = {}
    units = {"calls": "count", "s": "s", "self_s": "s"}
    for layer, row in totals.items():
        for key, unit in units.items():
            out[f"{layer}.{key}"] = (row[key], unit)
    prim = totals["primal_solver.integrate_primal"]
    steps = prim.get("steps", 0)
    out["primal_solver.integrate_primal.steps"] = (steps, "count")
    out["primal_solver.integrate_primal.us_per_step"] = (
        1e6 * prim["s"] / steps if steps else 0.0, "us")
    chol = totals["dual_action.BlockTridiagonal.neg_cholesky"]
    out["dual_action.BlockTridiagonal.neg_cholesky.failed"] = (chol.get("failed", 0), "count")
    out["dual_action.hessian.bytes"] = (totals["dual_action.hessian"].get("bytes", 0),
                                        "bytes_computed")
    dual = totals["dual_solver.solve_dual"]
    iters = dual.get("iterations", 0)
    out["dual_solver.solve_dual.iterations"] = (iters, "count")
    out["dual_solver.action_per_iteration"] = (
        totals["dual_action.action"]["calls"] / iters if iters else 0.0, "ratio")
    out["dual_solver.action_per_iteration.base"] = (iters, "count")
    out["dual_solver.cholesky_ok_ratio"] = (
        (chol["calls"] - chol.get("failed", 0)) / chol["calls"] if chol["calls"] else 0.0,
        "ratio")
    out["dual_solver.cholesky_ok_ratio.base"] = (chol["calls"], "count")
    per = totals["periodic_search.solve_periodic"]
    p_iters = per.get("iterations", 0)
    out["periodic_search.solve_periodic.iterations"] = (p_iters, "count")
    out["periodic_search.solve_periodic.s_per_iteration"] = (
        per["s"] / p_iters if p_iters else 0.0, "s")
    out["periodic_search.solve_periodic.failed"] = (per.get("failed", 0), "count")
    out["cli.write.s"] = (totals["cli.write_trajectory"]["s"]
                          + totals["cli.write_dual_field"]["s"], "s")
    out["cli.write.bytes"] = (sum(r["bytes"] for r in rows), "bytes")
    run_s = tracer.by_scenario("cli.run_one")
    for stem in PRESET_STEMS:
        out[f"cli.run_one.{stem}.s"] = (run_s.get(stem, 0.0), "s")
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return out


PRESET_STEMS = ("damped_n1", "forced_damped_n1", "fput_alpha_n8", "harmonic_n1",
                "periodic_forced_n4", "perturbed_base_n4")


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    revision = _git("rev-parse", "HEAD")  # None outside a git checkout
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": revision,
        "git_dirty": None if revision is None
        else bool(_git("status", "--porcelain", "--untracked-files=no")),
        "src_sha256": _tree_digest(SRC),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the OpenBLAS loaded by numpy will use, or None."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every grid (smoke test of the harness)")
    args = parser.parse_args(argv)

    if not (SRC / "dualchain" / "__init__.py").is_file():
        print(f"perfbench: no dualchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import dualchain.cli as cli
    except ImportError as err:
        print(f"perfbench: cannot import dualchain: {err}", file=sys.stderr)
        return 2

    run_dir = RUNS / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        return _run(cli, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(cli, args, run_dir: Path) -> int:
    presets = {p.stem: p for p in cli.scenario_presets()}
    count = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    pass_list = [workloads.one_pass(args.workload, args.seed, run_dir / "configs",
                                    presets, tiny=args.tiny)] * count
    checker = checks.Checker(cli.read_trajectory)
    record = {"env": environment(args.workload, args.seed), "passes": count}

    if args.trace:
        untraced, _ = measure(cli, checker, pass_list[:1], run_dir / "untraced")
        with tracing.Tracer() as tracer:
            walls, rows = measure(cli, checker, pass_list, run_dir / "traced", tracer=tracer)
        probe = workloads.zero_base_probe(presets, tiny=args.tiny)
        _, probe_rows = run_pass(cli, [probe], run_dir / "probe")
        record["trace_notes"] = tracer.notes
        RUNS.mkdir(exist_ok=True)
        tracer.write(RUNS / f"trace-{args.workload}-s{args.seed}.jsonl")
        metrics = per_layer(tracer, rows, untraced[0], walls[0])
        # -1 when the probe raised instead of returning an exit code
        code = probe_rows[0]["code"]
        metrics["periodic_search.zero_base_probe.exit_code"] = (
            -1 if code is None else code, "code")
    else:
        setup = setup_seconds([[str(sc.config), list(sc.sets)] for sc in pass_list[0]])
        record["setup"] = setup
        setup_s = statistics.median(quiet_seconds(t, c) for t, c in setup)
        walls, rows = measure(cli, checker, pass_list, run_dir / "runs")
        metrics = end_to_end(rows, count, setup_s)

    check_errors = [r for r in rows if "check_error" in r]
    record["pass_wall_s"] = walls
    record["scenarios"] = rows
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for row in rows:
        status = "ok" if row["ok"] else row.get("check_error") or f"exit {row['code']}"
        print(f"pass {row['pass']} {row['scenario']}: {row['s']:.3f} s, {status}",
              file=sys.stderr)
    print(json.dumps({"env": record["env"], "passes": count}))
    print(json.dumps({
        "correct": not check_errors,
        "attempted": len(rows),
        "failed": sum(1 for r in rows if not r["ok"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if check_errors else 0


if __name__ == "__main__":
    sys.exit(main())
