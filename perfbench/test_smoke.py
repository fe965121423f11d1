"""Seconds-long check of the harness itself, at tiny grid sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dualchain import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_and_every_output_checked(workload, trace):
    result = _bench(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if trace:
        steps = result["metrics"]["primal_solver.integrate_primal.steps"]["value"]
        assert (steps > 0) == (workload == "presets")
        assert result["metrics"]["periodic_search.zero_base_probe.exit_code"]["value"] != -1


@pytest.fixture
def solved(tmp_path):
    """One tiny dual-solve run and its scenario."""
    rng = np.random.default_rng([7, 0])
    name, mode, chain = next(workloads._dual_newton(rng, tiny=True))
    config = tmp_path / f"{name}.cfg"
    config.write_text(workloads.chain_config(mode, **chain))
    scenario = workloads.Scenario(name, config, mode)
    assert cli.run_one(config, tmp_path / "out") == 0
    return scenario, tmp_path / "out"


def test_checks_pass_a_correct_run(solved):
    scenario, out = solved
    (result,) = checks.Checker(cli.read_trajectory).check([(scenario, out)])
    assert isinstance(result, float) and 0 < result < 1e-2


def test_checks_catch_a_file_that_is_not_the_manifested_one(solved):
    scenario, out = solved
    path = out / f"{scenario.name}_trajectory.txt"
    path.write_text(path.read_text() + "\n")
    (result,) = checks.Checker(cli.read_trajectory).check([(scenario, out)])
    assert isinstance(result, checks.CheckError) and "manifest" in str(result)


def test_checks_catch_a_wrong_trajectory_with_a_matching_manifest(solved):
    scenario, out = solved
    path = out / f"{scenario.name}_trajectory.txt"
    traj = cli.read_trajectory(path)
    cli.write_trajectory(path, type(traj)(traj.grid, traj.x * 1.01, traj.v))
    report = out / f"{scenario.name}_report.txt"
    text = report.read_text().splitlines()
    text = [f"{path.name} = sha256:{checks.sha256_file(path)}"
            if line.startswith(path.name) else line for line in text]
    report.write_text("\n".join(text) + "\n")
    (result,) = checks.Checker(cli.read_trajectory).check([(scenario, out)])
    assert isinstance(result, checks.CheckError) and "deviation" in str(result)


def test_tracer_skips_missing_names_and_counts_uncalled_ones(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("dualchain.dual_action", "no_such_function", None),
        ("dualchain.no_such_module", "anything", None),
    ))
    original = cli.load_config
    with tracing.Tracer() as tracer:
        assert cli.load_config is not original
    assert cli.load_config is original
    assert len(tracer.notes) == 2
    totals = tracer.totals()
    assert totals["dual_action.gradient"]["calls"] == 0
    assert totals["dual_action.no_such_function"]["calls"] == 0
