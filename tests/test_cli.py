"""Config parsing, file round-trips, exit codes, reports, parallel fan-out."""
import builtins
import collections
import concurrent.futures
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualchain import (DualField, TimeGrid, Trajectory, cli, dual_action, dual_solver, eval_forcing,
                       fput_alpha, primal_solver)
from dualchain.cli import (
    ConfigError,
    load_config,
    main,
    parse_report,
    read_dual_field,
    read_trajectory,
    run_one,
    scenario_presets,
)

PRESETS = {p.stem: p for p in scenario_presets()}

SMALL_HARMONIC = """\
[run]
mode = verify
[chain]
n = 1
m = 1.0
d = 0.0
A = 1.0
[grid]
T = 6.283185307179586
M = 128
[initial]
x0 = 1.0
v0 = 0.0
[base]
kind = primal
refine = 10
"""


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


_LOADED_MODULES = """
import json, sys
from dualchain.cli import main, scenario_presets
presets = {p.stem: p for p in scenario_presets()}
codes = [main(["--config", str(presets[stem]), "--out", sys.argv[1] + "/" + stem])
         for stem in sys.argv[2:]]
print(json.dumps([codes] + [sorted(m for m in sys.modules if m.split(".")[0] in roots)
                            for roots in (("scipy",), ("multiprocessing", "concurrent"))]))
"""


def test_a_run_never_loads_scipy(tmp_path):
    # the band is factored by the LAPACK numpy links, and the process pool is
    # imported only for --jobs, so importing the command line and running an
    # initial-value and a periodic preset, one config each, in a fresh
    # interpreter, load no scipy, multiprocessing or concurrent module
    src = str(Path(dual_action.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _LOADED_MODULES, str(tmp_path), "damped_n1",
                          "periodic_forced_n4"],
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    codes, scipy_modules, pool_modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert codes == [0, 0] and pool_modules == []
    # only where numpy's LAPACK exports no dpbtrf this package can bind does
    # scipy.linalg.lapack factor the band
    if dual_action._LAPACK.symbol != "scipy.linalg.lapack":
        assert scipy_modules == []


def test_presets_are_the_six_shipped_scenarios():
    assert sorted(PRESETS) == [
        "damped_n1", "forced_damped_n1", "fput_alpha_n8",
        "harmonic_n1", "periodic_forced_n4", "perturbed_base_n4",
    ]


def test_preset_quadratic_blocks_match_library_constructor():
    cfg = load_config(PRESETS["fput_alpha_n8"])
    force = cfg.chain_params().force
    ref = fput_alpha(8, 0.25)
    np.testing.assert_array_equal(np.asarray(force.A), np.asarray(ref.A))
    np.testing.assert_array_equal(np.asarray(force.B), np.asarray(ref.B))


# the config_hash of each preset in its own mode, then with the mode given as
# simulate, dual-solve, periodic and verify; every report prints these
PINNED_HASHES = {
    "damped_n1": ("f06fef204f65bcce", "539896ba8fdebb04", "2c4420a44f7c8825",
                  "f0d3deed7332f995", "f06fef204f65bcce"),
    "forced_damped_n1": ("7dcaf3492d20c7b8", "6063e1b0fc964ceb", "f30645dc3d32c755",
                         "c532b73938bf1456", "7dcaf3492d20c7b8"),
    "fput_alpha_n8": ("ec49ca08b5110166", "726b1be5a3d48549", "ec49ca08b5110166",
                      "57f10078e4d2e89f", "c998d0112556d9a8"),
    "harmonic_n1": ("6e8e65d46a2db031", "a71aadc30b4a354c", "1b80d4c8799848cf",
                    "f06a92d53b858889", "6e8e65d46a2db031"),
    "periodic_forced_n4": ("3a5c9a180f17e7c0", "183564c0a95ec080", "9c2591256a5b5325",
                           "3a5c9a180f17e7c0", "e6eab531380b9ff5"),
    "perturbed_base_n4": ("3bcb0201d1436ea6", "a14a1d4fe56b242e", "7154d1be5e841e28",
                          "321b3bc039dd69bc", "3bcb0201d1436ea6"),
}


def test_every_preset_loads_and_hashes():
    assert sorted(PINNED_HASHES) == sorted(PRESETS)
    for stem, path in PRESETS.items():
        cfg = load_config(path)
        assert cfg.mode in cli.MODES
        hashes = [cfg.semantic_hash()]
        hashes += [load_config(path, mode=mode).semantic_hash() for mode in cli.MODES]
        assert tuple(hashes) == PINNED_HASHES[stem], stem
    assert len({hashes[0] for hashes in PINNED_HASHES.values()}) == len(PRESETS)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, SMALL_HARMONIC + "\n[chain]\nmass = 2\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, SMALL_HARMONIC + "\n[extra]\nk = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(path)


def test_duplicate_scalar_key_rejected(tmp_path):
    path = _write(tmp_path, SMALL_HARMONIC + "\n[grid]\nM = 64\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_wrong_value_counts_rejected(tmp_path):
    path = _write(tmp_path, SMALL_HARMONIC.replace("x0 = 1.0", "x0 = 1.0 2.0"))
    with pytest.raises(ConfigError, match="initial.x0"):
        load_config(path)


def test_missing_mode_rejected(tmp_path):
    path = _write(tmp_path, SMALL_HARMONIC.replace("[run]\nmode = verify\n", ""))
    with pytest.raises(ConfigError, match="mode"):
        load_config(path)
    assert load_config(path, mode="verify").mode == "verify"


EVERY_KEY = """\
[run]
mode = dual-solve
seed = 3
method = implicit-midpoint
[chain]
n = 2
m = 2.0
d = 0.1
C = 0.5
C = 0.25
A = 2.0 -1.0
A = -1.0 2.0
B = 1 1 2 -0.25
B = 2 2 2 0.5
[forcing]
constant = 2 0.1
sinusoid = 1 0.5 1.0 0.25
table = 2 drive.txt
[grid]
T = 6.0
M = 20
[initial]
x0 = 0.3 0.0
v0 = 0.0 -0.1
[scales]
c_x = 2.0
c_v = 0.5
[base]
kind = trajectory
refine = 4
amplitude = 0.05
settle_periods = 20
path = base.txt
[solver]
max_iterations = 7
tolerance = 1e-9
step_control = trust-region
[output]
prefix = myrun
"""


def test_every_key_reaches_its_field(tmp_path):
    # the files the config names are read into it, with the sha256 of their bytes
    times = np.linspace(0.0, 6.0, 7)
    np.savetxt(tmp_path / "drive.txt", np.column_stack([times, times ** 2]))
    grid = TimeGrid(T=6.0, M=20)
    base = Trajectory(grid, np.outer(grid.nodes(), [1.0, -1.0]), np.ones((21, 2)))
    cli.write_trajectory(tmp_path / "base.txt", base)
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("drive.txt", "base.txt")}
    cfg = load_config(_write(tmp_path, EVERY_KEY))
    want = dict(name="case.cfg", mode="dual-solve", seed=3,
                method="implicit-midpoint", n=2, m=2.0, d=0.1,
                B_entries=((0, 0, 1, -0.25), (1, 1, 1, 0.5)),
                T=6.0, M=20, c_x=2.0, c_v=0.5, base_kind="trajectory", base_refine=4,
                base_amplitude=0.05, base_settle=20, base_digest=digest["base.txt"],
                max_iterations=7, tolerance=1e-9, step_control="trust-region", prefix="myrun")
    for field, value in want.items():
        assert getattr(cfg, field) == value, field
    [(j, table, table_digest)] = cfg.tables
    assert (j, table_digest) == (1, digest["drive.txt"])
    np.testing.assert_array_equal(table.times, times)
    np.testing.assert_array_equal(table.values, times ** 2)
    assert cfg.base_trajectory.grid == grid
    np.testing.assert_array_equal(cfg.base_trajectory.x, base.x)
    np.testing.assert_array_equal(cfg.base_trajectory.v, base.v)
    # constant entries follow the sinusoids, as zero-frequency sinusoids
    assert [(j, tuple(vars(s).values())) for j, s in cfg.sinusoids] == [
        (0, (0.5, 1.0, 0.25)), (1, (0.1, 0.0, 0.0))]
    arrays = dict(C=[0.5, 0.25], A=[[2.0, -1.0], [-1.0, 2.0]], x0=[0.3, 0.0], v0=[0.0, -0.1])
    for field, value in arrays.items():
        np.testing.assert_array_equal(getattr(cfg, field), value)
    assert {f.name for f in dataclasses.fields(cfg)} == (
        set(want) | {"sinusoids", "tables", "base_trajectory"} | set(arrays))


def test_absent_keys_take_their_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, SMALL_HARMONIC.replace("[base]\nkind = primal\nrefine = 10\n", "")
                             .replace("[initial]\nx0 = 1.0\nv0 = 0.0\n", "")), mode="periodic")
    assert (cfg.seed, cfg.method, cfg.B_entries, cfg.sinusoids, cfg.tables) == (0, "rk4", (), (), ())
    assert (cfg.x0, cfg.v0, cfg.c_x, cfg.c_v) == (None, None, 1.0, 1.0)
    assert (cfg.base_kind, cfg.base_refine, cfg.base_amplitude, cfg.base_settle,
            cfg.base_digest, cfg.base_trajectory) == ("zero", 10, 0.0, 10, None, None)
    assert (cfg.max_iterations, cfg.tolerance, cfg.step_control, cfg.prefix) == (
        50, 1e-10, "damped-newton", "case")
    np.testing.assert_array_equal(cfg.C, [0.0])
    assert load_config(tmp_path / "case.cfg", mode="verify").base_kind == "primal"


@pytest.mark.parametrize("line", ["n = 1", "m = 1.0", "d = 0.0", "A = 1.0",
                                  "T = 6.283185307179586", "M = 128"])
def test_each_required_key_is_named(tmp_path, line):
    path = _write(tmp_path, SMALL_HARMONIC.replace(line + "\n", ""))
    key = {"n": "chain.n", "m": "chain.m", "d": "chain.d", "A": "chain.A",
           "T": "grid.T", "M": "grid.M"}[line.split()[0]]
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {key} is required")):
        load_config(path)


# the four indexed keys share one token-count and index-range check
@pytest.mark.parametrize("entry, message", [
    ("chain.B=1 1 1", "chain.B entries are 'j r s value', got '1 1 1'"),
    ("chain.B=1 2 1 0.5", "chain.B index 2 outside 1..1"),
    ("chain.B=1 1 1.5 0.5", "chain.B index must be an integer, got '1.5'"),
    ("forcing.sinusoid=2 1.0 1.0 0.0", "forcing.sinusoid index 2 outside 1..1"),
    ("forcing.sinusoid=1 1.0 x 0.0", "forcing.sinusoid value must be a number, got 'x'"),
    ("forcing.constant=0 1.0", "forcing.constant index 0 outside 1..1"),
    ("forcing.constant=1", "forcing.constant entries are 'j value', got '1'"),
    ("forcing.table=1", "forcing.table entries are 'j path', got '1'"),
    ("forcing.table=-1 drive.txt", "forcing.table index -1 outside 1..1"),
])
def test_indexed_entries_are_checked_alike(entry, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(PRESETS["harmonic_n1"], sets=(entry,))


def test_constant_forcing_entry(tmp_path):
    text = SMALL_HARMONIC + "\n[forcing]\nconstant = 1 0.5\n"
    cfg = load_config(_write(tmp_path, text))
    params = cfg.chain_params()
    vals = eval_forcing(params.forcing, np.array([0.0, 0.3, 2.1]))
    np.testing.assert_allclose(vals, 0.5, rtol=1e-15)


def test_nonpositive_scale_exits_2(tmp_path, capsys):
    code = run_one(PRESETS["harmonic_n1"], tmp_path, sets=("scales.c_x=0",))
    assert code == 2
    assert "c_x must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["dual-solve", "periodic"])
def test_a_subnormal_mass_with_no_damping_solves_or_exits_singular(tmp_path, mode):
    # m = 5e-324 with d = 0 underflows c = d/2 + m/h to 0.0: the Gram
    # record's bound rho is then inf, which certifies nothing, so the solve
    # returns or raises SingularSystemError, open or periodic, and the run
    # exits 0, 3 or 4 rather than with a ZeroDivisionError
    sets = ("chain.m=5e-324", "chain.d=0.0", "grid.M=2", "base.kind=zero")
    spec = load_config(PRESETS["harmonic_n1"], sets=sets, mode=mode).problem()
    assert spec.periodic == (mode == "periodic")
    try:
        dual_solver.solve_dual(spec)
    except dual_solver.SingularSystemError:
        pass
    assert run_one(PRESETS["harmonic_n1"], tmp_path, sets=sets, mode=mode) in (0, 3, 4)


def test_bad_set_target_exits_2(tmp_path, capsys):
    code = run_one(PRESETS["harmonic_n1"], tmp_path, sets=("grid.steps=10",))
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_simulate_round_trip(tmp_path):
    path = _write(tmp_path, SMALL_HARMONIC)
    out = tmp_path / "out"
    assert run_one(path, out, mode="simulate") == 0
    traj_path = out / "case_trajectory.txt"
    header = traj_path.read_text().splitlines()[0]
    assert header == "t x_1 v_1"
    traj = read_trajectory(traj_path)
    assert traj.grid.M == 128
    again = tmp_path / "copy.txt"
    from dualchain.cli import write_trajectory

    write_trajectory(again, traj)
    assert again.read_bytes() == traj_path.read_bytes()
    assert not (out / "case_report.txt").exists()  # simulate emits no report


# signed zeros, subnormals and the extremes of the exponent range
_AWKWARD = (-0.0, 0.0, 5e-324, -1.5e-320, 2.2250738585072014e-308,
            1.7976931348623157e308, -1e-300, 1e300, -1.0 / 3.0, 0.1)
# the edges of the classes of `_format17g.slots`: |x| <= 1e-11 and >= 1e17 go
# through `%` (float 1e-11 prints as 9.9999999999999994e-12), "%.17g"
# turns to the scientific form below 1e-4 and prints 17 integer digits up to
# 1e17; half-way ties of the 17th digit round to even, a value whose
# digits end in zeros drops them (and its point), and the last one's 17
# digits split at 10^8 in float64 round up to the next multiple
_EDGES = (1e-11, np.nextafter(1e-11, 1.0), -1e17, np.nextafter(1e17, 0.0), 1e16,
          np.nextafter(1e16, 0.0), 1e-4, -np.nextafter(1e-4, 0.0), 1e-5, 2.0 ** 50 + 0.25,
          -(2.0 ** 50 + 0.75), 0.5, 123.0, 1e15 + 0.5, 2.5e-7, 12345678999999998.0)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 6), st.data())
@example(n=2, M=4, data=None)
@example(n=1, M=2 * cli._TABLE_BLOCK_ROWS, data=None)  # three blocks, the last of one row
@example(n=3, M=cli._TABLE_BLOCK_ROWS - 1, data=None)  # one whole block
@example(n=1, M=len(_EDGES) - 1, data="edges")  # each class edge in every column
@example(n=2, M=len(_EDGES), data="edges")
def test_tables_write_the_bytes_of_savetxt_and_read_back(tmp_path_factory, n, M, data):
    shape = (2, M + 1, n)
    if data == "edges":
        values = np.resize(np.array(_EDGES), shape)
    elif data is None:  # every awkward value in every column
        values = np.resize(np.array(_AWKWARD), shape)
    else:
        values = data.draw(hnp.arrays(float, shape, elements=st.one_of(
            st.sampled_from(_AWKWARD + _EDGES), st.floats(allow_nan=False, allow_infinity=False))))
    grid = TimeGrid(T=2.5, M=M)
    tmp = tmp_path_factory.mktemp("tables")
    writers = ((cli.write_trajectory, read_trajectory, ("x", "v"), Trajectory),
               (cli.write_dual_field, read_dual_field, ("gamma", "lambda"), DualField))
    for write, read, names, kind in writers:
        path, want = tmp / f"{names[0]}.txt", tmp / "savetxt.txt"
        write(path, kind(grid, values[0], values[1]))
        header = " ".join(["t"] + [f"{name}_{i}" for name in names for i in range(1, n + 1)])
        np.savetxt(want, np.column_stack([grid.nodes(), values[0], values[1]]),
                   fmt="%.17g", header=header, comments="")
        assert path.read_bytes() == want.read_bytes()
        back = read(path)
        assert back.grid == grid
        for got, value in zip(dataclasses.astuple(back)[1:], values):
            assert got.tobytes() == value.tobytes()  # -0.0 and subnormals survive
        # a row one column short is named with its file, for both kinds
        lines = path.read_text().splitlines()
        short = tmp / "short.txt"
        short.write_text("\n".join([lines[0]] + [row.rsplit(" ", 1)[0] for row in lines[1:]]))
        with pytest.raises(ValueError, match=f"short.txt: rows have {2 * n} columns, "
                                             f"expected {2 * n + 1}"):
            read(short)


def _sweep(count: int) -> np.ndarray:
    """At least ``count`` doubles, the same ones on every call: signed zeros,
    subnormals, nan and infinities; every power of ten that is a normal
    double, each with its 4 nearest neighbours either side; half-way ties of
    the 17th digit, m 2^(-s-1) for odd m at each decimal exponent 16 - s,
    s = 1..24 (there are none below 1e-8); values whose digits end in
    zeros; and the rest random mantissas at every decimal exponent from -12
    to 17, and random bits."""
    rng = np.random.default_rng(20260315)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
    near, up, down = [tens], tens, tens
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    ties = []
    for s in range(1, 25):  # odd m 2^(-s-1) in [10^(16-s), 10^(17-s)): 17 digits and a 5
        lo = max(1, int(2.0 ** (s + 1) * 10.0 ** (16 - s)))
        hi = min(int(2.0 ** (s + 1) * 10.0 ** (17 - s)), 2 ** 53)
        ties.append(np.ldexp((rng.integers(lo, hi, 200) | 1).astype(float), -s - 1))
    short = rng.integers(1, 10 ** rng.integers(1, 8, 20000), dtype=np.int64).astype(float)
    short = short * 10.0 ** rng.integers(-12, 10, short.size) / 2.0 ** rng.integers(0, 4, short.size)
    parts = [np.array(special), *near, *ties, short]
    fixed = sum(part.size for part in parts)
    left = max(count - fixed, 0)
    mantissas = rng.uniform(1.0, 10.0, left - left // 4) * 10.0 ** rng.integers(-12, 18, left - left // 4)
    bits = rng.integers(0, 2 ** 64, left // 4, dtype=np.uint64).view(float)
    values = np.concatenate(parts + [mantissas, bits])
    values.view(np.uint64)[rng.random(values.size) < 0.5] ^= np.uint64(2 ** 63)  # the sign
    return values


def test_table_formatter_matches_percent_over_a_sweep(tmp_path):
    # the table writer's "%.17g" kernel against `%` itself over a fixed sweep
    # of 400 doubles per example of the hypothesis profile: 40,000 under
    # the default, 1.2 million under rk4-deep, which CI runs
    values = _sweep(400 * settings().max_examples)
    values = np.resize(values, (-(-values.size // 8), 8))  # rows of 8
    grid = TimeGrid(T=1.0, M=values.shape[0] - 1)
    cli._write_table(tmp_path / "sweep.txt", ("x", "v"), grid, values[:, :4], values[:, 4:])
    data = np.column_stack([grid.nodes(), values])
    header = "t x_1 x_2 x_3 x_4 v_1 v_2 v_3 v_4\n"
    want = header + (" ".join(["%.17g"] * 9) + "\n") * data.shape[0] % tuple(data.ravel().tolist())
    assert (tmp_path / "sweep.txt").read_bytes() == want.encode()


def test_dual_solve_artifacts_and_manifest(tmp_path):
    out = tmp_path / "fput"
    code = run_one(PRESETS["fput_alpha_n8"], out, sets=("grid.M=200",))
    assert code == 0
    report = parse_report(out / "fput_alpha_n8_report.txt")
    assert report["run"]["mode"] == "dual-solve"
    assert report["convergence"]["converged"] == "true"
    assert float(report["convergence"]["dual_max"]) < 1e-3
    assert report["verification"]["concavity_ok"] == "none"
    for name, value in report["manifest"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert value == f"sha256:{digest}"
    assert set(report["manifest"]) == {"fput_alpha_n8_dual.txt",
                                       "fput_alpha_n8_trajectory.txt"}
    D = read_dual_field(out / "fput_alpha_n8_dual.txt")
    assert D.grid.M == 200
    traj = read_trajectory(out / "fput_alpha_n8_trajectory.txt")
    assert traj.x.shape == (201, 8)


def test_verify_mode_reports_oracle_deviation(tmp_path):
    code = run_one(PRESETS["harmonic_n1"], tmp_path, sets=("grid.M=200",))
    assert code == 0
    report = parse_report(tmp_path / "harmonic_n1_report.txt")
    assert report["run"]["mode"] == "verify"
    assert report["run"]["config"] == "harmonic_n1.cfg"
    deviation = float(report["verification"]["oracle_deviation_max"])
    assert 0.0 < deviation < 1e-2
    assert report["verification"]["concavity_ok"] == "true"
    assert report["manifest"] == {}
    assert float(report["run"]["wall_time_s"]) >= 0.0


@pytest.mark.parametrize("preset, sets, shared", [
    pytest.param("harmonic_n1", (), [1280], id="harmonic_n1"),
    pytest.param("perturbed_base_n4", (), [1280], id="perturbed_base_n4"),
    # a base refined 5 times is not the oracle's integration: verify
    # integrates the oracle on its own
    pytest.param("harmonic_n1", ("base.refine=5",), [640, 1280], id="harmonic_n1-refine-5"),
])
def test_verify_shares_the_base_integration_with_the_oracle(tmp_path, monkeypatch, preset,
                                                            sets, shared):
    # a primal base is the oracle's own 10x-refined rk4 solve, restricted:
    # verify integrates it once, and reports what two separate integrations
    # give
    sets = ("grid.M=128", *sets)
    calls = []
    integrate = cli.integrate_primal

    def counted(params, x0, v0, grid, **kwargs):
        calls.append(grid.M)
        return integrate(params, x0, v0, grid, **kwargs)

    monkeypatch.setattr(cli, "integrate_primal", counted)
    monkeypatch.setattr(dual_action, "integrate_primal", counted)
    assert run_one(PRESETS[preset], tmp_path / "shared", sets=sets) == 0
    assert calls == shared
    problem = cli.ScenarioConfig._problem
    monkeypatch.setattr(cli.ScenarioConfig, "_problem", lambda cfg: (problem(cfg)[0], None, None))
    assert run_one(PRESETS[preset], tmp_path / "separate", sets=sets) == 0
    assert calls == shared + [shared[0], 1280]
    reports = [[line for line in (tmp_path / run / f"{preset}_report.txt").read_text().splitlines()
                if not line.startswith("wall_time_s")] for run in ("shared", "separate")]
    assert reports[0] == reports[1]


def test_primal_base_honours_run_method(tmp_path, monkeypatch):
    # the base and the oracle come from one integration, by the run's method
    methods = []
    integrate = cli.integrate_primal

    def spied(params, x0, v0, grid, method="rk4"):
        methods.append((grid.M, method))
        return integrate(params, x0, v0, grid, method=method)

    monkeypatch.setattr(cli, "integrate_primal", spied)
    monkeypatch.setattr(dual_action, "integrate_primal", spied)
    code = run_one(PRESETS["harmonic_n1"], tmp_path,
                   sets=("grid.M=128", "run.method=implicit-midpoint"))
    assert code == 0
    assert methods == [(1280, "implicit-midpoint")]


@pytest.mark.parametrize("preset, sets, mode, message", [
    pytest.param("harmonic_n1", ("solver.step_control=bogus",), None,
                 "solver.step_control must be one of damped-newton, trust-region, got 'bogus'",
                 id="solver.step_control=bogus"),
    pytest.param("harmonic_n1", ("solver.max_iterations=0",), None,
                 "solver.max_iterations must be an integer >= 1, got '0'",
                 id="solver.max_iterations=0"),
    pytest.param("harmonic_n1", ("solver.tolerance=-1",), None, None, id="solver.tolerance=-1"),
    # an unknown method is rejected in every mode, before any solve and also
    # where the method would not be used (a periodic run from the zero base)
    pytest.param("damped_n1", ("run.method=foo",), "simulate",
                 "run.method must be one of rk4, implicit-midpoint, got 'foo'",
                 id="run.method=foo-simulate"),
    pytest.param("damped_n1", ("run.method=foo", "base.kind=zero"), "verify",
                 "run.method must be one of rk4, implicit-midpoint, got 'foo'",
                 id="run.method=foo-verify"),
    pytest.param("periodic_forced_n4", ("run.method=foo", "grid.M=100"), "periodic",
                 "run.method must be one of rk4, implicit-midpoint, got 'foo'",
                 id="run.method=foo-periodic"),
    # counts and sizes are integers >= 1, each error naming its key
    pytest.param("harmonic_n1", ("chain.n=-1",), None,
                 "chain.n must be an integer >= 1, got '-1'", id="chain.n=-1"),
    pytest.param("harmonic_n1", ("grid.M=0",), None,
                 "grid.M must be an integer >= 1, got '0'", id="grid.M=0"),
    pytest.param("harmonic_n1", ("base.refine=-2",), None,
                 "base.refine must be an integer >= 1, got '-2'", id="base.refine=-2"),
    pytest.param("periodic_forced_n4", ("base.settle_periods=0",), None,
                 "base.settle_periods must be an integer >= 1, got '0'",
                 id="base.settle_periods=0"),
    # a perturbation amplitude is finite and >= 0, refused before the base
    # is integrated
    *(pytest.param("harmonic_n1", ("base.kind=perturbed-primal", f"base.amplitude={value}"),
                   "dual-solve", f"base.amplitude must be a finite number >= 0, got {value!r}",
                   id=f"base.amplitude={value}") for value in ("nan", "inf", "-inf", "-1.0")),
])
def test_invalid_solver_values_exit_2(tmp_path, capsys, preset, sets, mode, message):
    assert run_one(PRESETS[preset], tmp_path, sets=sets, mode=mode) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    if message is not None:
        with pytest.raises(ConfigError, match=re.escape(f"{PRESETS[preset]}: {message}")):
            load_config(PRESETS[preset], sets=sets, mode=mode)


def _spy_on_integrations_and_solves(monkeypatch) -> list:
    """(name, args) of each integrate_primal and solve_dual call that
    run_one goes on to make, in order, a primal base's integration in
    `base_from_primal` included."""
    calls = []

    def spy(name, real):
        def spied(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)
        return spied

    for module, name in ((cli, "integrate_primal"), (dual_action, "integrate_primal"),
                         (cli, "solve_dual")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("wave, field", [("1 nan 1.0 0.0", "amplitude"),
                                         ("1 1.0 inf 0.0", "omega"),
                                         ("1 1.0 1.0 -inf", "phase")])
@pytest.mark.parametrize("mode", ["simulate", "dual-solve", "periodic"])
def test_non_finite_sinusoid_exits_2_without_a_report(tmp_path, capsys, monkeypatch,
                                                      mode, wave, field):
    # refused where the config is read, before any integration or solve
    calls = _spy_on_integrations_and_solves(monkeypatch)
    sets = ("grid.M=200", "base.kind=zero", f"forcing.sinusoid={wave}")
    assert run_one(PRESETS["harmonic_n1"], tmp_path, sets=sets, mode=mode) == 2
    assert calls == []
    assert capsys.readouterr().err == (f"config error: {PRESETS['harmonic_n1']}: "
                                       f"forcing.sinusoid {field} must be finite\n")
    assert not list(tmp_path.iterdir())


def test_periodic_forcing_with_an_overflowing_period_count_exits_2(tmp_path, capsys,
                                                                   monkeypatch):
    # omega P / 2 pi overflows to inf, which is no whole number of periods;
    # refused where the config is read, before any integration or solve
    calls = _spy_on_integrations_and_solves(monkeypatch)
    sets = ("grid.M=200", "base.kind=zero", "forcing.sinusoid=1 1.0 1e308 0.0")
    assert run_one(PRESETS["harmonic_n1"], tmp_path, sets=sets, mode="periodic") == 2
    assert calls == []
    assert capsys.readouterr().err == (
        "config error: sinusoid on particle 1 has period 6.28319e-308, "
        "which does not divide the orbit period 6.28319\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode", ["simulate", "dual-solve", "verify", "periodic"])
def test_forcing_table_short_of_the_span_exits_2(tmp_path, capsys, mode):
    # a table on [0, 2] under T = 5 is a config error in every mode, found
    # where the table is read, before any integration or solve
    cfg_dir, out = tmp_path / "cfg", tmp_path / "out"
    cfg_dir.mkdir()
    t = np.linspace(0.0, 2.0, 21)
    np.savetxt(cfg_dir / "drive.txt", np.column_stack([t, np.sin(t)]))
    text = (SMALL_HARMONIC.replace("T = 6.283185307179586", "T = 5.0")
            .replace("kind = primal", "kind = zero") + "[forcing]\ntable = 1 drive.txt\n")
    path = _write(cfg_dir, text)
    assert run_one(path, out, mode=mode) == 2
    err = capsys.readouterr().err
    table = (cfg_dir / "drive.txt").resolve()
    assert f"forcing.table {table} spans [0.0, 2.0], which does not cover [0.0, 5.0]" in err
    assert not out.exists()


DAMPED_N1_PERIODIC = """\
[run]
mode = periodic
[chain]
n = 1
m = 1.0
d = 0.5
A = 1.0
[forcing]
sinusoid = 1 1.0 1.0 0.0
[grid]
T = 6.283185307179586
M = {M}
[base]
kind = settled-primal
settle_periods = 2
refine = 10
"""


def test_settled_base_reads_a_one_period_table_modulo_the_period(tmp_path):
    # settling runs periods over a table of one period of cos t, read from
    # its start in each; the orbit is the one the sinusoid cos t gives, to
    # the table's interpolation error (below 1.2e-6 with 2048 intervals).
    # The recovered orbit depends on the base, so the comparison is with a
    # base settled the same way, not with the zero base's orbit
    t = np.linspace(0.0, 2.0 * np.pi, 2049)
    np.savetxt(tmp_path / "drive.txt", np.column_stack([t, np.cos(t)]))
    orbits = []
    for name, forcing in (("table", "table = 1 drive.txt"), ("sinusoid", "sinusoid = 1 1.0 1.0 0.0")):
        text = DAMPED_N1_PERIODIC.format(M=100).replace("sinusoid = 1 1.0 1.0 0.0", forcing)
        path = _write(tmp_path, text, name=f"{name}.cfg")
        assert run_one(path, tmp_path / name) == 0
        orbits.append(read_trajectory(tmp_path / name / f"{name}_trajectory.txt"))
    table, sinusoid = orbits
    np.testing.assert_allclose(table.x, sinusoid.x, rtol=0, atol=1e-5)
    np.testing.assert_allclose(table.v, sinusoid.v, rtol=0, atol=1e-5)


@pytest.mark.parametrize("M", [100, 400])
def test_settled_base_orbit_is_second_order_at_every_node(tmp_path, M):
    # x'' + 0.5 x' + x = cos t has the orbit x = 2 sin t, v = 2 cos t.  Two
    # periods from rest leave a closing gap of 0.34; settling goes on until
    # the gap is within h^2, so node 0 (= node M) is as close to the orbit
    # as every other node
    path = _write(tmp_path, DAMPED_N1_PERIODIC.format(M=M))
    assert run_one(path, tmp_path) == 0
    orbit = read_trajectory(tmp_path / "case_trajectory.txt")
    t, h2 = orbit.grid.nodes(), orbit.grid.h ** 2
    np.testing.assert_allclose(orbit.x[:, 0], 2.0 * np.sin(t), rtol=0, atol=h2)
    np.testing.assert_allclose(orbit.v[:, 0], 2.0 * np.cos(t), rtol=0, atol=h2)
    convergence = parse_report(tmp_path / "case_report.txt")["convergence"]
    assert int(convergence["settle_periods"]) > 2
    assert 0.0 <= float(convergence["settle_gap"]) <= h2


def test_settling_runs_at_the_run_step_and_refines_only_the_base_period(tmp_path, monkeypatch):
    # the periods before the base's own run on the run grid, the base period
    # alone on the refined grid, and in all no more steps than four refined
    # periods
    calls = _spy_on_integrations_and_solves(monkeypatch)
    assert run_one(PRESETS["periodic_forced_n4"], tmp_path,
                   sets=("grid.M=100", "base.settle_periods=4")) == 0
    grids = [args[3].M for name, args in calls if name == "integrate_primal"]
    assert grids[:-1] == [100] * (len(grids) - 1) and grids[-1] == 1000
    assert len(grids) >= 4 and sum(grids) <= 4 * 1000
    convergence = parse_report(tmp_path / "periodic_forced_n4_report.txt")["convergence"]
    assert int(convergence["settle_periods"]) == len(grids)
    assert float(convergence["settle_gap"]) <= (2 * np.pi / 100) ** 2


# harmonic_n1 undamped, natural frequency sqrt 2, forced at 1 from rest: the
# free oscillation never decays, and no period closes to h^2
NEVER_SETTLES = ("chain.A=2", "forcing.sinusoid=1 1.0 1.0 0.0", "initial.x0=0.0",
                 "base.kind=settled-primal", "base.settle_periods=2", "base.refine=2", "grid.M=50")


def test_base_that_never_settles_exits_3_at_the_cap_with_a_report(tmp_path, capsys, monkeypatch):
    # settling stops at the cap, (2 - 1) * 2 periods at step h and the base
    # period on a grid twice as fine: the steps of two refined periods
    calls = _spy_on_integrations_and_solves(monkeypatch)
    assert run_one(PRESETS["harmonic_n1"], tmp_path, sets=NEVER_SETTLES, mode="periodic") == 3
    assert [(name, args[3].M) for name, args in calls] == [("integrate_primal", 50),
                                                          ("integrate_primal", 50),
                                                          ("integrate_primal", 100)]
    err = capsys.readouterr().err
    assert re.fullmatch(r"base-state did not settle: closing gap (\S+) above "
                        r"h\^2 = 0\.0158 after 3 periods\n", err)
    report = parse_report(tmp_path / "harmonic_n1_report.txt")
    assert report["convergence"]["settle_periods"] == "3"
    assert float(report["convergence"]["settle_gap"]) > 0.5
    assert "converged" not in report["convergence"] and "verification" not in report
    assert report["manifest"] == {}


@pytest.mark.parametrize("settling", [{}, {"settle_periods": 7, "settle_gap": 4.5e-4}])
def test_parse_report_reads_convergence_with_and_without_settling(tmp_path, settling):
    convergence = {**settling, "converged": True, "iterations": 2,
                   "initial_residual": 2e-4, "final_residual": 8.6e-14, "dual_max": 3.6e-3}
    report = cli.RunReport(mode="periodic", config_name="case.cfg", config_hash="0" * 16,
                           seed=0, wall_time_s=0.5, convergence=convergence,
                           verification=None, manifest={})
    (tmp_path / "report.txt").write_text(report.to_text())
    parsed = parse_report(tmp_path / "report.txt")
    assert parsed["convergence"] == {key: cli._fmt_value(value)
                                     for key, value in convergence.items()}
    # a '#' line, indented or not, is a comment wherever it stands
    noted = report.to_text().replace("[convergence]\n", "# note\n[convergence]\n  # note\n")
    (tmp_path / "noted.txt").write_text(noted)
    assert parse_report(tmp_path / "noted.txt") == parsed


def test_stalled_implicit_midpoint_exits_3(tmp_path, capsys):
    code = run_one(PRESETS["fput_alpha_n8"], tmp_path, mode="simulate",
                   sets=("run.method=implicit-midpoint",
                         "initial.x0=10 10 10 10 10 10 10 10", "grid.M=20"))
    assert code == 3
    assert "stalled at step 19" in capsys.readouterr().err


def test_diverging_base_integration_exits_3(tmp_path, capsys, monkeypatch):
    # an anti-restoring chain on refined steps of 5,000 time units: the base
    # integration leaves the stage maps' bound in its first block and
    # overflows in the stage loop
    starts = []
    stage_loop = primal_solver._rk4_stages

    def spy(*args):
        starts.append(args[-1])
        return stage_loop(*args)

    monkeypatch.setattr(primal_solver, "_rk4_stages", spy)
    code = run_one(PRESETS["harmonic_n1"], tmp_path,
                   sets=("grid.M=20", "chain.A=-1", "grid.T=1e6"))
    assert code == 3
    assert capsys.readouterr().err == (
        "base-state integration diverged: state became non-finite at step 23 (t = 115000)\n")
    assert starts == [0]
    # the exit 3 writes a report, which holds only the sections it completed
    report = parse_report(tmp_path / "harmonic_n1_report.txt")
    assert report["run"]["mode"] == "verify"
    assert "convergence" not in report and report["manifest"] == {}


@pytest.mark.parametrize("module, name, stage", [(primal_solver, "_rk4_maps", "base-state"),
                                                 (cli, "solve_dual", "dual-solve")])
def test_a_stage_that_runs_out_of_memory_exits_3_with_a_report(tmp_path, capsys, monkeypatch,
                                                               module, name, stage):
    # numpy's MemoryError, raised here where the base integration forms its
    # step maps or where the solve starts (nothing large is allocated), ends
    # the run as a diverged base does: exit 3, one stderr line naming the
    # stage and chain.n, and a report with only the sections it completed
    def refuse(*args):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(module, name, refuse)
    assert run_one(PRESETS["fput_alpha_n8"], tmp_path, sets=("grid.M=100",)) == 3
    assert capsys.readouterr().err == f"{stage} stage ran out of memory at chain.n = 8\n"
    report = parse_report(tmp_path / "fput_alpha_n8_report.txt")
    assert report["run"]["mode"] == "dual-solve"
    assert "convergence" not in report and report["manifest"] == {}


def test_diverging_oracle_integration_exits_3_with_the_solve_reported(tmp_path, capsys):
    # from the zero base the solve converges; the verify oracle, integrated
    # on its own, then diverges, and the report keeps [convergence] only
    code = run_one(PRESETS["harmonic_n1"], tmp_path,
                   sets=("grid.M=20", "chain.A=-1", "grid.T=1e6", "base.kind=zero"))
    assert code == 3
    assert capsys.readouterr().err == (
        "direct integration diverged: state became non-finite at step 23 (t = 115000)\n")
    report = parse_report(tmp_path / "harmonic_n1_report.txt")
    assert report["convergence"]["converged"] == "true"
    assert "verification" not in report


def test_diverging_simulation_exits_3_without_files(tmp_path, capsys):
    code = run_one(PRESETS["harmonic_n1"], tmp_path, mode="simulate",
                   sets=("grid.M=20", "chain.A=-1", "grid.T=1e6"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("direct integration diverged: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


NO_INITIAL = SMALL_HARMONIC.replace("[initial]\nx0 = 1.0\nv0 = 0.0\n", "")


# files beside the config that some cases below read: a forcing table with
# a third column, and a trajectory whose first line is data, not its header
_SIDE_FILES = {"wide.txt": "0.0 1.0 0.0\n6.283185307179586 1.0 0.0\n",
               "headless.txt": "0.0 1.0 0.0\n6.283185307179586 1.0 0.0\n"}


# a message names the config as {cfg} and the directory it sits in as {dir};
# text None leaves the config unwritten
@pytest.mark.parametrize("text, sets, mode, message", [
    pytest.param(NO_INITIAL, (), "simulate", "mode simulate needs [initial] x0 and v0",
                 id="simulate"),
    pytest.param(NO_INITIAL, (), "dual-solve", "mode dual-solve needs [initial] x0 and v0",
                 id="dual-solve"),
    pytest.param(NO_INITIAL, (), "periodic", "base kind primal needs [initial] x0 and v0",
                 id="periodic-primal-base"),
    # a settled-primal base starts at rest when [initial] gives neither key
    pytest.param(PRESETS["periodic_forced_n4"].read_text().replace("v0 = 0.0 0.0 0.0 0.0\n", ""),
                 (), "periodic", "base kind settled-primal needs [initial] v0",
                 id="settled-base-without-v0"),
    pytest.param(DAMPED_N1_PERIODIC.format(M=100) + "[initial]\nv0 = 0.0\n", (), "periodic",
                 "base kind settled-primal needs [initial] x0", id="settled-base-without-x0"),
    pytest.param(SMALL_HARMONIC.replace("kind = primal", "kind = trajectory"), (), "dual-solve",
                 "base kind trajectory needs base.path", id="trajectory-no-path"),
    pytest.param(SMALL_HARMONIC.replace("A = 1.0", "A 1.0"), (), None,
                 "{cfg}:7: expected 'key = value', got 'A 1.0'", id="line-without-equals"),
    pytest.param("M = 128\n" + SMALL_HARMONIC, (), None, "{cfg}:1: key outside any [section]",
                 id="key-before-section"),
    pytest.param(SMALL_HARMONIC, ("grid.M",), None, "--set needs SECTION.KEY=VALUE, got 'grid.M'",
                 id="set-without-value"),
    pytest.param(SMALL_HARMONIC, ("M=64",), None, "--set needs SECTION.KEY=VALUE, got 'M=64'",
                 id="set-without-section"),
    pytest.param(SMALL_HARMONIC + "[forcing]\ntable = 1 wide.txt\n", (), "simulate",
                 "forcing table {dir}/wide.txt needs two columns (t, value)",
                 id="three-column-table"),
    pytest.param(SMALL_HARMONIC.replace("kind = primal", "kind = trajectory\npath = headless.txt"),
                 (), "dual-solve", "{dir}/headless.txt lacks a 't x_1..x_n v_1..v_n' header",
                 id="trajectory-without-header"),
    pytest.param(None, (), None,
                 "cannot read config {cfg}: [Errno 2] No such file or directory: '{cfg}'",
                 id="unreadable-config"),
    pytest.param(SMALL_HARMONIC, ("chain.m=-1",), None, "mass m must be positive and finite",
                 id="negative-mass"),
    # refused once the primal base is integrated, since its period does not close
    pytest.param(SMALL_HARMONIC, (), "periodic",
                 "base vbar is not periodic (first and last nodes differ)",
                 id="periodic-unclosed-primal-base"),
])
def test_missing_run_inputs_exit_2(tmp_path, capsys, text, sets, mode, message):
    for name, body in _SIDE_FILES.items():
        (tmp_path / name).write_text(body)
    cfg = tmp_path / "case.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert run_one(cfg, out, sets=sets, mode=mode) == 2
    expected = message.format(cfg=cfg, dir=tmp_path.resolve())
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not out.exists()


def test_trajectory_base_on_another_grid_exits_2(tmp_path, capsys):
    base = tmp_path / "base.txt"
    cli.write_trajectory(base, Trajectory(TimeGrid(T=2 * np.pi, M=64),
                                          np.zeros((65, 1)), np.zeros((65, 1))))
    text = SMALL_HARMONIC.replace("kind = primal", f"kind = trajectory\npath = {base}")
    out = tmp_path / "out"
    assert run_one(_write(tmp_path, text), out, mode="dual-solve") == 2
    assert capsys.readouterr().err == (
        f"config error: base trajectory {base.resolve()} does not match the run grid\n")
    assert not out.exists()


def _squeeze_times(path):
    """Rewrite a data file with every time but the last halved."""
    header = path.read_text().splitlines()[0]
    data = np.loadtxt(path, skiprows=1, ndmin=2)
    data[:-1, 0] *= 0.5
    np.savetxt(path, data, fmt="%.17g", header=header, comments="")


def test_data_file_times_off_the_grid_are_refused(tmp_path, capsys):
    # T comes from the last row and M from the row count; the other times
    # must be the nodes too
    stage = tmp_path / "stage"
    assert run_one(_write(tmp_path, SMALL_HARMONIC), stage, mode="dual-solve") == 0
    traj_path, dual_path = stage / "case_trajectory.txt", stage / "case_dual.txt"
    for path, read in ((traj_path, read_trajectory), (dual_path, read_dual_field)):
        read(path)  # as written, the file reads back
        _squeeze_times(path)
    with pytest.raises(ValueError, match="t column"):
        read_dual_field(dual_path)
    text = SMALL_HARMONIC.replace("kind = primal", f"kind = trajectory\npath = {traj_path}")
    out = tmp_path / "out"
    assert run_one(_write(tmp_path, text, "follow.cfg"), out) == 2
    assert capsys.readouterr().err.startswith(f"config error: {traj_path.resolve()}: the t column")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [0, 1])
def test_data_files_of_fewer_than_two_rows_are_refused(tmp_path, capsys, rows):
    # a grid has at least two nodes: a header alone, or one row, is refused
    # by its row count, without a warning from the parser
    path = tmp_path / "short.txt"
    path.write_text("t x_1 v_1\n" + "0 1 0\n" * rows)
    message = f"{path} has {rows} data rows; a grid needs at least 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_trajectory(path)
    text = SMALL_HARMONIC.replace("kind = primal", f"kind = trajectory\npath = {path}")
    out = tmp_path / "out"
    assert run_one(_write(tmp_path, text), out) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, rows", [("", 0), ("# t value\n", 0), ("0.0 1.0\n", 1)],
                         ids=["empty", "header-only", "one-row"])
def test_forcing_tables_of_fewer_than_two_rows_are_refused(tmp_path, capsys, body, rows):
    # a forcing table is read by the data files' row reader: refused by its
    # row count, with its path, without a warning from the parser
    (tmp_path / "drive.txt").write_text(body)
    text = SMALL_HARMONIC.replace("kind = primal", "kind = zero") + "[forcing]\ntable = 1 drive.txt\n"
    out = tmp_path / "out"
    assert run_one(_write(tmp_path, text), out, mode="dual-solve") == 2
    table = (tmp_path / "drive.txt").resolve()
    assert capsys.readouterr().err == (
        f"config error: {table} has {rows} data rows; a grid needs at least 2\n")
    assert not out.exists()


def test_forcing_table_with_uneven_times_names_its_file(tmp_path, capsys):
    # the sampled signal's own check is reported with the table's path
    (tmp_path / "drive.txt").write_text("0.0 1.0\n1.0 0.0\n6.283185307179586 1.0\n")
    text = SMALL_HARMONIC.replace("kind = primal", "kind = zero") + "[forcing]\ntable = 1 drive.txt\n"
    out = tmp_path / "out"
    assert run_one(_write(tmp_path, text), out, mode="dual-solve") == 2
    table = (tmp_path / "drive.txt").resolve()
    assert capsys.readouterr().err == (
        f"config error: forcing.table {table}: times must be strictly increasing "
        f"and uniformly spaced\n")
    assert not out.exists()


def _with_input_files(tmp_path):
    """A dual-solve config on SMALL_HARMONIC's chain driven by drive.txt, one
    period of a cosine on three samples under a '#' line, and solved about
    base.txt, a trajectory on its grid; both are written into ``tmp_path``,
    and in both the first data row is line 2."""
    (tmp_path / "drive.txt").write_text(
        "# t value\n0.0 1.0\n3.141592653589793 -1.0\n6.283185307179586 1.0\n")
    grid = TimeGrid(T=6.283185307179586, M=128)
    t = grid.nodes()[:, None]
    cli.write_trajectory(tmp_path / "base.txt", Trajectory(grid, np.cos(t), -np.sin(t)))
    text = (SMALL_HARMONIC.replace("mode = verify", "mode = dual-solve")
            .replace("kind = primal", "kind = trajectory\npath = base.txt")
            + "[forcing]\ntable = 1 drive.txt\n")
    return _write(tmp_path, text)


@pytest.mark.parametrize("fault", ["non-numeric", "ragged"])
@pytest.mark.parametrize("kind", ["table", "base"])
def test_a_malformed_data_file_is_named_with_its_line(tmp_path, capsys, monkeypatch, kind, fault):
    # the second data row, line 3, is named by the file's own line number,
    # without numpy's advice; refused as the config is loaded
    path = _with_input_files(tmp_path)
    data = tmp_path / ("drive.txt" if kind == "table" else "base.txt")
    lines = data.read_text().splitlines()
    width = len(lines[1].split())
    if fault == "non-numeric":
        lines[2] = "abc " + lines[2].split(" ", 1)[1]
    else:
        lines[2] += " 0.5"
    message = f"expected {width} numbers, got {lines[2]!r}"
    data.write_text("\n".join(lines) + "\n")
    calls = _spy_on_integrations_and_solves(monkeypatch)
    out = tmp_path / "out"
    assert run_one(path, out) == 2
    assert calls == []
    assert capsys.readouterr().err == f"config error: {data.resolve()}:3: {message}\n"
    assert not out.exists()


def test_a_loaded_config_holds_its_input_files(tmp_path):
    # chain_params, problem and semantic_hash use what load_config read,
    # and open no file
    cfg = load_config(_with_input_files(tmp_path))
    params, spec, digest = cfg.chain_params(), cfg.problem(), cfg.semantic_hash()
    (tmp_path / "drive.txt").unlink()
    (tmp_path / "base.txt").unlink()
    t = spec.grid.nodes()
    np.testing.assert_array_equal(eval_forcing(cfg.chain_params().forcing, t),
                                  eval_forcing(params.forcing, t))
    again = cfg.problem()
    np.testing.assert_array_equal(again.base.xbar, spec.base.xbar)
    np.testing.assert_array_equal(again.base.vbar, spec.base.vbar)
    assert cfg.semantic_hash() == digest


@pytest.mark.parametrize("mode", ["dual-solve", "verify"])
def test_each_input_file_is_opened_once_per_run(tmp_path, monkeypatch, mode):
    path = _with_input_files(tmp_path)
    inputs = {(tmp_path / name).resolve() for name in ("drive.txt", "base.txt")}
    opened = collections.Counter()
    real = io.open

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() in inputs:
            opened[Path(file).resolve()] += 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)
    monkeypatch.setattr(builtins, "open", spy)
    assert run_one(path, tmp_path / "out", mode=mode) == 0
    assert opened == {file: 1 for file in inputs}


def test_writers_return_the_digest_of_the_bytes_they_write(tmp_path):
    # the manifest's digest, with no second read; 300 rows span three blocks
    grid = TimeGrid(T=2.0, M=299)
    t = grid.nodes()[:, None]
    for write, data in ((cli.write_trajectory, Trajectory(grid, np.cos(t), np.sin(t))),
                        (cli.write_dual_field, DualField(grid, np.cos(t), t * 0.0))):
        path = tmp_path / f"{write.__name__}.txt"
        assert write(path, data) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_missing_base_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # a base.path the run does not use is still read, to be hashed: a missing
    # one is a config error before anything is integrated, in a worker too
    calls = _spy_on_integrations_and_solves(monkeypatch)
    missing, out = tmp_path / "missing.txt", tmp_path / "out"
    sets = ("grid.M=50", f"base.path={missing}")
    assert run_one(PRESETS["harmonic_n1"], out, sets=sets) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        f"config error: [Errno 2] No such file or directory: '{missing.resolve()}'\n")
    assert not out.exists()
    code = main(["dual-solve", "--config", str(PRESETS["harmonic_n1"]),
                 "--config", str(PRESETS["damped_n1"])]
                + [arg for setting in sets for arg in ("--set", setting)]
                + ["--jobs", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == "harmonic_n1: exit 2\ndamped_n1: exit 2\n"
    assert not out.exists()


@pytest.mark.parametrize("preset, sets", [("periodic_forced_n4", ()), ("harmonic_n1", NEVER_SETTLES)],
                         ids=["periodic_forced_n4", "harmonic_n1-undamped"])
def test_periodic_forcing_off_the_orbit_period_exits_2_before_settling(tmp_path, capsys,
                                                                       monkeypatch, preset, sets):
    # the forcing is checked for period T as the config is loaded, before a
    # settled-primal base integrates anything; the sinusoid set last replaces
    # any other
    calls = _spy_on_integrations_and_solves(monkeypatch)
    out = tmp_path / "out"
    sets = sets + ("forcing.sinusoid=1 0.5 1.5 0.0",)
    assert run_one(PRESETS[preset], out, sets=sets, mode="periodic") == 2
    assert calls == []
    assert capsys.readouterr().err == (
        "config error: sinusoid on particle 1 has period 4.18879, "
        "which does not divide the orbit period 6.28319\n")
    assert not out.exists()


@pytest.mark.parametrize("M", [1, 2])
def test_dual_solve_on_one_or_two_elements(tmp_path, capsys, M):
    # the one-element branch of the nodal-rate rule recovery and residuals share
    assert run_one(PRESETS["harmonic_n1"], tmp_path, sets=(f"grid.M={M}",),
                   mode="dual-solve") == 0
    assert capsys.readouterr().err == ""
    report = parse_report(tmp_path / "harmonic_n1_report.txt")
    assert report["convergence"]["converged"] == "true"
    assert report["verification"]["hessian_inertia"] == f"{2 * M} 0 0"
    assert read_trajectory(tmp_path / "harmonic_n1_trajectory.txt").grid.M == M


def test_periodic_mode_emits_closing_orbit(tmp_path):
    out = tmp_path / "orbit"
    code = run_one(PRESETS["periodic_forced_n4"], out,
                   sets=("grid.M=200", "base.settle_periods=8"))
    assert code == 0
    orbit = read_trajectory(out / "periodic_forced_n4_trajectory.txt")
    np.testing.assert_array_equal(orbit.x[0], orbit.x[-1])
    report = parse_report(out / "periodic_forced_n4_report.txt")
    assert report["convergence"]["converged"] == "true"


def test_nonconvergence_exits_3_with_report(tmp_path, capsys):
    code = run_one(PRESETS["perturbed_base_n4"], tmp_path,
                   sets=("grid.M=128", "solver.max_iterations=1"))
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    report = parse_report(tmp_path / "perturbed_base_n4_report.txt")
    assert report["convergence"]["converged"] == "false"
    assert report["convergence"]["iterations"] == "1"


def test_resonant_periodic_exits_4(tmp_path, capsys):
    text = """\
[run]
mode = periodic
[chain]
n = 1
m = 1.0
d = 0.0
A = 1.0
[forcing]
sinusoid = 1 1.0 1.0 0.0
[grid]
T = 6.283185307179586
M = 500
[base]
kind = zero
"""
    path = _write(tmp_path, text, "resonant.cfg")
    for sets in ((), ("grid.M=501",), ("solver.step_control=trust-region",),
                 ("grid.M=501", "solver.step_control=trust-region")):
        code = run_one(path, tmp_path, sets=sets)
        assert code == 4
        err = capsys.readouterr().err
        assert "singular" in err.lower()
        assert "transfer multiplier" in err


def test_an_exit_4_removes_only_the_empty_out_it_made(tmp_path, capsys):
    # an exit 4 writes nothing: the --out it made goes, with nothing else;
    # an --out that was there already, empty or holding another run's
    # files, stays as it was
    sets = ("base.kind=zero", "grid.M=1000", "forcing.sinusoid=1 1.0 1.0 0.0")
    out = tmp_path / "parent" / "out"
    assert run_one(PRESETS["harmonic_n1"], out, sets=sets, mode="periodic") == 4
    assert "numerical singularity" in capsys.readouterr().err
    assert not out.exists() and out.parent.is_dir()
    out.mkdir()
    assert run_one(PRESETS["harmonic_n1"], out, sets=sets, mode="periodic") == 4
    assert out.is_dir() and not list(out.iterdir())
    assert run_one(PRESETS["harmonic_n1"], out, sets=("grid.M=50",), mode="dual-solve") == 0
    before = sorted(out.iterdir())
    assert run_one(PRESETS["harmonic_n1"], out, sets=sets, mode="periodic") == 4
    assert sorted(out.iterdir()) == before


def test_zero_base_trust_region_stall_exits_3_with_report(tmp_path, capsys):
    # from the zero base the damped-newton iteration reaches an indefinite
    # point where no trust-region shift reduces the gradient norm: that is
    # "did not converge" on every grid, since the chain is not resonant (it
    # converges from the settled base)
    for M in (500, 250, 100):
        out = tmp_path / f"M{M}"
        code = run_one(PRESETS["periodic_forced_n4"], out,
                       sets=("base.kind=zero", f"grid.M={M}"))
        err = capsys.readouterr().err
        assert code == 3
        assert "did not converge" in err
        report = parse_report(out / "periodic_forced_n4_report.txt")
        assert report["convergence"]["converged"] == "false"
        assert "hessian_inertia" in report["verification"]


@pytest.mark.parametrize("preset, sets, codes, inertia", [
    # the trust-region shift outgrows the float range
    ("forced_damped_n1", ("scales.c_x=1e-300",), {3}, "20 20 0"),
    ("forced_damped_n1", ("scales.c_v=1e-300",), {3}, "20 20 0"),
    # the final Hessian overflows; the tolerance scales with the zero-field
    # gradient, which overflows with it, so the zero field may pass as solved
    ("forced_damped_n1", ("chain.m=1e300",), {0, 3}, "none"),
    # the first Hessian overflows: the iteration stops where it starts
    ("periodic_forced_n4", ("base.settle_periods=1", "chain.m=1e300"), {3}, "none"),
], ids=["tiny-c_x", "tiny-c_v", "huge-m", "periodic-huge-m"])
def test_overflow_gives_an_exit_code_and_a_report(tmp_path, preset, sets, codes, inertia):
    # no RuntimeWarning escapes: pyproject's filterwarnings makes one an error
    code = run_one(PRESETS[preset], tmp_path, sets=("grid.M=20",) + sets)
    assert code in codes
    verification = parse_report(tmp_path / f"{preset}_report.txt")["verification"]
    assert verification["hessian_inertia"] == inertia
    if inertia == "none":
        assert verification["concavity_ok"] == "none"


@pytest.mark.parametrize("preset", ["harmonic_n1", "fput_alpha_n8"])
def test_huge_base_amplitude_stops_unconverged_with_a_report(tmp_path, capsys, preset):
    # the mapped state, the forces at it, the gradient, the Hessian and the
    # recovered rates overflow, inside run_one's one overflow policy: no
    # RuntimeWarning escapes (pyproject's filterwarnings makes one an error),
    # and the solver's finite checks stop the iteration where it starts
    sets = ("grid.M=50", "base.kind=perturbed-primal", "base.amplitude=1e308")
    assert run_one(PRESETS[preset], tmp_path, sets=sets, mode="dual-solve") == 3
    assert "did not converge" in capsys.readouterr().err
    report = parse_report(tmp_path / f"{preset}_report.txt")
    assert report["convergence"]["converged"] == "false"
    assert report["convergence"]["iterations"] == "0"
    assert (tmp_path / f"{preset}_trajectory.txt").exists()


@pytest.mark.parametrize("mode", ["dual-solve", "periodic", "verify"])
def test_one_run_recovers_the_primal_trajectory_once(tmp_path, monkeypatch, mode):
    # verify checks the trajectory run_one recovered, not a second one
    calls, recover = [], dual_solver.recover_primal

    def counted(sol, spec):
        calls.append(spec)
        return recover(sol, spec)

    monkeypatch.setattr(cli, "recover_primal", counted)
    monkeypatch.setattr(dual_solver, "recover_primal", counted)
    preset = "periodic_forced_n4" if mode == "periodic" else "harmonic_n1"
    assert run_one(PRESETS[preset], tmp_path, sets=COARSE[preset], mode=mode) == 0
    assert len(calls) == 1


# the shipped presets in their shipped modes, on grids a tenth as fine
COARSE = {
    "damped_n1": ("grid.M=200",),
    "forced_damped_n1": ("grid.M=200",),
    "fput_alpha_n8": ("grid.M=400",),
    "harmonic_n1": ("grid.M=200",),
    "periodic_forced_n4": ("grid.M=100", "base.settle_periods=4"),
    "perturbed_base_n4": ("grid.M=128",),
}


def test_every_preset_writes_a_readable_report(tmp_path):
    wanted = {"gradient_norm", "momentum_residual_max", "kinematic_residual_max",
              "ellipticity_min", "hessian_inertia", "concavity_ok"}
    for stem, path in sorted(PRESETS.items()):
        out = tmp_path / stem
        assert run_one(path, out, sets=COARSE[stem]) == 0
        report = parse_report(out / f"{stem}_report.txt")
        mode = load_config(path).mode
        assert report["run"]["mode"] == mode
        assert report["convergence"]["converged"] == "true"
        keys = set(report["verification"])
        assert wanted <= keys
        assert ("oracle_deviation_max" in keys) == (mode == "verify")
        for name, digest in report["manifest"].items():
            assert digest == "sha256:" + hashlib.sha256((out / name).read_bytes()).hexdigest()
    orbit = parse_report(tmp_path / "periodic_forced_n4" / "periodic_forced_n4_report.txt")
    assert set(orbit["manifest"]) == {"periodic_forced_n4_trajectory.txt"}
    assert orbit["verification"]["hessian_inertia"] == "800 0 0"


def test_hash_tracks_semantic_changes_only():
    base = load_config(PRESETS["harmonic_n1"]).semantic_hash()
    coarser = load_config(PRESETS["harmonic_n1"],
                          sets=("grid.M=1000",)).semantic_hash()
    renamed = load_config(PRESETS["harmonic_n1"],
                          sets=("output.prefix=other",)).semantic_hash()
    remode = load_config(PRESETS["harmonic_n1"],
                         mode="dual-solve").semantic_hash()
    assert coarser != base
    assert remode != base
    assert renamed == base


def test_positional_mode_overrides_config(tmp_path):
    path = _write(tmp_path, SMALL_HARMONIC)  # config says verify
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert (out / "case_trajectory.txt").exists()
    assert not (out / "case_report.txt").exists()


def test_trajectory_base_kind(tmp_path):
    path = _write(tmp_path, SMALL_HARMONIC)
    out = tmp_path / "stage"
    assert run_one(path, out, mode="simulate") == 0
    follow = SMALL_HARMONIC.replace(
        "kind = primal\nrefine = 10",
        f"kind = trajectory\npath = {out / 'case_trajectory.txt'}")
    follow_path = _write(tmp_path, follow, "follow.cfg")
    assert run_one(follow_path, out, mode="dual-solve") == 0
    report = parse_report(out / "follow_report.txt")
    assert report["convergence"]["converged"] == "true"


class _SpyPool(concurrent.futures.ProcessPoolExecutor):
    """Records the start method and the BLAS thread setting that the
    workers inherit when they are started."""

    seen: list = []

    def __init__(self, *args, mp_context=None, **kwargs):
        super().__init__(*args, mp_context=mp_context, **kwargs)
        self.method = mp_context.get_start_method() if mp_context else None

    def map(self, *args, **kwargs):
        self.seen.append((self.method, os.environ.get("OPENBLAS_NUM_THREADS")))
        return super().map(*args, **kwargs)


def _fanout(tmp_path, name, jobs):
    cfgs = [_write(tmp_path, SMALL_HARMONIC, "alpha.cfg"),
            _write(tmp_path, SMALL_HARMONIC.replace("d = 0.0", "d = 1.0"), "beta.cfg"),
            _write(tmp_path, SMALL_HARMONIC.replace("mode = verify", "mode = dual-solve"),
                   "gamma.cfg")]
    out = tmp_path / name
    code = main([arg for cfg in cfgs for arg in ("--config", str(cfg))]
                + ["--out", str(out), "--jobs", str(jobs)])
    return code, out


def _outputs(out):
    """Every output file's bytes, reports without their wall time."""
    files = {}
    for path in sorted(out.rglob("*.txt")):
        data = path.read_bytes()
        if path.name.endswith("_report.txt"):
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"wall_time_s"))
        files[str(path.relative_to(out))] = data
    return files


def test_parallel_fanout_isolates_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SpyPool)
    monkeypatch.setattr(_SpyPool, "seen", [])
    code, out = _fanout(tmp_path, "fan", jobs=2)
    assert code == 0
    for stem in ("alpha", "beta", "gamma"):
        report = parse_report(out / stem / f"{stem}_report.txt")
        assert report["convergence"]["converged"] == "true"
    # spawned workers get one BLAS thread; this process's environment is restored
    assert _SpyPool.seen == [("spawn", "1")]
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    serial_code, serial = _fanout(tmp_path, "serial", jobs=1)
    assert serial_code == 0 and len(_SpyPool.seen) == 1
    assert (out / "gamma" / "gamma_dual.txt").is_file()
    assert _outputs(out) == _outputs(serial)


def test_parallel_workers_keep_a_user_set_blas_thread_count(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SpyPool)
    monkeypatch.setattr(_SpyPool, "seen", [])
    code, _ = _fanout(tmp_path, "fan", jobs=2)
    assert code == 0
    assert _SpyPool.seen == [("spawn", "3")]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_two_configs_with_one_stem_are_rejected_before_any_run(tmp_path, capsys):
    # both runs would write into out/case, the second report over the first
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _write(tmp_path / "a", SMALL_HARMONIC)
    second = _write(tmp_path / "b", SMALL_HARMONIC.replace("d = 0.0", "d = 1.0"))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(first), "--config", str(second),
              "--out", str(out)])
    assert exc.value.code == 2
    assert "'case'" in capsys.readouterr().err
    assert not out.exists()


def test_jobs_below_one_is_rejected_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(_write(tmp_path, SMALL_HARMONIC)), "--out", str(out),
              "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("prefix", ["sub/x", "{elsewhere}/x", "x/", "", ".", ".."],
                         ids=["relative-directory", "absolute", "trailing-slash", "empty",
                              "dot", "dot-dot"])
def test_output_prefix_must_be_a_plain_file_name(tmp_path, capsys, prefix):
    # every file a run writes lies in --out: a prefix with a directory part,
    # or one that is no file name, is refused before anything runs
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    elsewhere.mkdir()
    prefix = prefix.format(elsewhere=elsewhere)
    sets = ("grid.M=50", f"output.prefix={prefix}")
    assert run_one(PRESETS["harmonic_n1"], out, sets=sets) == 2
    message = f"{PRESETS['harmonic_n1']}: output.prefix must be a plain file name, got {prefix!r}"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists() and not list(elsewhere.iterdir())
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(PRESETS["harmonic_n1"], sets=sets)


def test_a_bad_prefix_under_jobs_exits_2_for_each_config(tmp_path, capsys):
    # each worker refuses its config, and the batch reports every exit
    out = tmp_path / "out"
    code = main(["dual-solve", "--config", str(PRESETS["harmonic_n1"]),
                 "--config", str(PRESETS["damped_n1"]), "--set", "grid.M=50",
                 "--set", "output.prefix=sub/x", "--jobs", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().out == "harmonic_n1: exit 2\ndamped_n1: exit 2\n"
    assert not out.exists()


def test_an_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys):
    # --out is made once the problem is posed, before the solve or the
    # simulation, or, for a base that did not settle, for its report
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    runs = (("verify", ("grid.M=50",), ""), ("simulate", ("grid.M=50",), ""),
            ("periodic", NEVER_SETTLES, r"base-state did not settle: .*\n"))
    for mode, sets, before in runs:
        for out, error in ((taken, FileExistsError), (taken / "below", NotADirectoryError)):
            assert run_one(PRESETS["harmonic_n1"], out, sets=sets, mode=mode) == 2
            with pytest.raises(error) as exc:
                out.mkdir(parents=True, exist_ok=True)
            assert re.fullmatch(before + re.escape(f"config error: {exc.value}\n"),
                                capsys.readouterr().err)
    assert taken.read_text() == "not a directory\n"


def test_main_exit_code_is_worst_of_runs(tmp_path):
    good = _write(tmp_path, SMALL_HARMONIC, "good.cfg")
    bad = _write(tmp_path, SMALL_HARMONIC.replace("M = 128", "M = 0"),
                 "bad.cfg")
    out = tmp_path / "mixed"
    code = main(["--config", str(good), "--config", str(bad),
                 "--out", str(out)])
    assert code == 2
