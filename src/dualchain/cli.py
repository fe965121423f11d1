"""Batch front end: scenario configs in, trajectories and reports out.

Config files are flat key/value text grouped in [sections], with full-line
comments starting with '#'.  Each key is declared once, in `_KEYS`, with the
`ScenarioConfig` field it fills, its parser and its default; `load_config`
reads the run mode, the base kind, the paths and the output prefix itself,
and reads each file a path names once: a config holds parsed inputs and the
sha256 of their bytes, not paths.  Particle indices in configs and file
headers are 1-based.  Trajectory and dual files use 17-significant-digit
decimals, so reading a file back reproduces the arrays bit for bit; their
writers return the sha256 of the bytes they write.

Modes dual-solve, verify and periodic solve the dual problem that
`ScenarioConfig.problem` poses, periodic in periodic mode (whose [initial]
values only start a settled-primal base), and each writes a report with
[convergence] and [verification].  A settled-primal base settles at the
run's own step until a period closes to within h^2 of its state's size,
refines only the period it keeps, and adds the periods it took and that
period's closing gap to [convergence].  A primal base is `base_from_primal`'s;
a verify run whose base was integrated at the oracle's refinement takes the
oracle from the base's nodes, before any perturbation.  The output prefix is
a plain file name, so a run writes into its --out directory only.

Exit codes: 0 success, 2 config or validation error, 3 solver did not
converge (a trust-region stall included), an integration diverged, a
settled-primal base did not close within its period cap or a stage ran out
of memory (numpy's MemoryError, named on stderr with the stage and
chain.n), 4 numerical singularity.  Exits 0 and 3 write a report, with the
sections the run completed, in every mode but simulate; exits 2 and 4 write
none, and an exit 2 leaves no --out directory.
An overflowed run exits 3, so `run_one` (in `--jobs` workers too) silences
numpy's overflow warnings once, around all of its numerical work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import time
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .chain_model import (
    ChainParams,
    ForcingSpec,
    QuadraticForce,
    SampledSignal,
    Sinusoid,
    _check_forcing,
    _count,
    _nonnegative,
)
from .dual_action import (
    BaseState,
    DualField,
    ProblemSpec,
    ScaleParams,
    SingularStiffnessError,
    base_from_primal,
    perturb_base,
    restrict_base,
    zero_base,
)
from .dual_solver import (
    STEP_CONTROLS,
    SingularSystemError,
    SolveOptions,
    recover_primal,
    solve_dual,
    verify,
)
from .primal_solver import (
    METHODS,
    IntegrationBlowUpError,
    TimeGrid,
    Trajectory,
    integrate_primal,
)

__all__ = [
    "ConfigError",
    "RunReport",
    "ScenarioConfig",
    "load_config",
    "main",
    "parse_report",
    "read_dual_field",
    "read_trajectory",
    "run_one",
    "scenario_presets",
    "write_dual_field",
    "write_trajectory",
]

MODES = ("simulate", "dual-solve", "periodic", "verify")
_BASE_KINDS = ("zero", "primal", "perturbed-primal", "settled-primal", "trajectory")
# verify compares against a direct solve on a grid this many times finer
_ORACLE_REFINE = 10


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


class UnsettledBaseError(RuntimeError):
    """A settled-primal base period whose closing gap exceeds h^2."""

    def __init__(self, settling: dict, bound: float):
        super().__init__(f"closing gap {settling['settle_gap']:.3g} above h^2 = {bound:.3g} "
                         f"after {settling['settle_periods']} periods")
        self.settling = settling


def _closing_gap(traj: Trajectory) -> float:
    """max |z(T) - z(0)| / max |z| over the trajectory, z = (x, v); 0 for a
    state at rest throughout."""
    scale = max(np.max(np.abs(traj.x)), np.max(np.abs(traj.v)))
    gap = max(np.max(np.abs(traj.x[-1] - traj.x[0])), np.max(np.abs(traj.v[-1] - traj.v[0])))
    return float(gap / scale) if scale > 0 else 0.0


def _converter(convert, noun: str):
    def parse(text: str, what: str):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(f"{what} must be {noun}, got {text!r}") from None
    return parse


_to_int = _converter(int, "an integer")
_to_count = _converter(lambda text: _count("value", int(text)), "an integer >= 1")
_to_float = _converter(float, "a number")
_to_nonnegative = _converter(lambda text: _nonnegative("value", float(text)),
                             "a finite number >= 0")


def _choice(names: tuple):
    def parse(text: str, what: str) -> str:
        if text not in names:
            raise ConfigError(f"{what} must be one of {', '.join(names)}, got {text!r}")
        return text
    return parse


def _vector(rank: int):
    """Parser of a repeatable key's values, read in order, as an array of
    shape (n,) * rank (row-major for rank 2)."""
    def parse(values: list, what: str, n: int) -> np.ndarray:
        flat = np.array([_to_float(tok, what) for chunk in values for tok in chunk.split()])
        if flat.size != n ** rank:
            raise ConfigError(f"{what} needs {n ** rank} values, got {flat.size}")
        return flat.reshape((n,) * rank)
    return parse


def _entries(form: str, build=lambda *entry: entry):
    """Parser of a repeatable key whose entries take the form ``form`` (e.g.
    'j r s value'): j, r and s are 1-based particle indices, read 0-based,
    a path stays text and any other token is a number.  One
    ``build(*entry)`` per entry."""
    names = form.split()

    def parse(values: list, what: str, n: int) -> tuple:
        out = []
        for chunk in values:
            tokens = chunk.split()
            if len(tokens) != len(names):
                raise ConfigError(f"{what} entries are '{form}', got {chunk!r}")
            entry = []
            for name, tok in zip(names, tokens):
                if name in ("j", "r", "s"):
                    idx = _to_int(tok, f"{what} index")
                    if not 1 <= idx <= n:
                        raise ConfigError(f"{what} index {idx} outside 1..{n}")
                    entry.append(idx - 1)
                else:
                    entry.append(tok if name == "path" else _to_float(tok, f"{what} value"))
            try:
                out.append(build(*entry))
            except ValueError as exc:  # a value the component refuses
                raise ConfigError(f"{what} {exc}") from None
        return tuple(out)
    return parse


class _Key(NamedTuple):
    # parse(value, "section.key"), or parse(values, "section.key", n) for a
    # repeatable key; None for a key load_config reads itself.  default is
    # the field when the key is absent (a callable gets n), or _REQUIRED
    field: str
    parse: Callable | None = None
    default: object = None
    repeatable: bool = False


_REQUIRED = object()

# every config key, in the order load_config reads them; forcing.constant
# appends to the field forcing.sinusoid fills
_KEYS = {
    ("run", "mode"): _Key("mode"),
    ("run", "seed"): _Key("seed", _to_int, 0),
    ("run", "method"): _Key("method", _choice(METHODS), "rk4"),
    ("chain", "n"): _Key("n", _to_count, _REQUIRED),
    ("chain", "m"): _Key("m", _to_float, _REQUIRED),
    ("chain", "d"): _Key("d", _to_float, _REQUIRED),
    ("chain", "C"): _Key("C", _vector(1), np.zeros, True),
    ("chain", "A"): _Key("A", _vector(2), _REQUIRED, True),
    ("chain", "B"): _Key("B_entries", _entries("j r s value"), (), True),
    ("forcing", "sinusoid"): _Key("sinusoids", _entries(
        "j amplitude omega phase", lambda j, *wave: (j, Sinusoid(*wave))), (), True),
    ("forcing", "constant"): _Key("sinusoids", _entries(
        "j value", lambda j, value: (j, Sinusoid(value, 0.0, 0.0))), (), True),
    ("forcing", "table"): _Key("tables", _entries("j path"), (), True),
    ("grid", "T"): _Key("T", _to_float, _REQUIRED),
    ("grid", "M"): _Key("M", _to_count, _REQUIRED),
    ("initial", "x0"): _Key("x0", _vector(1), None, True),
    ("initial", "v0"): _Key("v0", _vector(1), None, True),
    ("scales", "c_x"): _Key("c_x", _to_float, 1.0),
    ("scales", "c_v"): _Key("c_v", _to_float, 1.0),
    ("base", "kind"): _Key("base_kind"),
    ("base", "refine"): _Key("base_refine", _to_count, 10),
    ("base", "amplitude"): _Key("base_amplitude", _to_nonnegative, 0.0),
    ("base", "settle_periods"): _Key("base_settle", _to_count, 10),
    ("base", "path"): _Key("base_digest"),
    ("solver", "max_iterations"): _Key("max_iterations", _to_count, 50),
    ("solver", "tolerance"): _Key("tolerance", _to_float, 1e-10),
    ("solver", "step_control"): _Key("step_control", _choice(STEP_CONTROLS), STEP_CONTROLS[0]),
    ("output", "prefix"): _Key("prefix"),
}
_SECTIONS = {section for section, _ in _KEYS}


def _parse_entries(text: str, origin: str) -> dict:
    entries: dict[tuple[str, str], list[str]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{origin}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{where}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        slot = (section, key)
        if slot not in _KEYS:
            raise ConfigError(f"{where}: unknown key {section}.{key}")
        if slot in entries and not _KEYS[slot].repeatable:
            raise ConfigError(f"{where}: duplicate key {section}.{key}")
        entries.setdefault(slot, []).append(value)
    return entries


def _apply_set(entries: dict, assignment: str) -> None:
    if "=" not in assignment or "." not in assignment.split("=", 1)[0]:
        raise ConfigError(f"--set needs SECTION.KEY=VALUE, got {assignment!r}")
    target, value = assignment.split("=", 1)
    section, key = (part.strip() for part in target.split(".", 1))
    if (section, key) not in _KEYS:
        raise ConfigError(f"--set names unknown key {section}.{key}")
    entries[(section, key)] = [value.strip()]


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed scenario description resolved from one config file.  It holds
    parsed inputs, not paths, so its methods open no file: a (j,
    `SampledSignal`, sha256) triple per forcing table, the base.path file's
    sha256, and its `Trajectory` for base kind trajectory."""

    name: str
    mode: str
    seed: int
    method: str
    n: int
    m: float
    d: float
    C: np.ndarray
    A: np.ndarray
    B_entries: tuple
    sinusoids: tuple
    tables: tuple
    T: float
    M: int
    x0: np.ndarray | None
    v0: np.ndarray | None
    c_x: float
    c_v: float
    base_kind: str
    base_refine: int
    base_amplitude: float
    base_settle: int
    base_digest: str | None
    base_trajectory: Trajectory | None
    max_iterations: int
    tolerance: float
    step_control: str
    prefix: str

    def chain_params(self) -> ChainParams:
        B = None
        if self.B_entries:
            B = np.zeros((self.n, self.n, self.n))
            for j, r, s, value in self.B_entries:
                B[j, r, s] = value
                B[j, s, r] = value
        force = QuadraticForce(n=self.n, A=self.A, B=B, C=self.C)
        forcing = ForcingSpec(n=self.n, sinusoids=self.sinusoids,
                              tables=[(j, signal) for j, signal, _ in self.tables])
        return ChainParams(m=self.m, d=self.d, force=force, forcing=forcing)

    def grid(self) -> TimeGrid:
        return TimeGrid(T=self.T, M=self.M)

    def solver_options(self) -> SolveOptions:
        return SolveOptions(max_iterations=self.max_iterations,
                            tolerance=self.tolerance,
                            step_control=self.step_control)

    def _initial(self, what: str) -> tuple:
        """(x0, v0), which ``what``, a mode or a base kind, needs; the error
        names the keys that are missing."""
        missing = [name for name in ("x0", "v0") if getattr(self, name) is None]
        if missing:
            raise ConfigError(f"{what} needs [initial] {' and '.join(missing)}")
        return self.x0, self.v0

    def _base(self, params: ChainParams, grid: TimeGrid):
        """The base state; the verify oracle, which is the nodes of a primal
        base integrated at the oracle's refinement before any perturbation
        (None for the other runs); and the report lines of how a
        settled-primal base settled (None for the other kinds)."""
        kind = self.base_kind
        if kind == "zero":
            return zero_base(grid, self.n), None, None
        if kind in ("primal", "perturbed-primal"):
            base = base_from_primal(params, *self._initial(f"base kind {kind}"), grid,
                                    self.base_refine, method=self.method)
            oracle = (Trajectory(grid, base.xbar, base.vbar)
                      if self.mode == "verify" and self.base_refine == _ORACLE_REFINE else None)
            if kind == "perturbed-primal":
                base = perturb_base(base, self.base_amplitude, seed=self.seed)
            return base, oracle, None
        if kind == "settled-primal":
            base, settling = self._settled_base(params, grid)
            return base, None, settling
        traj = self.base_trajectory  # base kind trajectory
        return BaseState(grid, traj.x, traj.v), None, None

    def _settled_base(self, params: ChainParams, grid: TimeGrid):
        """The last of a run of periods from the [initial] state (rest when
        neither key is given), and its report lines: settle_periods, the
        periods run with the base's own, and settle_gap, its `_closing_gap`.

        Each period starts on the clock's zero, so the forcing is read
        modulo the period (a table covers one period).  Periods at the run's
        own step h only let the transient decay: they go on until there are
        at least settle_periods periods in all, the base's own included, and
        the last one closes, its relative closing gap at most h^2.  Then one
        period on the grid refine times finer becomes the base.  At most
        (settle_periods - 1) * refine periods run at step h, so settling
        takes no more steps than settle_periods refined periods.  A base
        period that does not close raises `UnsettledBaseError`; one that
        does has its last node set to its first for the cyclic problem.
        """
        bound = grid.h ** 2
        x, v = (np.zeros((2, self.n)) if self.x0 is None and self.v0 is None
                else self._initial("base kind settled-primal"))
        cap = (self.base_settle - 1) * self.base_refine
        periods, gap = 0, np.inf
        while periods < cap and (periods < self.base_settle - 1 or not gap <= bound):
            traj = integrate_primal(params, x, v, grid, method=self.method)
            x, v, gap = traj.x[-1], traj.v[-1], _closing_gap(traj)
            periods += 1
        fine = integrate_primal(params, x, v, grid.refined(self.base_refine),
                                method=self.method)
        settling = {"settle_periods": periods + 1, "settle_gap": _closing_gap(fine)}
        if not settling["settle_gap"] <= bound:
            raise UnsettledBaseError(settling, bound)
        last = restrict_base(fine, self.base_refine)
        xb, vb = last.xbar.copy(), last.vbar.copy()
        xb[-1], vb[-1] = xb[0], vb[0]
        return BaseState(grid, xb, vb, last.xbar_mid, last.vbar_mid), settling

    def problem(self) -> ProblemSpec:
        return self._problem()[0]

    # earlier name of `problem` for periodic mode, kept for its callers
    periodic_problem = problem

    def _problem(self):
        """The dual problem, periodic in periodic mode, and `_base`'s verify
        oracle and settled-primal report lines."""
        periodic = self.mode == "periodic"
        x0, v0 = (None, None) if periodic else self._initial(f"mode {self.mode}")
        params = self.chain_params()
        grid = self.grid()
        base, oracle, settling = self._base(params, grid)
        spec = ProblemSpec(params=params, scales=ScaleParams(self.c_x, self.c_v),
                           base=base, grid=grid, x0=x0, v0=v0)
        return spec, oracle, settling

    def semantic_hash(self) -> str:
        """Digest of every field that changes the computation.

        Output naming is excluded; forcing tables and the base.path file
        hash by the sha256 of their bytes as `load_config` read them, not by
        path.
        """
        def arr(a):
            return "none" if a is None else ",".join(repr(float(v)) for v in np.ravel(a))

        parts = [
            f"mode={self.mode}", f"seed={self.seed}", f"method={self.method}",
            f"n={self.n}", f"m={self.m!r}", f"d={self.d!r}",
            f"C={arr(self.C)}", f"A={arr(self.A)}",
            "B=" + ";".join(f"{j},{r},{s},{v!r}"
                            for j, r, s, v in sorted(self.B_entries)),
            "sin=" + ";".join(f"{j},{s.amplitude!r},{s.omega!r},{s.phase!r}"
                              for j, s in self.sinusoids),
            "tab=" + ";".join(f"{j},{digest}" for j, _, digest in self.tables),
            f"T={self.T!r}", f"M={self.M}",
            f"x0={arr(self.x0)}", f"v0={arr(self.v0)}",
            f"c_x={self.c_x!r}", f"c_v={self.c_v!r}",
            f"base={self.base_kind},{self.base_refine},{self.base_amplitude!r},"
            f"{self.base_settle}",
            "base_file=" + (self.base_digest or "none"),
            f"solver={self.max_iterations},{self.tolerance!r},{self.step_control}",
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def load_config(path, sets=(), mode: str | None = None) -> ScenarioConfig:
    """Parse one scenario file, apply --set overrides, resolve defaults, and
    read the files it names; an unreadable or malformed one raises OSError or
    ValueError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries = _parse_entries(text, str(path))
    for assignment in sets:
        _apply_set(entries, assignment)

    config_mode = entries.pop(("run", "mode"), [None])[0]
    run_mode = mode or config_mode
    if run_mode is None:
        raise ConfigError(f"{path}: no mode given on the command line or in [run]")
    fields = {"name": path.name, "mode": run_mode}
    try:
        _choice(MODES)(run_mode, "mode")
        for (section, key), spec in _KEYS.items():
            if spec.parse is None:
                continue
            what, values = f"{section}.{key}", entries.pop((section, key), None)
            if values is None and spec.default is _REQUIRED:
                raise ConfigError(f"{what} is required")
            if values is None:
                value = spec.default(fields["n"]) if callable(spec.default) else spec.default
            elif spec.repeatable:
                value = spec.parse(values, what, fields["n"])
            else:
                value = spec.parse(values[0], what)
            if spec.field in fields:  # forcing.constant after forcing.sinusoid
                value = fields[spec.field] + value
            fields[spec.field] = value
        fields["base_kind"] = _choice(_BASE_KINDS)(
            entries.pop(("base", "kind"), ["zero" if run_mode == "periodic" else "primal"])[0],
            "base.kind")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    base_path = entries.pop(("base", "path"), [None])[0]
    prefix = entries.pop(("output", "prefix"), [path.stem])[0]
    if prefix in ("", ".", "..") or prefix != Path(prefix).name:
        raise ConfigError(f"{path}: output.prefix must be a plain file name, got {prefix!r}")
    fields["prefix"] = prefix

    assert not entries, f"unconsumed config entries: {sorted(entries)}"
    _read_inputs(fields, path.parent, base_path)
    return ScenarioConfig(**fields)


def _read_inputs(fields: dict, root: Path, base_path: str | None) -> None:
    """Read each forcing table and the base.path file (relative to ``root``)
    once, into ``fields``: the sha256 of its bytes and what they parse to,
    the tables checked with the sinusoids by `_check_forcing` (for period T
    in periodic mode) and a trajectory base against the run grid."""
    paths = [(j, (root / name).resolve()) for j, name in fields["tables"]]
    tables = []
    for j, path in paths:
        data = path.read_bytes()
        rows = _data_rows(path, data.decode().splitlines())
        if rows.shape[1] != 2:
            raise ConfigError(f"forcing table {path} needs two columns (t, value)")
        try:
            signal = SampledSignal(rows[:, 0], rows[:, 1])
        except ValueError as exc:
            raise ConfigError(f"forcing.table {path}: {exc}") from None
        tables.append((j, signal, hashlib.sha256(data).hexdigest()))
    forcing = ForcingSpec(fields["n"], fields["sinusoids"], [(j, s) for j, s, _ in tables])
    _check_forcing(forcing, 0.0, fields["T"], periodic=fields["mode"] == "periodic",
                   names=[f"forcing.table {path}" for _, path in paths])
    fields["tables"] = tuple(tables)
    fields["base_digest"] = fields["base_trajectory"] = None
    if not base_path:
        if fields["base_kind"] == "trajectory":
            raise ConfigError("base kind trajectory needs base.path")
        return
    path = (root / base_path).resolve()
    data = path.read_bytes()
    fields["base_digest"] = hashlib.sha256(data).hexdigest()
    if fields["base_kind"] == "trajectory":
        traj = Trajectory(*_read_table(path, data.decode().splitlines(), ("x", "v")))
        if traj.grid != TimeGrid(T=fields["T"], M=fields["M"]) or traj.x.shape[1] != fields["n"]:
            raise ConfigError(f"base trajectory {path} does not match the run grid")
        fields["base_trajectory"] = traj


def scenario_presets() -> list:
    """Paths of the bundled scenario configs."""
    root = resources.files("dualchain").joinpath("scenarios")
    return sorted(Path(str(item)) for item in root.iterdir()
                  if item.name.endswith(".cfg"))


_TABLE_BLOCK_ROWS = 128  # bounds the kernel's work arrays, about 300 bytes a value


def _write_table(path, names: tuple, grid: TimeGrid, first, second) -> str:
    """Header 't <names[0]>_1.. <names[1]>_1..', then one row per node of t
    and the two (M+1, n) arrays, every value as "%.17g" (the bytes of
    `np.savetxt` with that format), formatted by `_format17g.slots` per block
    of rows.  Returns the sha256 of the bytes written."""
    from . import _format17g  # compiled and built on a run's first table only
    n = first.shape[1]
    header = " ".join(["t"] + [f"{name}_{i}" for name in names for i in range(1, n + 1)])
    data = np.column_stack([grid.nodes(), first, second])
    digest, text = hashlib.sha256(), (header + "\n").encode()  # with the first block
    with open(path, "wb") as fh:
        for start in range(0, data.shape[0], _TABLE_BLOCK_ROWS):
            block = data[start:start + _TABLE_BLOCK_ROWS]
            slots = _format17g.slots(block.ravel()).reshape(block.shape + (_format17g.SLOT,))
            slots[:, :, -1] = ord(" ")  # the separators, a newline ending each row
            slots[:, -1, -1] = ord("\n")
            chunk = text + slots.tobytes().translate(None, b"\0")
            digest.update(chunk)
            fh.write(chunk)
            text = b""
    return digest.hexdigest()


def _data_rows(path, lines, start: int = 1) -> np.ndarray:
    """The rows of ``lines``, the file's lines from line ``start`` on, blank
    and '#' lines skipped, as a 2-d array; fewer than two, a grid's or a
    table's least, are refused unparsed, and a malformed row by its line."""
    rows = [(number, line) for number, line in enumerate(lines, start)
            if line.strip() and not line.lstrip().startswith("#")]
    if len(rows) < 2:
        raise ValueError(f"{path} has {len(rows)} data rows; a grid needs at least 2")
    try:
        return np.loadtxt([line for _, line in rows], ndmin=2)
    except ValueError as exc:  # numpy's message counts data rows only
        width = len(rows[0][1].split("#", 1)[0].split())
        for number, line in rows:
            try:
                ok = np.loadtxt([line]).size == width
            except ValueError:
                ok = False
            if not ok:
                raise ValueError(f"{path}:{number}: expected {width} numbers, "
                                 f"got {line.strip()!r}") from None
        raise ValueError(f"{path}: {exc}") from None


def _read_table(path, lines: list, names: tuple):
    """The grid and the two (M+1, n) arrays of the ``lines`` of a file
    `_write_table` wrote with these ``names``; ``path`` names it in errors.
    M is the row count less one and T the last time; every time must be its
    grid node to within 1e-12 T."""
    first, second = names
    tokens = lines[0].split() if lines else []
    n = sum(1 for tok in tokens if tok.startswith(f"{first}_"))
    if n == 0 or tokens[0] != "t" or len(tokens) != 1 + 2 * n:
        raise ValueError(f"{path} lacks a 't {first}_1..{first}_n "
                         f"{second}_1..{second}_n' header")
    data = _data_rows(path, lines[1:], start=2)
    if data.shape[1] != 1 + 2 * n:
        raise ValueError(f"{path}: rows have {data.shape[1]} columns, "
                         f"expected {1 + 2 * n}")
    grid = TimeGrid(T=float(data[-1, 0]), M=data.shape[0] - 1)
    if not np.max(np.abs(data[:, 0] - grid.nodes())) <= 1e-12 * grid.T:
        raise ValueError(f"{path}: the t column is not the nodes of a uniform "
                         f"grid of {grid.M} elements on [0, {grid.T:.17g}]")
    return grid, data[:, 1:1 + n], data[:, 1 + n:]


def write_trajectory(path, traj: Trajectory) -> str:
    return _write_table(path, ("x", "v"), traj.grid, traj.x, traj.v)


def read_trajectory(path) -> Trajectory:
    return Trajectory(*_read_table(path, Path(path).read_text().splitlines(), ("x", "v")))


def write_dual_field(path, D: DualField) -> str:
    return _write_table(path, ("gamma", "lambda"), D.grid, D.gamma, D.lam)


def read_dual_field(path) -> DualField:
    return DualField(*_read_table(path, Path(path).read_text().splitlines(),
                                  ("gamma", "lambda")))


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class RunReport:
    """Structured outcome of one run: metadata, convergence, files."""

    mode: str
    config_name: str
    config_hash: str
    seed: int
    wall_time_s: float
    convergence: dict | None
    verification: dict | None
    manifest: dict

    def to_text(self) -> str:
        lines = [
            "[run]",
            f"mode = {self.mode}",
            f"config = {self.config_name}",
            f"config_hash = {self.config_hash}",
            f"seed = {self.seed}",
            f"wall_time_s = {self.wall_time_s:.3f}",
        ]
        for title, body in (("convergence", self.convergence),
                            ("verification", self.verification)):
            if body is None:
                continue
            lines.append(f"[{title}]")
            lines.extend(f"{key} = {_fmt_value(value)}"
                         for key, value in body.items())
        lines.append("[manifest]")
        lines.extend(f"{name} = sha256:{digest}"
                     for name, digest in sorted(self.manifest.items()))
        return "\n".join(lines) + "\n"


def parse_report(path) -> dict:
    """Report text back as {section: {key: value-string}}."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        current[key] = value
    return sections


def _dual_max(D: DualField) -> float:
    return float(max(np.max(np.abs(D.gamma)), np.max(np.abs(D.lam))))


def _verification_dict(report) -> dict:
    body = asdict(report)
    if body["oracle_deviation_max"] is None:
        del body["oracle_deviation_max"]
    return body


def run_one(config_path, out_dir, sets=(), mode: str | None = None) -> int:
    """Execute one scenario; emit its files; map outcomes to exit codes."""
    out = Path(out_dir)
    started = time.perf_counter()
    code, convergence, verification, manifest = 0, None, None, {}
    stage, made, cfg = "base-state", False, None
    # far from the dual maximum (an extreme base or mass, say) the mapped
    # state overflows; the solver's finite checks and exit 3 report such a
    # run, so numpy's overflow warnings are silenced here, once
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            try:
                cfg = load_config(config_path, sets=sets, mode=mode)
                opts = cfg.solver_options()
                if cfg.mode == "simulate":
                    x0, v0 = cfg._initial("mode simulate")
                    sim_params, sim_grid = cfg.chain_params(), cfg.grid()
                else:
                    spec, oracle, settling = cfg._problem()
                made = _make_out(out)
            except (ValueError, OSError) as exc:  # OSError: --out cannot be a directory
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            if cfg.mode == "simulate":
                stage = "direct"
                traj = integrate_primal(sim_params, x0, v0, sim_grid, method=cfg.method)
            else:
                stage = "dual-solve"
                sol = solve_dual(spec, opts)
                convergence = {**(settling or {}),
                               **_convergence_dict(sol)}
                stage = "direct"
                if cfg.mode == "verify" and oracle is None:
                    oracle = integrate_primal(spec.params, spec.x0, spec.v0,
                                              spec.grid.refined(_ORACLE_REFINE),
                                              method=cfg.method).restrict(_ORACLE_REFINE)
                traj = recover_primal(sol, spec)
            # a run sharing --out may have removed it, empty, at its exit 4
            out.mkdir(parents=True, exist_ok=True)
            if cfg.mode == "dual-solve":
                name = f"{cfg.prefix}_dual.txt"
                manifest[name] = write_dual_field(out / name, sol.D)
            if cfg.mode != "verify":
                name = f"{cfg.prefix}_trajectory.txt"
                manifest[name] = write_trajectory(out / name, traj)
            if cfg.mode != "simulate":
                verification = _verification_dict(verify(sol, spec, traj, oracle=oracle))
                code = 0 if sol.converged else 3
        except (SingularStiffnessError, SingularSystemError) as exc:
            print(f"numerical singularity: {exc}", file=sys.stderr)
            if made:  # an exit 4 writes nothing; an --out it made goes, if still empty
                with contextlib.suppress(OSError):
                    out.rmdir()
            return 4
        except IntegrationBlowUpError as exc:
            print(f"{stage} integration diverged: {exc}", file=sys.stderr)
            code = 3
        except UnsettledBaseError as exc:
            print(f"{stage} did not settle: {exc}", file=sys.stderr)
            code, convergence = 3, exc.settling
        except MemoryError:
            if cfg is None:  # reading the config itself: no chain to name
                raise
            print(f"{stage} stage ran out of memory at chain.n = {cfg.n}", file=sys.stderr)
            code = 3

    if cfg.mode != "simulate":
        report = RunReport(
            mode=cfg.mode, config_name=cfg.name,
            config_hash=cfg.semantic_hash(), seed=cfg.seed,
            wall_time_s=time.perf_counter() - started,
            convergence=convergence, verification=verification,
            manifest=manifest,
        )
        try:
            out.mkdir(parents=True, exist_ok=True)  # none yet after a base-stage exit 3
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        (out / f"{cfg.prefix}_report.txt").write_text(report.to_text())
    if code == 3 and verification is not None:  # the solver's own exit 3
        print(f"{cfg.name}: solver did not converge (report written)",
              file=sys.stderr)
    return code


def _make_out(out: Path) -> bool:
    """Make the --out directory and its missing parents; whether this call
    made it, which only one of the runs sharing it does.  The OSError of
    `Path.mkdir` where it cannot be a directory."""
    try:
        out.mkdir(parents=True)
    except FileExistsError:
        if not out.is_dir():
            raise
        return False
    return True


def _convergence_dict(sol) -> dict:
    return {
        "converged": bool(sol.converged),
        "iterations": int(sol.iterations),
        "initial_residual": float(sol.residual_history[0]),
        "final_residual": float(sol.residual_history[-1]),
        "dual_max": _dual_max(sol.D),
    }


def _run_spawned(tasks, workers: int) -> list:
    """`run_one` over ``tasks`` in spawned worker processes.

    A spawned worker loads numpy afresh, so its BLAS reads its thread count
    from the environment it inherits.  N workers on N cores keep every core
    busy already, and a BLAS pool in each would oversubscribe them, so each
    starts with one thread unless the user set OPENBLAS_NUM_THREADS.  This
    process's environment is restored afterwards.
    """
    import multiprocessing  # here, so that a run without --jobs loads no process pool
    from concurrent.futures import ProcessPoolExecutor

    user_set = "OPENBLAS_NUM_THREADS" in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(run_one, *zip(*tasks)))
    finally:
        if not user_set:
            del os.environ["OPENBLAS_NUM_THREADS"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualchain",
        description="Simulate, dual-solve, and verify damped forced particle "
                    "chains from scenario configs.")
    parser.add_argument("mode", nargs="?", choices=MODES, default=None,
                        help="run mode; overrides the config's [run] mode")
    parser.add_argument("--config", action="append", required=True,
                        dest="configs", metavar="PATH",
                        help="scenario config (repeatable)")
    parser.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run multiple configs in parallel")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    configs = [Path(p) for p in args.configs]
    out = Path(args.out)
    # several scenarios fan out into isolated per-config directories, one
    # per file stem, so two files with one stem would overwrite each other
    stems = [p.stem for p in configs]
    clash = next((stem for stem in stems if stems.count(stem) > 1), None)
    if clash is not None:
        parser.error(f"two --config files share the stem {clash!r}, "
                     f"so their runs would share the directory {out / clash}")
    dirs = [out / stem for stem in stems] if len(configs) > 1 else [out]
    tasks = [(cfg, str(dest), tuple(args.sets), args.mode)
             for cfg, dest in zip(configs, dirs)]

    if args.jobs == 1 or len(tasks) == 1:
        codes = [run_one(*task) for task in tasks]
    else:
        codes = _run_spawned(tasks, min(args.jobs, len(tasks)))
    for cfg, code in zip(configs, codes):
        print(f"{cfg.stem}: exit {code}")
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
