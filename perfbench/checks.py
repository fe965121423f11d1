"""Output checks that do not rely on the program's own solvers.

The oracle is a fourth-order Runge-Kutta integration written here, on a
grid ten times finer than the run's, of the chain described by the config
file as this module parses it.  Checks read only the files a run wrote.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ORACLE_REFINE = 10
# deviation allowed from the oracle, per h^2 of the run's grid: the dual
# discretisation is second order, and no scenario the workloads run measures
# more than 1.52 h^2 (periodic_forced_n4 at M = 100; the rest stay under 0.53)
DEVIATION_PER_H2 = 5.0


class CheckError(Exception):
    """An output of the program failed a check."""


@dataclass(frozen=True)
class Chain:
    """The parts of a scenario config the oracle needs."""

    n: int
    m: float
    d: float
    C: np.ndarray
    A: np.ndarray
    B: np.ndarray
    sinusoids: tuple  # (particle index from 0, amplitude, omega, phase)
    T: float
    M: int
    x0: np.ndarray | None
    v0: np.ndarray | None

    @property
    def h(self) -> float:
        return self.T / self.M

    def forcing(self, t: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(t) + (self.n,))
        for j, a, w, p in self.sinusoids:
            out[..., j] += a * np.cos(w * t + p)
        return out


def read_config(path, sets=()) -> dict:
    """{(section, key): [values]} of a scenario config, ``--set`` applied."""
    values: dict[tuple, list] = {}
    section = None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line.strip("[]").strip()
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        values.setdefault((section, key), []).append(value)
    for assignment in sets:
        target, value = assignment.split("=", 1)
        section, key = target.split(".", 1)
        values[(section, key)] = [value]
    return values


def parse_chain(path, sets=()) -> Chain:
    """The chain, grid and initial state a scenario config describes."""
    values = read_config(path, sets)
    if ("forcing", "table") in values:
        raise CheckError(f"{path}: the oracle does not read forcing tables")

    def floats(section, key):
        return np.array([float(tok) for chunk in values.get((section, key), [])
                         for tok in chunk.split()])

    n = int(values[("chain", "n")][0])
    C = floats("chain", "C") if ("chain", "C") in values else np.zeros(n)
    B = np.zeros((n, n, n))
    for chunk in values.get(("chain", "B"), []):
        j, r, s, val = chunk.split()
        j, r, s = int(j) - 1, int(r) - 1, int(s) - 1
        B[j, r, s] = B[j, s, r] = float(val)
    sinusoids = []
    for chunk in values.get(("forcing", "sinusoid"), []):
        j, a, w, p = chunk.split()
        sinusoids.append((int(j) - 1, float(a), float(w), float(p)))
    for chunk in values.get(("forcing", "constant"), []):
        j, a = chunk.split()
        sinusoids.append((int(j) - 1, float(a), 0.0, 0.0))
    has_x0 = ("initial", "x0") in values
    return Chain(
        n=n, m=float(values[("chain", "m")][0]), d=float(values[("chain", "d")][0]),
        C=C, A=floats("chain", "A").reshape(n, n), B=B, sinusoids=tuple(sinusoids),
        T=float(values[("grid", "T")][0]), M=int(values[("grid", "M")][0]),
        x0=floats("initial", "x0") if has_x0 else None,
        v0=floats("initial", "v0") if has_x0 else None,
    )


def rk4_oracle(chains, x0s, v0s):
    """Positions and velocities on the run's nodes, integrated on a grid
    ORACLE_REFINE times finer from (x0, v0) at t = 0, for a batch of chains
    that share everything but their forcing.  Returns positions and
    velocities, each of shape (batch, M + 1, n)."""
    c = chains[0]
    batch, n = len(chains), c.n
    steps = c.M * ORACLE_REFINE
    h = c.T / steps
    t = np.arange(steps + 1) * h
    # (f - C) / m at nodes and midpoints, per chain
    g_nodes = (np.stack([ch.forcing(t) for ch in chains], axis=1) - c.C) / c.m
    g_mid = (np.stack([ch.forcing(t[:-1] + 0.5 * h) for ch in chains], axis=1) - c.C) / c.m
    # acceleration = g - [x v] @ lin - (x outer x) @ quad
    lin = np.vstack([c.A.T, c.d * np.eye(n)]) / c.m
    quad = 0.5 * c.B.reshape(n, -1).T / c.m

    def accel(y, g):
        x = y[:, :n]
        return g - y @ lin - (x[:, :, None] * x[:, None, :]).reshape(batch, -1) @ quad

    ys = np.empty((batch, c.M + 1, 2 * n))
    y = np.concatenate([np.array(x0s, dtype=float), np.array(v0s, dtype=float)], axis=1)
    ys[:, 0] = y
    k = np.empty_like(y)
    for i in range(steps):
        # k_j = (velocity, acceleration) at each stage; y advances by h/6 sums
        k[:, :n], k[:, n:] = y[:, n:], accel(y, g_nodes[i])
        acc = k.copy()
        mid = y + 0.5 * h * k
        k[:, :n], k[:, n:] = mid[:, n:], accel(mid, g_mid[i])
        acc += 2.0 * k
        mid = y + 0.5 * h * k
        k[:, :n], k[:, n:] = mid[:, n:], accel(mid, g_mid[i])
        acc += 2.0 * k
        mid = y + h * k
        k[:, :n], k[:, n:] = mid[:, n:], accel(mid, g_nodes[i + 1])
        acc += k
        y = y + (h / 6.0) * acc
        if (i + 1) % ORACLE_REFINE == 0:
            ys[:, (i + 1) // ORACLE_REFINE] = y
    if not np.all(np.isfinite(ys)):
        raise CheckError("oracle integration diverged")
    return ys[:, :, :n], ys[:, :, n:]


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def parse_report(path) -> dict:
    """{section: {key: value}} of a report file."""
    out: dict[str, dict[str, str]] = {}
    current = None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = out.setdefault(line[1:-1], {})
        elif "=" in line and current is not None:
            key, value = (part.strip() for part in line.split("=", 1))
            current[key] = value
    return out


class Checker:
    """Checks the outputs of runs that exited 0.

    Oracle results are cached by the digest of what they are compared with,
    so passes that rewrite identical files cost nothing to check again.
    """

    def __init__(self, read_trajectory):
        self._read_trajectory = read_trajectory
        self._cache: dict[tuple, float] = {}

    def check(self, done) -> list:
        """``done`` lists (scenario, output dir) pairs.  Returns, in that
        order, each run's deviation from the oracle relative to the
        oracle's largest |x| or |v|, or the CheckError it failed with."""
        results: list = [None] * len(done)
        groups: dict[tuple, list] = {}
        first: dict[tuple, int] = {}  # key -> index of its first unchecked run
        repeats: list[tuple] = []
        for i, (scenario, out_dir) in enumerate(done):
            try:
                job = self._inspect(scenario, Path(out_dir))
            except CheckError as err:
                results[i] = err
                continue
            if job["key"] in self._cache:
                results[i] = self._cache[job["key"]]
                continue
            if job["key"] in first:
                # identical output to a run already waiting for the oracle
                repeats.append((i, first[job["key"]]))
                continue
            first[job["key"]] = i
            c = job["chain"]
            table = (c.n, c.m, c.d, c.T, c.M, c.C.tobytes(), c.A.tobytes(), c.B.tobytes())
            groups.setdefault(table, []).append((i, job))
        for members in groups.values():
            jobs = [job for _, job in members]
            try:
                xs, vs = rk4_oracle([j["chain"] for j in jobs],
                                    [j["x0"] for j in jobs], [j["v0"] for j in jobs])
            except CheckError as err:
                for i, _ in members:
                    results[i] = err
                continue
            for (i, job), x, v in zip(members, xs, vs):
                results[i] = self._judge(job, x, v)
        for i, j in repeats:
            results[i] = results[j]
        return results

    def _inspect(self, scenario, out_dir: Path) -> dict:
        stem = Path(scenario.config).stem
        report_path = out_dir / f"{stem}_report.txt"
        if not report_path.exists():
            raise CheckError(f"{scenario.name}: no report written")
        report = parse_report(report_path)
        if report.get("convergence", {}).get("converged") != "true":
            raise CheckError(f"{scenario.name}: report does not say converged = true")
        digests = {}
        for name, value in report.get("manifest", {}).items():
            path = out_dir / name
            digest = sha256_file(path) if path.exists() else "missing"
            if value != f"sha256:{digest}":
                raise CheckError(f"{scenario.name}: manifest digest of {name} "
                                 f"does not match the file")
            digests[name] = digest
        chain = parse_chain(scenario.config, scenario.sets)
        job = {"scenario": scenario, "chain": chain, "x0": chain.x0, "v0": chain.v0}
        if scenario.mode == "verify":
            try:
                job["deviation"] = float(report["verification"]["oracle_deviation_max"])
            except (KeyError, ValueError):
                raise CheckError(f"{scenario.name}: report gives no oracle deviation") from None
            compared = report["verification"]["oracle_deviation_max"]
        else:
            name = f"{stem}_trajectory.txt"
            if name not in digests:
                raise CheckError(f"{scenario.name}: manifest lists no {name}")
            traj = self._read_trajectory(out_dir / name)
            if traj.x.shape != (chain.M + 1, chain.n):
                raise CheckError(f"{scenario.name}: trajectory has shape {traj.x.shape}, "
                                 f"expected {(chain.M + 1, chain.n)}")
            job["traj"] = traj
            compared = digests[name]
            if scenario.mode == "periodic":
                # one period from the orbit's own first node must retrace it
                job["x0"], job["v0"] = traj.x[0], traj.v[0]
        job["key"] = (compared, str(scenario.config), scenario.sets)
        return job

    def _judge(self, job, xs, vs):
        traj = job.get("traj")
        if traj is None:
            deviation = job["deviation"]
        else:
            deviation = float(max(np.max(np.abs(traj.x - xs)),
                                   np.max(np.abs(traj.v - vs))))
        tol = DEVIATION_PER_H2 * job["chain"].h ** 2
        if not deviation <= tol:
            return CheckError(f"{job['scenario'].name}: oracle deviation "
                              f"{deviation:.3e} exceeds {tol:.3e}")
        relative = deviation / float(max(np.max(np.abs(xs)), np.max(np.abs(vs))))
        self._cache[job["key"]] = relative
        return relative
