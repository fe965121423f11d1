"""Direct fixed-step integration of the chain dynamics plus the diagnostics
used to judge any trajectory against the equations of motion.

The state is (x, v) with m v' + d v + K(x) = f(t) and x' = v.  Two fixed-step
schemes are provided: classical rk4 and the implicit midpoint rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import ChainParams, eval_force, eval_forcing, force_jacobian

__all__ = [
    "TimeGrid",
    "Trajectory",
    "IntegrationBlowUpError",
    "NonGradientForceError",
    "integrate_primal",
    "primal_residual",
    "energy_series",
]

# the names integrate_primal accepts for its ``method``
METHODS = ("rk4", "implicit-midpoint")


class IntegrationBlowUpError(RuntimeError):
    """Integration could not take a step: the state became non-finite, or
    an implicit step's Newton iteration stalled.  Carries the failing step."""

    def __init__(self, step: int, t: float, what: str = "state became non-finite"):
        super().__init__(f"{what} at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


class NonGradientForceError(ValueError):
    """Raised when an energy is requested for a force with no potential."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of M elements on [0, T]; nodes t_k = k T / M."""

    T: float
    M: int

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive")
        if not isinstance(self.M, (int, np.integer)) or self.M < 1:
            raise ValueError("M must be a positive integer")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "M", int(self.M))

    @property
    def h(self) -> float:
        return self.T / self.M

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)

    def midpoints(self) -> np.ndarray:
        t = self.nodes()
        return 0.5 * (t[:-1] + t[1:])

    def refined(self, factor: int) -> "TimeGrid":
        if factor < 1:
            raise ValueError("refinement factor must be >= 1")
        return TimeGrid(self.T, self.M * int(factor))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled positions and velocities on a TimeGrid, shape (M+1, n)."""

    grid: TimeGrid
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        v = np.array(self.v, dtype=float)
        want = (self.grid.M + 1,)
        if x.ndim != 2 or v.shape != x.shape or x.shape[:1] != want:
            raise ValueError(
                f"x and v must both have shape ({self.grid.M + 1}, n), got {x.shape} and {v.shape}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("trajectory samples must be finite")
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def restrict(self, factor: int) -> "Trajectory":
        """Keep every factor-th sample; grid.M must be divisible by factor."""
        factor = int(factor)
        if factor < 1 or self.grid.M % factor:
            raise ValueError("factor must divide the number of elements")
        coarse = TimeGrid(self.grid.T, self.grid.M // factor)
        return Trajectory(coarse, self.x[::factor], self.v[::factor])


def _check_state(name: str, a: np.ndarray, n: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def integrate_primal(params: ChainParams, x0, v0, grid: TimeGrid,
                     method: str = "rk4") -> Trajectory:
    """Integrate the chain from (x0, v0) over ``grid``.

    method: "rk4" (classical fixed-step) or "implicit-midpoint" (per-step
    Newton, tolerance 1e-12, at most 20 iterations; exact in one Newton
    iteration when the force is linear).  A step that cannot be completed,
    by a non-finite state or a stalled Newton iteration, raises
    IntegrationBlowUpError.
    """
    n = params.n
    x0 = _check_state("x0", x0, n)
    v0 = _check_state("v0", v0, n)
    if method == "rk4":
        return _integrate_rk4(params, x0, v0, grid)
    if method == "implicit-midpoint":
        return _integrate_midpoint(params, x0, v0, grid)
    raise ValueError(f"unknown method {method!r}; use {' or '.join(map(repr, METHODS))}")


def _integrate_rk4(params, x0, v0, grid):
    # The stacked state z = [x, v] obeys mass * z' = W [z, P] + g(t), with
    # mass = [1, m], g = [0, f - C] and P[j, r] = (B x)[j, r] x_r, whose
    # row sums are B : x x.  W = [[0, I, 0], [-A, -d I, -S/2]], S summing
    # each row of P.  Each stage writes its input state and P into one
    # buffer, so a stage rate is one matrix-vector product.  Contracting B
    # with x before multiplying by x again, dividing by the mass last, and
    # scaling the stage sum by h/6 after adding it up keep every
    # intermediate at the size the one-stage-at-a-time form gives it, so a
    # diverging run overflows at the same step.
    n, h, M = params.n, grid.h, grid.M
    force = params.force
    nq = n * n if force.has_quadratic else 0
    W = np.zeros((2 * n, 2 * n + nq))
    W[:n, n:2 * n] = np.eye(n)
    W[n:, :n] = -force.A
    W[n:, n:2 * n] = -params.d * np.eye(n)
    if nq:
        W[n:, 2 * n:] = np.kron(np.eye(n), np.full(n, -0.5))
    g_nodes = np.zeros((M + 1, 2 * n))
    g_nodes[:, n:] = eval_forcing(params.forcing, grid.nodes()) - force.C
    g_mid = np.zeros((M, 2 * n))
    g_mid[:, n:] = eval_forcing(params.forcing, grid.midpoints()) - force.C
    mass = np.repeat([1.0, params.m], n)

    buf = np.zeros(2 * n + nq)
    y, x = buf[:2 * n], buf[:n]
    P = buf[2 * n:].reshape(n, n) if nq else None
    B_jr_s = force.B.reshape(n * n, n)
    Bx = np.empty(n * n)
    Bx_jr = Bx.reshape(n, n)
    mul, add, div, dot = np.multiply, np.add, np.divide, np.dot

    def rate(g, out):
        if nq:
            dot(B_jr_s, x, out=Bx)
            mul(Bx_jr, x, out=P)
        div(add(W.dot(buf), g, out=out), mass, out=out)

    stages = np.empty((4, 2 * n))
    k1, k2, k3, k4 = stages
    weights = np.array([1.0, 2.0, 2.0, 1.0])
    tmp = np.empty(2 * n)
    # 0 * z is nan exactly where z is inf or nan, so z . 0 is finite exactly
    # when every entry of z is
    zero = np.zeros(2 * n)

    zs = np.empty((M + 1, 2 * n))
    zs[0, :n], zs[0, n:] = x0, v0
    # overflow inside a diverging step is expected; the finite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(M):
            z = zs[k]
            y[:] = z
            rate(g_nodes[k], k1)
            add(z, mul(k1, 0.5 * h, out=tmp), out=y)
            rate(g_mid[k], k2)
            add(z, mul(k2, 0.5 * h, out=tmp), out=y)
            rate(g_mid[k], k3)
            add(z, mul(k3, h, out=tmp), out=y)
            rate(g_nodes[k + 1], k4)
            z = add(z, mul(weights.dot(stages), h / 6.0, out=tmp), out=zs[k + 1])
            if not np.isfinite(z.dot(zero)):
                raise IntegrationBlowUpError(step=k + 1, t=(k + 1) * h)
    return Trajectory(grid, zs[:, :n], zs[:, n:])


def _integrate_midpoint(params, x0, v0, grid, tol=1e-12, max_newton=20):
    m, d = params.m, params.d
    n = params.n
    h = grid.h
    f_mid = eval_forcing(params.forcing, grid.midpoints())
    eye = np.eye(2 * n)

    xs = np.empty((grid.M + 1, n))
    vs = np.empty_like(xs)
    xs[0], vs[0] = x0, v0
    z = np.concatenate([x0, v0])
    # overflow inside a diverging step is expected; the finite checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.M):
            f = f_mid[k]

            def rhs(zm):
                xm, vm = zm[:n], zm[n:]
                a = (f - d * vm - eval_force(params.force, xm)) / m
                return np.concatenate([vm, a])

            z_new = z + h * rhs(z)  # explicit predictor
            ok = False
            for _ in range(max_newton):
                if not np.all(np.isfinite(z_new)):
                    break
                zm = 0.5 * (z + z_new)
                res = z_new - z - h * rhs(zm)
                if np.max(np.abs(res)) <= tol * (1.0 + np.max(np.abs(z_new))):
                    ok = True
                    break
                jac_f = np.zeros((2 * n, 2 * n))
                jac_f[:n, n:] = np.eye(n)
                jac_f[n:, :n] = -force_jacobian(params.force, zm[:n]) / m
                jac_f[n:, n:] = -(d / m) * np.eye(n)
                z_new = z_new + np.linalg.solve(eye - 0.5 * h * jac_f, -res)
            if not np.all(np.isfinite(z_new)):
                raise IntegrationBlowUpError(step=k + 1, t=(k + 1) * h)
            if not ok:
                raise IntegrationBlowUpError(step=k + 1, t=(k + 1) * h,
                                             what="implicit midpoint Newton stalled")
            z = z_new
            xs[k + 1], vs[k + 1] = z[:n], z[n:]
    return Trajectory(grid, xs, vs)


def _time_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """Second-order differences: central inside, one-sided at the ends."""
    dy = np.empty_like(y)
    dy[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    if y.shape[0] >= 3:
        dy[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
        dy[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    else:
        dy[0] = dy[-1] = (y[1] - y[0]) / h
    return dy


def primal_residual(traj: Trajectory, params: ChainParams):
    """Per-node residual max-norms of the equations of motion.

    Returns (momentum, kinematic): length M+1 arrays with
    momentum[k] = |m v' + d v + K(x) - f(t)|_inf and kinematic[k] = |x' - v|_inf,
    time derivatives by second-order differences (one-sided at the ends).
    """
    if traj.n != params.n:
        raise ValueError(f"trajectory has n={traj.n}, params have n={params.n}")
    h = traj.grid.h
    t = traj.grid.nodes()
    f = eval_forcing(params.forcing, t)
    dv = _time_derivative(traj.v, h)
    dx = _time_derivative(traj.x, h)
    mom = params.m * dv + params.d * traj.v + eval_force(params.force, traj.x) - f
    kin = dx - traj.v
    return np.max(np.abs(mom), axis=1), np.max(np.abs(kin), axis=1)


def _potential_or_raise(force):
    A, B = force.A, force.B
    atol_a = 1e-12 * (1.0 + np.max(np.abs(A)))
    if not np.allclose(A, A.T, rtol=0, atol=atol_a):
        raise NonGradientForceError("not a gradient force: A is not symmetric")
    atol_b = 1e-12 * (1.0 + np.max(np.abs(B)))
    for perm in ((1, 0, 2), (2, 1, 0)):
        if not np.allclose(B, np.transpose(B, perm), rtol=0, atol=atol_b):
            raise NonGradientForceError("not a gradient force: B is not fully symmetric")


def energy_series(traj: Trajectory, params: ChainParams) -> np.ndarray:
    """Total energy 1/2 m |v|^2 + V(x) at each node.

    Defined only when the force has a potential (A symmetric, B fully
    symmetric); otherwise raises NonGradientForceError.  With the stored
    coefficients, V(x) = C.x + 1/2 x.A x + 1/6 B : x x x.
    """
    if traj.n != params.n:
        raise ValueError(f"trajectory has n={traj.n}, params have n={params.n}")
    force = params.force
    _potential_or_raise(force)
    x, v = traj.x, traj.v
    pot = x @ force.C + 0.5 * np.einsum("ki,ij,kj->k", x, force.A, x)
    if force.has_quadratic:
        pot = pot + np.einsum("jrs,kj,kr,ks->k", force.B, x, x, x) / 6.0
    kin = 0.5 * params.m * np.sum(v * v, axis=1)
    return kin + pot
