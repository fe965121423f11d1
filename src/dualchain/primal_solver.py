"""Direct fixed-step integration of the chain dynamics plus the diagnostics
used to judge any trajectory against the equations of motion.

The state is (x, v) with m v' + d v + K(x) = f(t) and x' = v.  Two fixed-step
schemes are provided: classical rk4 and the implicit midpoint rule.  Nodal
rates follow one rule, `_time_derivative`, which both the residuals here and
the primal recovery from a dual solution use.  Trajectories, like every
array the package takes from its caller, pass `chain_model._freeze_arrays`,
and the initial state `chain_model._check_state`.

Both integrators silence numpy's overflow warnings and raise
`IntegrationBlowUpError` at the step that overflows; elsewhere overflow
follows numpy's default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import (ChainParams, _check_state, _count, _freeze_arrays, _positive,
                          eval_force, eval_forcing, force_jacobian)

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
        object.__setattr__(self, "T", _positive("T", self.T))
        object.__setattr__(self, "M", _count("M", self.M))

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
        _freeze_arrays(self, ("x", "v"), self.grid.M + 1, None)

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


def integrate_primal(params: ChainParams, x0, v0, grid: TimeGrid,
                     method: str = "rk4") -> Trajectory:
    """Integrate the chain from (x0, v0) over ``grid``.

    method: "rk4" (classical fixed-step) or "implicit-midpoint" (per-step
    Newton, tolerance 1e-12, at most 20 iterations; exact in one Newton
    iteration when the force is linear).  A step that cannot be completed,
    by a non-finite state or a stalled Newton iteration, raises
    IntegrationBlowUpError.
    """
    x0 = _check_state("x0", x0, (params.n,))
    v0 = _check_state("v0", v0, (params.n,))
    if method == "rk4":
        return _integrate_rk4(params, x0, v0, grid)
    if method == "implicit-midpoint":
        return _integrate_midpoint(params, x0, v0, grid)
    raise ValueError(f"unknown method {method!r}; use {' or '.join(map(repr, METHODS))}")


# steps the stage maps take between two checks of their bound; every step
# does the same arithmetic whatever the block, so only the step at which a
# diverging run leaves the maps depends on it
RK4_BLOCK = 256
# a block stays on the stage maps only while every intermediate of its steps
# is bounded below this, far enough under the largest float that no order
# of the same sums overflows
_RK4_LIMIT = 1e300
# an implicit midpoint step's Newton iteration: its residual bound, relative
# to 1 + |z|, and the iterations it gets before the step stalls
_MIDPOINT_TOL, _MIDPOINT_NEWTON = 1e-12, 20


def _integrate_rk4(params, x0, v0, grid):
    # The stacked state z = [x, v] obeys mass * z' = W [z, P] + [0, g(t)],
    # with mass = [1, m], g = f - C and P[j, r] = (B x)[j, r] x_r, whose
    # row sums are B : x x.  W = [[0, I, 0], [-A, -d I, -S/2]], S summing
    # each row of P.  The stage maps take the same rate from the outer
    # product Y = x x^T instead, with -B/2 (B flattened to n x n^2) in
    # place of -S/2: each entry of Y is one exact product, formed by one
    # BLAS call, and B's contraction folds into the maps.  With r = mass
    # times the first stage rate, every later stage input is z plus a
    # linear map of r, the differences Y_i - Y_1 and the forcing's
    # increments over the step, and so is the next state.  `_rk4_maps`
    # folds the rate operator, the mass and h into those maps once per
    # integration.  A quadratic step is 10 numpy calls: one copy of the
    # step's forcing increments and state, r, one product for each later
    # stage's x, one for each stage's Y, and the next state, which lands
    # straight in the block's staged array.  A linear chain's step is 3:
    # the copy, r, and z + h phi(hL) applied to the rate and the
    # increments, with R(hL) = I + hL phi(hL) the stability polynomial.
    # z enters every map through an identity block, so a linear chain at
    # rest on an equilibrium under constant forcing stays there exactly, as
    # it does one stage at a time; R(hL) z beside the forcing's image would
    # cancel terms of size |R(hL)| |z| instead.
    #
    # The folded maps sum in another order, and their products can overflow
    # where the stage-at-a-time form stays finite.  So each block of
    # RK4_BLOCK steps is kept only while `_rk4_bound` of its largest state
    # stays below _RK4_LIMIT, which bounds the intermediates of both forms.
    # The first block that leaves the bound is redone, with the rest of the
    # run, by `_rk4_stages`, the plain stage-at-a-time loop over `_rate`
    # (the rate the implicit midpoint uses too), so a diverging run
    # overflows at the same step.
    n, M = params.n, grid.M
    C = params.force.C
    g_nodes = eval_forcing(params.forcing, grid.nodes()) - C
    g_mid = eval_forcing(params.forcing, grid.midpoints()) - C
    zs = np.empty((M + 1, 2 * n))
    zs[0, :n], zs[0, n:] = x0, v0
    W = _rate_operator(params)
    # overflow inside a diverging step is expected; the bound and the finite
    # check report it
    with np.errstate(over="ignore", invalid="ignore"):
        k = _rk4_by_maps(params, W, grid.h, g_nodes, g_mid, zs)
        if k < M:
            _rk4_stages(params, W, grid.h, g_nodes, g_mid, zs, k)
    return Trajectory(grid, zs[:, :n], zs[:, n:])


def _rate_operator(params):
    """W, with mass * z' = W [z, P] + [0, g]; no P columns for a linear force."""
    n, force = params.n, params.force
    nq = n * n if force.has_quadratic else 0
    W = np.zeros((2 * n, 2 * n + nq))
    W[:n, n:2 * n] = np.eye(n)
    W[n:, :n] = -force.A
    W[n:, n:2 * n] = -params.d * np.eye(n)
    if nq:
        W[n:, 2 * n:] = np.kron(np.eye(n), np.full(n, -0.5))
    return W


def _rk4_maps(params, W, h):
    """The maps of one RK4 step on u = [dq_2, dq_4, g_1, z, Y_1, r, Y_2,
    Y_3, Y_4], where g_1 = g(t_k), dq_2 = g(t_k + h/2) - g_1, dq_4 =
    g(t_k + h) - g_1 and Y_i = x_i x_i^T at stage i's positions x_i.

    Returns R, giving r from [g_1, z, Y_1]; T_2, T_3, T_4, each giving the
    x part of a stage input from the columns of u before Y_i (the only ones
    it reads); and Z, giving the next z from all of u.
    """
    n = params.n
    nq = W.shape[1] - 2 * n
    mass = np.repeat([1.0, params.m], n)[:, None]
    cols = np.eye(7 * n + 4 * nq)
    dq2, dq4, z = cols[:n], cols[n:2 * n], cols[3 * n:5 * n]
    Y1, r = cols[5 * n:5 * n + nq], cols[5 * n + nq:7 * n + nq]
    Y2, Y3, Y4 = (cols[7 * n + i * nq:7 * n + (i + 1) * nq] for i in (1, 2, 3))
    # mass * z' = Wz z + Wy Y + [0, g]: -B/2 where W sums the rows of P
    Wz, Wy = W[:, :2 * n], np.zeros((2 * n, nq))
    if nq:
        Wy[n:] = -0.5 * params.force.B_flat

    def rate(dy, Y, dq):
        # mass times the rate at z + dy, Y and g_1 + dq: r plus the change
        k = r + Wz @ dy + Wy @ (Y - Y1)
        k[n:] += dq
        return k / mass

    k1 = r / mass
    k2 = rate(0.5 * h * k1, Y2, dq2)
    k3 = rate(0.5 * h * k2, Y3, dq2)
    k4 = rate(h * k3, Y4, dq4)
    R = np.zeros((2 * n, 3 * n + nq))
    R[n:, :n] = np.eye(n)
    R[:, n:3 * n] = Wz
    R[:, 3 * n:] = Wy
    T = [(z + c * k)[:n, :width] for c, k, width in
         ((0.5 * h, k1, 7 * n + nq), (0.5 * h, k2, 7 * n + 2 * nq), (h, k3, 7 * n + 3 * nq))]
    Z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return tuple(np.ascontiguousarray(a) for a in [R, *T, Z])


def _rk4_bound(s, h, a, b, c, beta, gamma, mu):
    """A bound on every intermediate of one RK4 step from a state of max
    norm s, in either form: the stage inputs and their distance from z,
    the stage loop's B x and P, the maps' Y, the rates, the weighted stage
    sum and the next state.  a is the max norm of W's z columns, b and c
    those of W's P columns and of the maps' Y columns, beta bounds
    |B x| / |x|, gamma bounds |g| and mu is the smaller mass.  A chain
    with B forms Y, whose entries are at most y^2 at a stage input of max
    norm y.  Returns the sum of the bounds, which is nan for a nan s.  A
    map's terms are the terms of the stages it composes, so its partial
    sums obey the same bounds."""

    def products(y):
        # the entries of P and Y at a stage input of max norm y, and a
        # bound on their image in a rate in either form
        p = beta * y * y
        yy = y * y if beta else 0.0
        return p + yy, max(b * p, c * yy)

    q1, w1 = products(s)
    r = a * s + w1 + gamma
    k = r / mu
    total = s + beta * s + q1 + r + k
    stage_sum = k
    for step, weight in ((0.5 * h, 2.0), (0.5 * h, 2.0), (h, 1.0)):
        dy = step * k
        y = s + dy
        q, w = products(y)
        k = (r + a * dy + w + w1 + 2.0 * gamma) / mu
        stage_sum += weight * k
        total += dy + y + beta * y + q + k
    return total + stage_sum * (1.0 + h / 6.0)


def _rk4_by_maps(params, W, h, g_nodes, g_mid, zs) -> int:
    """RK4 steps on the maps of `_rk4_maps` from zs[0], RK4_BLOCK at a
    time, into zs; returns the first step of the block that left the bound,
    or M when none did."""
    n, M = params.n, g_mid.shape[0]
    force = params.force
    nq = W.shape[1] - 2 * n
    gains = (np.abs(W[:, :2 * n]).sum(axis=1).max(),
             np.abs(W[:, 2 * n:]).sum(axis=1).max(),
             0.5 * np.abs(force.B_flat).sum(axis=1).max(),
             np.abs(force.B).sum(axis=2).max(),
             max(np.abs(g_nodes).max(), np.abs(g_mid).max()),
             min(1.0, params.m))

    def bounded(states):
        return _rk4_bound(float(np.max(np.abs(states))), h, *gains) <= _RK4_LIMIT

    if not bounded(zs[0]):
        return 0
    R, T2, T3, T4, Z = _rk4_maps(params, W, h)
    u = np.zeros(Z.shape[1])
    staged, x1 = u[:5 * n], u[3 * n:4 * n]
    rate_in, r = u[2 * n:5 * n + nq], u[5 * n + nq:7 * n + nq]
    Y1 = u[5 * n:5 * n + nq].reshape(-1, n)
    Y2, Y3, Y4 = (u[7 * n + i * nq:7 * n + (i + 1) * nq].reshape(-1, n) for i in (1, 2, 3))
    u2, u3, u4 = (u[:a.shape[1]] for a in (T2, T3, T4))
    x2, x3, x4 = np.empty((3, n))
    # each stage's x as a column and as a row, whose product is its Y
    (c1, r1), (c2, r2), (c3, r3), (c4, r4) = ((x[:, None], x[None, :]) for x in (x1, x2, x3, x4))
    sub, dot = np.subtract, np.dot

    for k0 in range(0, M, RK4_BLOCK):
        L = min(RK4_BLOCK, M - k0)
        # row i is [dq_2, dq_4, g_1, z] of step k0 + i; Z writes z of row i + 1
        S = np.empty((L + 1, 5 * n))
        g1 = g_nodes[k0:k0 + L]
        sub(g_mid[k0:k0 + L], g1, out=S[:L, :n])
        sub(g_nodes[k0 + 1:k0 + L + 1], g1, out=S[:L, n:2 * n])
        S[:L, 2 * n:3 * n] = g1
        S[0, 3 * n:] = zs[k0]
        for row, z_next in zip(S[:L], S[1:, 3 * n:]):
            staged[:] = row
            if nq:
                dot(c1, r1, out=Y1)
            dot(R, rate_in, out=r)
            if nq:
                dot(T2, u2, out=x2)
                dot(c2, r2, out=Y2)
                dot(T3, u3, out=x3)
                dot(c3, r3, out=Y3)
                dot(T4, u4, out=x4)
                dot(c4, r4, out=Y4)
            dot(Z, u, out=z_next)
        zs[k0 + 1:k0 + L + 1] = S[1:, 3 * n:]
        if not bounded(zs[k0 + 1:k0 + L + 1]):
            return k0
    return M


def _rate(params, W, z, g):
    """The rate of the stacked state z at g = f - C, one stage at a time:
    mass times it is W [z, P] + [0, g], summed as f - K(x) - d v: the whole
    force first, then the damping, so a velocity far below the force's
    rounding level still drives the rate.  B meets x before x again, and
    the mass divides last."""
    n = params.n
    x, v = z[:n], z[n:]
    force = W[n:, :n] @ x
    if W.shape[1] > 2 * n:
        P = (params.force.B.reshape(n * n, n) @ x).reshape(n, n) * x
        force += W[n:, 2 * n:] @ P.ravel()
    return np.concatenate([v, ((g + force) - params.d * v) / params.m])


def _rk4_stages(params, W, h, g_nodes, g_mid, zs, start):
    """RK4 one stage at a time from zs[start] to the end of zs; raises
    IntegrationBlowUpError at the first non-finite state.  With `_rate`'s
    order and the stage sum scaled by h/6 after it is added up, every
    intermediate has the size the stage-at-a-time form gives it."""
    for k in range(start, g_mid.shape[0]):
        z = zs[k]
        k1 = _rate(params, W, z, g_nodes[k])
        k2 = _rate(params, W, z + 0.5 * h * k1, g_mid[k])
        k3 = _rate(params, W, z + 0.5 * h * k2, g_mid[k])
        k4 = _rate(params, W, z + h * k3, g_nodes[k + 1])
        zs[k + 1] = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(zs[k + 1])):
            raise IntegrationBlowUpError(step=k + 1, t=(k + 1) * h)


def _integrate_midpoint(params, x0, v0, grid):
    n, m, h = params.n, params.m, grid.h
    g_mid = eval_forcing(params.forcing, grid.midpoints()) - params.force.C
    W = _rate_operator(params)
    eye = np.eye(2 * n)
    # the Jacobian of the rate; only its force block changes with the state
    jac_f = W[:, :2 * n] / np.repeat([1.0, m], n)[:, None]
    zs = np.empty((grid.M + 1, 2 * n))
    zs[0, :n], zs[0, n:] = x0, v0
    # overflow inside a diverging step is expected; the finite checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.M):
            z, g = zs[k], g_mid[k]
            z_new = z + h * _rate(params, W, z, g)  # explicit predictor
            ok = False
            for _ in range(_MIDPOINT_NEWTON):
                if not np.all(np.isfinite(z_new)):
                    break
                zm = 0.5 * (z + z_new)
                res = z_new - z - h * _rate(params, W, zm, g)
                if np.max(np.abs(res)) <= _MIDPOINT_TOL * (1.0 + np.max(np.abs(z_new))):
                    ok = True
                    break
                jac_f[n:, :n] = -force_jacobian(params.force, zm[:n]) / m
                z_new = z_new + np.linalg.solve(eye - 0.5 * h * jac_f, -res)
            if not np.all(np.isfinite(z_new)):
                raise IntegrationBlowUpError(step=k + 1, t=(k + 1) * h)
            if not ok:
                raise IntegrationBlowUpError(step=k + 1, t=(k + 1) * h,
                                             what="implicit midpoint Newton stalled")
            zs[k + 1] = z_new
    return Trajectory(grid, zs[:, :n], zs[:, n:])


def _time_derivative(values: np.ndarray, h: float, periodic: bool = False) -> np.ndarray:
    """Second-order nodal rates from the element rates (differences over h):
    their mean inside (the central difference), linear extrapolation of the
    two nearest at the ends (the one-sided three-point formula), the one
    element rate at M = 1.  Periodic values (node M repeats node 0) get the
    cyclic central difference at nodes 0..M-1 only.  Primal recovery and
    `primal_residual` both take their rates from here."""
    if periodic:
        vals = values[:-1]
        return (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2.0 * h)
    elem = np.diff(values, axis=0) / h
    out = np.empty_like(values)
    out[1:-1] = 0.5 * (elem[:-1] + elem[1:])
    if elem.shape[0] >= 2:
        out[0] = 1.5 * elem[0] - 0.5 * elem[1]
        out[-1] = 1.5 * elem[-1] - 0.5 * elem[-2]
    else:
        out[0] = out[-1] = elem[0]
    return out


def primal_residual(traj: Trajectory, params: ChainParams):
    """Per-node residual max-norms of the equations of motion.

    Returns (momentum, kinematic): length M+1 arrays with
    momentum[k] = |m v' + d v + K(x) - f(t)|_inf and kinematic[k] = |x' - v|_inf,
    time derivatives by `_time_derivative`'s second-order rule (one-sided at
    the ends), the rule primal recovery uses.
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
