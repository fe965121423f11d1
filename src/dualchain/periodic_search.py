"""Periodic-orbit variant of the dual problem: same element assembly with
cyclic index wrap, no boundary terms, node M identified with node 0.

The period is fixed to the grid span, which must be an integer number of
forcing periods; searching for orbits of unknown period is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .chain_model import ChainParams
from .dual_action import (
    DualField,
    ScaleParams,
    BaseState,
    _action_elements,
    _gradient_elements,
    _hessian_elements,
    _midpoint_data,
    dtp_map,
)
from .dual_solver import SingularSystemError, SolveOptions
from .primal_solver import TimeGrid, Trajectory

__all__ = [
    "PeriodicSpec",
    "PeriodicDualSolution",
    "solve_periodic",
    "recover_periodic_orbit",
]

_COND_LIMIT = 1e12


def _check_periodic_forcing(params: ChainParams, P: float) -> None:
    for j, s in params.forcing.sinusoids:
        if s.omega == 0.0:
            continue
        k = s.omega * P / (2.0 * np.pi)
        if abs(k - round(k)) > 1e-12 * max(1.0, abs(k)):
            raise ValueError(
                f"sinusoid on particle {j} has period {2 * np.pi / s.omega:.6g}, "
                f"which does not divide the orbit period {P:.6g}")
    for j, tab in params.forcing.tables:
        span_ok = (abs(tab.times[0]) <= 1e-12 * max(1.0, P)
                   and abs(tab.times[-1] - P) <= 1e-12 * max(1.0, P))
        if not span_ok:
            raise ValueError(f"table on particle {j} must cover exactly one period [0, {P:.6g}]")
        vtol = 1e-12 * (1.0 + float(np.max(np.abs(tab.values))))
        if abs(tab.values[0] - tab.values[-1]) > vtol:
            raise ValueError(f"table on particle {j} is not periodic (endpoint values differ)")


@dataclass(frozen=True, eq=False)
class PeriodicSpec:
    """Dual problem posed on one period with periodic multipliers.

    The grid spans one period P = grid.T; the forcing must be P-periodic and
    the base state must close up (first and last nodes equal).  There are no
    initial conditions.
    """

    params: ChainParams
    scales: ScaleParams
    base: BaseState
    grid: TimeGrid

    freeze_A = False  # origin-frame A is never frozen for orbits

    def __post_init__(self):
        if self.grid.M < 2:
            raise ValueError("periodic problems need at least M = 2 elements")
        if self.base.grid != self.grid:
            raise ValueError("base state must live on the problem grid")
        if self.base.n != self.params.n:
            raise ValueError(
                f"base state is for n={self.base.n} particles, params for n={self.params.n}")
        _check_periodic_forcing(self.params, self.grid.T)
        for name, arr in (("xbar", self.base.xbar), ("vbar", self.base.vbar)):
            tol = 1e-12 * (1.0 + float(np.max(np.abs(arr))))
            if np.max(np.abs(arr[0] - arr[-1])) > tol:
                raise ValueError(f"base {name} is not periodic (first and last nodes differ)")

    @property
    def n(self) -> int:
        return self.params.n


@dataclass(frozen=True, eq=False)
class PeriodicDualSolution:
    """Periodic dual iterate (node M duplicates node 0) plus diagnostics."""

    D: DualField
    converged: bool
    iterations: int
    residual_history: tuple


def _unpack_cyclic(grid: TimeGrid, n: int, u: np.ndarray) -> DualField:
    w = u.reshape(grid.M, 2 * n)
    gamma = np.concatenate([w[:, :n], w[:1, :n]], axis=0)
    lam = np.concatenate([w[:, n:], w[:1, n:]], axis=0)
    return DualField(grid, gamma, lam)


def _cyclic_parts(md, u):
    n = md.n
    w = u.reshape(md.M, 2 * n)
    ga, la = w[:, :n], w[:, n:]
    gb, lb = np.roll(ga, -1, axis=0), np.roll(la, -1, axis=0)
    return ga, la, gb, lb


def _action_cyclic(md, u) -> float:
    return _action_elements(md, *_cyclic_parts(md, u))


def _gradient_cyclic(md, u) -> np.ndarray:
    ga, la, gb, lb = _cyclic_parts(md, u)
    g_ga, g_la, g_gb, g_lb = _gradient_elements(md, ga, la, gb, lb)
    g_gamma = g_ga + np.roll(g_gb, 1, axis=0)
    g_lam = g_la + np.roll(g_lb, 1, axis=0)
    out = np.empty(2 * md.n * md.M)
    w = out.reshape(md.M, 2 * md.n)
    w[:, :md.n] = g_gamma
    w[:, md.n:] = g_lam
    return out


def _hessian_cyclic(md, u) -> scipy.sparse.csc_matrix:
    ga, la, gb, lb = _cyclic_parts(md, u)
    E = _hessian_elements(md, ga, la, gb, lb)
    M, b = md.M, 2 * md.n
    idx = np.arange(M)
    nxt = (idx + 1) % M
    p = np.arange(b)
    rows, cols, data = [], [], []
    for rblk, cblk, blocks in (
        (idx, idx, E[:, :b, :b]),
        (idx, nxt, E[:, :b, b:]),
        (nxt, idx, E[:, b:, :b]),
        (nxt, nxt, E[:, b:, b:]),
    ):
        rows.append((rblk[:, None, None] * b + p[None, :, None]
                     + np.zeros((1, 1, b), dtype=int)).ravel())
        cols.append((cblk[:, None, None] * b + p[None, None, :]
                     + np.zeros((1, b, 1), dtype=int)).ravel())
        data.append(blocks.ravel())
    H = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(M * b, M * b))
    return H.tocsc()


def _factorize_checked(H: scipy.sparse.csc_matrix):
    """Sparse LU plus a 1-norm condition estimate; raises on singularity."""
    try:
        lu = scipy.sparse.linalg.splu(H)
    except RuntimeError as exc:
        raise SingularSystemError(f"cyclic dual system is singular: {exc}") from exc
    # H is symmetric, so the inverse is its own adjoint
    inv_op = scipy.sparse.linalg.LinearOperator(H.shape, matvec=lu.solve, rmatvec=lu.solve)
    cond = scipy.sparse.linalg.onenormest(H) * scipy.sparse.linalg.onenormest(inv_op)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(
            f"cyclic dual system is numerically singular "
            f"(1-norm condition estimate {cond:.3e}); for undamped linear chains this "
            f"is the signature of forcing at a resonant frequency")
    return lu


def solve_periodic(spec: PeriodicSpec, opts: SolveOptions | None = None) -> PeriodicDualSolution:
    """Newton iteration for the periodic dual problem (cyclic unknowns)."""
    opts = opts or SolveOptions()
    grid, n = spec.grid, spec.n
    md = _midpoint_data(spec.params, spec.scales, spec.base, spec.grid, freeze_A=False)

    u = np.zeros(2 * n * grid.M)
    g = _gradient_cyclic(md, u)
    scale = 1.0 + float(np.max(np.abs(g)))
    tol = opts.tolerance * scale

    if opts.initial_guess is not None:
        ig = opts.initial_guess
        if ig.grid != grid or ig.n != n:
            raise ValueError("initial guess must live on the problem grid")
        if np.any(ig.gamma[0] != ig.gamma[-1]) or np.any(ig.lam[0] != ig.lam[-1]):
            raise ValueError("initial guess must be periodic (node M equal to node 0)")
        w = u.reshape(grid.M, 2 * n)
        w[:, :n] = ig.gamma[:-1]
        w[:, n:] = ig.lam[:-1]
        g = _gradient_cyclic(md, u)

    gnorm = float(np.max(np.abs(g)))
    history = [gnorm]
    iterations = 0
    converged = False
    while True:
        if gnorm <= tol:
            converged = True
            break
        if iterations >= opts.max_iterations:
            break
        H = _hessian_cyclic(md, u)
        lu = _factorize_checked(H)
        step = None
        if opts.step_control == "damped-newton":
            direction = lu.solve(-g)
            if np.all(np.isfinite(direction)):
                S_cur = _action_cyclic(md, u)
                floor = 1e-12 * (1.0 + abs(S_cur))
                t = 1.0
                for _ in range(40):
                    trial = u + t * direction
                    drop = 1e-8 * t * t * float(direction @ direction)
                    if _action_cyclic(md, trial) >= S_cur - drop - floor:
                        step = t * direction
                        break
                    t *= 0.5
        if step is None:
            step = _trust_region_cyclic(md, H, g, u, gnorm)
        u = u + step
        g = _gradient_cyclic(md, u)
        gnorm = float(np.max(np.abs(g)))
        history.append(gnorm)
        iterations += 1

    return PeriodicDualSolution(
        D=_unpack_cyclic(grid, n, u),
        converged=converged,
        iterations=iterations,
        residual_history=tuple(history),
    )


def _trust_region_cyclic(md, H, g, u, gnorm):
    eye = scipy.sparse.identity(H.shape[0], format="csc")
    mu = 1e-8 * (1.0 + float(np.max(np.abs(H.diagonal()))))
    for _ in range(25):
        try:
            lu = scipy.sparse.linalg.splu(H - mu * eye)
            step = lu.solve(-g)
        except RuntimeError:
            mu *= 10.0
            continue
        if np.all(np.isfinite(step)):
            if float(np.max(np.abs(_gradient_cyclic(md, u + step)))) < gnorm:
                return step
        mu *= 10.0
    raise SingularSystemError(
        "trust-region fallback could not reduce the gradient norm on the cyclic system")


def recover_periodic_orbit(sol: PeriodicDualSolution, spec: PeriodicSpec) -> Trajectory:
    """Periodic primal orbit from the solved multipliers.

    Nodal rates use central differences with cyclic wrap, so the recovered
    orbit closes exactly (the last node duplicates the first).
    """
    D = sol.D if isinstance(sol, PeriodicDualSolution) else sol
    if D.grid != spec.grid or D.n != spec.n:
        raise ValueError("dual field must live on the problem grid")
    h = spec.grid.h
    lam = D.lam[:-1]
    gamma = D.gamma[:-1]

    def wrap_rates(vals):
        return (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2.0 * h)

    x, v = dtp_map(lam, wrap_rates(lam), gamma, wrap_rates(gamma),
                   spec.base.xbar[:-1], spec.base.vbar[:-1], spec)
    x_full = np.concatenate([x, x[:1]], axis=0)
    v_full = np.concatenate([v, v[:1]], axis=0)
    return Trajectory(spec.grid, x_full, v_full)
