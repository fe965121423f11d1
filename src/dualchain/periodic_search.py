"""Periodic-orbit variant of the dual problem: same element assembly with
cyclic index wrap, no boundary terms, node M identified with node 0.

This module supplies the cyclic assembly as a cyclic `BlockTridiagonal` and
the singularity check on its banded LU, which the Newton direction reuses;
the Newton iteration is the one `dual_solver` runs for the initial-value
problem.  The period is fixed to the grid span, which must be an integer
number of forcing periods; searching for orbits of unknown period is out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, onenormest

from .chain_model import ChainParams
from .dual_action import (
    COND_LIMIT,
    BlockTridiagonal,
    DualField,
    ScaleParams,
    BaseState,
    _action_elements,
    _gradient_elements,
    _hessian_elements,
    _midpoint_data,
    dtp_map,
)
from .dual_solver import SingularSystemError, SolveOptions, _maximize, _Problem
from .primal_solver import TimeGrid, Trajectory

__all__ = [
    "PeriodicSpec",
    "PeriodicDualSolution",
    "solve_periodic",
    "recover_periodic_orbit",
]


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


def _hessian_cyclic(md, u) -> BlockTridiagonal:
    E = _hessian_elements(md, *_cyclic_parts(md, u))
    b = 2 * md.n
    # element k joins node k to node k+1 mod M, so node k also ends element k-1
    return BlockTridiagonal(E[:, :b, :b] + np.roll(E[:, b:, b:], 1, axis=0), E[:, :b, b:])


def _factorize_checked(H: BlockTridiagonal) -> BlockTridiagonal:
    """Banded LU plus a 1-norm condition estimate; raises on singularity.
    Returns H, which keeps the LU for the Newton direction."""
    try:
        H.lu  # cached on H: the condition estimate and the Newton direction reuse it
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"cyclic dual system is singular: {exc}") from exc
    # H is symmetric, so the inverse is its own adjoint; folding permutes rows
    # and columns alike, so the band's column sums give H's exact 1-norm
    inv_op = LinearOperator((H.size, H.size), matvec=H.solve, rmatvec=H.solve)
    norm = np.max(np.sum(np.abs(H.to_banded(lower_only=False)), axis=0))
    cond = norm * onenormest(inv_op)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystemError(
            f"cyclic dual system is numerically singular "
            f"(1-norm condition estimate {cond:.3e}); for undamped linear chains this "
            f"is the signature of forcing at a resonant frequency")
    return H


def solve_periodic(spec: PeriodicSpec, opts: SolveOptions | None = None) -> PeriodicDualSolution:
    """Newton iteration for the periodic dual problem (cyclic unknowns)."""
    opts = opts or SolveOptions()
    ig = opts.initial_guess
    if ig is not None and (np.any(ig.gamma[0] != ig.gamma[-1])
                           or np.any(ig.lam[0] != ig.lam[-1])):
        raise ValueError("initial guess must be periodic (node M equal to node 0)")
    md = _midpoint_data(spec)
    u, converged, history = _maximize(_Problem(
        action=lambda u: _action_elements(md, *_cyclic_parts(md, u)),
        gradient=lambda u: _gradient_cyclic(md, u),
        # checked on every iteration, whatever the step control
        hessian=lambda u: _factorize_checked(_hessian_cyclic(md, u)),
        direction=lambda H, g: H.solve(-g),
    ), spec, opts)
    return PeriodicDualSolution(
        D=_unpack_cyclic(spec.grid, spec.n, u),
        converged=converged,
        iterations=len(history) - 1,
        residual_history=tuple(history),
    )


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
