"""Newton solver for the discrete dual problem, primal recovery from the
solved multipliers, and the verification report.

The extremum of the dual functional is a maximum wherever the weighted
stiffness is positive definite, so the default step control is damped Newton
with an ascent line search (the Newton system is solved with the banded
Cholesky factorization of the negated Hessian).  When the Hessian is not
negative definite at an iterate, steps fall back to a Levenberg-style
trust-region iteration that must decrease the gradient norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dual_action import (
    BlockTridiagonal,
    DualField,
    ProblemSpec,
    action,
    dtp_map,
    ellipticity_check,
    gradient,
    hessian,
    pack_free,
    unpack_free,
)
from .primal_solver import Trajectory, primal_residual

__all__ = [
    "SolveOptions",
    "DualSolution",
    "VerificationReport",
    "SingularSystemError",
    "solve_dual",
    "recover_primal",
    "verify",
]


class SingularSystemError(RuntimeError):
    """The Newton linear system is numerically singular."""


@dataclass(frozen=True)
class SolveOptions:
    """Controls for the dual Newton iteration.

    tolerance applies to the max-norm of the gradient, scaled by the problem's
    natural residual magnitude (1 + max-norm of the gradient at the zero
    field), so re-solving from a converged solution terminates immediately.
    """

    max_iterations: int = 50
    tolerance: float = 1e-10
    step_control: str = "damped-newton"
    initial_guess: DualField | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if self.step_control not in ("damped-newton", "trust-region"):
            raise ValueError("step_control must be 'damped-newton' or 'trust-region'")


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Converged (or abandoned) dual iterate plus solver diagnostics."""

    D: DualField
    converged: bool
    iterations: int
    residual_history: tuple
    hessian_inertia: tuple


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Summary numbers for one solved dual problem."""

    gradient_norm: float
    momentum_residual_max: float
    kinematic_residual_max: float
    oracle_deviation_max: float | None
    ellipticity_min: float
    hessian_inertia: tuple
    concavity_ok: bool | None  # asserted only for linear forces; None otherwise


# line-search acceptance: S_new >= S_cur - C_LS |step|^2, plus a round-off floor
_C_LS = 1e-8
_MAX_BACKTRACK = 40
_TR_MU_GROWTH = 10.0
_TR_MAX_TRIES = 25


def _newton_direction(H: BlockTridiagonal, g: np.ndarray):
    """Ascent Newton direction via Cholesky of -H; None if H is not
    negative definite."""
    fac = H.neg_cholesky()
    if fac is None:
        return None
    # H step = -g  <=>  step = (-H)^{-1} g
    return scipy.linalg.cho_solve_banded((fac, True), g)


def _trust_region_step(H, g, u, grad_fn, gnorm):
    """Levenberg-style step: solve (H - mu I) step = -g with growing mu until
    the gradient norm strictly decreases."""
    scale = 1.0 + float(np.max(np.abs(H.diag)))
    mu = 1e-8 * scale
    for _ in range(_TR_MAX_TRIES):
        try:
            step = H.shifted(mu).solve(-g)
        except (scipy.linalg.LinAlgError, ValueError):
            mu *= _TR_MU_GROWTH
            continue
        if np.all(np.isfinite(step)):
            if float(np.max(np.abs(grad_fn(u + step)))) < gnorm:
                return step
        mu *= _TR_MU_GROWTH
    raise SingularSystemError(
        "trust-region fallback could not reduce the gradient norm; "
        "the Newton system appears numerically singular")


def solve_dual(spec: ProblemSpec, opts: SolveOptions | None = None) -> DualSolution:
    """Maximize the discrete dual action by Newton iteration from the zero
    field (or ``opts.initial_guess``)."""
    opts = opts or SolveOptions()
    grid, n = spec.grid, spec.n

    def grad_fn(u):
        return gradient(unpack_free(grid, n, u), spec)

    def act_fn(u):
        return action(unpack_free(grid, n, u), spec)

    zeros = DualField.zeros(grid, n)
    g = gradient(zeros, spec)
    scale = 1.0 + float(np.max(np.abs(g)))
    tol = opts.tolerance * scale

    if opts.initial_guess is not None:
        if opts.initial_guess.grid != grid or opts.initial_guess.n != n:
            raise ValueError("initial guess must live on the problem grid")
        u = pack_free(opts.initial_guess)
        g = grad_fn(u)
    else:
        u = pack_free(zeros)

    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    history = [gnorm]
    iterations = 0
    converged = False
    while True:
        if gnorm <= tol:
            converged = True
            break
        if iterations >= opts.max_iterations:
            break
        H = hessian(unpack_free(grid, n, u), spec)
        step = None
        if opts.step_control == "damped-newton":
            direction = _newton_direction(H, g)
            if direction is not None:
                S_cur = act_fn(u)
                floor = 1e-12 * (1.0 + abs(S_cur))
                t = 1.0
                for _ in range(_MAX_BACKTRACK):
                    trial = u + t * direction
                    drop = _C_LS * t * t * float(direction @ direction)
                    if act_fn(trial) >= S_cur - drop - floor:
                        step = t * direction
                        break
                    t *= 0.5
        if step is None:
            step = _trust_region_step(H, g, u, grad_fn, gnorm)
        u = u + step
        g = grad_fn(u)
        gnorm = float(np.max(np.abs(g)))
        history.append(gnorm)
        iterations += 1

    inertia = hessian(unpack_free(grid, n, u), spec).inertia()
    return DualSolution(
        D=unpack_free(grid, n, u),
        converged=converged,
        iterations=iterations,
        residual_history=tuple(history),
        hessian_inertia=inertia,
    )


def _nodal_rates(values: np.ndarray, h: float) -> np.ndarray:
    """Nodal rates from element-constant rates: adjacent-element average at
    interior nodes, second-order one-sided values at the ends (linear
    extrapolation of the two nearest element rates)."""
    elem = np.diff(values, axis=0) / h
    M = elem.shape[0]
    out = np.empty_like(values)
    out[1:-1] = 0.5 * (elem[:-1] + elem[1:])
    if M >= 2:
        out[0] = 1.5 * elem[0] - 0.5 * elem[1]
        out[-1] = 1.5 * elem[-1] - 0.5 * elem[-2]
    else:
        out[0] = out[-1] = elem[0]
    return out


def recover_primal(sol: DualSolution, spec: ProblemSpec) -> Trajectory:
    """Primal trajectory from the solved multipliers via the dual-to-primal
    map at every node."""
    D = sol.D if isinstance(sol, DualSolution) else sol
    if D.grid != spec.grid or D.n != spec.n:
        raise ValueError("dual field must live on the problem grid")
    h = spec.grid.h
    lamdot = _nodal_rates(D.lam, h)
    gammadot = _nodal_rates(D.gamma, h)
    x, v = dtp_map(D.lam, lamdot, D.gamma, gammadot,
                   spec.base.xbar, spec.base.vbar, spec)
    return Trajectory(spec.grid, x, v)


def verify(sol: DualSolution, spec: ProblemSpec,
           oracle: Trajectory | None = None) -> VerificationReport:
    """Check a dual solution: gradient norm, primal residuals of the recovered
    trajectory, optional max deviation from an oracle trajectory, pointwise
    ellipticity, and the Hessian concavity data.

    Failures are report entries, not exceptions.
    """
    g = gradient(sol.D, spec)
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    traj = recover_primal(sol, spec)
    res_m, res_k = primal_residual(traj, spec.params)
    deviation = None
    if oracle is not None:
        if oracle.grid != spec.grid:
            raise ValueError("oracle trajectory must live on the problem grid")
        deviation = float(max(np.max(np.abs(traj.x - oracle.x)),
                              np.max(np.abs(traj.v - oracle.v))))
    ell = ellipticity_check(sol.D, spec)
    inertia = sol.hessian_inertia
    concavity_ok = None
    if not spec.params.force.has_quadratic:
        concavity_ok = bool(inertia[2] == 0)  # no positive eigenvalues
    return VerificationReport(
        gradient_norm=gnorm,
        momentum_residual_max=float(np.max(res_m)),
        kinematic_residual_max=float(np.max(res_k)),
        oracle_deviation_max=deviation,
        ellipticity_min=float(np.min(ell)),
        hessian_inertia=tuple(inertia),
        concavity_ok=concavity_ok,
    )
