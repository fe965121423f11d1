"""Newton solver for the discrete dual problem, primal recovery from the
solved multipliers, and the verification report.

The extremum of the dual functional is a maximum wherever the weighted
stiffness is positive definite, so the default step control is damped Newton
with an ascent line search.  When no ascent Newton step is available at an
iterate, steps fall back to a Levenberg-style trust-region iteration that
must decrease the gradient norm.  One engine runs both the initial-value
problem here (Newton system solved by the banded Cholesky factorization of
the negated Hessian) and the periodic problem of `periodic_search` (checked
banded LU of the folded cyclic Hessian).  Both Hessians are
`BlockTridiagonal` matrices, so the trust-region solves are the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class _Problem:
    """One dual maximization over packed unknowns u, as the Newton engine
    sees it."""

    action: Callable     # u -> S(u)
    gradient: Callable   # u -> dS/du
    hessian: Callable    # u -> H, a BlockTridiagonal
    direction: Callable  # (H, g) -> ascent Newton direction, or None


def _maximize(problem: _Problem, spec, opts: SolveOptions):
    """Damped Newton ascent with a Levenberg-style trust-region fallback,
    shared by the initial-value and periodic problems.

    Starts from the zero field or ``opts.initial_guess`` (packed by
    `pack_free`); the tolerance is scaled by the zero-field gradient.
    Returns the final iterate, whether it converged, and the gradient
    max-norm history.
    """
    u = np.zeros(2 * spec.n * spec.grid.M)
    g = problem.gradient(u)
    tol = opts.tolerance * (1.0 + float(np.max(np.abs(g))))
    if opts.initial_guess is not None:
        if opts.initial_guess.grid != spec.grid or opts.initial_guess.n != spec.n:
            raise ValueError("initial guess must live on the problem grid")
        u = pack_free(opts.initial_guess)
        g = problem.gradient(u)

    gnorm = float(np.max(np.abs(g)))
    history = [gnorm]
    # written so that a nan residual keeps iterating, like any unconverged one
    while not gnorm <= tol and len(history) <= opts.max_iterations:
        H = problem.hessian(u)
        step = None
        if opts.step_control == "damped-newton":
            direction = problem.direction(H, g)
            if direction is not None and np.all(np.isfinite(direction)):
                step = _line_search(problem.action, u, direction)
        if step is None:
            step = _trust_region_step(problem, H, g, u, gnorm)
        u = u + step
        g = problem.gradient(u)
        gnorm = float(np.max(np.abs(g)))
        history.append(gnorm)
    return u, gnorm <= tol, history


def _line_search(act, u, direction):
    """Backtracking ascent step along ``direction``; None if none passes."""
    S_cur = act(u)
    floor = 1e-12 * (1.0 + abs(S_cur))
    t = 1.0
    for _ in range(_MAX_BACKTRACK):
        drop = _C_LS * t * t * float(direction @ direction)
        if act(u + t * direction) >= S_cur - drop - floor:
            return t * direction
        t *= 0.5
    return None


def _trust_region_step(problem: _Problem, H: BlockTridiagonal, g, u, gnorm):
    """Levenberg-style step: solve (H - mu I) step = -g with growing mu until
    the gradient norm strictly decreases."""
    mu = 1e-8 * (1.0 + float(np.max(np.abs(H.diag))))
    for _ in range(_TR_MAX_TRIES):
        try:
            step = H.shifted(mu).solve(-g)
        except np.linalg.LinAlgError:
            mu *= _TR_MU_GROWTH
            continue
        if np.all(np.isfinite(step)):
            if float(np.max(np.abs(problem.gradient(u + step)))) < gnorm:
                return step
        mu *= _TR_MU_GROWTH
    raise SingularSystemError(
        "trust-region fallback could not reduce the gradient norm; "
        "the Newton system appears numerically singular")


def _newton_direction(H: BlockTridiagonal, g: np.ndarray):
    """Ascent Newton direction via Cholesky of -H; None if H is not
    negative definite."""
    fac = H.neg_cholesky()
    if fac is None:
        return None
    # H step = -g  <=>  step = (-H)^{-1} g
    return scipy.linalg.cho_solve_banded((fac, True), g)


def solve_dual(spec: ProblemSpec, opts: SolveOptions | None = None) -> DualSolution:
    """Maximize the discrete dual action by Newton iteration from the zero
    field (or ``opts.initial_guess``)."""
    grid, n = spec.grid, spec.n

    def field(u):
        return unpack_free(grid, n, u)

    u, converged, history = _maximize(_Problem(
        action=lambda u: action(field(u), spec),
        gradient=lambda u: gradient(field(u), spec),
        hessian=lambda u: hessian(field(u), spec),
        direction=_newton_direction,
    ), spec, opts or SolveOptions())
    D = field(u)
    return DualSolution(
        D=D,
        converged=converged,
        iterations=len(history) - 1,
        residual_history=tuple(history),
        hessian_inertia=hessian(D, spec).inertia(),
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
