"""Newton solver for the discrete dual problem, primal recovery from the
solved multipliers, and the verification report, for the initial-value and
the periodic problem alike.

The extremum of the dual functional is a maximum wherever the weighted
stiffness is positive definite, so the default step control is damped Newton
with an ascent line search.  When no ascent Newton step is available at an
iterate, steps fall back to a Levenberg-style trust-region iteration that
must decrease the gradient norm; when that cannot make progress either, the
iteration stops unconverged, as it does at an overflowed point.

Each iterate first makes its Gram record (`dual_action._gram_point`), which
tests the mapped state, Mx and P, and the Hessian where one bound on its
Gram products leaves overflow open; one that is not finite ends the
iteration.  The first cyclic iterate then raises
SingularSystemError where the record's Gram factor A is singular (a
transfer multiplier within M `_GRAM_LIMIT` of 1, or a singular element
block), by the rule the reported zero count reads, and its direction reads
the product the test formed.  Once is enough:
a linear chain's Hessian does not depend on the field, so its resonance or
missing restoring force shows there, and a later iterate near singular is
not a singular problem.  Then every iterate takes one of two routes.  A
damped Newton iterate, open or cyclic, takes its direction from the Gram
factors, H = -A^T W^-1 A: d = A^-1 W A^-T g (`dual_action._gram_direction`),
dtbtrs solves on one band per solve (around a 2n x 2n capacitance when
cyclic), no Hessian assembled, where H is certified negative definite and a
cyclic capacitance is well conditioned.  An iterate with no
direction, or whose line search fails, assembles its Hessian band, the
only place one is made, and steps on its trust region, whose shift grows
until the band's Cholesky (LAPACK dpbtrf, `neg_cholesky(shift)` on a
negated copy of the band, open or folded) succeeds; a Hessian that is not
finite, as its assembly records, ends the iteration.
The period is the grid span, an integer number of forcing periods; orbits
of unknown period are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import _count, _positive
from .dual_action import (
    _GRAM_LIMIT,
    BlockTridiagonal,
    DualField,
    ProblemSpec,
    SingularStiffnessError,
    _direction_band,
    _ellipticity_min,
    _gram_direction,
    _gram_inertia,
    _gram_point,
    action,
    dtp_map,
    gradient,
    hessian,
    pack_free,
    unpack_free,
)
from .primal_solver import Trajectory, _time_derivative, primal_residual

__all__ = [
    "SolveOptions",
    "DualSolution",
    "VerificationReport",
    "SingularSystemError",
    "solve_dual",
    "recover_primal",
    "verify",
]


# the step controls SolveOptions accepts, the default first
STEP_CONTROLS = ("damped-newton", "trust-region")


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
    step_control: str = STEP_CONTROLS[0]
    initial_guess: DualField | None = None

    def __post_init__(self):
        _count("max_iterations", self.max_iterations)
        _positive("tolerance", self.tolerance)
        if self.step_control not in STEP_CONTROLS:
            raise ValueError(f"step_control must be one of {', '.join(STEP_CONTROLS)}")


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Converged (or abandoned) dual iterate plus solver diagnostics."""

    D: DualField
    converged: bool
    iterations: int
    residual_history: tuple
    # of the final point's Hessian, from its Gram record; None when the Gram
    # record or Hessian of a point the loop stepped from, or the final
    # point's Gram record, finds a part that is not finite
    hessian_inertia: tuple | None


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Summary numbers for one solved dual problem."""

    gradient_norm: float
    momentum_residual_max: float
    kinematic_residual_max: float
    oracle_deviation_max: float | None
    ellipticity_min: float
    hessian_inertia: tuple | None
    concavity_ok: bool | None  # asserted only for linear forces with an inertia


# line-search acceptance: S_new >= S_cur - C_LS |step|^2, plus a round-off floor
_C_LS = 1e-8
_MAX_BACKTRACK = 40
_TR_MU_GROWTH = 10.0
_TR_MAX_TRIES = 25
# a trust-region step must lower the gradient max-norm by more than this
# share of it, its round-off: moving each entry of a field by up to one ulp,
# as rounding a trial point does, moves the max-norm by up to 1400-2500
# ulps (measured at the stalled points of three zero-base runs), so a
# decrease within 4096 ulps (9.1e-13) is no evidence of progress
_TR_ROUNDOFF = 4096.0 * np.finfo(float).eps


def _maximize(spec: ProblemSpec, opts: SolveOptions):
    """Damped Newton ascent with a Levenberg-style trust-region fallback.

    Starts from the zero field or ``opts.initial_guess`` (packed by
    `pack_free`); the tolerance is scaled by the zero-field gradient.
    Stops unconverged when no step makes progress or a point overflows;
    returns the final field, whether it converged, the max-norm history and
    whether every point it stepped from was finite (False where the loop
    stopped at a Gram record or a Hessian with a part that is not).

    Two routes, one per iterate (see the module docstring), after the
    first cyclic iterate's singularity test: a damped Newton iterate's
    direction comes from the Gram factors (`_gram_direction`), on the band
    `_direction_band` allocates once per damped solve, open or cyclic, and
    an iterate with no direction, or whose line search fails, steps on its
    band's trust region.  One Gram record (`_gram_point`) per iterate
    serves the test and the direction, and is dropped before the step.
    Each point is one DualField, passed to every evaluation there, so the
    action, gradient, Gram record and Hessian at a point share its mapped
    state, which keeps its action and gradient once assembled; the step
    searches return the field of the point they accept, so an iterate's
    action and gradient are its accepted trial's.
    Convergence, the iteration cap and an overflowed residual are tested
    first, so nothing is assembled or solved at the final point.
    """
    u = np.zeros(2 * spec.n * spec.grid.M)
    D = _field(spec, u)
    g = gradient(D, spec)
    tol = opts.tolerance * (1.0 + float(np.max(np.abs(g))))
    if opts.initial_guess is not None:
        D = opts.initial_guess
        g = gradient(D, spec)  # checks its grid and boundary condition
        u = pack_free(D)

    gnorm = float(np.max(np.abs(g)))
    history = [gnorm]
    damped = opts.step_control == "damped-newton"
    band = _direction_band(spec) if damped else None
    # an overflowed (inf or nan) residual, Gram part, Newton direction or
    # Hessian ends the loop unconverged
    while tol < gnorm < np.inf and len(history) <= opts.max_iterations:
        point = _gram_point(spec, D)
        if point is None:
            return D, False, history, False
        # singular or not is judged on the first cyclic iterate only, which
        # shows a linear chain's resonance; later iterates go as open ones
        if spec.periodic and len(history) == 1 and point.nullity:
            raise SingularSystemError(
                f"cyclic dual system is numerically singular (a transfer multiplier "
                f"within M * {_GRAM_LIMIT:.0e} = {spec.grid.M * _GRAM_LIMIT:.3e} of 1, or a "
                f"singular element block); for undamped linear chains this is the "
                f"signature of forcing at a resonant frequency")
        # None where -H is not certified negative definite
        direction = _gram_direction(spec, point, g, band) if damped else None
        del point  # its LU and transfer matrices are not kept through the step
        if direction is not None and not np.all(np.isfinite(direction)):
            break
        accepted = None if direction is None else _line_search(spec, D, u, direction)
        if accepted is None:  # the band serves the trust region only
            H = hessian(D, spec)
            if not H.finite:
                return D, False, history, False
            accepted = _trust_region_step(spec, H, g, u, gnorm)
        if accepted is None:
            break
        u, D = accepted
        g = gradient(D, spec)
        gnorm = float(np.max(np.abs(g)))
        history.append(gnorm)
    return D, gnorm <= tol, history, True


def _field(spec: ProblemSpec, u) -> DualField:
    return unpack_free(spec.grid, spec.n, u, periodic=spec.periodic)


def _at_trial(evaluate, D_trial: DualField, spec: ProblemSpec):
    """``evaluate(D_trial, spec)`` at a step's trial point, nan where a weighted
    stiffness there is singular: a bad step, which fails its test."""
    try:
        return evaluate(D_trial, spec)
    except SingularStiffnessError:
        return np.nan


def _line_search(spec: ProblemSpec, D: DualField, u, direction):
    """Backtracking ascent step from the point u (field D) along
    ``direction``; (new u, its field), or None if no step passes."""
    S_cur = action(D, spec)
    floor = 1e-12 * (1.0 + abs(S_cur))
    t = 1.0
    for _ in range(_MAX_BACKTRACK):
        drop = _C_LS * t * t * float(direction @ direction)
        trial = u + t * direction
        D_trial = _field(spec, trial) if np.all(np.isfinite(trial)) else None
        if D_trial is not None and _at_trial(action, D_trial, spec) >= S_cur - drop - floor:
            return trial, D_trial
        t *= 0.5
    return None


def _trust_region_step(spec: ProblemSpec, H: BlockTridiagonal, g, u, gnorm):
    """Levenberg-style step: solve (H - mu I) step = -g with growing mu until
    H - mu I is negative definite and the gradient norm decreases by more
    than its round-off, `_TR_ROUNDOFF` of it; (new u, its field), or None if
    no finite shift achieves that."""
    mu = 1e-8 * (1.0 + H.diag_max)
    for _ in range(_TR_MAX_TRIES):
        if not np.isfinite(mu):
            return None
        fac = H.neg_cholesky(mu)  # None: H - mu I is not negative definite
        step = None if fac is None else H.solve(-g, fac)
        if step is not None and np.all(np.isfinite(step)):
            trial = u + step
            D_trial = _field(spec, trial)
            if np.max(np.abs(_at_trial(gradient, D_trial, spec))) < gnorm * (1 - _TR_ROUNDOFF):
                return trial, D_trial
        mu *= _TR_MU_GROWTH
    return None


def solve_dual(spec: ProblemSpec, opts: SolveOptions | None = None) -> DualSolution:
    """Maximize the discrete dual action by Newton iteration from the zero
    field (or ``opts.initial_guess``)."""
    D, converged, history, finite = _maximize(spec, opts or SolveOptions())
    inertia = _gram_inertia(spec, D) if finite else None
    return DualSolution(
        D=D,
        converged=converged,
        iterations=len(history) - 1,
        residual_history=tuple(history),
        hessian_inertia=inertia,
    )


def recover_primal(sol: DualSolution, spec: ProblemSpec) -> Trajectory:
    """Primal trajectory from the solved multipliers via the dual-to-primal
    map at every node, with the nodal rates of gamma and lambda taken by the
    rule `primal_residual` judges the trajectory with
    (`primal_solver._time_derivative`).

    A periodic orbit is mapped at nodes 0..M-1 and repeats node 0 at node M,
    so it closes exactly.
    """
    D = sol.D
    if D.grid != spec.grid or D.n != spec.n:
        raise ValueError("dual field must live on the problem grid")
    h, periodic = spec.grid.h, spec.periodic
    nodes = slice(None, -1) if periodic else slice(None)
    x, v = dtp_map(D.lam[nodes], _time_derivative(D.lam, h, periodic),
                   D.gamma[nodes], _time_derivative(D.gamma, h, periodic),
                   spec.base.xbar[nodes], spec.base.vbar[nodes], spec)
    if periodic:
        x, v = np.concatenate([x, x[:1]]), np.concatenate([v, v[:1]])
    return Trajectory(spec.grid, x, v)


def verify(sol: DualSolution, spec: ProblemSpec, traj: Trajectory,
           oracle: Trajectory | None = None) -> VerificationReport:
    """Check a dual solution: gradient norm (the final iterate's gradient,
    kept with its state), primal residuals of ``traj``, the trajectory
    `recover_primal` gave for it, optional max deviation from an oracle
    trajectory, the least pointwise ellipticity (`_ellipticity_min`, read off
    the stiffness certificate where every node holds it), and the Hessian
    concavity data.

    Failures are report entries, not exceptions.
    """
    for name, other in (("recovered", traj), ("oracle", oracle)):
        if other is not None and other.grid != spec.grid:
            raise ValueError(f"{name} trajectory must live on the problem grid")
    gnorm = float(np.max(np.abs(gradient(sol.D, spec))))
    res_m, res_k = primal_residual(traj, spec.params)
    deviation = None
    if oracle is not None:
        deviation = float(max(np.max(np.abs(traj.x - oracle.x)),
                              np.max(np.abs(traj.v - oracle.v))))
    inertia = sol.hessian_inertia
    concavity_ok = None
    if inertia is not None and not spec.params.force.has_quadratic:
        concavity_ok = bool(inertia[2] == 0)  # no positive eigenvalues
    return VerificationReport(
        gradient_norm=gnorm,
        momentum_residual_max=float(np.max(res_m)),
        kinematic_residual_max=float(np.max(res_k)),
        oracle_deviation_max=deviation,
        ellipticity_min=_ellipticity_min(sol.D, spec),
        hessian_inertia=None if inertia is None else tuple(inertia),
        concavity_ok=concavity_ok,
    )
