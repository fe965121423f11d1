"""Newton solver for the discrete dual problem, primal recovery from the
solved multipliers, and the verification report, for the initial-value and
the periodic problem alike.

The extremum of the dual functional is a maximum wherever the weighted
stiffness is positive definite, so the default step control is damped Newton
with an ascent line search.  When no ascent Newton step is available at an
iterate, steps fall back to a Levenberg-style trust-region iteration that
must decrease the gradient norm; when that cannot make progress either, the
iteration stops unconverged, as it does at an overflowed point.  A damped
Newton iterate's negated Hessian is factored once by the banded Cholesky
(LAPACK dpbtrf and dpbtrs, on the folded band when cyclic); where it does
not factor, the iterate is indefinite and goes to the trust region, whose
shift grows until it factors.  A cyclic solve checks its first Hessian only
against `COND_LIMIT`, by a probe at ||H||_1 / COND_LIMIT on the other side
of zero: a linear chain's Hessian does not depend on the field, so its
resonance or missing restoring force shows there, and a later iterate near
singular is not a singular problem.  Each factorization is
`neg_cholesky(shift)` on the iterate's Hessian, which negates a copy of the
band the Hessian was written into, open or folded; a Hessian that is not
finite, as its assembly records, ends the iteration.  The period is the
grid span, an integer number of forcing periods; orbits of unknown period
are out of scope.

Every `solve_dual` runs with the OpenBLAS libraries already loaded into the
process (numpy and scipy each bundle one) set to one thread, and gives each
its previous count back when it returns or raises.  On two cores the two
pools' idle workers otherwise contend with the thread doing the work: on a
2-core Xeon the banded Cholesky took more than twice as long with the
default two threads, and the results are the same with one thread and with
two.  A user who set OPENBLAS_NUM_THREADS keeps it, the rule `--jobs`
workers follow too; without /proc, or with another BLAS, the thread counts
are left alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .chain_model import _count, _positive
from .dual_action import (
    COND_LIMIT,
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
    hessian_inertia: tuple | None  # None when the final Hessian is not finite


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


def _maximize(spec: ProblemSpec, opts: SolveOptions):
    """Damped Newton ascent with a Levenberg-style trust-region fallback.

    Starts from the zero field or ``opts.initial_guess`` (packed by
    `pack_free`); the tolerance is scaled by the zero-field gradient.
    Stops unconverged when no step makes progress or a point overflows;
    returns the final field, its Hessian, whether it converged and the
    max-norm history.

    Each point is one DualField, passed to every evaluation there, so the
    action, gradient and Hessian at a point share its mapped state; the
    step searches return the field of the point they accept.  The Hessian
    is assembled once at every point, the last one's for its inertia.
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
    while True:
        H = hessian(D, spec)
        # an overflowed (inf or nan) residual ends the loop unconverged
        if not (tol < gnorm < np.inf and len(history) <= opts.max_iterations and H.finite):
            break
        # singular or not is judged on a cyclic problem's first Hessian only,
        # which shows a linear chain's resonance; later iterates go as open ones
        if spec.periodic and len(history) == 1:
            fac = _factorize_checked(H)
        else:  # factored only for a Newton direction; None if indefinite
            fac = H.neg_cholesky() if damped else None
        direction = H.solve(-g, fac) if damped and fac is not None else None
        del fac  # not held through the step searches
        accepted = None
        if direction is not None and np.all(np.isfinite(direction)):
            accepted = _line_search(spec, D, u, direction)
        if accepted is None:
            accepted = _trust_region_step(spec, H, g, u, gnorm)
        if accepted is None:
            break
        u, D = accepted
        g = gradient(D, spec)
        gnorm = float(np.max(np.abs(g)))
        history.append(gnorm)
    return D, H, gnorm <= tol, history


def _field(spec: ProblemSpec, u) -> DualField:
    return unpack_free(spec.grid, spec.n, u, periodic=spec.periodic)


def _line_search(spec: ProblemSpec, D: DualField, u, direction):
    """Backtracking ascent step from the point u (field D) along
    ``direction``; (new u, its field), or None if no step passes."""
    S_cur = action(D, spec)
    floor = 1e-12 * (1.0 + abs(S_cur))
    t = 1.0
    for _ in range(_MAX_BACKTRACK):
        drop = _C_LS * t * t * float(direction @ direction)
        trial = u + t * direction
        D_trial = _field(spec, trial)
        if action(D_trial, spec) >= S_cur - drop - floor:
            return trial, D_trial
        t *= 0.5
    return None


def _trust_region_step(spec: ProblemSpec, H: BlockTridiagonal, g, u, gnorm):
    """Levenberg-style step: solve (H - mu I) step = -g with growing mu until
    H - mu I is negative definite and the gradient norm strictly decreases;
    (new u, its field), or None if no finite shift achieves that."""
    mu = 1e-8 * (1.0 + H.diag_max)
    for _ in range(_TR_MAX_TRIES):
        if not np.isfinite(mu):
            return None
        fac = H.neg_cholesky(mu)  # None: H - mu I is not negative definite
        step = None if fac is None else H.solve(-g, fac)
        if step is not None and np.all(np.isfinite(step)):
            trial = u + step
            D_trial = _field(spec, trial)
            if float(np.max(np.abs(gradient(D_trial, spec)))) < gnorm:
                return trial, D_trial
        mu *= _TR_MU_GROWTH
    return None


def _factorize_checked(H: BlockTridiagonal):
    """Cholesky factor of -H for a cyclic Hessian, None when H is indefinite,
    and SingularSystemError when H is singular to `COND_LIMIT`.

    One more factorization, at delta = ||H||_1 / COND_LIMIT towards the other
    side of zero, settles it (Weyl's inequality, to rounding): when -H factors
    but -(H + delta I) does not, H's top eigenvalue lies in [-delta, 0); when
    -H does not factor but -(H - delta I) does, it lies in [0, delta).  Either
    way ||H^-1||_1 >= 1/delta, so cond_1(H) >= COND_LIMIT.  Not conversely:
    ||H^-1||_1 can exceed ||H^-1||_2 by up to sqrt(N), so an H with cond_1
    above COND_LIMIT but no eigenvalue within delta of zero passes as regular."""
    fac, delta = H.neg_cholesky(), H.norm1() / COND_LIMIT
    probe = H.neg_cholesky(delta if fac is None else -delta)
    if (fac is None) == (probe is None):
        return fac  # regular: the factor of -H; indefinite: None
    raise SingularSystemError(
        f"cyclic dual system is numerically singular "
        f"(1-norm condition estimate > {COND_LIMIT:.3e}); for undamped linear "
        f"chains this is the signature of forcing at a resonant frequency")


# the thread setters of upstream OpenBLAS, of its ILP64 build (numpy 1.24-era
# wheels) and of the scipy-openblas wheels, each with the getter of its name
_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _blas_threads_user_set() -> bool:
    """Whether the user chose the OpenBLAS thread count, which neither a solve
    nor a spawned `--jobs` worker then changes."""
    return "OPENBLAS_NUM_THREADS" in os.environ


def _mapped_openblas() -> list:
    """Paths of the OpenBLAS libraries mapped into this process; none
    without /proc."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    paths = {f[5].rstrip("\n") for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


@functools.cache
def _openblas_pools() -> tuple:
    """(path, getter, setter) of each mapped OpenBLAS that exports a setter
    and its getter, found once per process.  RTLD_NOLOAD opens only a library
    that is already mapped, so nothing is loaded."""
    pools = []
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                pools.append((path, getter, setter))
                break
    return tuple(pools)


class _OneBlasThread:
    """Holds every pool that ``pools()`` lists at one thread while any caller
    is inside, and sets each back to its previous count when the last caller
    leaves, so nested and concurrent entries set and restore once.  Does
    nothing when the user set OPENBLAS_NUM_THREADS or no pool is found."""

    def __init__(self, pools):
        self._pools = pools
        self._lock = threading.Lock()
        self._inside = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._inside == 0 and not _blas_threads_user_set():
                self._saved = tuple((setter, getter()) for _, getter, setter in self._pools())
                for setter, _ in self._saved:
                    setter(1)
            self._inside += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._inside -= 1
            if self._inside == 0:
                for setter, count in self._saved:
                    setter(count)
                self._saved = ()


_ONE_BLAS_THREAD = _OneBlasThread(_openblas_pools)


def solve_dual(spec: ProblemSpec, opts: SolveOptions | None = None) -> DualSolution:
    """Maximize the discrete dual action by Newton iteration from the zero
    field (or ``opts.initial_guess``), with the loaded OpenBLAS libraries at
    one thread (see the module docstring)."""
    with _ONE_BLAS_THREAD:
        D, H, converged, history = _maximize(spec, opts or SolveOptions())
        inertia = H.inertia() if H.finite else None
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
    """Check a dual solution: gradient norm, primal residuals of ``traj``,
    the trajectory `recover_primal` gave for it, optional max deviation from
    an oracle trajectory, pointwise ellipticity, and the Hessian concavity
    data.

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
    ell = ellipticity_check(sol.D, spec)
    inertia = sol.hessian_inertia
    concavity_ok = None
    if inertia is not None and not spec.params.force.has_quadratic:
        concavity_ok = bool(inertia[2] == 0)  # no positive eigenvalues
    return VerificationReport(
        gradient_norm=gnorm,
        momentum_residual_max=float(np.max(res_m)),
        kinematic_residual_max=float(np.max(res_k)),
        oracle_deviation_max=deviation,
        ellipticity_min=float(np.min(ell)),
        hessian_inertia=None if inertia is None else tuple(inertia),
        concavity_ok=concavity_ok,
    )
