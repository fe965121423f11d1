"""Discrete dual action for the damped, forced chain: functional value, the
dual-to-primal map, and exact first/second derivatives of the discretized
functional.

Discretization contract: the multiplier fields (gamma, lambda) are nodal and
piecewise linear on a uniform grid, rates are constant on each element, and
every integrand is sampled at element midpoints (midpoint quadrature) with
the base state interpolated and the forcing evaluated there.  The free
unknowns are the nodal values at nodes 0..M-1 packed as [gamma_k, lambda_k]
per node; node M is fixed by the boundary condition of the `ProblemSpec`.
The initial-value problem imposes gamma(T) = lambda(T) = 0 strongly (node M
is zero) and adds the x0/v0 boundary terms at node 0.  The periodic problem
identifies node M with node 0, so the element assembly wraps around
cyclically and its Hessian is a cyclic `BlockTridiagonal`.

All reductions are plain numpy sums over fixed axes, so identical inputs
produce bit-identical outputs.

One path per job: a linear force is the quadratic one with B = 0 (its
weighted stiffness is exactly I); one map takes dual values and rates to the
primal state, at midpoints for the assembly and at nodes for `dtp_map`; one
factorization of a Hessian, the banded Cholesky of its negation (LAPACK
dpbtrf, from the library numpy links, `_band_lapack`), serves the open and
the cyclic band alike, and at a shift, `BlockTridiagonal.neg_cholesky(shift)`,
answers every definiteness question the solver asks a Hessian band.
A Hessian is stored as that band and nothing else, open or folded when
cyclic: `hessian` forms its node blocks from each element's Gram blocks
(no (M, 4n, 4n) element array), `BlockTridiagonal` writes each block whole
into the band once and records there whether every entry is finite, and
each factorization negates one copy of it.  The spec samples f, K and dK/dx at the element midpoints
once; the mapped midpoint state of a DualField (the primal state, the
intermediate covectors, and Mx and the stiffness inverse once read) is
computed once and kept on the immutable field, keyed by the spec, so the
action, gradient, Gram record and Hessian at that field share it; the
action's value and the gradient are kept there too, assembled once.

No eigendecomposition runs on the Newton path when every multiplier-
weighted stiffness K is within _CERT_RHO of I (Frobenius norm): K, banded
like B, is then positive definite and well conditioned, and a batch's K
are one band, formed, factored and solved on it.  Elsewhere kappa_2(K)
<= ||K||_F ||K^-1||_F certifies a point; the eigenvalue test, the only
place a SingularStiffnessError is raised, sees just the points neither
bound certifies; `ellipticity_check` reports 0.0 where it would fail.
The Hessian is a Gram product, H = -A^T W^-1 A, with A square and block
bidiagonal and W = diag(c_x K|_lam, c_v I) per element, so a solve reads its
final point's inertia off the element weights and A's nullity
(`_gram_inertia`), with no Hessian formed or factored there.
`BlockTridiagonal.inertia`, which counts a Hessian's dense eigenvalues
beyond delta = ||H||_1 / COND_LIMIT, is its reference.  A no-pivot band
LU of each element's n x n Schur complement makes A sqrt(h) G^-1 T, T
upper triangular and banded, so a Newton direction is d = A^-1 W A^-T g,
two band solves (LAPACK dtbtrs) with T around per-element work, where H is
certified negative definite (`_gram_direction`); the cyclic A adds to T a
rank-2n corner that Sherman-Morrison-Woodbury solves with a 2n x 2n
capacitance.  No Hessian is formed or factored for a direction, and none
to judge a cyclic problem singular: the solver reads that off A's nullity
at its first iterate, the count the inertia's zeros include.  These three
readers share one Gram record per point (`_gram_point`), which forms A's
nullity, the LU, E^-1, the transfer matrices and their product when a
reader first needs them.  A Hessian band is assembled only for a
trust-region step.

Overflow far from the maximum (a huge base or mass) follows numpy's default,
and the solver's finite checks stop there; only an overflowed certificate
bound is a decision, sent to the eigenvalue test.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .chain_model import (
    ChainParams,
    QuadraticForce,
    _check_forcing,
    _check_state,
    _freeze_arrays,
    _nonnegative,
    _positive,
    eval_force,
    eval_forcing,
    force_jacobian,
    stiffness_lambda,
)
from .primal_solver import TimeGrid, Trajectory, integrate_primal

__all__ = [
    "ScaleParams",
    "BaseState",
    "DualField",
    "ProblemSpec",
    "BlockTridiagonal",
    "SingularStiffnessError",
    "dtp_map",
    "action",
    "gradient",
    "hessian",
    "ellipticity_check",
    "pack_free",
    "unpack_free",
    "zero_base",
    "base_from_primal",
    "restrict_base",
    "perturb_base",
]

#: Relative condition limit on the multiplier-weighted stiffness; beyond this
#: the matrix is treated as numerically singular.
COND_LIMIT = 1e12

#: Largest condition number kappa_2 of a weighted stiffness K accepted
#: without the eigenvalue test, certified by K's distance from I, rho =
#: ||K - I||_F <= _CERT_RHO (K's eigenvalues then lie in [1 - rho, 1 + rho]:
#: K is positive definite and ||K^-1||_2 <= 1 / (1 - rho)), or else by the
#: Frobenius bound ||K||_F ||K^-1||_F.  The margin below COND_LIMIT absorbs
#: the round-off of rho, of the inverse and of the eigenvalues.
_CERT_LIMIT = 1e-2 * COND_LIMIT
_CERT_RHO = (_CERT_LIMIT - 1.0) / (_CERT_LIMIT + 1.0)

#: Largest singular value ratio of the Gram factor A, or per-element rate
#: of a multiplier, counted as zero: H = -A^T W^-1 A squares A's condition
#: number, so this is COND_LIMIT's bound on H read on A.
_GRAM_LIMIT = COND_LIMIT ** -0.5

#: Largest 1-norm condition number of a cyclic Gram direction's capacitance
#: I - Pi (`_gram_direction`), whose solves cost the direction up to about
#: 50 eps cond(I - Pi) of relative accuracy (measured on random specs).
_CAPACITANCE_LIMIT = 1e4

_HARMONICS = 3  # sine terms per component of a `perturb_base` perturbation


class SingularStiffnessError(RuntimeError):
    """Multiplier-weighted stiffness singular or near-singular somewhere."""

    def __init__(self, where: int, cond: float | None = None):
        detail = f"condition estimate {cond:.3e}" if cond is not None else "exactly singular"
        super().__init__(
            f"multiplier-weighted stiffness is numerically singular at point {where} ({detail})"
        )
        self.where = where
        self.cond = cond


@dataclass(frozen=True)
class ScaleParams:
    """Positive weights of the quadratic shift terms in the dual pairing."""

    c_x: float
    c_v: float

    def __post_init__(self):
        for name in ("c_x", "c_v"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))


@dataclass(frozen=True, eq=False)
class BaseState:
    """Base trajectory (xbar, vbar) on the nodes and element midpoints of a grid.

    Quadrature needs the base at element midpoints.  When the base comes from
    a recipe that can be evaluated anywhere (a fine direct solve, a constant,
    an analytic perturbation), the constructors pass exact midpoint samples;
    when only nodal values exist (user tables), midpoints default to linear
    interpolation between the adjacent nodes.
    """

    grid: TimeGrid
    xbar: np.ndarray
    vbar: np.ndarray
    xbar_mid: np.ndarray | None = None
    vbar_mid: np.ndarray | None = None

    def __post_init__(self):
        M = self.grid.M
        _freeze_arrays(self, ("xbar", "vbar"), M + 1, None)
        if (self.xbar_mid is None) != (self.vbar_mid is None):
            raise ValueError("give both midpoint arrays or neither")
        if self.xbar_mid is None:
            object.__setattr__(self, "xbar_mid", 0.5 * (self.xbar[:-1] + self.xbar[1:]))
            object.__setattr__(self, "vbar_mid", 0.5 * (self.vbar[:-1] + self.vbar[1:]))
        _freeze_arrays(self, ("xbar_mid", "vbar_mid"), M, self.n)

    @property
    def n(self) -> int:
        return self.xbar.shape[1]


def zero_base(grid: TimeGrid, n: int) -> BaseState:
    z = np.zeros((grid.M + 1, n))
    return BaseState(grid, z, z)


def base_from_primal(params: ChainParams, x0, v0, grid: TimeGrid,
                     refine: int = 10, method: str = "rk4") -> BaseState:
    """Base state from a direct solve on a ``refine``-times finer grid,
    restricted to ``grid`` by `restrict_base`."""
    fine = integrate_primal(params, x0, v0, grid.refined(refine), method=method)
    return restrict_base(fine, refine)


def restrict_base(fine: Trajectory, refine: int) -> BaseState:
    """Base state on the grid ``refine`` times coarser than ``fine``'s.

    Nodal values restrict exactly; midpoint values are sampled from the fine
    trajectory (for odd ``refine`` the midpoint falls between fine nodes and
    the two neighbours are averaged).
    """
    coarse = fine.restrict(refine)
    M = coarse.grid.M
    half, rem = divmod(refine, 2)
    if rem == 0:
        xm = fine.x[half::refine][:M]
        vm = fine.v[half::refine][:M]
    else:
        lo = np.arange(M) * refine + half
        xm = 0.5 * (fine.x[lo] + fine.x[lo + 1])
        vm = 0.5 * (fine.v[lo] + fine.v[lo + 1])
    return BaseState(coarse.grid, coarse.x, coarse.v, xm, vm)


def perturb_base(base: BaseState, amplitude: float, seed: int) -> BaseState:
    """Add a smooth random perturbation, bounded by ``amplitude``, to a base.

    Each component gets a short sine series with seeded random weights and
    phases; weights are normalized so the perturbation never exceeds the
    amplitude in absolute value.
    """
    amplitude = _nonnegative("amplitude", amplitude)
    n, grid = base.n, base.grid
    # per column, the x columns first: _HARMONICS weights in [-1, 1), then
    # as many phases in [0, 2 pi), drawn in that order
    w, ph = np.random.default_rng(seed).uniform(
        [[-1.0], [0.0]], [[1.0], [2.0 * np.pi]], size=(2 * n, 2, _HARMONICS)).transpose(1, 0, 2)
    total = np.sum(np.abs(w), axis=1, keepdims=True)
    w = w / np.where(total > 0.0, total, 1.0)
    # the nodes, then the midpoints
    t = np.concatenate([grid.nodes(), grid.midpoints()])[:, None]
    out = np.zeros((t.size, 2 * n))
    for k in range(_HARMONICS):
        out += w[:, k] * np.sin((k + 1) * np.pi * t / grid.T + ph[:, k])
    nodes, mid = np.split(amplitude * out, [grid.M + 1])
    return BaseState(grid, base.xbar + nodes[:, :n], base.vbar + nodes[:, n:],
                     base.xbar_mid + mid[:, :n], base.vbar_mid + mid[:, n:])


@dataclass(frozen=True, eq=False)
class DualField:
    """Nodal multiplier fields (gamma, lambda), shape (M+1, n) each."""

    grid: TimeGrid
    gamma: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        _freeze_arrays(self, ("gamma", "lam"), self.grid.M + 1, None)

    @property
    def n(self) -> int:
        return self.gamma.shape[1]

    @classmethod
    def zeros(cls, grid: TimeGrid, n: int) -> "DualField":
        z = np.zeros((grid.M + 1, n))
        return cls(grid, z, z)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Everything needed to pose the dual problem.

    With initial conditions x0 and v0 this is the initial-value problem.
    With both omitted it is the periodic problem on one period P = grid.T:
    the forcing must be P-periodic, the base state must close up (first and
    last nodes equal), and M >= 2.  Either way `chain_model._check_forcing`
    judges the forcing on [0, grid.T].
    """

    params: ChainParams
    scales: ScaleParams
    base: BaseState
    grid: TimeGrid
    x0: np.ndarray | None = None
    v0: np.ndarray | None = None

    def __post_init__(self):
        if (self.x0 is None) != (self.v0 is None):
            raise ValueError("give both x0 and v0, or neither for a periodic problem")
        if self.periodic and self.grid.M < 2:
            raise ValueError("periodic problems need at least M = 2 elements")
        if self.base.grid != self.grid:
            raise ValueError("base state must live on the problem grid")
        if self.base.n != self.params.n:
            raise ValueError(
                f"base state is for n={self.base.n} particles, params for n={self.params.n}"
            )
        _check_forcing(self.params.forcing, 0.0, self.grid.T, periodic=self.periodic)
        if self.periodic:
            for name, arr in (("xbar", self.base.xbar), ("vbar", self.base.vbar)):
                tol = 1e-12 * (1.0 + float(np.max(np.abs(arr))))
                if np.max(np.abs(arr[0] - arr[-1])) > tol:
                    raise ValueError(f"base {name} is not periodic (first and last nodes differ)")
            return
        for name in ("x0", "v0"):
            object.__setattr__(self, name, _check_state(name, getattr(self, name), (self.n,)))

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def periodic(self) -> bool:
        return self.x0 is None

    @cached_property
    def _midpoints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f, K(xbar), dK/dx(xbar)) at the element midpoints, for every assembly."""
        force, xbar_mid = self.params.force, self.base.xbar_mid
        return (eval_forcing(self.params.forcing, self.grid.midpoints()),
                eval_force(force, xbar_mid), force_jacobian(force, xbar_mid))


# ---------------------------------------------------------------------------
# assembly internals

def _element_fields(ga, la, gb, lb, h):
    gmid = 0.5 * (ga + gb)
    lmid = 0.5 * (la + lb)
    gdot = (gb - ga) / h
    ldot = (lb - la) / h
    return gmid, lmid, gdot, ldot


def _singular(mu):
    """(singular, min|mu|, max|mu|) at the points of eigenvalues ``mu`` (last
    axis), in C order: singular when min|mu| = 0 or max/min > COND_LIMIT."""
    amin = np.min(np.abs(mu), axis=-1).ravel()
    amax = np.max(np.abs(mu), axis=-1).ravel()
    return (amin == 0.0) | (amax > COND_LIMIT * amin), amin, amax


def _check_stiffness(K, points=None):
    """Eigenvalue test of weighted stiffness matrices K (leading batch axes
    allowed): raises SingularStiffnessError, naming the first failing point
    in C order (its index in ``points`` when given), when a point is singular
    or has a condition number beyond COND_LIMIT.  Returns (mu, Q)."""
    mu, Q = np.linalg.eigh(K)
    bad, amin, amax = _singular(mu)
    if np.any(bad):
        first = int(np.argmax(bad))
        cond = None if amin[first] == 0.0 else float(amax[first] / amin[first])
        raise SingularStiffnessError(first if points is None else int(points[first]), cond)
    return mu, Q


def _stiffness_band(band, lam, c_x: float):
    """(low, rho) of K = I + (1/c_x) B·lam at each point of ``lam``, one matmul
    with B's ``band``: low[..., i, d] = K[i + d, i], zero where i + d >= n, and
    rho = ||K - I||_F off the band (one that overflows certifies nothing)."""
    kd, _, BK, _ = band
    with np.errstate(over="ignore", invalid="ignore"):
        low = (lam @ BK).reshape(np.shape(lam) + (kd + 1,)) / c_x
        sq = low * low
        rho = np.sqrt(np.sum(sq[..., 0], axis=-1) + 2.0 * np.sum(sq[..., 1:], axis=(-2, -1)))
    low[..., 0] += 1.0
    return low, rho


@dataclass(eq=False)
class _Stiffness:
    """Weighted stiffnesses K on their lower band ``low`` (`_stiffness_band`):
    ``K @ v`` applies them through the band, and numpy (inv, eigvalsh) reads
    them as the dense K @ I, each entry a copy of the band's."""

    low: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self @ np.eye(self.low.shape[-2]), dtype=dtype)

    def __matmul__(self, v):
        n, b = self.low.shape[-2:]
        out = self.low[..., 0, None] * v
        for d in range(1, b):
            low = self.low[..., :n - d, d, None]  # K[i + d, i] = K[i, i + d]
            out[..., d:, :] += low * v[..., :n - d, :]
            out[..., :n - d, :] += low * v[..., d:, :]
        return out


def _stiffness_solve(B, lam, c_x: float, r, band=None):
    """(y, K, rho, Kinv): y = K^-1 r for the weighted stiffness K = I +
    (1/c_x) B·lam at each point of ``lam`` (leading batch axes allowed),
    rho = ||K - I||_F per point, off B's ``band`` (derived when None).
    Where every rho <= _CERT_RHO, one dpbtrf and one dpbtrs solve all K as
    one band: K is their `_Stiffness`, Kinv None.  Otherwise, or where
    dpbtrf fails, y = K^-1 r and kappa_2(K) <= ||K||_F ||K^-1||_F certifies
    a point; only the points whose bound exceeds _CERT_LIMIT, or the whole
    batch when the inverse fails, go through `_check_stiffness`, so exactly
    the points it rejects raise SingularStiffnessError.  Where lam·B is
    exactly zero (a linear chain at finite lam, or the zero field) K is I:
    None, rho zero and Kinv a read-only broadcast of I, with nothing formed."""
    n, batch = B.shape[0], np.shape(lam)[:-1]
    band = band or QuadraticForce(n=n, B=B).band
    if not np.any(lam) or (not np.any(band[2]) and np.all(np.isfinite(lam))):
        Kinv = np.broadcast_to(np.eye(n), batch + (n, n))
        return (Kinv @ r[..., None])[..., 0], None, np.zeros(batch), Kinv
    low, rho = _stiffness_band(band, lam, c_x)
    if np.all(rho <= _CERT_RHO):
        fac, info = _LAPACK.dpbtrf(np.array(low.reshape(-1, low.shape[-1]).T, order="F"))
        if info == 0:
            y, _ = _LAPACK.dpbtrs(fac, np.array(r, dtype=float).ravel())
            return y.reshape(np.shape(r)), _Stiffness(low), rho, None
    K = stiffness_lambda(B, lam, c_x)
    try:
        Kinv = np.linalg.inv(K)
    except np.linalg.LinAlgError:
        mu, Q = _check_stiffness(K)
        Kinv = (Q / mu[..., None, :]) @ np.swapaxes(Q, -1, -2)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed bound certifies nothing
            bound = np.sqrt(np.einsum("...ij,...ij->...", K, K)
                            * np.einsum("...ij,...ij->...", Kinv, Kinv))
        unsure = np.flatnonzero(~(bound <= _CERT_LIMIT))
        if unsure.size:
            _check_stiffness(K.reshape(-1, n, n)[unsure], unsure)
    return (Kinv @ r[..., None])[..., 0], K, rho, Kinv


class _MappedState:
    """The dual-to-primal map at points (leading batch axes allowed) for the
    quadratic ``force``, J its Jacobian at xbar: w, r = gammadot - J^T lam,
    (y, K, rho) = `_stiffness_solve`'s on the force's band, dx = y / c_x,
    x = xbar + dx and v = vbar + w / c_v.  Formed when first read, then
    kept: ``Kinv`` = K|_lam^-1 (formed already where a rho exceeds
    _CERT_RHO) and ``Mx`` = dK/dx at x.  A DualField's state
    (`_core_state`) also keeps the field's action ``S`` and read-only
    gradient ``g`` once `action` and `gradient` assemble them."""

    S = g = None

    def __init__(self, lam, lamdot, gamma, gammadot, xbar, vbar, J, force, m, d, c_x, c_v):
        self.lam, self.gammadot, self.J, self.band = lam, gammadot, J, force.band
        self.w = gamma + m * lamdot - d * lam
        self.r = gammadot - np.einsum("...j,...ji->...i", lam, J)
        self.y, self.K, self.rho, Kinv = _stiffness_solve(force.B, lam, c_x, self.r, self.band)
        self.dx = self.y / c_x
        self.x, self.v = xbar + self.dx, vbar + self.w / c_v
        if Kinv is not None:
            self.Kinv = Kinv

    @cached_property
    def Kinv(self) -> np.ndarray:
        return np.linalg.inv(np.asarray(self.K))

    @cached_property
    def Mx(self) -> np.ndarray:
        """J + B·dx, one matmul dx @ BJ giving B·dx's 2w + 1 diagonals."""
        (_, w, _, BJ), n, Mx = self.band, self.J.shape[-1], self.J.copy()
        Bdx = (self.dx @ BJ).reshape(self.dx.shape[:-1] + (2 * w + 1, n))
        for d in range(-w, w + 1):  # rows lo..hi-1 of diagonal d, a view
            lo, hi = max(0, -d), n - max(0, d)
            np.einsum("...ii->...i", Mx[..., lo:hi, lo + d:hi + d])[...] += Bdx[..., w + d, lo:hi]
        return Mx


def _core_state(spec: ProblemSpec, D: DualField) -> _MappedState:
    """D's element-midpoint fields (lam, gammadot) mapped to the primal state.
    A DualField is immutable, so this is computed once per point: it is kept
    on D in a one-slot cache keyed by ``spec``, and the action, gradient,
    Gram record and Hessian at D share it."""
    cached = D.__dict__.get("_state")
    if cached is not None and cached[0] is spec:
        return cached[1]
    p, s, base = spec.params, spec.scales, spec.base
    gmid, lmid, gdot, ldot = _element_fields(D.gamma[:-1], D.lam[:-1], D.gamma[1:], D.lam[1:],
                                             spec.grid.h)
    state = _MappedState(lmid, ldot, gmid, gdot, base.xbar_mid, base.vbar_mid,
                         spec._midpoints[2], p.force, p.m, p.d, s.c_x, s.c_v)
    object.__setattr__(D, "_state", (spec, state))
    return state


def _action_elements(spec: ProblemSpec, D: DualField) -> float:
    """Midpoint-quadrature integral part of the dual action (no boundary terms)."""
    st, (f_mid, Kbar_mid, _) = _core_state(spec, D), spec._midpoints
    s, base = spec.scales, spec.base
    quad = np.sum(st.w * st.w, axis=1) / s.c_v + np.sum(st.r * st.y, axis=1) / s.c_x
    rest = (
        -np.sum(base.vbar_mid * st.w, axis=1)
        - np.sum(base.xbar_mid * st.gammadot, axis=1)
        + np.sum(st.lam * (Kbar_mid - f_mid), axis=1)
    )
    return float(spec.grid.h * np.sum(-0.5 * quad + rest))


def _gradient_elements(spec: ProblemSpec, D: DualField):
    """Per-element gradient parts (g_ga, g_la, g_gb, g_lb), each (M, n).

    Derivatives follow from stationarity of the generating functional in the
    primal variables: at the mapped state, d/d(gamma_mid) = -h v,
    d/d(gamma_rate) = -h x, d/d(lambda_mid) = h (d v + K(x) - f), and
    d/d(lambda_rate) = -h m v; the chain rule to the element's end nodes
    gives the four parts below.
    """
    st, (f_mid, Kbar_mid, Abar_mid) = _core_state(spec, D), spec._midpoints
    x, v, p, h = st.x, st.v, spec.params, spec.grid.h
    # K(x) = Kbar + J dx + (1/2) (B·dx) dx, exact for the quadratic force
    Kx = Kbar_mid + 0.5 * np.einsum("mjr,mr->mj", Abar_mid + st.Mx, st.dx)
    mom = p.d * v + Kx - f_mid
    g_ga = -0.5 * h * v + x
    g_gb = -0.5 * h * v - x
    g_la = 0.5 * h * mom + p.m * v
    g_lb = 0.5 * h * mom - p.m * v
    return g_ga, g_la, g_gb, g_lb


# ---------------------------------------------------------------------------
# block-tridiagonal matrix

def _skew(ab, b: int) -> np.ndarray:
    """Strided view of a lower band in Fortran order, by places of block size
    b: [place k, q, family f, c] is ab[f b + c - q, k b + q], entry c of row
    q of place k's block row [D_k^T, U1_k, U2_k] (f = 0, 1, 2; the band has
    a row block per family).  Writable when ``ab`` is."""
    sr, sc = ab.strides
    return np.lib.stride_tricks.as_strided(
        ab, (ab.shape[1] // b, b, ab.shape[0] // b, b), (b * sc, sc - sr, b * sr, sr))


def _folded_order(F: int) -> np.ndarray:
    """Node at each place of the folded order 0, F-1, 1, F-2, ..."""
    return np.stack([np.arange(F), np.arange(F)[::-1]], axis=1).ravel()[:F]


# the symbols of the band routines in the LAPACK numpy links, each pattern
# with the integer of its interface: numpy >= 2 wheels (scipy-openblas,
# ILP64), numpy 1.2x wheels (ILP64) and LP64 builds
_LAPACK_SYMBOLS = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64),
                   ("{}_", ctypes.c_int))


class _BandLapack(NamedTuple):
    """LAPACK's band routines: ``dpbtrf(ab)`` factors the lower band ``ab``
    (Fortran order, float64, ab[i - j, j] = A[i, j]) by Cholesky in place,
    ``dpbtrs(fac, x)`` overwrites the vector ``x`` with A^-1 x from that
    factor, and ``dtbtrs(ab, x, trans)`` overwrites ``x`` with T^-1 x, or
    T^-T x when ``trans``, for the upper triangular band ``ab`` (ab[kd + i
    - j, j] = T[i, j], kd = its row count less 1); each returns (its
    result, LAPACK's info).  ``symbol`` names the dpbtrf it calls."""

    symbol: str
    dpbtrf: Callable
    dpbtrs: Callable
    dtbtrs: Callable


def _loaded_library(path: str):
    """ctypes handle of the library at ``path`` if it is loaded, else None:
    RTLD_NOLOAD (absent on Windows) loads nothing."""
    try:
        return ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):
        return None


_BAND_ROUTINES = ("dpbtrf", "dpbtrs", "dtbtrs")


def _band_lapack(symbols=_LAPACK_SYMBOLS) -> _BandLapack:
    """The band routines of the LAPACK numpy already links, through ctypes.

    dlsym on the handle of numpy's loaded `_umath_linalg` also searches the
    libraries it depends on, so the first pattern of ``symbols`` that names
    every routine there is bound.  Where none does (macOS Accelerate builds;
    Windows, whose GetProcAddress does not search a DLL's dependencies),
    scipy.linalg.lapack's wrappers serve."""
    lib = _loaded_library(np.linalg._umath_linalg.__file__)
    for pattern, int_t in symbols if lib is not None else ():
        routines = [getattr(lib, pattern.format(r), None) for r in _BAND_ROUTINES]
        if all(r is not None for r in routines):
            return _BandLapack(pattern.format("dpbtrf"), *_fortran_band_routines(*routines, int_t))
    from scipy.linalg import lapack

    def dpbtrf(ab):
        return lapack.dpbtrf(ab, lower=1, overwrite_ab=1)

    def dpbtrs(fac, x):
        return lapack.dpbtrs(fac, x, lower=1, overwrite_b=1)

    def dtbtrs(ab, x, trans):
        y, info = lapack.dtbtrs(ab, x[:, None], uplo="U", trans="T" if trans else "N",
                                overwrite_b=1)
        return y[:, 0], info

    return _BandLapack("scipy.linalg.lapack", dpbtrf, dpbtrs, dtbtrs)


def _fortran_band_routines(trf, trs, tbtrs, int_t) -> tuple[Callable, Callable, Callable]:
    """`_BandLapack`'s dpbtrf, dpbtrs and dtbtrs on the Fortran routines
    ``trf``, ``trs`` and ``tbtrs``, integers of ctypes type ``int_t`` passed
    by reference and the lengths of the character arguments last, as
    gfortran's ABI has it.  Each checks the layout of the arrays it hands
    over."""
    ref, buf, size, char = ctypes.POINTER(int_t), ctypes.c_void_p, ctypes.c_size_t, ctypes.c_char_p
    trf.argtypes = [char, ref, ref, buf, ref, ref, size]
    trs.argtypes = [char, ref, ref, ref, buf, ref, buf, ref, ref, size]
    tbtrs.argtypes = [char, char, char, ref, ref, ref, buf, ref, buf, ref, ref, size, size, size]
    trf.restype = trs.restype = tbtrs.restype = None

    def band(ab):
        if ab.dtype != np.float64 or ab.ndim != 2 or not ab.flags.f_contiguous:
            raise ValueError("the band must be a Fortran-ordered float64 matrix")
        return int_t(ab.shape[1]), int_t(ab.shape[0] - 1), int_t(ab.shape[0])

    def vector(x, n):
        if (x.dtype != np.float64 or x.shape != (n.value,) or not x.flags.c_contiguous
                or not x.flags.writeable):
            raise ValueError("the right-hand side must be a writeable, contiguous float64 "
                             "vector of the band's size")

    def dpbtrf(ab):
        n, kd, ldab = band(ab)
        if not ab.flags.writeable:
            raise ValueError("dpbtrf factors the band in place; it must be writeable")
        info = int_t()
        trf(b"L", n, kd, ab.ctypes.data, ldab, info, 1)
        return ab, info.value

    def dpbtrs(fac, x):
        n, kd, ldab = band(fac)
        vector(x, n)
        info = int_t()
        trs(b"L", n, kd, int_t(1), fac.ctypes.data, ldab, x.ctypes.data, n, info, 1)
        return x, info.value

    def dtbtrs(ab, x, trans):
        n, kd, ldab = band(ab)
        vector(x, n)
        info = int_t()
        tbtrs(b"U", b"T" if trans else b"N", b"N", n, kd, int_t(1), ab.ctypes.data, ldab,
              x.ctypes.data, n, info, 1, 1, 1)
        return x, info.value

    return dpbtrf, dpbtrs, dtbtrs


_LAPACK = _band_lapack()


class BlockTridiagonal:
    """Symmetric block-tridiagonal matrix stored as one lower band.

    Node k has the (b, b) diagonal block D_k, and U_k couples node k (rows)
    to node k+1 (columns).  F-1 couplings make the open layout, scalar
    bandwidth 2b - 1.  F couplings make the cyclic layout (F >= 2), where
    U_{F-1} couples node F-1 to node 0; it is banded in the folded node
    order 0, F-1, 1, F-2, ..., in which every coupling joins nodes at most
    two places apart (scalar bandwidth 3b - 1).

    It is made from its node blocks, ``diag`` (F, b, b) and ``off``, F-1
    or F couplings, which `__init__` writes once into ``band``: the lower
    band, folded when cyclic, in Fortran order and read-only, LAPACK's
    ab[i - j, j] = A[i, j], which each factorization negates a copy of.
    Through `_skew`, column k b + q is row q of place k's block row [D_k^T,
    U1_k, U2_k] read along a skew, and one slice assignment writes a block
    family.  D_k's upper triangle lies left of the diagonal in D_k^T's rows,
    outside the band, so the band keeps each D_k's lower triangle and every
    entry comes from the triangle of the block that stores it; every method
    reads the band.  A cyclic matrix is written in the folded order: place
    2j holds node j and place 2j+1 node F-1-j, so the couplings of even and
    of odd places are gap-2 families, and only two couplings join places
    one apart, node 0 with node F-1 at place 0 and the middle one at place
    F-2 (both at place 0 when F = 2).  Those two are added to the zero
    band, so the F = 2 pair is summed and -0.0 becomes +0.0.  ``diag_max``
    is the largest |entry| of the diagonal blocks as given, both triangles,
    and ``finite`` says whether every entry of the blocks is finite.
    """

    __slots__ = ("band", "block", "cyclic", "diag_max", "finite")

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        F, b = diag.shape[:2]
        self.block, self.cyclic = b, len(off) == F
        self.diag_max = float(max(diag.max(), -diag.min()))
        self.finite = bool(np.isfinite(self.diag_max) and np.all(np.isfinite(off)))
        ab = np.zeros(((3 if self.cyclic else 2) * b, F * b), order="F")
        rows = _skew(ab, b)
        order = _folded_order(F) if self.cyclic else slice(None)
        # D_k^T's entries on or right of its diagonal, [q, c]: c >= q
        np.copyto(rows[:, :, 0], np.swapaxes(diag, 1, 2)[order], where=np.tri(b, dtype=bool).T)
        if not self.cyclic:
            rows[:F - 1, :, 1] = off
        else:
            mid = off[(F - 1) // 2]  # joins places F-2 and F-1, in reverse when F is odd
            rows[F - 2, :, 1] += mid.T if F % 2 else mid
            rows[0, :, 1] += off[F - 1].T
            rows[0:F - 2:2, :, 2] = off[:(F - 1) // 2]
            rows[1:F - 2:2, :, 2] = np.swapaxes(off[F - 2::-1][:F // 2 - 1], 1, 2)
        ab.setflags(write=False)
        self.band = ab

    @property
    def size(self) -> int:
        return self.band.shape[1]

    @property
    def diag(self) -> np.ndarray:
        """Node k's diagonal block, symmetric, from the band's lower
        triangle.  Nothing in the package reads it; the benchmark's tracer
        reads its shape to size each Hessian."""
        D = np.swapaxes(_skew(self.band, self.block)[:, :, 0], 1, 2)
        blocks = np.where(np.tri(self.block, dtype=bool), D, np.swapaxes(D, 1, 2))
        if not self.cyclic:
            return blocks
        out = np.empty_like(blocks)
        out[_folded_order(len(blocks))] = blocks
        return out

    def to_dense(self) -> np.ndarray:
        """The symmetric matrix in node order."""
        N = self.size
        r, j = np.indices(self.band.shape)
        inside = r + j < N
        A = np.zeros((N, N))
        A[(r + j)[inside], j[inside]] = self.band[inside]
        A = np.where(np.tri(N, dtype=bool), A, A.T)
        if not self.cyclic:
            return A
        b = self.block
        node = (_folded_order(N // b)[:, None] * b + np.arange(b)).ravel()
        out = np.empty_like(A)
        out[np.ix_(node, node)] = A
        return out

    def solve(self, rhs: np.ndarray, fac) -> np.ndarray:
        """x with A x = rhs, from ``fac``, `neg_cholesky`'s factor of -A, by
        dpbtrs (`_band_lapack`) on a fresh vector; ValueError if rhs is not
        finite, before any LAPACK call, or if dpbtrs rejects an argument."""
        rhs = np.asarray_chkfinite(rhs, dtype=float)  # the factor of a finite band is finite
        b = self.block
        F = self.size // b
        order = _folded_order(F) if self.cyclic else slice(None)
        # A x = rhs  <=>  x = (-A)^{-1} (-rhs), solved in a fresh vector
        y, info = _LAPACK.dpbtrs(fac, -rhs.reshape(F, b)[order].ravel())
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        x = np.empty((F, b))
        x[order] = y.reshape(F, b)
        return x.ravel()

    def neg_cholesky(self, shift: float = 0.0):
        """Lower Cholesky factor of -(A - shift I) by LAPACK dpbtrf, from the
        library numpy links (`_band_lapack`), on the negated band (folded
        when cyclic), or None when A - shift I is not negative definite;
        ValueError if that band is not finite, before any LAPACK call, or if
        dpbtrf rejects an argument.  Each call negates the stored band into
        a fresh array in one pass, adds the shift to its row 0, the negated
        diagonal -d (fl(shift - d) = -fl(d - shift)), and factors that array
        in place."""
        if self.finite:
            ab = np.negative(self.band)
            ab[0] += shift  # a shift that is not finite, or overflows, shows here
        if not self.finite or not np.all(np.isfinite(ab[0])):
            raise ValueError("array must not contain infs or NaNs")
        fac, info = _LAPACK.dpbtrf(ab)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")
        return fac if info == 0 else None

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order, of the dense matrix."""
        return np.linalg.eigvalsh(self.to_dense())

    def inertia(self) -> tuple[int, int, int]:
        """(negative, zero, positive) counts of the eigenvalues of the dense
        matrix, an eigenvalue in [-delta, delta] counting as zero, delta =
        ||A||_1 / COND_LIMIT from that matrix's 1-norm.  Nothing in the
        package calls it: it is the reference `_gram_inertia` is tested
        against, and the benchmark's tracer names it."""
        dense = self.to_dense()
        eigs, delta = np.linalg.eigvalsh(dense), np.linalg.norm(dense, 1) / COND_LIMIT
        neg, pos = int(np.sum(eigs < -delta)), int(np.sum(eigs > delta))
        return neg, self.size - neg - pos, pos


# ---------------------------------------------------------------------------
# packing

def _pack(gamma: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Nodes 0..M-1 of two (M+1, n) nodal arrays, flat as [gamma_k, lambda_k]
    per node."""
    return np.hstack((gamma[:-1], lam[:-1])).ravel()


def pack_free(D: DualField) -> np.ndarray:
    """Flatten the free nodal values (nodes 0..M-1) as [gamma_k, lambda_k]."""
    return _pack(D.gamma, D.lam)


def unpack_free(grid: TimeGrid, n: int, u: np.ndarray, periodic: bool = False) -> DualField:
    """Inverse of pack_free; node M is restored as exactly zero, or as a copy
    of node 0 when ``periodic``."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2 * n * grid.M,):
        raise ValueError(f"u must be a flat vector of length {2 * n * grid.M}")
    nodal = np.zeros((grid.M + 1, 2 * n))
    nodal[:-1] = u.reshape(grid.M, 2 * n)
    if periodic:
        nodal[-1] = nodal[0]
    return DualField(grid, nodal[:, :n], nodal[:, n:])


def _require_boundary(D: DualField, spec: ProblemSpec) -> None:
    """D must live on the problem grid and meet its node-M condition."""
    if D.grid != spec.grid:
        raise ValueError("dual field must live on the problem grid")
    if D.n != spec.n:
        raise ValueError(f"dual field is for n={D.n}, problem for n={spec.n}")
    if spec.periodic:
        if np.any(D.gamma[-1] != D.gamma[0]) or np.any(D.lam[-1] != D.lam[0]):
            raise ValueError("periodic condition violated: gamma and lambda must be "
                             "equal at the first and last nodes")
    elif np.any(D.gamma[-1] != 0.0) or np.any(D.lam[-1] != 0.0):
        raise ValueError("final-time condition violated: gamma and lambda must be "
                         "exactly zero at the last node")


# ---------------------------------------------------------------------------
# public operations

def dtp_map(lam, lamdot, gamma, gammadot, xbar, vbar, spec) -> tuple[np.ndarray, np.ndarray]:
    """Map dual values and rates at a point to the primal state (x, v).

    All inputs may carry leading batch axes (trailing axis of length n).
    The position solve uses the multiplier-weighted stiffness at ``lam``;
    a singular or ill-conditioned stiffness raises SingularStiffnessError.
    """
    p, s = spec.params, spec.scales
    arrs = [np.asarray(a, dtype=float) for a in (lam, lamdot, gamma, gammadot, xbar, vbar)]
    for a in arrs:
        if a.shape != arrs[0].shape or a.shape[-1] != p.n:
            raise ValueError("all dtp_map inputs must share one shape with trailing length n")
    lam, lamdot, gamma, gammadot, xbar, vbar = arrs
    state = _MappedState(lam, lamdot, gamma, gammadot, xbar, vbar,
                         force_jacobian(p.force, xbar), p.force, p.m, p.d, s.c_x, s.c_v)
    return state.x, state.v


def action(D: DualField, spec: ProblemSpec) -> float:
    """Value of the discretized dual functional, boundary terms included;
    assembled once per point and kept with D's mapped state."""
    _require_boundary(D, spec)
    state = _core_state(spec, D)
    if state.S is None:
        S = _action_elements(spec, D)
        if not spec.periodic:
            S -= spec.params.m * float(D.lam[0] @ spec.v0)
            S -= float(D.gamma[0] @ spec.x0)
        state.S = S
    return state.S


def gradient(D: DualField, spec: ProblemSpec) -> np.ndarray:
    """Exact gradient of ``action`` over the free nodal values (packed),
    read-only: assembled once per point and kept with D's mapped state."""
    _require_boundary(D, spec)
    state = _core_state(spec, D)
    if state.g is None:
        g_ga, g_la, g_gb, g_lb = _gradient_elements(spec, D)
        M, n = spec.grid.M, spec.n
        g_gamma = np.zeros((M + 1, n))
        g_lam = np.zeros((M + 1, n))
        g_gamma[:-1] += g_ga
        g_gamma[1:] += g_gb
        g_lam[:-1] += g_la
        g_lam[1:] += g_lb
        if spec.periodic:  # node M is node 0
            g_gamma[0] += g_gamma[M]
            g_lam[0] += g_lam[M]
        else:  # node M is pinned to zero; node 0 carries the initial conditions
            g_gamma[0] -= spec.x0
            g_lam[0] -= spec.params.m * spec.v0
        state.g = _pack(g_gamma, g_lam)
        state.g.flags.writeable = False
    return state.g


def hessian(D: DualField, spec: ProblemSpec) -> BlockTridiagonal:
    """Exact Hessian of ``action`` over the free nodal values; cyclic for
    the periodic problem.

    It is the Gram product H = -A^T W^-1 A (`_gram_inertia`), which is what
    makes the dual action concave wherever every weighted stiffness is
    positive definite: element k adds -h S_i^T W_k^-1 S_j to the node
    blocks i, j of its end nodes a = k and b = k+1, with S_a and S_b its
    Gram blocks A_a / sqrt(h) and A_b / sqrt(h) (`_transfer_matrices`) and
    W_k = diag(c_x K|_lam, c_v I).  The x rows of S are [-Y_0, Y_1] on
    node a and [Y_0, Y_1] on node b, Y = [I/h, -Mx^T/2] with Mx = dK/dx
    at the mapped state, so every product of x rows is the one Gram block
    Y^T K|_lam^-1 Y / c_x with signs; the v rows are s_a (x) I and
    s_b (x) I, s_a = [1/2, -(d/2 + m/h)] and s_b = [1/2, m/h - d/2].  Node
    k's diagonal block sums element k's aa product and element k-1's bb
    product; element k's ab product couples node k to node k+1.  Each
    product is formed for every element at once as a (M, 2n, 2n) array, the
    Gram block from its three distinct blocks and sqrt(h) taken into s, so that
    no intermediate exceeds `_gram_point`'s bound; `BlockTridiagonal` writes the band."""
    _require_boundary(D, spec)
    state = _core_state(spec, D)
    n, M, h = spec.n, spec.grid.M, spec.grid.h
    m, d, root = spec.params.m, spec.params.d, np.sqrt(h)
    # h Y^T P Y = [[P / h, P U], [U^T P, h U^T P U]], U = -Mx^T / 2
    P, U = state.Kinv / spec.scales.c_x, -0.5 * np.swapaxes(state.Mx, 1, 2)
    G = np.empty((M, 2 * n, 2 * n))
    np.divide(P, h, out=G[:, :n, :n])
    np.matmul(P, U, out=G[:, :n, n:])
    G[:, n:, :n] = np.swapaxes(G[:, :n, n:], 1, 2)
    np.matmul(np.swapaxes(h * U, 1, 2), G[:, :n, n:], out=G[:, n:, n:])
    sign = np.repeat([[-1.0, 1.0], [1.0, 1.0]], n, axis=1)  # of S_a's and S_b's x columns
    s = root * np.array([[0.5, -(0.5 * d + m / h)], [0.5, m / h - 0.5 * d]])  # sqrt(h) s_a, s_b
    # -h S_i^T W^-1 S_j = X[i, j] G - V[i, j]: X holds the x columns' signs,
    # negated, and V = h (s_i s_j^T / c_v) (x) I the v rows' product
    X = -sign[:, None, :, None] * sign[None, :, None, :]
    V = np.kron(s[:, None, :, None] * s[None, :, None, :], np.eye(n)) / spec.scales.c_v

    def product(i, j):
        """-h S_i^T W^-1 S_j of every element."""
        out = G * X[i, j]
        out -= V[i, j]
        return out

    diag, bb, off = product(0, 0), product(1, 1), product(0, 1)
    diag[1:] += bb[:-1]
    if not spec.periodic:  # node M is pinned
        return BlockTridiagonal(diag, off[:-1])
    diag[0] += bb[-1]  # element M-1 ends at node M, which is node 0
    return BlockTridiagonal(diag, off)


# ---------------------------------------------------------------------------
# the Gram factors: Hessian inertia and Newton directions

def _schur_complements(spec: ProblemSpec, Mx: np.ndarray) -> np.ndarray:
    """E_k = (d/2 + m/h) I + (h/4) Mx_k^T, (M, n, n): the Schur complement
    of the -I/h block of element k's Gram factor block A_a,k
    (`_transfer_matrices`)."""
    h = spec.grid.h
    c = 0.5 * spec.params.d + spec.params.m / h
    return c * np.eye(spec.n) + (0.25 * h) * np.swapaxes(Mx, 1, 2)


def _transfer_matrices(spec: ProblemSpec, Mx: np.ndarray, Einv: np.ndarray) -> np.ndarray:
    """R_k = -A_a,k^-1 A_b,k, (M, 2n, 2n), from element k's Gram factor
    blocks on node k's [gamma, lambda] and on node k+1's, x rows then v rows,

        A_a = sqrt(h) [[-I/h, -Mx^T/2], [I/2, -(d/2 + m/h) I]]
        A_b = sqrt(h) [[ I/h, -Mx^T/2], [I/2,  (m/h - d/2) I]],

    sqrt(h) times the map from the end nodes to the linearized primal state,
    so that element k adds -[A_a | A_b]^T W_k^-1 [A_a | A_b] to the Hessian,
    W_k = diag(c_x K|_lam, c_v I) (`hessian`).  Through ``Einv``,
    the inverses of the Schur complements E = (d/2 + m/h) I + q,
    q = (h/4) Mx^T (`_schur_complements`), from the record's LU
    (`_GramPoint.Einv`), R = [[I - 2 q E^-1, -(4m/h) q E^-1], [E^-1,
    (2m/h) E^-1 - I]]: one n x n inverse per element, where A_a^-1 would
    take a 2n x 2n one.  Only the periodic problem reads them, for their
    log-scaled product (`_transfer_product`)."""
    n, h, m = spec.n, spec.grid.h, spec.params.m
    out = np.empty((len(Einv), 2 * n, 2 * n))
    qE = ((0.25 * h) * np.swapaxes(Mx, 1, 2)) @ Einv
    eye = np.eye(n)
    np.subtract(eye, 2.0 * qE, out=out[:, :n, :n])
    np.multiply(-4.0 * m / h, qE, out=out[:, :n, n:])
    out[:, n:, :n] = Einv
    np.subtract((2.0 * m / h) * Einv, eye, out=out[:, n:, n:])
    return out


def _schur_lu(spec: ProblemSpec, Mx: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(F, U): E_k = L_k U_k, the LU factorization without pivoting of every
    Schur complement E_k = c (I + X_k), c = d/2 + m/h and X_k = (h/4c)
    Mx_k^T (`_schur_complements`), and F_k = L_k^-1, for Mx of
    half-bandwidth ``w`` (`_mx_width`).  Where rho = max ||X_k||_F <= 1/2 no
    pivot is below c/2 in magnitude: each leading block of I + X_k is within
    1/2 of I, so its singular values are at least 1/2, and the reciprocal of
    pivot j is an entry of the inverse of E_k's leading block of order j.
    Only E's band is formed, in an (n, n, M) array whose every step works on
    rows of M, and U is read on and within w above its diagonal; F^T =
    L^-T is formed by rows, from the last, each from the w rows below it."""
    n, M, h = spec.n, len(Mx), spec.grid.h
    E = np.empty((n, n, M))  # [i, j, k] = E_k[i, j], only |i - j| <= w written
    rows = E.reshape(n * n, M)
    for d in range(-w, w + 1):  # diagonal d of E, (h/4) Mx^T's, from E[0, d] or E[-d, 0]
        np.multiply(np.diagonal(Mx, -d, 1, 2).T, 0.25 * h,
                    out=rows[max(d, -d * n)::n + 1][:n - abs(d)])
    rows[::n + 1] += 0.5 * spec.params.d + spec.params.m / h
    for j in range(n - 1):
        hi = min(n, j + w + 1)
        E[j + 1:hi, j] /= E[j, j]  # column j of L
        E[j + 1:hi, j + 1:hi] -= E[j + 1:hi, j, None] * E[j, j + 1:hi]
    Ft = np.tile(np.eye(n), (M, 1, 1))
    for r in range(n - 2, -1, -1):  # row r of L^-T: e_r - sum_s L[r + s, r] row r + s
        for s in range(1, min(w, n - 1 - r) + 1):
            Ft[:, r, r + 1:] -= E[r + s, r, :, None] * Ft[:, r + s, r + 1:]
    return np.swapaxes(Ft, 1, 2), E.transpose(2, 0, 1)


def _weight_counts(point: _GramPoint) -> tuple[int, int]:
    """(zero, positive) eigenvalue counts of the block diagonal -W^-1 at
    ``point``, one within max|1/w| / COND_LIMIT of zero counting as zero;
    the weights w are c_x times the eigenvalues mu of K|_lam, and c_v.  A
    K|_lam that factors by Cholesky has no negative mu, and the bounds
    1/(1 + rho) <= 1/mu <= 1/(1 - rho), rho = max ||K - I||_F, or ||K^-1||_F
    where rho exceeds _CERT_RHO, can certify that none is near zero; only
    what they leave open gets `eigvalsh`, and K|_lam = I (K None) none."""
    s, state = point.spec.scales, point.state
    rho, (M, n) = float(np.max(state.rho)), point.Mx.shape[:2]
    if point.definite:
        hi = 1.0 / (1.0 - rho) if rho <= _CERT_RHO else np.max(
            np.linalg.norm(state.Kinv, axis=(1, 2)))
        if min(1.0 / (1.0 + rho), s.c_x / s.c_v) > max(hi, s.c_x / s.c_v) / COND_LIMIT:
            return 0, 0
    mu = np.ones((M, n)) if state.K is None else np.linalg.eigvalsh(state.K)
    inv = np.concatenate([(1.0 / (s.c_x * mu)).ravel(), np.full(M * n, 1.0 / s.c_v)])
    tiny = np.abs(inv) <= np.max(np.abs(inv)) / COND_LIMIT
    return int(np.sum(tiny)), int(np.sum((inv < 0.0) & ~tiny))


def _transfer_product(R) -> tuple[np.ndarray, float]:
    """(P, s) with R_0 R_1 ... R_{M-1} = e^s P.  The product is formed
    pairwise, each partial product scaled by its largest entry with the
    scale's log carried, so none overflows."""
    logs = np.zeros(len(R))
    while len(R) > 1:
        even = len(R) - len(R) % 2
        prod = R[0:even:2] @ R[1:even:2]
        scale = np.max(np.abs(prod), axis=(1, 2))
        scale[scale == 0.0] = 1.0
        R = np.concatenate([prod / scale[:, None, None], R[even:]])
        logs = np.concatenate([logs[0:even:2] + logs[1:even:2] + np.log(scale), logs[even:]])
    return R[0], float(logs[0])


class _GramPoint:
    """The Gram form H = -A^T W^-1 A at one point (`_gram_point`), read off
    its mapped ``state`` (`_core_state`): ``Mx`` = dK/dx at the mapped state
    gives the Gram factor A (`_transfer_matrices`), K|_lam at the midpoints
    the weights W, and ``rho`` = max ||X_k||_F bounds A's element blocks
    (`_schur_lu`).  Formed when first read, then kept: ``definite``,
    ``nullity``, the Schur complements' factor ``lu`` = (F, U), ``Einv`` =
    E^-1, the transfer matrices ``R`` and their ``product`` (P, s).
    Nothing keeps a record between points."""

    def __init__(self, spec: ProblemSpec, state: _MappedState):
        self.spec, self.state, self.Mx = spec, state, state.Mx
        h = spec.grid.h
        c = 0.5 * spec.params.d + spec.params.m / h
        # inf or nan where Mx is; inf, which certifies nothing, where c
        # underflows to zero (a subnormal mass with no damping)
        norm = float(np.max(0.25 * h * np.linalg.norm(self.Mx, axis=(1, 2))))
        self.rho = norm / c if c > 0.0 else np.inf

    @cached_property
    def definite(self) -> bool:
        """Whether every K|_lam factors by Cholesky; one within _CERT_RHO of I does."""
        unsure = ~(self.state.rho <= _CERT_RHO)  # none where K|_lam = I
        if np.any(unsure):
            try:
                np.linalg.cholesky(self.state.K[unsure])
            except np.linalg.LinAlgError:
                return False
        return True

    @cached_property
    def nullity(self) -> int:
        """The nullity of the square Gram factor A, judged against _GRAM_LIMIT.

        A z = 0 says A_a,k z_k + A_b,k z_{k+1} = 0 for every element k
        (`_transfer_matrices`), with z_M = 0 (open) or z_M = z_0 (cyclic).
        Where every A_a,k is regular, as rho <= 1/2 certifies with no SVD,
        z_k = R_k z_{k+1} with R_k = -A_a,k^-1 A_b,k: the open A is regular,
        with no E^-1 formed, and the cyclic one's nullity is the number of
        multipliers of the transfer product R_0 ... R_{M-1} at 1, |log mu|
        <= M _GRAM_LIMIT, the reciprocals of the adjoint's monodromy
        multipliers.  Otherwise it is the elements' summed nullity (singular
        values at most _GRAM_LIMIT times the largest), an upper bound on the
        open nullity (a block triangular matrix has at least the rank of its
        diagonal blocks) and an estimate of the cyclic one."""
        if not self.rho <= 0.5:
            sv = np.linalg.svd(_schur_complements(self.spec, self.Mx), compute_uv=False)
            singular = int(np.sum(sv <= _GRAM_LIMIT * sv[:, :1]))
            if singular:
                return singular
        if not self.spec.periodic:
            return 0
        P, s = self.product
        mu = np.linalg.eigvals(P)
        with np.errstate(divide="ignore"):  # mu = 0 is as far from 1 as can be
            rate = np.hypot(np.log(np.abs(mu)) + s, np.angle(mu))
        return int(np.sum(rate <= self.spec.grid.M * _GRAM_LIMIT))

    @cached_property
    def lu(self) -> tuple[np.ndarray, np.ndarray]:
        """(F, U) with F_k E_k = U_k: `_schur_lu`'s where rho <= 1/2, else
        (E^-1, I), also where rho, or Mx, is not finite."""
        if not self.rho <= 0.5:
            Einv = np.linalg.inv(_schur_complements(self.spec, self.Mx))
            return Einv, np.broadcast_to(np.eye(self.spec.n), Einv.shape)
        return _schur_lu(self.spec, self.Mx, _mx_width(self.spec.params.force))

    @cached_property
    def Einv(self) -> np.ndarray:
        """E^-1 = U^-1 F, by back substitution on U's w superdiagonals
        (`_mx_width`), from the last row; F itself where U = I."""
        F, U = self.lu
        if not self.rho <= 0.5:
            return F
        n, w = self.spec.n, _mx_width(self.spec.params.force)
        X = np.array(np.swapaxes(F, 0, 1))  # X[r]: row r of every element's E^-1, contiguous
        for r in range(n - 1, -1, -1):
            for s in range(1, min(w, n - 1 - r) + 1):
                X[r] -= U[:, r, r + s, None] * X[r + s]
            X[r] /= U[:, r, r, None]
        return np.swapaxes(X, 0, 1)

    @cached_property
    def R(self) -> np.ndarray:
        return _transfer_matrices(self.spec, self.Mx, self.Einv)

    @cached_property
    def product(self) -> tuple[np.ndarray, float]:
        return _transfer_product(self.R)


def _gram_point(spec: ProblemSpec, D: DualField) -> _GramPoint | None:
    """D's `_GramPoint`, or None where the mapped state or the Hessian is
    not finite.  Mx and max|P|, P = K|_lam^-1 / c_x, are tested, with
    max|P| <= 1 / (c_x (1 - rho)) where every rho <= _CERT_RHO (no K|_lam^-1
    formed); the Hessian is formed only where one bound on its Gram
    products (`hessian`), h 4n^2 s^2 max(max|P|, 1/c_v) with s the largest
    |entry| of the Gram blocks S, leaves overflow open."""
    state = _core_state(spec, D)
    Mx, rho = state.Mx, float(np.max(state.rho))
    pmax = (1.0 / (1.0 - rho) if rho <= _CERT_RHO else
            float(np.max(np.abs(state.Kinv)))) / spec.scales.c_x
    if not (pmax < np.inf and all(np.all(np.isfinite(a)) for a in (
            state.lam, state.x, state.v, Mx))):
        return None
    # an entry of S^T P S sums n^2 terms, two elements meet at a node, and
    # every intermediate of `hessian` is within the bound; below half the
    # largest float it leaves round-off no room to overflow (an inf or nan
    # bound certifies nothing)
    n, h, p = spec.n, spec.grid.h, spec.params
    s = max(0.5, 1.0 / h, 0.5 * float(np.max(np.abs(Mx))), 0.5 * p.d + p.m / h)
    bound = h * 4 * n * n * s * s * max(pmax, 1.0 / spec.scales.c_v)
    if not bound <= 0.5 * np.finfo(float).max and not hessian(D, spec).finite:
        return None
    return _GramPoint(spec, state)


def _gram_inertia(spec: ProblemSpec, D: DualField) -> tuple[int, int, int] | None:
    """(negative, zero, positive) eigenvalue counts of the Hessian at D,
    read off the Gram record made here (`_gram_point`) with no Hessian
    formed; None where a part is not finite.

    H = -A^T W^-1 A, where A is square (row block k holds element k's
    blocks, `_transfer_matrices`, at nodes k and k+1; node M is dropped, or
    is node 0 when cyclic) and W is block diagonal.  Where A is regular,
    Sylvester's law (Golub & Van Loan, Matrix Computations, 4th ed., 8.1)
    gives H the inertia of -W^-1.  So zero is what `_weight_counts` finds
    near zero plus A's nullity (`_GramPoint.nullity`); positive is the
    number of negative eigenvalues of K|_lam over the M midpoints that are
    not near zero, at most N - zero; negative is the rest."""
    point = _gram_point(spec, D)
    if point is None:
        return None
    N = 2 * spec.n * spec.grid.M
    zero, positive = _weight_counts(point)
    zero = min(N, zero + point.nullity)
    positive = min(positive, N - zero)
    return N - zero - positive, zero, positive


def _mx_width(force: QuadraticForce) -> int:
    """w, the half-bandwidth of Mx = A + B·x, the larger of A's and B·x's
    (`QuadraticForce.band`)."""
    i, j = np.nonzero(force.A)
    return max(force.band[1], int(np.max(np.abs(i - j), initial=0)))


def _direction_band(spec: ProblemSpec) -> np.ndarray:
    """A zero band for `_gram_direction`, one per solve: T's, kd = 3n + w
    (`_mx_width`)."""
    kd = 3 * spec.n + _mx_width(spec.params.force)
    return np.zeros((kd + 1, 2 * spec.n * spec.grid.M), order="F")


def _band_entries(ab, b, r, c, count, shape, steps=((1, 1),)) -> np.ndarray:
    """[k, ...] = T[b k + r + i dr, b k + c + i dc] (steps (dr, dc) per axis),
    a view numpy checks lies in ``ab``, ab[kd + i - j, j] = T[i, j] for
    0 <= j - i <= kd only (an entry outside aliases another)."""
    kd, (sr, sc) = ab.shape[0] - 1, ab.strides
    if not count:
        return np.empty((0,) + shape)
    return np.ndarray((count,) + shape, float, ab.T, (kd + r - c) * sr + c * sc,
                      (b * sc,) + tuple(dr * sr + dc * (sc - sr) for dr, dc in steps))


def _write_factor(ab: np.ndarray, spec: ProblemSpec, Mx, F, U) -> None:
    """Write T into ``ab`` (`_direction_band`), element k's block row T_kk =
    [[-I/h, -Mx_k^T/2], [0, -U_k]] and T_k,k+1 = [[I/h, -Mx_k^T/2], [F_k,
    (2m/h) F_k - U_k]] (k + 1 < M): Mx^T and U by their diagonals within
    w, F and (2m/h) F - U as whole blocks, the same positions for any F, U."""
    n, M, h, m = spec.n, spec.grid.M, spec.grid.h, spec.params.m
    b = 2 * n
    w, entries = ab.shape[0] - 1 - 3 * n, partial(_band_entries, ab, b)
    entries(0, 0, M, (n,))[...] = -1.0 / h
    entries(0, b, M - 1, (n,))[...] = 1.0 / h
    for d in range(-w, w + 1):  # diagonal d of Mx^T, rows i0.., in T_kk and T_k,k+1
        i0, half = max(0, -d), -0.5 * np.diagonal(Mx, -d, 1, 2)
        entries(i0, n + i0 + d, M, (n - abs(d),))[...] = half
        entries(i0, 3 * n + i0 + d, M - 1, (n - abs(d),))[...] = half[:-1]
    Ft, block = np.swapaxes(F[:-1], 1, 2), ((0, 1), (1, 0))  # [k, j, i]: down T's columns
    np.copyto(entries(n, b, M - 1, (n, n), block), Ft)
    np.multiply(2.0 * m / h, Ft, out=entries(n, 3 * n, M - 1, (n, n), block))
    for d in range(w + 1):  # diagonal d of U, in T_kk and T_k,k+1
        Ud = np.diagonal(U, d, 1, 2)
        # not np.negative: numpy 2.4.6's reads this Ud wrong into this out at (M, n) = (2, 3)
        np.multiply(Ud, -1.0, out=entries(n, n + d, M, (n - d,)))
        entries(n, 3 * n + d, M - 1, (n - d,))[...] -= Ud[:-1]


def _gram_direction(spec: ProblemSpec, point: _GramPoint, g: np.ndarray,
                    ab: np.ndarray | None = None) -> np.ndarray | None:
    """The Newton direction d, H d = -g, at ``point`` (`_gram_point`), as
    d = A^-1 W A^-T g from the Gram form H = -A^T W^-1 A (`_gram_inertia`),
    with no Hessian formed, on the band ``ab`` (`_direction_band`, made
    here when None), whose every nonzero it rewrites; None where H is not
    certified negative definite, which it is exactly when every K|_lam
    factors by Cholesky and A is regular (the record's ``definite`` and
    ``nullity``), and where the cyclic capacitance below is not finite or
    its 1-norm condition number exceeds _CAPACITANCE_LIMIT.

    The row transform G_k = [[I, 0], [(h/2) F_k, F_k]], (F, U) the record's
    ``lu``, takes element k's Gram blocks (`_transfer_matrices`) to sqrt(h)
    [T_kk | T_k,k+1] (`_write_factor`).  So the open A is sqrt(h) G^-1 T, T
    upper triangular, and d = (1/h) T^-1 G W G^T T^-T g: each solve with T
    or T^T is one LAPACK dtbtrs call on the band (Golub & Van Loan, Matrix
    Computations, 4th ed., 4.3), around per-element F_k, F_k^T and K|_lam's
    band.  The cyclic A is sqrt(h) G^-1 (T + e_{M-1} V e_0^T): element
    M-1's T_k,k+1, V, sits on node M, which is node 0.  That corner is a
    rank-2n correction, so by Sherman-Morrison-Woodbury (ibid., 2.1.4) each
    solve takes two dtbtrs calls around one 2n x 2n capacitance I - Pi, Pi
    = R_0 ... R_{M-1} with R_k = -T_kk^-1 T_k,k+1 = -A_a,k^-1 A_b,k (the
    record's ``product``, whose multipliers at 1 A's nullity counts): y =
    T^-1 (r - e_{M-1} V y_0) with (I - Pi) y_0 = (T^-1 r)_0, and the
    transposed solve z = T^-T (s - e_0 u) with (I - Pi^T) u = V^T (T^-T
    s)_{M-1}."""
    Mx, K = point.Mx, point.state.K
    n, M, h, b = spec.n, spec.grid.M, spec.grid.h, 2 * spec.n
    c_x, c_v = spec.scales.c_x, spec.scales.c_v
    if not point.definite or point.nullity:
        return None
    F, U = point.lu  # a cyclic record's product has formed it
    if spec.periodic:
        P, s = point.product
        with np.errstate(over="ignore", invalid="ignore"):
            capacitance = np.eye(b) - np.exp(s) * P
        if not (np.all(np.isfinite(capacitance))
                and np.linalg.cond(capacitance, 1) <= _CAPACITANCE_LIMIT):
            return None
        # U read within w of its diagonal, as the band reads it
        V = np.block([[np.eye(n) / h, -0.5 * Mx[-1].T],
                      [F[-1], (2.0 * spec.params.m / h) * F[-1]
                       - np.triu(np.tril(U[-1], _mx_width(spec.params.force)))]])
    ab = _direction_band(spec) if ab is None else ab
    _write_factor(ab, spec, Mx, F, U)

    def tbtrs(x, trans):
        x, info = _LAPACK.dtbtrs(ab, x, trans)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dtbtrs")
        return x

    def solve(x, trans):
        """The band's (cyclic: and corner's) solve of a fresh x, transposed if ``trans``."""
        y = tbtrs(x.copy() if spec.periodic else x, trans)
        if spec.periodic:  # the corner, through the capacitance
            if trans:
                x[:b] -= np.linalg.solve(capacitance.T, V.T @ y[-b:])
            else:
                x[-b:] -= V @ np.linalg.solve(capacitance, y[:b])
            y = tbtrs(x, trans)
        return y.reshape(M, 2, n, 1)

    # element by element: G^T, then W / h, then G
    a, bl = np.swapaxes(solve(np.array(g, dtype=float), True), 0, 1)
    q = np.swapaxes(F, 1, 2) @ bl
    wx = (c_x / h) * (a + (0.5 * h) * q)
    if K is not None:
        wx = K @ wx
    bl = F @ ((c_v / h) * q + (0.5 * h) * wx)
    return solve(np.concatenate([wx, bl], axis=1).ravel(), False).ravel()


def ellipticity_check(D: DualField, spec) -> np.ndarray:
    """Per-node minimum eigenvalue of the ellipticity block
    diag(m^2/c_v I, (1/c_x) K|_lam^{-1}).

    Positive entries certify the pointwise ellipticity bound; a weighted
    stiffness singular by the stiffness test's rule (min|mu| = 0 or
    max|mu| / min|mu| > COND_LIMIT) is reported as 0.0, and an indefinite one
    as the (negative) extreme eigenvalue.  Works for both the initial-value
    and the periodic problem spec.
    """
    p, s = spec.params, spec.scales
    if D.n != p.n:
        raise ValueError(f"dual field is for n={D.n}, problem for n={p.n}")
    floor = p.m * p.m / s.c_v
    mu = np.linalg.eigvalsh(_Stiffness(_stiffness_band(p.force.band, D.lam, s.c_x)[0]))
    safe_mu = np.where(mu == 0.0, 1.0, mu)
    out = np.minimum(floor, np.min(1.0 / (s.c_x * safe_mu), axis=1))
    out[_singular(mu)[0]] = 0.0
    return out


def _ellipticity_min(D: DualField, spec) -> float:
    """``float(np.min(ellipticity_check(D, spec)))``, bit for bit, off the
    same band.  Where every nodal K is within _CERT_RHO of I it is
    min(m^2/c_v, 1/(c_x mu)), mu the largest eigenvalue of any nodal K,
    each at most its bound min(1 + rho, Gershgorin): m^2/c_v decides with
    no eigenvalue formed, or eigvalsh sees the node of the largest bound,
    then the nodes whose bound reaches its mu, the only K formed dense."""
    p, s = spec.params, spec.scales
    low, rho = _stiffness_band(p.force.band, D.lam, s.c_x)
    if not np.all(rho <= _CERT_RHO):
        return float(np.min(ellipticity_check(D, spec)))
    floor = p.m * p.m / s.c_v
    # the slack covers the round-off of the bounds and of the eigenvalues,
    # exact where K is I to round-off (an eigenvalue of 1.0); |K| 1 sums the rows
    rows = (_Stiffness(np.abs(low)) @ np.ones(low.shape[:-1] + (1,)))[..., 0]
    bound = np.minimum(1.0 + rho, np.max(rows, axis=-1)) * np.where(rho > 0.0, 1.0 + 1e-10, 1.0)
    if floor <= 1.0 / (s.c_x * np.max(bound)):
        return floor
    mu = float(np.max(np.linalg.eigvalsh(_Stiffness(low[np.argmax(bound)]))))
    mu = float(np.max(np.linalg.eigvalsh(_Stiffness(low[bound >= mu]))))  # that node among them
    return min(floor, 1.0 / (s.c_x * mu))
