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
cyclic: `hessian` writes each [gamma, lambda] sub-block of it once, for all
nodes, straight from the element parts (no element quadrant or node block
is formed), and records there whether every entry is finite; that band is
the only way a `BlockTridiagonal` is made, and each factorization negates
one copy of it.  The spec samples f, K and dK/dx at the element midpoints
once; the mapped midpoint state of a DualField (the primal state, the
intermediate covectors, and Mx and the stiffness inverse once read) is
computed once and kept on the immutable field, keyed by the spec, so the
action, gradient, Gram record and Hessian at that field share it.

No eigendecomposition or factorization runs on the Newton path when every
multiplier-weighted stiffness K is within _CERT_RHO of I (Frobenius norm):
K is then positive definite and well conditioned, and solved, not
inverted.  Elsewhere kappa_2(K) <= ||K||_F ||K^-1||_F certifies a point;
the eigenvalue test, the only place a SingularStiffnessError is raised,
sees just the points neither bound certifies; `ellipticity_check` reports
0.0 where it would fail.
The Hessian is a Gram product, H = -A^T W^-1 A, with A square and block
bidiagonal and W = diag(c_x K|_lam, c_v I) per element, so a solve reads its
final point's inertia off the element weights and A's nullity
(`_gram_inertia`), with no Hessian formed or factored there.
`BlockTridiagonal.inertia`, which counts a Hessian's dense eigenvalues
beyond delta = ||H||_1 / COND_LIMIT, is its reference.  The open A is
block upper bidiagonal, A = blockdiag(A_a,k) (I - U), so an open Newton
direction is d = A^-1 W A^-T g, two unit triangular band solves (LAPACK
dtbtrs) around per-element n x n work, where H is certified negative
definite (`_gram_direction`); the cyclic A adds one corner block,
a rank-2n correction that Sherman-Morrison-Woodbury turns into solves with
one 2n x 2n capacitance, so a cyclic direction is four such band solves.
No Hessian is formed or factored for a direction, and none to judge a
cyclic problem singular: the solver reads that off A's nullity at its
first iterate, the count the inertia's zeros include.  These three readers
share one Gram record per point (`_gram_point`), which forms A's nullity,
E^-1, the transfer matrices and their product when a reader first needs
them.  A Hessian band is assembled only for a trust-region step.

Overflow far from the maximum (a huge base or mass) follows numpy's default,
and the solver's finite checks stop there; only an overflowed certificate
bound is a decision, sent to the eigenvalue test.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .chain_model import (
    ChainParams,
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


def _stiffness_solve(B, lam, c_x: float, r):
    """(y, K, rho, Kinv): y = K^-1 r for the weighted stiffness K = I +
    (1/c_x) B·lam at each point of ``lam`` (leading batch axes allowed),
    rho = ||K - I||_F per point.  Where every rho <= _CERT_RHO, y =
    np.linalg.solve(K, r), with nothing inverted or factored: Kinv is None.
    Otherwise y = K^-1 r and kappa_2(K) <= ||K||_F ||K^-1||_F certifies a
    point; only the points whose bound exceeds _CERT_LIMIT, or the whole
    batch when the inverse itself fails, go through `_check_stiffness`, so
    exactly the points it rejects raise SingularStiffnessError.  Where
    lam·B is exactly zero (a linear chain at finite lam, or the zero
    field) K is I: it is None, rho zero and Kinv a read-only broadcast of
    I, with no stiffness, inversion or bound formed."""
    n, batch = B.shape[0], np.shape(lam)[:-1]
    if not np.any(lam) or (not np.any(B) and np.all(np.isfinite(lam))):
        Kinv = np.broadcast_to(np.eye(n), batch + (n, n))
        return (Kinv @ r[..., None])[..., 0], None, np.zeros(batch), Kinv
    K = stiffness_lambda(B, lam, c_x)
    # rho^2 = ||K||_F^2 - 2 tr K + n; one that overflows certifies nothing
    with np.errstate(over="ignore", invalid="ignore"):
        KK = np.einsum("...ij,...ij->...", K, K)
        rho = np.sqrt(np.maximum(KK - 2.0 * np.einsum("...ii->...", K) + n, 0.0))
    if np.all(rho <= _CERT_RHO):
        return np.linalg.solve(K, r[..., None])[..., 0], K, rho, None
    try:
        Kinv = np.linalg.inv(K)
    except np.linalg.LinAlgError:
        mu, Q = _check_stiffness(K)
        Kinv = (Q / mu[..., None, :]) @ np.swapaxes(Q, -1, -2)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # nor does an overflowed bound
            bound = np.sqrt(KK * np.einsum("...ij,...ij->...", Kinv, Kinv))
        unsure = np.flatnonzero(~(bound <= _CERT_LIMIT))
        if unsure.size:
            _check_stiffness(K.reshape(-1, n, n)[unsure], unsure)
    return (Kinv @ r[..., None])[..., 0], K, rho, Kinv


class _MappedState:
    """The dual-to-primal map at points (leading batch axes allowed), J the
    force Jacobian at xbar: w, r = gammadot - J^T lam, (y, K, rho) =
    `_stiffness_solve`'s, dx = y / c_x, x = xbar + dx and v = vbar + w / c_v.
    Formed when first read, then kept: ``Kinv`` = K|_lam^-1 (formed already
    where a rho exceeds _CERT_RHO) and ``Mx`` = dK/dx at x."""

    def __init__(self, lam, lamdot, gamma, gammadot, xbar, vbar, J, B, m, d, c_x, c_v):
        self.lam, self.gammadot, self.J, self.B = lam, gammadot, J, B
        self.w = gamma + m * lamdot - d * lam
        self.r = gammadot - np.einsum("...j,...ji->...i", lam, J)
        self.y, self.K, self.rho, Kinv = _stiffness_solve(B, lam, c_x, self.r)
        self.dx = self.y / c_x
        self.x, self.v = xbar + self.dx, vbar + self.w / c_v
        if Kinv is not None:
            self.Kinv = Kinv

    @cached_property
    def Kinv(self) -> np.ndarray:
        return np.linalg.inv(self.K)

    @cached_property
    def Mx(self) -> np.ndarray:
        n = self.B.shape[0]
        return self.J + (self.dx @ self.B.reshape(n * n, n).T).reshape(self.J.shape)


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
                         spec._midpoints[2], p.force.B, p.m, p.d, s.c_x, s.c_v)
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
    dx, x, v = st.dx, st.x, st.v
    p, n, h = spec.params, spec.n, spec.grid.h
    dxdx = (dx[:, :, None] * dx[:, None, :]).reshape(spec.grid.M, n * n)
    Kx = (Kbar_mid + np.einsum("mjr,mr->mj", Abar_mid, dx)
          + 0.5 * (dxdx @ p.force.B.reshape(n, n * n).T))
    mom = p.d * v + Kx - f_mid
    g_ga = -0.5 * h * v + x
    g_gb = -0.5 * h * v - x
    g_la = 0.5 * h * mom + p.m * v
    g_lb = 0.5 * h * mom - p.m * v
    return g_ga, g_la, g_gb, g_lb


def _hessian_parts(spec: ProblemSpec, D: DualField):
    """The element Hessian's parts (C, P, G, L): the 4x4 scalar matrix C and
    the (M, n, n) matrices P = K|_lam^{-1} / c_x, G = Mx P / 2 and
    L = Mx P Mx^T.

    An element couples its end nodes a and b, each with the values
    [gamma, lambda], by a symmetric (4n, 4n) block.  The reduced midpoint
    Hessian is -J^T diag(c_x K|_lam, c_v I)^{-1} J with J the mixed second
    derivatives of the generating integrand, which is what makes the dual
    integrand concave wherever the weighted stiffness is positive definite.

    In the midpoint variables (gamma_mid, lambda_mid, gamma_rate,
    lambda_rate) that Hessian is a scalar multiple of I in every block except
    three: -P at (rate, rate), Mx P at (lambda_mid, gamma_rate) and its
    transpose, and -L at (lambda_mid, lambda_mid), with Mx = dK/dx at the
    mapped state.  The element block is h S^T H S for the 4x4 map S from
    end-node values to midpoint variables: the scalar parts combine once as
    C = h S^T (scalar) S, whose rows and columns are gamma_a, lambda_a,
    gamma_b, lambda_b, and each matrix part lands in the end-node blocks
    with the weights S gives it (see `hessian`).
    """
    state = _core_state(spec, D)
    P, Mx = state.Kinv / spec.scales.c_x, state.Mx
    MxP = Mx @ P
    L = MxP @ np.swapaxes(Mx, 1, 2)
    return _scalar_part(spec), P, 0.5 * MxP, L


def _scalar_part(spec: ProblemSpec) -> np.ndarray:
    """`_hessian_parts`' C, the 4x4 element block of the scalar parts."""
    h = spec.grid.h
    # map (gamma_mid, lambda_mid, gamma_rate, lambda_rate) -> end-node values
    smap = np.array([
        [0.5, 0.0, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [-1.0 / h, 0.0, 1.0 / h, 0.0],
        [0.0, -1.0 / h, 0.0, 1.0 / h],
    ])
    # coefficients of I in the midpoint Hessian; gamma_rate has none
    m, d, c_v = spec.params.m, spec.params.d, spec.scales.c_v
    scalar = np.array([
        [-1.0, d, 0.0, -m],
        [d, -d * d, 0.0, d * m],
        [0.0, 0.0, 0.0, 0.0],
        [-m, d * m, 0.0, -m * m],
    ]) / c_v
    return h * (smap.T @ scalar @ smap)


# ---------------------------------------------------------------------------
# block-tridiagonal matrix

def _skew(ab, F: int, v: int, s: int, families: int) -> np.ndarray:
    """Strided view of a lower band in Fortran order, by places of block size
    b = v s split into v x v sub-blocks of size s: [place k, i, q, family f,
    j, c] is ab[f b + j s + c - (i s + q), k b + i s + q], entry (j s + c) of
    row (i s + q) of place k's block row [D_k^T, U1_k, U2_k] (f = 0, 1, 2).
    Writable when ``ab`` is."""
    b = v * s
    sr, sc = ab.strides
    return np.lib.stride_tricks.as_strided(
        ab, (F, v, s, families, v, s), (b * sc, s * (sc - sr), sc - sr, b * sr, s * sr, sr))


def _folded_order(F: int) -> np.ndarray:
    """Node at each place of the folded order 0, F-1, 1, F-2, ..."""
    return np.stack([np.arange(F), np.arange(F)[::-1]], axis=1).ravel()[:F]


def _block_rows(ab, b: int) -> np.ndarray:
    """[place, q, family, c]: row q of each place's block row [D^T, U1, U2]
    of block size b, read from the lower band ``ab`` (`_skew`); entries left
    of the diagonal of D^T are not the matrix's."""
    return _skew(ab, ab.shape[1] // b, 1, b, ab.shape[0] // b)[:, 0, :, :, 0, :]


class _BandWriter:
    """Writes the band of a `BlockTridiagonal` once, from its node blocks
    split into v x v sub-blocks of size s (block b = v s), each sub-block
    given once for every node, in any order.

    The band holds ab[i - j, j] = A[i, j] for 0 <= i - j < 2b, or < 3b when
    cyclic, in Fortran order, which LAPACK reads in place, through `_skew`:
    column k b + q is row q of place k's block row [D_k^T, U1_k, U2_k] (U2
    when cyclic) read along a skew, and one slice assignment writes a
    sub-block family.  D_k's upper triangle lies left of the diagonal in D_k^T's
    rows, outside the band, so a diagonal sub-block is copied where it is
    on or below the diagonal and one wholly above it not at all; every
    entry then comes from the triangle of the block that stores it.  A
    cyclic matrix is written in the folded order: place 2j holds node j
    and place 2j+1 node F-1-j, so the couplings of even and of odd places
    are gap-2 families, and only two couplings join places one apart, node
    0 with node F-1 at place 0 and the middle one at place F-2 (both at
    place 0 when F = 2).  Those two are added to the zero band, so the
    F = 2 pair is summed and -0.0 becomes +0.0.

    It records the largest |entry| of the diagonal blocks, both triangles,
    and whether every coupling is finite: the matrix's finiteness is decided
    here, once.
    """

    def __init__(self, F: int, v: int, s: int, cyclic: bool):
        self.F, self.b, self.cyclic = F, v * s, cyclic
        families = 3 if cyclic else 2
        self.ab = np.zeros((families * self.b, F * self.b), order="F")
        self.rows = _skew(self.ab, F, v, s, families)
        self.diag_max = []
        self.finite = True

    def put_diag(self, v: int, w: int, d: np.ndarray) -> None:
        """Sub-block (v, w) of every diagonal block, (F, s, s) in node order."""
        self.diag_max.append(max(d.max(), -d.min()))
        if v < w:
            return
        at = self.rows[:, w, :, 0, v, :]  # where D^T's sub-block (w, v) goes
        dT = np.swapaxes(d, 1, 2)
        lower = np.tri(d.shape[1], dtype=bool).T if v == w else True  # [q, c]: c >= q
        if self.cyclic:
            half = self.F // 2
            np.copyto(at[0::2], dT[:self.F - half], where=lower)
            np.copyto(at[1::2], dT[::-1][:half], where=lower)
        else:
            np.copyto(at, dT, where=lower)

    def put_off(self, v: int, w: int, u: np.ndarray) -> None:
        """Sub-block (v, w) of every coupling, in node order: F-1 of them,
        or F when cyclic."""
        self.finite = self.finite and bool(np.all(np.isfinite(u)))
        F = self.F
        up = self.rows[:, v, :, :, w, :]  # where U's sub-block (v, w) goes
        down = self.rows[:, w, :, :, v, :]  # where U^T's sub-block (w, v) goes
        if not self.cyclic:
            up[:F - 1, :, 1] = u
            return
        mid = u[(F - 1) // 2]  # joins places F-2 and F-1, in reverse when F is odd
        if F % 2:
            down[F - 2, :, 1] += mid.T
        else:
            up[F - 2, :, 1] += mid
        down[0, :, 1] += u[F - 1].T
        up[0:F - 2:2, :, 2] = u[:(F - 1) // 2]
        down[1:F - 2:2, :, 2] = np.swapaxes(u[F - 2::-1][:F // 2 - 1], 1, 2)


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
    T^-T x when ``trans``, for the unit upper triangular band ``ab``
    (ab[kd + i - j, j] = T[i, j] above the diagonal, kd = its row count
    less 1; the diagonal row is not read); each returns (its result,
    LAPACK's info).  ``symbol`` names the dpbtrf it calls."""

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
                                diag="U", overwrite_b=1)
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
        tbtrs(b"U", b"T" if trans else b"N", b"U", n, kd, int_t(1), ab.ctypes.data, ldab,
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

    It is made one way, from the `_BandWriter` that `hessian` wrote.
    ``band`` is the writer's lower band, folded when cyclic, in Fortran
    order and read-only, LAPACK's ab[i - j, j] = A[i, j]; each
    factorization negates a copy of it.  The lower triangle of each D_k is
    what the band keeps, and every method reads the band.  ``diag_max`` is
    the largest |entry| of the diagonal blocks as written, both triangles,
    and ``finite`` says whether every entry is finite.
    """

    __slots__ = ("band", "block", "cyclic", "diag_max", "finite")

    def __init__(self, writer: _BandWriter):
        writer.ab.setflags(write=False)
        self.band, self.block, self.cyclic = writer.ab, writer.b, writer.cyclic
        self.diag_max = float(np.max(writer.diag_max))
        self.finite = bool(np.isfinite(self.diag_max)) and writer.finite

    @property
    def size(self) -> int:
        return self.band.shape[1]

    @property
    def diag(self) -> np.ndarray:
        """Node k's diagonal block, symmetric, from the band's lower
        triangle.  Nothing in the package reads it; the benchmark's tracer
        reads its shape to size each Hessian."""
        D = np.swapaxes(_block_rows(self.band, self.block)[:, :, 0], 1, 2)
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
                         force_jacobian(p.force, xbar), p.force.B, p.m, p.d, s.c_x, s.c_v)
    return state.x, state.v


def action(D: DualField, spec: ProblemSpec) -> float:
    """Value of the discretized dual functional, boundary terms included."""
    _require_boundary(D, spec)
    S = _action_elements(spec, D)
    if not spec.periodic:
        S -= spec.params.m * float(D.lam[0] @ spec.v0)
        S -= float(D.gamma[0] @ spec.x0)
    return S


def gradient(D: DualField, spec: ProblemSpec) -> np.ndarray:
    """Exact gradient of ``action`` over the free nodal values (packed)."""
    _require_boundary(D, spec)
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
    return _pack(g_gamma, g_lam)


def hessian(D: DualField, spec: ProblemSpec) -> BlockTridiagonal:
    """Exact Hessian of ``action`` over the free nodal values; cyclic for
    the periodic problem.  Node k's diagonal block sums element k's aa and
    element k-1's bb quadrant; element k's ab quadrant couples node k to
    node k+1.  Each [gamma, lambda] x [gamma, lambda] sub-block of a
    quadrant is C I plus or minus one matrix part of `_hessian_parts`, made
    for every element at once and written straight into the band; no
    quadrant is formed."""
    _require_boundary(D, spec)
    C, P, G, L = _hessian_parts(spec, D)
    n, M, h = spec.n, spec.grid.M, spec.grid.h
    periodic = spec.periodic
    # gamma_rate = (gamma_b - gamma_a) / h and lambda_mid = (lambda_a +
    # lambda_b) / 2 give each sub-block one matrix part, subtracted in aa,
    # in bb on the diagonal sub-blocks and in ab on the lambda columns
    parts = ((P / h, np.swapaxes(G, 1, 2)), (G, (0.25 * h) * L))
    eye = np.eye(n)
    kept = slice(None) if periodic else slice(M - 1)  # open: node M is pinned
    writer = _BandWriter(M, 2, n, periodic)
    for v in range(2):
        for w in range(2):
            part = parts[v][w]
            diag = np.subtract(C[v, w] * eye, part)
            bb = (np.subtract if v == w else np.add)(C[2 + v, 2 + w] * eye, part)
            diag[1:] += bb[:-1]
            if periodic:  # element M-1 ends at node M, which is node 0
                diag[0] += bb[-1]
            writer.put_diag(v, w, diag)
            ab = (np.add if w == 0 else np.subtract)(C[v, 2 + w] * eye, part[kept])
            writer.put_off(v, w, ab)
    return BlockTridiagonal(writer)


# ---------------------------------------------------------------------------
# the Gram factors: Hessian inertia and Newton directions

def _schur_complements(spec: ProblemSpec, Mx: np.ndarray) -> np.ndarray:
    """E_k = (d/2 + m/h) I + (h/4) Mx_k^T, (M, n, n): the Schur complement
    of the -I/h block of element k's Gram factor block A_a,k
    (`_transfer_matrices`)."""
    h = spec.grid.h
    c = 0.5 * spec.params.d + spec.params.m / h
    return c * np.eye(spec.n) + (0.25 * h) * np.swapaxes(Mx, 1, 2)


def _transfer_matrices(spec: ProblemSpec, Mx: np.ndarray, Einv: np.ndarray, out=None,
                       sign: float = 1.0) -> np.ndarray:
    """R_k = -A_a,k^-1 A_b,k, (M, 2n, 2n), from element k's Gram factor
    blocks on node k's [gamma, lambda] and on node k+1's, x rows then v rows,

        A_a = sqrt(h) [[-I/h, -Mx^T/2], [I/2, -(d/2 + m/h) I]]
        A_b = sqrt(h) [[ I/h, -Mx^T/2], [I/2,  (m/h - d/2) I]],

    sqrt(h) times the map from the end nodes to the linearized primal state,
    so that element k adds -[A_a | A_b]^T W_k^-1 [A_a | A_b] to the Hessian,
    W_k = diag(c_x K|_lam, c_v I) (`_hessian_parts`).  Through ``Einv``,
    the inverses of the Schur complements E = (d/2 + m/h) I + q,
    q = (h/4) Mx^T (`_schur_complements`), by Newton-Schulz where every
    ||q||_F <= (d/2 + m/h) / 2, by LU elsewhere (`_schur_inverses`),
    R = [[I - 2 q E^-1, -(4m/h) q E^-1], [E^-1, (2m/h) E^-1 - I]]: one
    n x n inverse per element, where A_a^-1 would take a 2n x 2n one.
    ``sign`` R, for ``sign`` = +-1, is written into ``out``, any (M, 2n, 2n)
    view, or a fresh array when None, and returned."""
    n, h, m = spec.n, spec.grid.h, spec.params.m
    out = np.empty((len(Einv), 2 * n, 2 * n)) if out is None else out
    qE = ((0.25 * h) * np.swapaxes(Mx, 1, 2)) @ Einv
    eye = sign * np.eye(n)
    np.subtract(eye, (2.0 * sign) * qE, out=out[:, :n, :n])
    np.multiply(-4.0 * sign * m / h, qE, out=out[:, :n, n:])
    np.multiply(sign, Einv, out=out[:, n:, :n])
    np.subtract((2.0 * sign * m / h) * Einv, eye, out=out[:, n:, n:])
    return out


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


def _schur_inverses(spec: ProblemSpec, Mx: np.ndarray, rho: float) -> np.ndarray:
    """E_k^-1 for the Schur complements E_k = c (I + X_k) of A_a,k's -I/h
    blocks (`_schur_complements`), c = d/2 + m/h, X_k = (h/4c) Mx_k^T: Y / c
    by Newton-Schulz (Schulz, ZAMM 13, 1933; Pan & Schreiber, SIAM J. Sci.
    Stat. Comput. 12, 1991) where rho = max ||X_k||_F <= 1/2 (cond(E_k) <= 3),
    by LU elsewhere.  Y = I - X leaves the residual X^2, and each step
    Y <- Y + Y (I - (I + X) Y) squares it: steps run while rho^(2^(j+1)) > eps."""
    if not rho <= 0.5:  # also where rho, or Mx, is not finite
        return np.linalg.inv(_schur_complements(spec, Mx))
    h = spec.grid.h
    c = 0.5 * spec.params.d + spec.params.m / h
    X, eye = ((0.25 * h) * np.swapaxes(Mx, 1, 2)) / c, np.eye(spec.n)
    Y, residual = eye - X, rho * rho
    while residual > np.finfo(float).eps:
        Y = Y + Y @ (eye - Y - X @ Y)
        residual *= residual
    return Y / c


class _GramPoint:
    """The Gram form H = -A^T W^-1 A at one point (`_gram_point`), read off
    its mapped ``state`` (`_core_state`): ``Mx`` = dK/dx at the mapped state
    gives the Gram factor A (`_transfer_matrices`), K|_lam at the midpoints
    the weights W, and ``rho`` = max ||X_k||_F bounds A's element blocks
    (`_schur_inverses`).  Formed when first read, then kept: ``definite``,
    ``nullity``, ``Einv`` = E^-1, the transfer matrices ``R`` and their
    ``product`` (P, s).  Nothing keeps a record between points."""

    def __init__(self, spec: ProblemSpec, state: _MappedState):
        self.spec, self.state, self.Mx = spec, state, state.Mx
        h = spec.grid.h
        c = 0.5 * spec.params.d + spec.params.m / h
        # inf or nan where Mx is
        self.rho = float(np.max(0.25 * h * np.linalg.norm(self.Mx, axis=(1, 2)))) / c

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
    def Einv(self) -> np.ndarray:
        return _schur_inverses(self.spec, self.Mx, self.rho)

    @cached_property
    def R(self) -> np.ndarray:
        return _transfer_matrices(self.spec, self.Mx, self.Einv)

    @cached_property
    def product(self) -> tuple[np.ndarray, float]:
        return _transfer_product(self.R)


def _gram_point(spec: ProblemSpec, D: DualField) -> _GramPoint | None:
    """D's `_GramPoint`, or None where the mapped state or a Hessian part
    (`_hessian_parts`) is not finite.  Mx, max|P| and C are tested, with
    max|P| <= 1 / (c_x (1 - rho)) where every rho <= _CERT_RHO (no K|_lam^-1
    formed); G and L are formed only where the bounds |G| <= (n/2) max|Mx|
    max|P| and |L| <= n^2 max|Mx|^2 max|P| leave overflow open."""
    state = _core_state(spec, D)
    Mx, rho = state.Mx, float(np.max(state.rho))
    pmax = (1.0 / (1.0 - rho) if rho <= _CERT_RHO else
            float(np.max(np.abs(state.Kinv)))) / spec.scales.c_x
    if not (pmax < np.inf and all(np.all(np.isfinite(a)) for a in (
            state.lam, state.x, state.v, Mx, _scalar_part(spec)))):
        return None
    # Mx P = 2 G is formed on the way to L; below half the largest float,
    # the bound leaves round-off no room to overflow (an inf or nan bound
    # certifies nothing)
    n, mx = spec.n, float(np.max(np.abs(Mx)))
    bound = n * mx * pmax * max(1.0, n * mx)
    if not bound <= 0.5 * np.finfo(float).max and not all(
            np.all(np.isfinite(a)) for a in _hessian_parts(spec, D)[2:]):
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


def _gram_direction(spec: ProblemSpec, point: _GramPoint, g: np.ndarray) -> np.ndarray | None:
    """The Newton direction d, H d = -g, at ``point`` (`_gram_point`), as
    d = A^-1 W A^-T g from the Gram form H = -A^T W^-1 A (`_gram_inertia`),
    with no Hessian formed, reading the record's E^-1 and, when cyclic, its
    R and (P, s); None where H is not certified negative definite, which it
    is exactly when every K|_lam factors by Cholesky and A is regular (the
    record's ``definite`` and ``nullity``), and where the cyclic
    capacitance below is not finite or its 1-norm condition number exceeds
    _CAPACITANCE_LIMIT.

    A = A_d (I - U - C) with A_d = blockdiag(A_a,k), U holding the transfer
    matrices R_0 ... R_{M-2} (`_transfer_matrices`) on its block
    superdiagonal and C, when cyclic, R_{M-1} at block (M-1, 0), zero when
    open.  Each solve with L = I - U or its transpose is one LAPACK dtbtrs
    call on a unit upper band of 2b rows, b = 2n, ab[2b - 1 + i - j, j] =
    L[i, j] (Golub & Van Loan, Matrix Computations, 4th ed., 4.3); the open
    -R is written straight into it, with no R kept.  The cyclic corner
    is a rank-2n correction, so by Sherman-Morrison-Woodbury
    (ibid., 2.1.4) its solves take two dtbtrs calls each around one 2n x 2n
    capacitance I - Pi, Pi = R_0 ... R_{M-1} (`_transfer_product`, whose
    multipliers at 1 A's nullity counts): (I - U - C) y = r is y =
    L^-1 (r + e_{M-1} R_{M-1} y_0) with y_0 = (I - Pi)^-1 (L^-1 r)_0, and
    (I - U - C)^T z = s is z = L^-T (s + e_0 w) with (I - Pi^T) w =
    R_{M-1}^T (L^-T s)_{M-1}.  In between, per element and through E^-1
    (`_schur_inverses`), A_a = sqrt(h) S gives S^-T [a; b] =
    [(h/2) q - h a; q] with q = E^-T ((h/2) Mx a - b), then W / h (the two
    sqrt(h) factors together), then S^-1 [x; y] = [-h x - (h/2) Mx^T b; b]
    with b = -E^-1 (y + (h/2) x)."""
    Mx, K = point.Mx, point.state.K
    n, M, h = spec.n, spec.grid.M, spec.grid.h
    c_x, c_v = spec.scales.c_x, spec.scales.c_v
    if not point.definite or point.nullity:
        return None
    Einv = point.Einv
    b = 2 * n
    ab = np.zeros((2 * b, M * b), order="F")
    sr, sc = ab.strides
    # [k, i, j] is ab[b - 1 + i - j, (k + 1) b + j], entry (k b + i, (k + 1) b + j) of I - U
    upper = np.lib.stride_tricks.as_strided(ab[b - 1:, b:], (M - 1, b, b), (b * sc, sr, sc - sr))
    if spec.periodic:
        R, (P, s) = point.R, point.product
        np.negative(R[:-1], out=upper)
        with np.errstate(over="ignore", invalid="ignore"):
            capacitance = np.eye(b) - np.exp(s) * P
        if not (np.all(np.isfinite(capacitance))
                and np.linalg.cond(capacitance, 1) <= _CAPACITANCE_LIMIT):
            return None
    else:
        _transfer_matrices(spec, Mx[:-1], Einv[:-1], out=upper, sign=-1.0)

    def tbtrs(x, trans):
        x, info = _LAPACK.dtbtrs(ab, x, trans)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dtbtrs")
        return x

    def solve(x, trans):
        """(I - U - C)^-1 x, or (I - U - C)^-T x when ``trans``, for a fresh
        vector x, which it overwrites."""
        y = tbtrs(x.copy() if spec.periodic else x, trans)
        if spec.periodic:  # the corner, through the capacitance
            if trans:
                x[:b] += np.linalg.solve(capacitance.T, R[-1].T @ y[-b:])
            else:
                x[-b:] += R[-1] @ np.linalg.solve(capacitance, y[:b])
            y = tbtrs(x, trans)
        return y.reshape(M, 2, n)

    z = solve(np.array(g, dtype=float), True)  # (I - U - C)^-T g, node by node [a; b]
    a, bl = z[:, 0, :, None], z[:, 1, :, None]
    q = np.swapaxes(Einv, 1, 2) @ ((0.5 * h) * (Mx @ a) - bl)
    wx = c_x * (0.5 * q - a)  # (c_x / h) ((h/2) q - h a), times K|_lam below
    if K is not None:
        wx = K @ wx
    bl = -(Einv @ ((c_v / h) * q + (0.5 * h) * wx))
    a = -h * wx - (0.5 * h) * (np.swapaxes(Mx, 1, 2) @ bl)
    return solve(np.concatenate([a, bl], axis=1).ravel(), False).ravel()


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
    mu = np.linalg.eigvalsh(stiffness_lambda(p.force.B, D.lam, s.c_x))
    safe_mu = np.where(mu == 0.0, 1.0, mu)
    out = np.minimum(floor, np.min(1.0 / (s.c_x * safe_mu), axis=1))
    out[_singular(mu)[0]] = 0.0
    return out
