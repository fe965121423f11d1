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
factorization, the banded Cholesky of the negated Hessian (LAPACK dpbtrf
directly), serves the open and the cyclic band alike, and at a shift,
`BlockTridiagonal.neg_cholesky(shift)`, answers every definiteness question.
A Hessian is stored as that band and nothing else, open or folded when
cyclic: `hessian` writes each [gamma, lambda] sub-block of it once, for all
nodes, straight from the element parts (no element quadrant or node block
is formed), and records there whether every entry is finite; that band is
the only way a `BlockTridiagonal` is made, and each factorization negates
one copy of it.  The spec samples f, K and dK/dx at the element midpoints
once; the mapped midpoint state of a DualField (the primal state, the
intermediate covectors and the stiffness inverse) is computed once and kept
on the immutable field, keyed by the spec, so the action, gradient and
Hessian at that field share it.

No eigendecomposition runs on the Newton path when every point is well
conditioned.  The multiplier-weighted stiffness K is inverted directly, and
kappa_2(K) <= ||K||_F ||K^-1||_F certifies each point; the eigenvalue test,
the only place a SingularStiffnessError is raised, sees just the points this
bound cannot certify; `ellipticity_check` reports 0.0 where it would fail.
`BlockTridiagonal.inertia` counts an eigenvalue within the singularity
probe's delta = ||H||_1 / COND_LIMIT of zero as zero: (N, 0, 0) when
`neg_cholesky(-delta)` factors, else Sylvester's law at -delta and delta.

Overflow far from the maximum (a huge base or mass) follows numpy's default,
and the solver's finite checks stop there; only an overflowed certificate
bound is a decision, sent to the eigenvalue test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

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

#: Largest Frobenius bound ||K||_F ||K^-1||_F accepted without the eigenvalue
#: test.  The margin below COND_LIMIT absorbs the round-off of the computed
#: inverse and of the eigenvalues, so the test would pass every point
#: accepted here.
_CERT_LIMIT = 1e-2 * COND_LIMIT

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


def _stiffness_inv(B, lam, c_x: float):
    """Inverse of the weighted stiffness K = I + (1/c_x) B·lam at each point
    of ``lam`` (leading batch axes allowed).  A linear force (B = 0) gives
    K = I exactly, and its inverse is exactly I.

    kappa_2(K) <= ||K||_F ||K^-1||_F certifies a point cheaply.  Only the
    points whose bound exceeds _CERT_LIMIT, or the whole batch when the
    inverse itself fails, go through `_check_stiffness`, so exactly the
    points it rejects raise SingularStiffnessError.  Where lam·B is exactly
    zero (a linear chain at finite lam, or the zero field) K is I, and the
    inverse is a read-only broadcast of I, with no inversion or bound.
    """
    if not np.any(lam) or (not np.any(B) and np.all(np.isfinite(lam))):
        n = B.shape[0]
        return np.broadcast_to(np.eye(n), np.shape(lam)[:-1] + (n, n))
    K = stiffness_lambda(B, lam, c_x)
    try:
        Kinv = np.linalg.inv(K)
    except np.linalg.LinAlgError:
        mu, Q = _check_stiffness(K)
        return (Q / mu[..., None, :]) @ np.swapaxes(Q, -1, -2)
    # a bound that overflows is not a certificate; the eigenvalue test decides
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.sqrt(np.sum(K * K, axis=(-2, -1)) * np.sum(Kinv * Kinv, axis=(-2, -1)))
    unsure = np.flatnonzero(~(bound <= _CERT_LIMIT))
    if unsure.size:
        n = K.shape[-1]
        _check_stiffness(K.reshape(-1, n, n)[unsure], unsure)
    return Kinv


def _dual_to_primal(lam, lamdot, gamma, gammadot, xbar, vbar, J, B, m, d, c_x, c_v):
    """Dual-to-primal map at points (leading batch axes allowed), with J the
    force Jacobian at xbar: (w, r, y, Kinv, x, v), where v = vbar + w / c_v,
    x = xbar + y / c_x and y = K|_lam^{-1} r, r = gammadot - J^T lam."""
    w = gamma + m * lamdot - d * lam
    r = gammadot - np.einsum("...j,...ji->...i", lam, J)
    Kinv = _stiffness_inv(B, lam, c_x)
    y = (Kinv @ r[..., None])[..., 0]
    return w, r, y, Kinv, xbar + y / c_x, vbar + w / c_v


def _core_state(spec: ProblemSpec, D: DualField):
    """Element-midpoint fields of D and the primal state they map to:
    (lmid, gdot, w, r, y, dx, x, v, Kinv).

    A DualField is immutable, so the state is computed once per point: it
    is kept on D in a one-slot cache keyed by ``spec``, and the action,
    gradient and Hessian at D share it.
    """
    cached = D.__dict__.get("_state")
    if cached is not None and cached[0] is spec:
        return cached[1]
    p, s, base = spec.params, spec.scales, spec.base
    gmid, lmid, gdot, ldot = _element_fields(D.gamma[:-1], D.lam[:-1], D.gamma[1:], D.lam[1:],
                                             spec.grid.h)
    w, r, y, Kinv, x, v = _dual_to_primal(lmid, ldot, gmid, gdot, base.xbar_mid, base.vbar_mid,
                                          spec._midpoints[2], p.force.B, p.m, p.d, s.c_x, s.c_v)
    state = (lmid, gdot, w, r, y, y / s.c_x, x, v, Kinv)
    object.__setattr__(D, "_state", (spec, state))
    return state


def _action_elements(spec: ProblemSpec, D: DualField) -> float:
    """Midpoint-quadrature integral part of the dual action (no boundary terms)."""
    lmid, gdot, w, r, y, _, _, _, _ = _core_state(spec, D)
    f_mid, Kbar_mid, _ = spec._midpoints
    s, base = spec.scales, spec.base
    quad = np.sum(w * w, axis=1) / s.c_v + np.sum(r * y, axis=1) / s.c_x
    rest = (
        -np.sum(base.vbar_mid * w, axis=1)
        - np.sum(base.xbar_mid * gdot, axis=1)
        + np.sum(lmid * (Kbar_mid - f_mid), axis=1)
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
    _, _, _, _, _, dx, x, v, _ = _core_state(spec, D)
    f_mid, Kbar_mid, Abar_mid = spec._midpoints
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
    n, M, h = spec.n, spec.grid.M, spec.grid.h
    _, _, _, _, _, dx, _, _, Kinv = _core_state(spec, D)

    P = Kinv / spec.scales.c_x
    Mx = spec._midpoints[2] + (dx @ spec.params.force.B.reshape(n * n, n).T).reshape(M, n, n)
    MxP = Mx @ P
    L = MxP @ np.swapaxes(Mx, 1, 2)

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
    return h * (smap.T @ scalar @ smap), P, 0.5 * MxP, L


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

    def norm1(self) -> float:
        """Exact 1-norm of the symmetric matrix the band stores: column j's
        sum of |entries| is band column j (on and below the diagonal) plus
        row j's entries left of the diagonal, read from a zero-padded copy
        of |band| along a skew."""
        w, N = self.band.shape
        a = np.zeros((w, N + w - 1), order="F")
        np.abs(self.band, out=a[:, w - 1:])
        sr, sc = a.strides
        # [i, r - 1] = |ab[r, i - r]| for r = 1..w-1, zero left of column 0
        mirror = np.lib.stride_tricks.as_strided(a[1:, w - 2:], (N, w - 1), (sc, sr - sc))
        return float(np.max(a[:, w - 1:].sum(axis=0) + mirror.sum(axis=1)))

    def solve(self, rhs: np.ndarray, fac) -> np.ndarray:
        """x with A x = rhs, from ``fac``, `neg_cholesky`'s factor of -A;
        ValueError if rhs is not finite."""
        rhs = np.asarray_chkfinite(rhs)  # the factor of a finite band is finite
        b = self.block
        F = self.size // b
        order = _folded_order(F) if self.cyclic else slice(None)
        # A x = rhs  <=>  x = (-A)^{-1} (-rhs)
        y = scipy.linalg.lapack.dpbtrs(fac, -rhs.reshape(F, b)[order].ravel(), lower=1)[0]
        x = np.empty((F, b))
        x[order] = y.reshape(F, b)
        return x.ravel()

    def neg_cholesky(self, shift: float = 0.0):
        """Lower Cholesky factor of -(A - shift I) by LAPACK dpbtrf on the
        negated band (folded when cyclic), or None when A - shift I is not
        negative definite; ValueError if that band is not finite.  Each call
        negates the stored band into a fresh array in one pass, adds the
        shift to its row 0, the negated diagonal -d (fl(shift - d) =
        -fl(d - shift)), and factors that array in place."""
        if self.finite:
            ab = np.negative(self.band)
            ab[0] += shift  # a shift that is not finite, or overflows, shows here
        if not self.finite or not np.all(np.isfinite(ab[0])):
            raise ValueError("array must not contain infs or NaNs")
        fac, info = scipy.linalg.lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")
        return fac if info == 0 else None

    def eigenvalues(self) -> np.ndarray:
        return scipy.linalg.eigvals_banded(self.band, lower=True)

    def inertia(self) -> tuple[int, int, int]:
        """(negative, zero, positive) eigenvalue counts, an eigenvalue in
        [-delta, delta] counting as zero, delta = ||A||_1 / COND_LIMIT as in
        the cyclic singularity probe: (size, 0, 0) when -(A + delta I)
        factors, else, by Sylvester's law (Golub & Van Loan, Matrix
        Computations, 4th ed., 8.1), the negative Schur pivots of A + delta I
        and of delta I - A, over nodes, or over the node pairs (k, F-1-k)
        that are adjacent places of a cyclic band, whose band is then an open
        one of block size 2b (an odd F pads its last pair).  The blocks come
        from the band's lower triangle, the triangle `eigh` reads."""
        delta = self.norm1() / COND_LIMIT
        if self.neg_cholesky(-delta) is not None:
            return self.size, 0, 0
        s = 2 * self.block if self.cyclic else self.block
        count = -(-self.size // s)
        wide = np.zeros((2 * s, count * s), order="F")
        wide[:self.band.shape[0], :self.size] = self.band
        rows = _block_rows(wide, s)
        diag, off = np.tril(np.swapaxes(rows[:, :, 0], 1, 2)), rows[:-1, :, 1]
        eye = np.eye(s)  # eigenvalues below -delta, then above delta
        neg, pos = (_negative_pivots(sg * diag + delta * eye, sg * off, count * s - self.size)
                    for sg in (1.0, -1.0))
        return neg, self.size - neg - pos, pos


def _negative_pivots(diag, off, pad=0) -> int:
    """Number of negative eigenvalues of the open block-tridiagonal matrix
    (diag, off): by Sylvester's law, those of its successive Schur
    complements, a zero pivot eigenvalue skipped.  The last block's trailing
    ``pad`` rows and columns are padding, set to -I and not counted."""
    if pad:
        diag[-1, -pad:, -pad:] = -np.eye(pad)
    neg = -pad
    S = diag[0]
    for k in range(diag.shape[0]):
        mu, Q = np.linalg.eigh(S)
        neg += int(np.sum(mu < 0.0))
        if k < diag.shape[0] - 1:
            inv = np.divide(1.0, mu, out=np.zeros_like(mu), where=mu != 0.0)
            S = diag[k + 1] - off[k].T @ (Q @ (inv[:, None] * (Q.T @ off[k])))
    return neg


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
    n = p.n
    arrs = [np.asarray(a, dtype=float) for a in (lam, lamdot, gamma, gammadot, xbar, vbar)]
    for a in arrs:
        if a.shape != arrs[0].shape or a.shape[-1] != n:
            raise ValueError("all dtp_map inputs must share one shape with trailing length n")
    lam, lamdot, gamma, gammadot, xbar, vbar = arrs
    return _dual_to_primal(lam, lamdot, gamma, gammadot, xbar, vbar,
                           force_jacobian(p.force, xbar), p.force.B, p.m, p.d, s.c_x, s.c_v)[4:]


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
