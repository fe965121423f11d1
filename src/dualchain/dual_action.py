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
A cyclic matrix keeps its folded band for all its factorizations; an open
one keeps none: it is factored once per iterate, and a kept open band
raised the dual-newton benchmark's peak RSS by 6 MB (87.6 to 94 MB).
The mapped midpoint state of a DualField (the primal state, the
intermediate covectors and the stiffness inverse) is computed once and kept
on the immutable field, keyed by the spec's midpoint data, so the action,
gradient and Hessian at that field share it.  The Hessian is assembled from
three element quadrants.

No eigendecomposition runs on the Newton path when every point is well
conditioned.  The multiplier-weighted stiffness K is inverted directly, and
kappa_2(K) <= ||K||_F ||K^-1||_F certifies each point; the eigenvalue test,
the only place a SingularStiffnessError is raised, sees just the points this
bound cannot certify; `ellipticity_check` reports 0.0 where it would fail.
`BlockTridiagonal.inertia` counts an eigenvalue within the singularity
probe's delta = ||H||_1 / COND_LIMIT of zero as zero: (N, 0, 0) when
`neg_cholesky(-delta)` factors, else Sylvester's law at -delta and delta.
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
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    rng = np.random.default_rng(seed)
    t_nodes = base.grid.nodes()
    t_mid = base.grid.midpoints()
    T = base.grid.T

    def series(n_cols):
        coeffs = []
        for _ in range(n_cols):
            w = rng.uniform(-1.0, 1.0, size=_HARMONICS)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=_HARMONICS)
            total = np.sum(np.abs(w))
            if total > 0.0:
                w = w / total
            coeffs.append((w, ph))
        return coeffs

    def evaluate(coeffs, t):
        out = np.zeros((t.size, len(coeffs)))
        for j, (w, ph) in enumerate(coeffs):
            for k in range(_HARMONICS):
                out[:, j] += w[k] * np.sin((k + 1) * np.pi * t / T + ph[k])
        return amplitude * out

    cx = series(base.n)
    cv = series(base.n)
    return BaseState(
        base.grid,
        base.xbar + evaluate(cx, t_nodes),
        base.vbar + evaluate(cv, t_nodes),
        base.xbar_mid + evaluate(cx, t_mid),
        base.vbar_mid + evaluate(cv, t_mid),
    )


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
    def _midpoints(self) -> _MidpointData:
        # every field is immutable, so one build serves every assembly
        return _midpoint_data(self)


# ---------------------------------------------------------------------------
# assembly internals

@dataclass(frozen=True, eq=False)
class _MidpointData:
    """Element-midpoint samples and parameters for one assembly pass."""

    m: float
    d: float
    c_x: float
    c_v: float
    h: float
    n: int
    M: int
    B: np.ndarray
    xbar_mid: np.ndarray
    vbar_mid: np.ndarray
    f_mid: np.ndarray
    Kbar_mid: np.ndarray
    Abar_mid: np.ndarray


def _midpoint_data(spec: ProblemSpec) -> _MidpointData:
    """Midpoint data of an initial-value or periodic spec."""
    params, grid, xbar_mid = spec.params, spec.grid, spec.base.xbar_mid
    force = params.force
    return _MidpointData(
        m=params.m, d=params.d, c_x=spec.scales.c_x, c_v=spec.scales.c_v,
        h=grid.h, n=force.n, M=grid.M, B=force.B,
        xbar_mid=xbar_mid, vbar_mid=spec.base.vbar_mid,
        f_mid=eval_forcing(params.forcing, grid.midpoints()),
        Kbar_mid=eval_force(force, xbar_mid), Abar_mid=force_jacobian(force, xbar_mid),
    )


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
    points it rejects raise SingularStiffnessError.
    """
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


def _core_state(md: _MidpointData, D: DualField):
    """Element-midpoint fields of D and the primal state they map to:
    (lmid, gdot, w, r, y, dx, x, v, Kinv).

    A DualField is immutable, so the state is computed once per point: it
    is kept on D in a one-slot cache keyed by ``md`` (a spec's
    `ProblemSpec._midpoints`), and the action, gradient and Hessian at D
    share it.
    """
    cached = D.__dict__.get("_state")
    if cached is not None and cached[0] is md:
        return cached[1]
    gmid, lmid, gdot, ldot = _element_fields(D.gamma[:-1], D.lam[:-1], D.gamma[1:], D.lam[1:],
                                             md.h)
    w, r, y, Kinv, x, v = _dual_to_primal(lmid, ldot, gmid, gdot, md.xbar_mid, md.vbar_mid,
                                          md.Abar_mid, md.B, md.m, md.d, md.c_x, md.c_v)
    state = (lmid, gdot, w, r, y, y / md.c_x, x, v, Kinv)
    object.__setattr__(D, "_state", (md, state))
    return state


def _action_elements(md: _MidpointData, D: DualField) -> float:
    """Midpoint-quadrature integral part of the dual action (no boundary terms)."""
    lmid, gdot, w, r, y, _, _, _, _ = _core_state(md, D)
    quad = np.sum(w * w, axis=1) / md.c_v + np.sum(r * y, axis=1) / md.c_x
    rest = (
        -np.sum(md.vbar_mid * w, axis=1)
        - np.sum(md.xbar_mid * gdot, axis=1)
        + np.sum(lmid * (md.Kbar_mid - md.f_mid), axis=1)
    )
    return float(md.h * np.sum(-0.5 * quad + rest))


def _gradient_elements(md: _MidpointData, D: DualField):
    """Per-element gradient parts (g_ga, g_la, g_gb, g_lb), each (M, n).

    Derivatives follow from stationarity of the generating functional in the
    primal variables: at the mapped state, d/d(gamma_mid) = -h v,
    d/d(gamma_rate) = -h x, d/d(lambda_mid) = h (d v + K(x) - f), and
    d/d(lambda_rate) = -h m v; the chain rule to the element's end nodes
    gives the four parts below.
    """
    _, _, _, _, _, dx, x, v, _ = _core_state(md, D)
    n = md.n
    dxdx = (dx[:, :, None] * dx[:, None, :]).reshape(md.M, n * n)
    Kx = (md.Kbar_mid + np.einsum("mjr,mr->mj", md.Abar_mid, dx)
          + 0.5 * (dxdx @ md.B.reshape(n, n * n).T))
    mom = md.d * v + Kx - md.f_mid
    h = md.h
    g_ga = -0.5 * h * v + x
    g_gb = -0.5 * h * v - x
    g_la = 0.5 * h * mom + md.m * v
    g_lb = 0.5 * h * mom - md.m * v
    return g_ga, g_la, g_gb, g_lb


def _hessian_elements(md: _MidpointData, D: DualField):
    """Per-element nodal Hessian quadrants (aa, ab, bb), each (M, 2n, 2n).

    An element couples its end nodes a and b, each with the values
    [gamma, lambda]; aa and bb are its end-node diagonal blocks and ab
    couples a (rows) to b (columns).  Each element's (4n, 4n) block is
    symmetric, so its fourth quadrant, ba, is the transpose of ab and is
    never formed.  The reduced midpoint Hessian is
    -J^T diag(c_x K|_lam, c_v I)^{-1} J with J the mixed second derivatives
    of the generating integrand, which is what makes the dual integrand
    concave wherever the weighted stiffness is positive definite.

    In the midpoint variables (gamma_mid, lambda_mid, gamma_rate,
    lambda_rate) that Hessian is a scalar multiple of I in every block except
    three: -P at (rate, rate) with P = K|_lam^{-1} / c_x, Mx P at (lambda_mid,
    gamma_rate) and its transpose, and -Mx P Mx^T at (lambda_mid,
    lambda_mid), with Mx = dK/dx at the mapped state.  The end-node blocks
    are h S^T H S for the 4x4 map S from end-node values to midpoint
    variables: the scalar parts combine once as 4x4 numbers, and each matrix
    part lands in the end-node blocks with the weights S gives it.
    """
    n, M, h = md.n, md.M, md.h
    _, _, _, _, _, dx, _, _, Kinv = _core_state(md, D)

    P = Kinv / md.c_x
    Mx = md.Abar_mid + (dx @ md.B.reshape(n * n, n).T).reshape(M, n, n)
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
    m, d, c_v = md.m, md.d, md.c_v
    scalar = np.array([
        [-1.0, d, 0.0, -m],
        [d, -d * d, 0.0, d * m],
        [0.0, 0.0, 0.0, 0.0],
        [-m, d * m, 0.0, -m * m],
    ]) / c_v
    eye = np.eye(n)
    # gamma_rate = (gamma_b - gamma_a) / h and lambda_mid = (lambda_a +
    # lambda_b) / 2 give each [gamma, lambda] x [gamma, lambda] block of a
    # quadrant one matrix part, added with the sign listed for it
    G = 0.5 * MxP
    parts = ((P / h, np.swapaxes(G, 1, 2)), (G, (0.25 * h) * L))
    quads = []
    # a scalar part that overflows (a huge mass, say) is expected; the
    # solver's finite checks on the Hessian report it
    with np.errstate(over="ignore", invalid="ignore"):
        C = h * (smap.T @ scalar @ smap)  # rows, columns: gamma_a, lambda_a, gamma_b, lambda_b
        for row, col, signs in ((0, 0, ((-1, -1), (-1, -1))),
                                (0, 2, ((1, -1), (1, -1))),
                                (2, 2, ((-1, 1), (1, -1)))):
            Q = np.empty((M, 2 * n, 2 * n))
            blocks = Q.reshape(M, 2, n, 2, n)  # [element, value, i, value, j]
            for i in range(2):
                for j in range(2):
                    combine = np.add if signs[i][j] > 0 else np.subtract
                    combine(C[row + i, col + j] * eye, parts[i][j], out=blocks[:, i, :, j])
            quads.append(Q)
    return tuple(quads)


# ---------------------------------------------------------------------------
# block-tridiagonal matrix

@dataclass(frozen=True, eq=False)
class BlockTridiagonal:
    """Symmetric block-tridiagonal matrix stored as node blocks.

    diag[k] is the (b, b) diagonal block of node k; off[k] couples node k
    (rows) to node k+1 (columns).  ``off`` of length F-1 is the open layout,
    scalar bandwidth 2b - 1.  Length F is the cyclic layout (F >= 2), where
    off[F-1] couples node F-1 to node 0; it is banded in the folded node
    order 0, F-1, 1, F-2, ..., in which every coupling joins nodes at most
    two places apart (scalar bandwidth 3b - 1).  `to_banded` writes that
    band, `neg_cholesky` factors its negation, and `solve` permutes into and
    out of the folded order with that factor.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d, o = np.asarray(self.diag, float), np.asarray(self.off, float)
        if d.ndim != 3 or d.shape[1] != d.shape[2]:
            raise ValueError("diag must be (F, b, b)")
        if (o.ndim != 3 or o.shape[1:] != d.shape[1:]
                or not (o.shape[0] == d.shape[0] - 1 or o.shape[0] == d.shape[0] >= 2)):
            raise ValueError("off must be (F-1, b, b), or (F, b, b) with F >= 2 when cyclic")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", o)

    @property
    def block(self) -> int:
        return self.diag.shape[1]

    @property
    def size(self) -> int:
        return self.diag.shape[0] * self.diag.shape[1]

    @property
    def cyclic(self) -> bool:
        return self.off.shape[0] == self.diag.shape[0]

    @property
    def bandwidth(self) -> int:
        return (3 if self.cyclic else 2) * self.block - 1

    @cached_property
    def _order(self) -> np.ndarray:
        F = self.diag.shape[0]
        return np.stack([np.arange(F), np.arange(F)[::-1]], axis=1).ravel()[:F]

    def to_dense(self) -> np.ndarray:
        F, b, _ = self.diag.shape
        k = np.arange(self.off.shape[0])
        out = np.zeros((F, b, F, b))  # [row node, row, column node, column]
        out[np.arange(F), :, np.arange(F)] = self.diag
        out[k, :, (k + 1) % F] = self.off
        out[(k + 1) % F, :, k] += np.swapaxes(self.off, 1, 2)  # F = 2: both couplings join 0, 1
        return out.reshape(F * b, F * b)

    def _band_blocks(self) -> list:
        """[diagonal blocks, upper blocks one place off it, ...] in band order;
        folded when cyclic, with upper blocks one and two places off."""
        F, b, _ = self.diag.shape
        if not self.cyclic:
            return [self.diag, self.off]
        pos = np.argsort(self._order)
        rows, cols = pos, pos[(np.arange(F) + 1) % F]
        first, gap = np.minimum(rows, cols), np.abs(rows - cols)
        upper = np.where((rows < cols)[:, None, None], self.off, np.swapaxes(self.off, 1, 2))
        blocks = [self.diag[self._order], np.zeros((F - 1, b, b)), np.zeros((F - 2, b, b))]
        np.add.at(blocks[1], first[gap == 1], upper[gap == 1])  # F = 2: both join 0 and 1
        blocks[2][first[gap == 2]] = upper[gap == 2]
        return blocks

    def to_banded(self) -> np.ndarray:
        """Lower band storage, folded when cyclic: ab[i - j, j] = A[i, j] for
        0 <= i - j <= bandwidth, in Fortran order (LAPACK reads it in place).
        Column k b + q is row q of node k's block row [D_k^T, U1_k, U2_k]
        (U2 when cyclic) read along a skew: entry c, counted from D_k^T, goes
        to ab[c - q].  One strided view writes each block whole, so each
        entry comes from the triangle that stores it (D_k is not bitwise
        symmetric)."""
        F, b, _ = self.diag.shape
        blocks = self._band_blocks()
        bw = self.bandwidth
        ab = np.zeros((bw + 1, F * b), order="F")
        sr, sc = ab.strides
        row = np.lib.stride_tricks.as_strided(ab, (F, b, len(blocks) * b), (b * sc, sc - sr, sr))
        row[:, :, :b] = np.swapaxes(blocks[0], 1, 2)
        # D_k^T's entries left of the diagonal have no row above the band to
        # go to: in Fortran order they run into the foot of the column before,
        # whose last b - 1 rows hold only zeros and U_s entries
        ab[bw - b + 2:] = 0.0
        for r, up in enumerate(blocks[1:], start=1):
            row[:F - r, :, r * b:(r + 1) * b] = up
        return ab

    @cached_property
    def _folded_band(self) -> np.ndarray:
        ab = self.to_banded()
        ab.setflags(write=False)
        return ab

    def norm1(self) -> float:
        """Exact 1-norm of the symmetric matrix `to_banded` stores, in one
        pass over the blocks: each diagonal block's lower triangle, and each
        coupling by columns and, for its mirror, by rows (the two F = 2
        cyclic couplings join the same nodes and are merged first)."""
        F, b, _ = self.diag.shape
        d = np.abs(self.diag)  # lower triangle by columns, its mirror by rows
        sums = np.einsum("kij,ij->kj", d, np.tri(b)) + np.einsum("kij,ij->ki", d, np.tri(b, k=-1))
        off = self.off[:1] + np.swapaxes(self.off[1:], 1, 2) if self.cyclic and F == 2 else self.off
        up = np.abs(off)
        k = np.arange(up.shape[0])
        sums[k] += np.einsum("kij->ki", up)
        sums[(k + 1) % F] += np.einsum("kij->kj", up)
        return float(np.max(sums))

    def solve(self, rhs: np.ndarray, fac) -> np.ndarray:
        """x with A x = rhs, from ``fac``, `neg_cholesky`'s factor of -A;
        ValueError if rhs is not finite."""
        rhs = np.asarray_chkfinite(rhs)  # the factor of a finite band is finite
        F, b, _ = self.diag.shape
        order = self._order if self.cyclic else slice(None)
        # A x = rhs  <=>  x = (-A)^{-1} (-rhs)
        y = scipy.linalg.lapack.dpbtrs(fac, -rhs.reshape(F, b)[order].ravel(), lower=1)[0]
        x = np.empty((F, b))
        x[order] = y.reshape(F, b)
        return x.ravel()

    def neg_cholesky(self, shift: float = 0.0):
        """Lower Cholesky factor of -(A - shift I) by LAPACK dpbtrf on the
        negated band (folded when cyclic), or None when A - shift I is not
        negative definite; ValueError if that band is not finite.  The shift
        is added to row 0, the negated diagonal -d: fl(shift - d) = -fl(d - shift)."""
        ab = self._folded_band if self.cyclic else self.to_banded()
        ab = np.negative(ab, out=None if self.cyclic else ab)  # the kept band is read-only
        ab[0] += shift
        fac, info = scipy.linalg.lapack.dpbtrf(np.asarray_chkfinite(ab), lower=1, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")
        return fac if info == 0 else None

    def eigenvalues(self) -> np.ndarray:
        return scipy.linalg.eigvals_banded(self.to_banded(), lower=True)

    def inertia(self) -> tuple[int, int, int]:
        """(negative, zero, positive) eigenvalue counts, an eigenvalue in
        [-delta, delta] counting as zero, delta = ||A||_1 / COND_LIMIT as in
        the cyclic singularity probe: (size, 0, 0) when -(A + delta I)
        factors, else, by Sylvester's law (Golub & Van Loan, Matrix
        Computations, 4th ed., 8.1), the negative Schur pivots of A + delta I
        and of delta I - A, over nodes, or over the node pairs (k, F-1-k)
        that a cyclic matrix's folded order makes adjacent."""
        delta = self.norm1() / COND_LIMIT
        if self.neg_cholesky(-delta) is not None:
            return self.size, 0, 0
        F, b, _ = self.diag.shape
        diag, off, pad = self.diag, self.off, 0
        if self.cyclic:
            D, up1, up2 = (np.pad(x, ((0, F % 2), (0, 0), (0, 0))) for x in self._band_blocks())
            P, pad = D.shape[0] // 2, b * (F % 2)  # pair j: folded places 2j, 2j+1
            diag = np.zeros((P, 2 * b, 2 * b))
            diag[:, :b, :b], diag[:, b:, b:], diag[:, :b, b:] = D[0::2], D[1::2], up1[0::2]
            diag[:, b:, :b] = np.swapaxes(up1[0::2], 1, 2)
            off = np.zeros((P - 1, 2 * b, 2 * b))
            off[:, :b, :b], off[:, b:, :b], off[:, b:, b:] = up2[0::2], up1[1::2], up2[1::2]
        eye = np.eye(diag.shape[1])  # eigenvalues below -delta, then above delta
        neg, pos = (_negative_pivots(s * diag + delta * eye, s * off, pad) for s in (1.0, -1.0))
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
        raise ValueError(f"expected a flat vector of length {2 * n * grid.M}")
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
    S = _action_elements(spec._midpoints, D)
    if not spec.periodic:
        S -= spec.params.m * float(D.lam[0] @ spec.v0)
        S -= float(D.gamma[0] @ spec.x0)
    return S


def gradient(D: DualField, spec: ProblemSpec) -> np.ndarray:
    """Exact gradient of ``action`` over the free nodal values (packed)."""
    _require_boundary(D, spec)
    g_ga, g_la, g_gb, g_lb = _gradient_elements(spec._midpoints, D)
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
    node k+1.  The quadrants are used in place."""
    _require_boundary(D, spec)
    diag, off, bb = _hessian_elements(spec._midpoints, D)
    diag[1:] += bb[:-1]
    if spec.periodic:  # element M-1 ends at node M, which is node 0
        diag[0] += bb[-1]
        return BlockTridiagonal(diag, off)
    return BlockTridiagonal(diag, off[:-1])


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
