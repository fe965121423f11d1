"""Discrete dual action for the damped, forced chain: functional value, the
dual-to-primal map, and exact first/second derivatives of the discretized
functional.

Discretization contract: the multiplier fields (gamma, lambda) are nodal and
piecewise linear on a uniform grid, rates are constant on each element, and
every integrand is sampled at element midpoints (midpoint quadrature) with
the base state interpolated and the forcing evaluated there.  The final-time
condition gamma(T) = lambda(T) = 0 is imposed strongly: node M carries no
unknowns, and the free unknowns are the nodal values at nodes 0..M-1 packed
as [gamma_k, lambda_k] per node.

All reductions are plain numpy sums over fixed axes, so identical inputs
produce bit-identical outputs.

No eigendecomposition runs on the Newton path when every point is well
conditioned.  The multiplier-weighted stiffness K is inverted directly, and
kappa_2(K) <= ||K||_F ||K^-1||_F certifies each point; the eigenvalue test,
the only place a SingularStiffnessError is raised, sees just the points this
bound cannot certify.  `BlockTridiagonal.inertia` likewise answers
(N, 0, 0) from a Cholesky factorization when it certifies negative
definiteness beyond the zero tolerance, and runs the Schur recursion
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .chain_model import (
    ChainParams,
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
    "constant_base",
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


class SingularStiffnessError(RuntimeError):
    """Multiplier-weighted stiffness singular or near-singular somewhere."""

    def __init__(self, where: int, cond: float | None = None):
        detail = f"condition estimate {cond:.3e}" if cond is not None else "exactly singular"
        super().__init__(
            f"multiplier-weighted stiffness is numerically singular at point {where} ({detail})"
        )
        self.where = where
        self.cond = cond


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScaleParams:
    """Positive weights of the quadratic shift terms in the dual pairing."""

    c_x: float
    c_v: float

    def __post_init__(self):
        for name in ("c_x", "c_v"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite")
        object.__setattr__(self, "c_x", float(self.c_x))
        object.__setattr__(self, "c_v", float(self.c_v))


_PROVENANCE = ("zero", "constant", "primal-solve", "user-table")


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
    provenance: str = "user-table"

    def __post_init__(self):
        xb = np.array(self.xbar, dtype=float)
        vb = np.array(self.vbar, dtype=float)
        if xb.ndim != 2 or vb.shape != xb.shape or xb.shape[0] != self.grid.M + 1:
            raise ValueError(
                f"xbar and vbar must both have shape ({self.grid.M + 1}, n), "
                f"got {xb.shape} and {vb.shape}"
            )
        if not (np.all(np.isfinite(xb)) and np.all(np.isfinite(vb))):
            raise ValueError("base state must be finite")
        if self.provenance not in _PROVENANCE:
            raise ValueError(f"provenance must be one of {_PROVENANCE}, got {self.provenance!r}")
        if (self.xbar_mid is None) != (self.vbar_mid is None):
            raise ValueError("give both midpoint arrays or neither")
        if self.xbar_mid is None:
            xm = 0.5 * (xb[:-1] + xb[1:])
            vm = 0.5 * (vb[:-1] + vb[1:])
        else:
            xm = np.array(self.xbar_mid, dtype=float)
            vm = np.array(self.vbar_mid, dtype=float)
            want = (self.grid.M, xb.shape[1])
            if xm.shape != want or vm.shape != want:
                raise ValueError(
                    f"midpoint arrays must have shape {want}, got {xm.shape} and {vm.shape}")
            if not (np.all(np.isfinite(xm)) and np.all(np.isfinite(vm))):
                raise ValueError("base state must be finite")
        for arr in (xb, vb, xm, vm):
            arr.setflags(write=False)
        object.__setattr__(self, "xbar", xb)
        object.__setattr__(self, "vbar", vb)
        object.__setattr__(self, "xbar_mid", xm)
        object.__setattr__(self, "vbar_mid", vm)

    @property
    def n(self) -> int:
        return self.xbar.shape[1]


def zero_base(grid: TimeGrid, n: int) -> BaseState:
    z = np.zeros((grid.M + 1, n))
    return BaseState(grid, z, z, provenance="zero")


def constant_base(grid: TimeGrid, x, v) -> BaseState:
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    ones = np.ones((grid.M + 1, 1))
    return BaseState(grid, ones * x, ones * v, provenance="constant")


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
    return BaseState(coarse.grid, coarse.x, coarse.v, xm, vm, provenance="primal-solve")


def perturb_base(base: BaseState, amplitude: float, seed: int, harmonics: int = 3) -> BaseState:
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
            w = rng.uniform(-1.0, 1.0, size=harmonics)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=harmonics)
            total = np.sum(np.abs(w))
            if total > 0.0:
                w = w / total
            coeffs.append((w, ph))
        return coeffs

    def evaluate(coeffs, t):
        out = np.zeros((t.size, len(coeffs)))
        for j, (w, ph) in enumerate(coeffs):
            for k in range(harmonics):
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
        provenance="user-table",
    )


@dataclass(frozen=True, eq=False)
class DualField:
    """Nodal multiplier fields (gamma, lambda), shape (M+1, n) each."""

    grid: TimeGrid
    gamma: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        l = np.array(self.lam, dtype=float)
        if g.ndim != 2 or l.shape != g.shape or g.shape[0] != self.grid.M + 1:
            raise ValueError(
                f"gamma and lam must both have shape ({self.grid.M + 1}, n), "
                f"got {g.shape} and {l.shape}"
            )
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(l))):
            raise ValueError("dual fields must be finite")
        g.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "lam", l)

    @property
    def n(self) -> int:
        return self.gamma.shape[1]

    @classmethod
    def zeros(cls, grid: TimeGrid, n: int) -> "DualField":
        z = np.zeros((grid.M + 1, n))
        return cls(grid, z, z)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Everything needed to pose the initial-value dual problem."""

    params: ChainParams
    scales: ScaleParams
    base: BaseState
    grid: TimeGrid
    x0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        if self.base.grid != self.grid:
            raise ValueError("base state must live on the problem grid")
        if self.base.n != self.params.n:
            raise ValueError(
                f"base state is for n={self.base.n} particles, params for n={self.params.n}"
            )
        n = self.params.n
        x0 = np.array(self.x0, dtype=float)
        v0 = np.array(self.v0, dtype=float)
        if x0.shape != (n,) or v0.shape != (n,):
            raise ValueError(f"x0 and v0 must have shape ({n},)")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(v0))):
            raise ValueError("initial conditions must be finite")
        x0.setflags(write=False)
        v0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "v0", v0)

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def _midpoints(self) -> _MidpointData:
        # every field is immutable, so one build serves every assembly
        return _midpoint_data(self)


# ---------------------------------------------------------------------------
# assembly internals (shared with the periodic variant)

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
    B: np.ndarray | None  # None when the force has no quadratic term
    xbar_mid: np.ndarray
    vbar_mid: np.ndarray
    f_mid: np.ndarray
    Kbar_mid: np.ndarray
    Abar_mid: np.ndarray


def _midpoint_data(spec) -> _MidpointData:
    """Midpoint data of an initial-value or periodic spec."""
    params, grid = spec.params, spec.grid
    force = params.force
    xbar_mid = spec.base.xbar_mid
    if force.has_quadratic:
        Abar_mid = force_jacobian(force, xbar_mid)
    else:
        Abar_mid = np.broadcast_to(force.A, (grid.M, force.n, force.n))
    return _MidpointData(
        m=params.m, d=params.d, c_x=spec.scales.c_x, c_v=spec.scales.c_v,
        h=grid.h, n=force.n, M=grid.M,
        B=force.B if force.has_quadratic else None,
        xbar_mid=xbar_mid, vbar_mid=spec.base.vbar_mid,
        f_mid=eval_forcing(params.forcing, grid.midpoints()),
        Kbar_mid=eval_force(force, xbar_mid), Abar_mid=Abar_mid,
    )


def _element_fields(ga, la, gb, lb, h):
    gmid = 0.5 * (ga + gb)
    lmid = 0.5 * (la + lb)
    gdot = (gb - ga) / h
    ldot = (lb - la) / h
    return gmid, lmid, gdot, ldot


def _check_stiffness(K, points=None):
    """Eigenvalue test of weighted stiffness matrices K (leading batch axes
    allowed): raises SingularStiffnessError, naming the first failing point
    in C order (its index in ``points`` when given), when a point is singular
    or has a condition number beyond COND_LIMIT.  Returns (mu, Q)."""
    mu, Q = np.linalg.eigh(K)
    amin = np.min(np.abs(mu), axis=-1).ravel()
    amax = np.max(np.abs(mu), axis=-1).ravel()
    bad = (amin == 0.0) | (amax > COND_LIMIT * amin)
    if np.any(bad):
        first = int(np.argmax(bad))
        cond = None if amin[first] == 0.0 else float(amax[first] / amin[first])
        raise SingularStiffnessError(first if points is None else int(points[first]), cond)
    return mu, Q


def _stiffness_inv(B, lam, c_x: float):
    """Inverse of the weighted stiffness K = I + (1/c_x) B·lam at each point
    of ``lam`` (leading batch axes allowed); None when B is None (K = I).

    kappa_2(K) <= ||K||_F ||K^-1||_F certifies a point cheaply.  Only the
    points whose bound exceeds _CERT_LIMIT, or the whole batch when the
    inverse itself fails, go through `_check_stiffness`, so exactly the
    points it rejects raise SingularStiffnessError.
    """
    if B is None:
        return None
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


def _core_state(md: _MidpointData, gmid, lmid, gdot, ldot):
    """Mapped primal state and intermediate covectors at element midpoints."""
    w = gmid + md.m * ldot - md.d * lmid
    r = gdot - np.einsum("mji,mj->mi", md.Abar_mid, lmid)
    Kinv = _stiffness_inv(md.B, lmid, md.c_x)
    y = r if Kinv is None else (Kinv @ r[:, :, None])[:, :, 0]
    dx = y / md.c_x
    x = md.xbar_mid + dx
    v = md.vbar_mid + w / md.c_v
    return w, r, y, dx, x, v, Kinv


def _action_elements(md: _MidpointData, ga, la, gb, lb) -> float:
    """Midpoint-quadrature integral part of the dual action (no boundary terms)."""
    gmid, lmid, gdot, ldot = _element_fields(ga, la, gb, lb, md.h)
    w, r, y, _, _, _, _ = _core_state(md, gmid, lmid, gdot, ldot)
    quad = np.sum(w * w, axis=1) / md.c_v + np.sum(r * y, axis=1) / md.c_x
    rest = (
        -np.sum(md.vbar_mid * w, axis=1)
        - np.sum(md.xbar_mid * gdot, axis=1)
        + np.sum(lmid * (md.Kbar_mid - md.f_mid), axis=1)
    )
    return float(md.h * np.sum(-0.5 * quad + rest))


def _gradient_elements(md: _MidpointData, ga, la, gb, lb):
    """Per-element gradient parts (g_ga, g_la, g_gb, g_lb), each (M, n).

    Derivatives follow from stationarity of the generating functional in the
    primal variables: at the mapped state, d/d(gamma_mid) = -h v,
    d/d(gamma_rate) = -h x, d/d(lambda_mid) = h (d v + K(x) - f), and
    d/d(lambda_rate) = -h m v; the chain rule to the element's end nodes
    gives the four parts below.
    """
    gmid, lmid, gdot, ldot = _element_fields(ga, la, gb, lb, md.h)
    _, _, _, dx, x, v, _ = _core_state(md, gmid, lmid, gdot, ldot)
    Kx = md.Kbar_mid + np.einsum("mjr,mr->mj", md.Abar_mid, dx)
    if md.B is not None:
        n = md.n
        dxdx = (dx[:, :, None] * dx[:, None, :]).reshape(md.M, n * n)
        Kx = Kx + 0.5 * (dxdx @ md.B.reshape(n, n * n).T)
    mom = md.d * v + Kx - md.f_mid
    h = md.h
    g_ga = -0.5 * h * v + x
    g_gb = -0.5 * h * v - x
    g_la = 0.5 * h * mom + md.m * v
    g_lb = 0.5 * h * mom - md.m * v
    return g_ga, g_la, g_gb, g_lb


def _hessian_elements(md: _MidpointData, ga, la, gb, lb) -> np.ndarray:
    """Per-element nodal Hessian blocks, shape (M, 4n, 4n).

    Block order per element: [gamma_a, lambda_a, gamma_b, lambda_b].  The
    reduced midpoint Hessian is -J^T diag(c_x K|_lam, c_v I)^{-1} J with J the
    mixed second derivatives of the generating integrand, which is what makes
    the dual integrand concave wherever the weighted stiffness is positive
    definite.

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
    gmid, lmid, gdot, ldot = _element_fields(ga, la, gb, lb, md.h)
    _, _, _, dx, _, _, Kinv = _core_state(md, gmid, lmid, gdot, ldot)

    if Kinv is None:
        P = np.broadcast_to(np.eye(n) / md.c_x, (M, n, n))
    else:
        P = Kinv / md.c_x
    Mx = md.Abar_mid
    if md.B is not None:
        Mx = Mx + (dx @ md.B.reshape(n * n, n).T).reshape(M, n, n)
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
    E = np.empty((M, 4 * n, 4 * n))
    E[:] = np.kron(h * (smap.T @ scalar @ smap), np.eye(n))
    # gamma_rate = (gamma_b - gamma_a) / h, lambda_mid = (lambda_a + lambda_b) / 2
    blocks = E.reshape(M, 4, n, 4, n)  # [element, node value, i, node value, j]
    GA, LA, GB, LB = range(4)
    Ph, G, Lq = P / h, 0.5 * MxP, (0.25 * h) * L
    Gt = np.swapaxes(G, 1, 2)
    blocks[:, GA, :, GA] -= Ph
    blocks[:, GB, :, GB] -= Ph
    blocks[:, GA, :, GB] += Ph
    blocks[:, GB, :, GA] += Ph
    for lam_end in (LA, LB):
        blocks[:, GA, :, lam_end] -= Gt
        blocks[:, GB, :, lam_end] += Gt
        blocks[:, lam_end, :, GA] -= G
        blocks[:, lam_end, :, GB] += G
        blocks[:, lam_end, :, LA] -= Lq
        blocks[:, lam_end, :, LB] -= Lq
    return E


# ---------------------------------------------------------------------------
# block-tridiagonal matrix

@dataclass(frozen=True, eq=False)
class BlockTridiagonal:
    """Symmetric block-tridiagonal matrix stored as node blocks.

    diag[k] is the (b, b) diagonal block of node k; off[k] couples node k
    (rows) to node k+1 (columns).  Scalar bandwidth is 2b - 1.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d, o = np.asarray(self.diag, float), np.asarray(self.off, float)
        if d.ndim != 3 or d.shape[1] != d.shape[2]:
            raise ValueError("diag must be (F, b, b)")
        if o.ndim != 3 or o.shape[1:] != d.shape[1:] or o.shape[0] != d.shape[0] - 1:
            raise ValueError("off must be (F-1, b, b)")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", o)

    @property
    def block(self) -> int:
        return self.diag.shape[1]

    @property
    def size(self) -> int:
        return self.diag.shape[0] * self.diag.shape[1]

    def to_dense(self) -> np.ndarray:
        F, b, _ = self.diag.shape
        out = np.zeros((F * b, F * b))
        for k in range(F):
            out[k * b:(k + 1) * b, k * b:(k + 1) * b] = self.diag[k]
        for k in range(F - 1):
            out[k * b:(k + 1) * b, (k + 1) * b:(k + 2) * b] = self.off[k]
            out[(k + 1) * b:(k + 2) * b, k * b:(k + 1) * b] = self.off[k].T
        return out

    def matvec(self, u: np.ndarray) -> np.ndarray:
        F, b, _ = self.diag.shape
        un = u.reshape(F, b)
        out = np.einsum("kij,kj->ki", self.diag, un)
        if F > 1:
            out[:-1] += np.einsum("kij,kj->ki", self.off, un[1:])
            out[1:] += np.einsum("kji,kj->ki", self.off, un[:-1])
        return out.reshape(-1)

    def to_banded(self, lower_only: bool = True) -> np.ndarray:
        """Band storage: ab[offset + i - j, j] = A[i, j]."""
        F, b, _ = self.diag.shape
        bw = 2 * b - 1
        lo = 0 if lower_only else -bw
        ab = np.zeros((bw - lo + 1, F * b))
        for p in range(lo, bw + 1):
            _band_row(ab[p - lo].reshape(F, b), self.diag, self.off, p)
        return ab

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        bw = 2 * self.block - 1
        return scipy.linalg.solve_banded((bw, bw), self.to_banded(lower_only=False), rhs)

    def neg_cholesky(self):
        """Banded Cholesky factor of -A, or None when A is not negative
        definite (doubles as the definiteness probe in the Newton loop)."""
        try:
            return scipy.linalg.cholesky_banded(-self.to_banded(lower_only=True), lower=True)
        except np.linalg.LinAlgError:
            return None

    def eigenvalues(self) -> np.ndarray:
        return scipy.linalg.eigvals_banded(self.to_banded(lower_only=True), lower=True)

    def inertia(self, zero_tol: float | None = None) -> tuple[int, int, int]:
        """(negative, zero, positive) eigenvalue counts, eigenvalues within
        the zero tolerance counting as zero.

        Certificate first: when A + tol I is negative definite (its negated
        banded Cholesky succeeds), every Schur complement of A lies below
        -tol I, so the answer is (size, 0, 0).  Otherwise the counts come
        from the Schur-complement recursion on the block factorization
        (Sylvester's law).
        """
        F, b, _ = self.diag.shape
        scale = max(float(np.max(np.abs(self.diag))),
                    float(np.max(np.abs(self.off))) if F > 1 else 0.0, 1e-300)
        tol = zero_tol if zero_tol is not None else 1e-11 * scale
        if self.shifted(-tol).neg_cholesky() is not None:
            return self.size, 0, 0
        neg = zero = pos = 0
        S = self.diag[0]
        for k in range(F):
            mu, Q = np.linalg.eigh(S)
            neg += int(np.sum(mu < -tol))
            pos += int(np.sum(mu > tol))
            zero += int(np.sum(np.abs(mu) <= tol))
            if k < F - 1:
                inv = np.where(np.abs(mu) > tol, 1.0 / np.where(mu == 0, 1.0, mu), 0.0)
                X = Q @ (inv[:, None] * (Q.T @ self.off[k]))
                S = self.diag[k + 1] - self.off[k].T @ X
        return neg, zero, pos

    def shifted(self, mu: float) -> "BlockTridiagonal":
        eye = mu * np.eye(self.block)
        return BlockTridiagonal(self.diag - eye, self.off)


def _band_row(rows, diag, off, p):
    """Fill one band row: rows[k, q] = A[k b + q + p, k b + q] for the
    block-tridiagonal A with diagonal blocks ``diag`` and upper blocks
    ``off`` (so the blocks below the diagonal are off[k].T)."""
    b = diag.shape[1]
    if -b < p < b:
        rows[:, max(0, -p):min(b, b - p)] = np.diagonal(diag, -p, 1, 2)
    if p > 0:    # row in the next node: off[k].T[q + p - b, q]
        rows[:-1, max(0, b - p):min(b, 2 * b - p)] = np.diagonal(off, p - b, 1, 2)
    elif p < 0:  # row in the previous node: off[k - 1][q + p + b, q]
        rows[1:, max(0, -b - p):min(b, -p)] = np.diagonal(off, -(p + b), 1, 2)


# ---------------------------------------------------------------------------
# packing

def pack_free(D: DualField) -> np.ndarray:
    """Flatten the free nodal values (nodes 0..M-1) as [gamma_k, lambda_k]."""
    M, n = D.grid.M, D.n
    u = np.empty(2 * n * M)
    w = u.reshape(M, 2 * n)
    w[:, :n] = D.gamma[:-1]
    w[:, n:] = D.lam[:-1]
    return u


def unpack_free(grid: TimeGrid, n: int, u: np.ndarray) -> DualField:
    """Inverse of pack_free; node M is restored as exactly zero."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2 * n * grid.M,):
        raise ValueError(f"expected a flat vector of length {2 * n * grid.M}")
    w = u.reshape(grid.M, 2 * n)
    gamma = np.zeros((grid.M + 1, n))
    lam = np.zeros((grid.M + 1, n))
    gamma[:-1] = w[:, :n]
    lam[:-1] = w[:, n:]
    return DualField(grid, gamma, lam)


def _require_final_zero(D: DualField) -> None:
    if np.any(D.gamma[-1] != 0.0) or np.any(D.lam[-1] != 0.0):
        raise ValueError("final-time condition violated: gamma and lambda must be "
                         "exactly zero at the last node")


def _require_match(D: DualField, spec: ProblemSpec) -> None:
    if D.grid != spec.grid:
        raise ValueError("dual field must live on the problem grid")
    if D.n != spec.n:
        raise ValueError(f"dual field is for n={D.n}, problem for n={spec.n}")


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
    force = p.force

    if force.has_quadratic:
        r = gammadot - np.einsum("...j,...ji->...i", lam, force_jacobian(force, xbar))
        Kinv = _stiffness_inv(force.B, lam, s.c_x)
        y = (Kinv @ r[..., None])[..., 0]
    else:
        y = gammadot - lam @ force.A
    x = xbar + y / s.c_x
    v = vbar + (gamma + p.m * lamdot - p.d * lam) / s.c_v
    return x, v


def action(D: DualField, spec: ProblemSpec) -> float:
    """Value of the discretized dual functional, boundary terms included."""
    _require_match(D, spec)
    _require_final_zero(D)
    md = spec._midpoints
    S = _action_elements(md, D.gamma[:-1], D.lam[:-1], D.gamma[1:], D.lam[1:])
    S -= spec.params.m * float(D.lam[0] @ spec.v0)
    S -= float(D.gamma[0] @ spec.x0)
    return S


def gradient(D: DualField, spec: ProblemSpec) -> np.ndarray:
    """Exact gradient of ``action`` over the free nodal values (packed)."""
    _require_match(D, spec)
    _require_final_zero(D)
    md = spec._midpoints
    g_ga, g_la, g_gb, g_lb = _gradient_elements(
        md, D.gamma[:-1], D.lam[:-1], D.gamma[1:], D.lam[1:])
    M, n = spec.grid.M, spec.n
    g_gamma = np.zeros((M + 1, n))
    g_lam = np.zeros((M + 1, n))
    g_gamma[:-1] += g_ga
    g_gamma[1:] += g_gb
    g_lam[:-1] += g_la
    g_lam[1:] += g_lb
    g_gamma[0] -= spec.x0
    g_lam[0] -= spec.params.m * spec.v0
    u = np.empty(2 * n * M)
    w = u.reshape(M, 2 * n)
    w[:, :n] = g_gamma[:-1]
    w[:, n:] = g_lam[:-1]
    return u


def hessian(D: DualField, spec: ProblemSpec) -> BlockTridiagonal:
    """Exact Hessian of ``action`` over the free nodal values."""
    _require_match(D, spec)
    _require_final_zero(D)
    md = spec._midpoints
    E = _hessian_elements(md, D.gamma[:-1], D.lam[:-1], D.gamma[1:], D.lam[1:])
    M, n = spec.grid.M, spec.n
    b = 2 * n
    diag = E[:, :b, :b].copy()
    diag[1:] += E[:-1, b:, b:]
    off = E[:-1, :b, b:].copy()
    return BlockTridiagonal(diag, off)


def ellipticity_check(D: DualField, spec) -> np.ndarray:
    """Per-node minimum eigenvalue of the ellipticity block
    diag(m^2/c_v I, (1/c_x) K|_lam^{-1}).

    Positive entries certify the pointwise ellipticity bound; a singular
    weighted stiffness is reported as 0.0 and an indefinite one as the
    (negative) extreme eigenvalue.  Works for both the initial-value and the
    periodic problem spec.
    """
    p, s = spec.params, spec.scales
    if D.n != p.n:
        raise ValueError(f"dual field is for n={D.n}, problem for n={p.n}")
    floor = p.m * p.m / s.c_v
    if not p.force.has_quadratic:
        return np.full(D.grid.M + 1, min(floor, 1.0 / s.c_x))
    mats = stiffness_lambda(p.force.B, D.lam, s.c_x)
    mu = np.linalg.eigvalsh(mats)
    amin = np.min(np.abs(mu), axis=1)
    amax = np.max(np.abs(mu), axis=1)
    degenerate = amin <= 1e-14 * np.maximum(1.0, amax)
    safe_mu = np.where(mu == 0.0, 1.0, mu)
    out = np.minimum(floor, np.min(1.0 / (s.c_x * safe_mu), axis=1))
    out[degenerate] = 0.0
    return out
