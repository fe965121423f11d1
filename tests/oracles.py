"""Independent oracles shared by the test modules.

Everything here is deliberately written from first principles (analytic
solutions, finite differences, direct quadrature) so that package results are
checked against a second route, not against themselves.
"""
from __future__ import annotations

import ctypes
import os

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from dualchain import (
    BaseState,
    BlockTridiagonal,
    IntegrationBlowUpError,
    SingularSystemError,
    TimeGrid,
    dtp_map,
    eval_force,
    eval_forcing,
    force_jacobian,
)
from dualchain.dual_action import (
    COND_LIMIT,
    SingularStiffnessError,
    _element_fields,
)


# ---------------------------------------------------------------------------
# analytic single-particle solutions


def harmonic_solution(t):
    """m=1, d=0, K(x)=x, f=0, x0=1, v0=0."""
    t = np.asarray(t, dtype=float)
    return np.cos(t), -np.sin(t)


def critically_damped_solution(t):
    """m=1, d=2, K(x)=x, f=0, x0=1, v0=0."""
    t = np.asarray(t, dtype=float)
    return (1.0 + t) * np.exp(-t), -t * np.exp(-t)


def forced_damped_solution(t):
    """m=1, d=1, K(x)=x, f=cos t, x0=0, v0=1: x=sin t solves the ODE exactly."""
    t = np.asarray(t, dtype=float)
    return np.sin(t), np.cos(t)


def linear_chain_solution(A, m, d, x0, v0, t):
    """Modal solution of m x'' + d x' + A x = 0 for symmetric positive A.

    Decouples in the eigenbasis of A; each mode is solved with the exact
    under/critically/over-damped formula.
    """
    A = np.asarray(A, dtype=float)
    mu, Q = np.linalg.eigh(A)
    t = np.asarray(t, dtype=float)
    q0 = Q.T @ np.asarray(x0, dtype=float)
    p0 = Q.T @ np.asarray(v0, dtype=float)
    x_modes = np.empty((t.size, mu.size))
    v_modes = np.empty((t.size, mu.size))
    for i, k in enumerate(mu):
        # scalar m q'' + d q' + k q = 0
        disc = d * d - 4.0 * m * k
        if abs(disc) < 1e-12 * max(1.0, d * d, 4.0 * m * abs(k)):
            r = -d / (2.0 * m)
            c1, c2 = q0[i], p0[i] - r * q0[i]
            x_modes[:, i] = (c1 + c2 * t) * np.exp(r * t)
            v_modes[:, i] = (c2 + r * (c1 + c2 * t)) * np.exp(r * t)
        elif disc > 0:
            s = np.sqrt(disc)
            r1, r2 = (-d + s) / (2 * m), (-d - s) / (2 * m)
            c2 = (p0[i] - r1 * q0[i]) / (r2 - r1)
            c1 = q0[i] - c2
            x_modes[:, i] = c1 * np.exp(r1 * t) + c2 * np.exp(r2 * t)
            v_modes[:, i] = c1 * r1 * np.exp(r1 * t) + c2 * r2 * np.exp(r2 * t)
        else:
            w = np.sqrt(-disc) / (2 * m)
            r = -d / (2 * m)
            c1 = q0[i]
            c2 = (p0[i] - r * q0[i]) / w
            e = np.exp(r * t)
            x_modes[:, i] = e * (c1 * np.cos(w * t) + c2 * np.sin(w * t))
            v_modes[:, i] = e * (
                (r * c1 + w * c2) * np.cos(w * t) + (r * c2 - w * c1) * np.sin(w * t)
            )
    return x_modes @ Q.T, v_modes @ Q.T


def sinusoid_steady_state(A, m, d, amp, omega, phase, t):
    """Periodic response of m x'' + d x' + A x = amp*cos(omega t + phase).

    Complex transfer-function solve: x(t) = Re[(A - m w^2 I + i d w I)^{-1}
    amp e^{i(w t + phase)}].
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    amp = np.asarray(amp, dtype=float)
    H = A - m * omega * omega * np.eye(n) + 1j * d * omega * np.eye(n)
    coef = np.linalg.solve(H, amp.astype(complex))
    t = np.asarray(t, dtype=float)
    phasor = np.exp(1j * (omega * t[:, None] + phase))
    x = np.real(phasor * coef)
    v = np.real(1j * omega * phasor * coef)
    return x, v


# ---------------------------------------------------------------------------
# direct force, Jacobian and stiffness contractions, and the per-stage RK4 loop


def einsum_force(force, x):
    """K(x) = C + A x + 1/2 B : x x by the three-operand contraction."""
    x = np.asarray(x)
    return force.C + x @ force.A.T + 0.5 * np.einsum("jrs,...r,...s->...j", force.B, x, x)


def einsum_jacobian(force, x):
    """dK/dx = A + B·x by the two-operand contraction over B's last index."""
    return force.A + np.einsum("jrs,...s->...jr", force.B, np.asarray(x))


def einsum_stiffness(B, lam, c_x: float):
    """Weighted stiffness I + (1/c_x) lam_j B[j] by the two-operand
    contraction over B's first index."""
    return np.einsum("...j,jir->...ir", np.asarray(lam), B) / c_x + np.eye(B.shape[0])


def einsum_stiffness_distance(B, lam, c_x: float):
    """rho = ||K - I||_F of the weighted stiffness, from (1/c_x) lam_j B[j]
    by the two-operand contraction, with no I added or taken away."""
    return np.linalg.norm(np.einsum("...j,jir->...ir", np.asarray(lam), B) / c_x, axis=(-2, -1))


def einsum_mapped_jacobian(B, J, dx):
    """Mx = J + B·dx by the two-operand contraction over B's last index."""
    return J + np.einsum("jrs,...s->...jr", B, np.asarray(dx))


def rk4_reference(params, x0, v0, grid, dtype=float):
    """Classical RK4 on (x, v) one stage at a time, with the acceleration
    (f - d v - K(x)) / m from ``einsum_force``; returns the (M+1, n) arrays
    (xs, vs).  ``dtype`` sets the precision of the state: np.longdouble has
    a wider exponent range than float on most platforms."""
    m, d = params.m, params.d
    h = grid.h
    f_nodes = eval_forcing(params.forcing, grid.nodes())
    f_mid = eval_forcing(params.forcing, grid.midpoints())

    def accel(x, v, f):
        return (f - d * v - einsum_force(params.force, x)) / m

    xs = np.empty((grid.M + 1, params.n), dtype=dtype)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x0, v0
    x, v = xs[0].copy(), vs[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.M):
            k1x = v
            k1v = accel(x, v, f_nodes[k])
            k2x = v + 0.5 * h * k1v
            k2v = accel(x + 0.5 * h * k1x, v + 0.5 * h * k1v, f_mid[k])
            k3x = v + 0.5 * h * k2v
            k3v = accel(x + 0.5 * h * k2x, v + 0.5 * h * k2v, f_mid[k])
            k4x = v + h * k3v
            k4v = accel(x + h * k3x, v + h * k3v, f_nodes[k + 1])
            x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
                raise IntegrationBlowUpError(step=k + 1, t=(k + 1) * h)
            xs[k + 1], vs[k + 1] = x, v
    return xs, vs


# ---------------------------------------------------------------------------
# dense-eigendecomposition assembly: the weighted stiffness inverse through
# eigh, and the element Hessian as the triple product W^T Hm W with W = kron(S, I)


def stiffness_eig(B, lam, c_x: float):
    """Eigendecomposition of the weighted stiffness at each point of ``lam``
    (leading batch axes allowed).

    Raises SingularStiffnessError, naming the first point in C order, when
    any point is singular or has a condition number beyond COND_LIMIT; a
    point whose stiffness is not finite is singular, with no condition
    estimate (its eigenpairs here are I's placeholders).
    """
    K = einsum_stiffness(B, lam, c_x)
    finite = np.all(np.isfinite(K), axis=(-2, -1))
    mu, Q = np.linalg.eigh(np.where(finite[..., None, None], K, np.eye(K.shape[-1])))
    amin = np.min(np.abs(mu), axis=-1).ravel()
    amax = np.max(np.abs(mu), axis=-1).ravel()
    finite = finite.ravel()
    bad = ~finite | (amin == 0.0) | (amax > COND_LIMIT * amin)
    if np.any(bad):
        where = int(np.argmax(bad))
        singular = amin[where] == 0.0 or not finite[where]
        cond = None if singular else float(amax[where] / amin[where])
        raise SingularStiffnessError(where, cond)
    return mu, Q


def apply_inv(eig, r):
    """Apply the inverse weighted stiffness via its eigendecomposition."""
    mu, Q = eig
    return np.einsum("...ik,...k->...i", Q,
                     np.einsum("...ki,...k->...i", Q, r) / mu)


def hessian_elements_kron(spec, ga, la, gb, lb) -> np.ndarray:
    """Per-element nodal Hessian blocks of ``spec``'s problem, shape
    (M, 4n, 4n), by the dense triple product; the mapped state comes from
    the eigh inverse."""
    n, M, h = spec.n, spec.grid.M, spec.grid.h
    p, c_x, c_v = spec.params, spec.scales.c_x, spec.scales.c_v
    B, Abar_mid = p.force.B, force_jacobian(p.force, spec.base.xbar_mid)
    gmid, lmid, gdot, ldot = _element_fields(ga, la, gb, lb, h)
    r = gdot - np.einsum("mji,mj->mi", Abar_mid, lmid)
    eig = stiffness_eig(B, lmid, c_x)
    dx = apply_inv(eig, r) / c_x

    mu, Q = eig
    P = np.einsum("mik,mk,mjk->mij", Q, 1.0 / (c_x * mu), Q)
    Mx = Abar_mid + np.einsum("jrs,ms->mjr", B, dx)

    eyen = np.eye(n)
    g, l, gd, ld = (slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), slice(3 * n, 4 * n))
    Hm = np.zeros((M, 4 * n, 4 * n))
    Hm[:, g, g] = -(1.0 / c_v) * eyen
    Hm[:, g, l] = Hm[:, l, g] = (p.d / c_v) * eyen
    Hm[:, g, ld] = Hm[:, ld, g] = -(p.m / c_v) * eyen
    MxP = np.einsum("mjr,mri->mji", Mx, P)
    Hm[:, l, l] = -(p.d * p.d / c_v) * eyen - np.einsum("mjr,mkr->mjk", MxP, Mx)
    Hm[:, l, gd] = MxP
    Hm[:, gd, l] = np.swapaxes(MxP, 1, 2)
    Hm[:, l, ld] = Hm[:, ld, l] = (p.d * p.m / c_v) * eyen
    Hm[:, gd, gd] = -P
    Hm[:, ld, ld] = -(p.m * p.m / c_v) * eyen

    # map (gamma_mid, lambda_mid, gamma_rate, lambda_rate) -> end-node values
    smap = np.array([
        [0.5, 0.0, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [-1.0 / h, 0.0, 1.0 / h, 0.0],
        [0.0, -1.0 / h, 0.0, 1.0 / h],
    ])
    W = np.kron(smap, eyen)
    return h * (W.T @ (Hm @ W))


def assemble_nodes(E, periodic: bool):
    """(diag, off) node blocks from per-element blocks E (M, 2b, 2b): node
    k's diagonal block is element k's first diagonal quadrant plus element
    k-1's second (element M-1's wraps to node 0 when periodic), and element
    k's upper quadrant couples node k to node k+1, kept for every element
    when periodic and for all but the last (node M is pinned) otherwise."""
    b = E.shape[1] // 2
    diag = E[:, :b, :b].copy()
    diag[1:] += E[:-1, b:, b:]
    if periodic:
        diag[0] += E[-1, b:, b:]
    off = E[:, :b, b:]
    return diag, off if periodic else off[:-1]


def block_tridiagonal(diag, off) -> BlockTridiagonal:
    """The BlockTridiagonal with node blocks ``diag`` (F, b, b) and
    couplings ``off``, F-1 of them, or F (F >= 2) when cyclic, U_k coupling
    node k to node k+1, as float arrays.  The band keeps each diagonal
    block's lower triangle and sums the two couplings of a cyclic F = 2
    matrix."""
    return BlockTridiagonal(np.asarray(diag, float), np.asarray(off, float))


def node_blocks(H):
    """(diag, off) read back from ``H.to_dense()``, blocks that
    `block_tridiagonal` writes into H's band again: the two couplings of a
    cyclic F = 2 matrix join the same nodes, so they come back summed in
    U_0, with U_1 zero."""
    F, b = H.size // H.block, H.block
    dense = H.to_dense().reshape(F, b, F, b)
    nodes = np.arange(F)
    diag = dense[nodes, :, nodes]
    off = dense[nodes, :, (nodes + 1) % F]
    if not H.cyclic:
        return diag, off[:-1]
    if F == 2:
        off[1] = 0.0
    return diag, off


def block_matvec(diag, off, u):
    """Product of the block-tridiagonal matrix with node blocks (diag, off),
    open or cyclic, with a vector, block by block in node order."""
    F, b, _ = diag.shape
    un = u.reshape(F, b)
    out = np.einsum("kij,kj->ki", diag, un)
    for k in range(off.shape[0]):
        j = (k + 1) % F
        out[k] += off[k] @ un[j]
        out[j] += off[k].T @ un[k]
    return out.reshape(-1)


def dense_norm1(H) -> float:
    """The 1-norm of the symmetric matrix H stores, from its dense form: the
    scale of a shift relative to H."""
    return float(np.linalg.norm(H.to_dense(), 1))


def shifted(H, mu):
    """H - mu I, built from its blocks: the matrix that ``H.neg_cholesky(mu)``
    factors the negation of."""
    diag, off = node_blocks(H)
    return block_tridiagonal(diag - mu * np.eye(H.block), off)


def banded_by_positions(diag, off) -> np.ndarray:
    """The lower band in Fortran order of the matrix with node blocks
    (diag, off), as ``block_tridiagonal(diag, off).band`` stores it, written
    by node positions: a cyclic matrix's folded position of each node
    (argsort of the order 0, F-1, 1, F-2, ...) places every coupling as an
    upper block one or two positions off the diagonal, and the one-position
    blocks are summed into zeros in coupling order (np.add.at: the two F = 2
    couplings join the same positions).  Each block row [D_k^T, U1_k, U2_k]
    then goes into the band along the skew ab[c - q, k b + q]."""
    F, b, _ = diag.shape
    if len(off) == F:  # cyclic
        order = np.stack([np.arange(F), np.arange(F)[::-1]], axis=1).ravel()[:F]
        pos = np.argsort(order)
        rows, cols = pos, pos[(np.arange(F) + 1) % F]
        first, gap = np.minimum(rows, cols), np.abs(rows - cols)
        upper = np.where((rows < cols)[:, None, None], off, np.swapaxes(off, 1, 2))
        blocks = [diag[order], np.zeros((F - 1, b, b)), np.zeros((F - 2, b, b))]
        np.add.at(blocks[1], first[gap == 1], upper[gap == 1])
        blocks[2][first[gap == 2]] = upper[gap == 2]
    else:
        blocks = [diag, off]
    ab = np.zeros((len(blocks) * b, F * b), order="F")
    for k in range(F):
        for r, up in enumerate(blocks):
            for q in range(b if k < len(up) else 0):
                for c in range(q if r == 0 else 0, b):  # D_k's lower triangle
                    ab[r * b + c - q, k * b + q] = up[k][c, q] if r == 0 else up[k][q, c]
    return ab


# ---------------------------------------------------------------------------
# the Gram factor's element blocks and an upper triangular band


def gram_blocks(spec, Mx):
    """Element k's Gram factor blocks (A_a, A_b), each (M, 2n, 2n), on
    nodes k and k+1, x rows then v rows, as `dual_action._transfer_matrices`
    states them: sqrt(h) [[-+I/h, -Mx^T/2], [I/2, (-+m/h - d/2) I]]."""
    n, h, m, d = spec.n, spec.grid.h, spec.params.m, spec.params.d
    blocks = np.zeros((2, len(Mx), 2 * n, 2 * n))
    for A, sign in zip(blocks, (-1.0, 1.0)):
        A[:, :n, :n] = (sign / h) * np.eye(n)
        A[:, :n, n:] = -0.5 * np.swapaxes(Mx, 1, 2)
        A[:, n:, :n] = 0.5 * np.eye(n)
        A[:, n:, n:] = (sign * m / h - 0.5 * d) * np.eye(n)
    return np.sqrt(h) * blocks


def transfer_matrices_by_blocks(spec, Mx, Einv):
    """R_k = -A_a,k^-1 A_b,k from E^-1, its four blocks [[I - 2 q E^-1,
    -(4m/h) q E^-1], [E^-1, (2m/h) E^-1 - I]], q = (h/4) Mx^T, written one
    by one: the reference for `dual_action._transfer_matrices`, which forms
    the same R as D + Y Q by one matmul."""
    n, h, m = spec.n, spec.grid.h, spec.params.m
    out = np.empty((len(Einv), 2 * n, 2 * n))
    qE = ((0.25 * h) * np.swapaxes(Mx, 1, 2)) @ Einv
    eye = np.eye(n)
    np.subtract(eye, 2.0 * qE, out=out[:, :n, :n])
    np.multiply(-4.0 * m / h, qE, out=out[:, :n, n:])
    out[:, n:, :n] = Einv
    np.subtract((2.0 * m / h) * Einv, eye, out=out[:, n:, n:])
    return out


def pairwise_transfer_product(R):
    """(P, s) with R_0 R_1 ... R_{M-1} = e^s P, pairwise, each partial
    product divided by its largest entry with the scale's log carried, so
    that none overflows, and the odd last factor of a level carried to the
    next: the reference for `dual_action._transfer_product`, which forms the
    same tree in place, scaled by powers of two."""
    logs = np.zeros(len(R))
    while len(R) > 1:
        even = len(R) - len(R) % 2
        prod = R[0:even:2] @ R[1:even:2]
        scale = np.max(np.abs(prod), axis=(1, 2))
        scale[scale == 0.0] = 1.0
        R = np.concatenate([prod / scale[:, None, None], R[even:]])
        logs = np.concatenate([logs[0:even:2] + logs[1:even:2] + np.log(scale), logs[even:]])
    return R[0], float(logs[0])


def upper_band_by_positions(diag, sup, kd: int):
    """(ab, outside): LAPACK's upper band ab[kd + i - j, j] = T[i, j], in
    Fortran order, of the block upper bidiagonal T with diagonal blocks
    ``diag`` (M, b, b) and superdiagonal blocks ``sup`` (M - 1, b, b),
    written entry by entry, and the largest |entry| of T that lies outside
    the band, below the diagonal or more than kd above it."""
    M, b, _ = diag.shape
    ab, outside = np.zeros((kd + 1, M * b), order="F"), 0.0
    for k in range(M):
        for blocks, c0 in ((diag, 0), (sup, b)):
            for i in range(b if k < len(blocks) else 0):
                for j in range(b):
                    r, c = k * b + i, k * b + c0 + j
                    if 0 <= c - r <= kd:
                        ab[kd + r - c, c] = blocks[k][i, j]
                    else:
                        outside = max(outside, abs(blocks[k][i, j]))
    return ab, outside


# ---------------------------------------------------------------------------
# the cyclic Hessian as a scipy sparse matrix, assembled from COO triplets,
# and its singularity check by sparse LU


def hessian_cyclic_coo(spec, D) -> scipy.sparse.csc_matrix:
    """Cyclic dual Hessian of a periodic spec at the periodic field D, in
    node order, element blocks scattered as COO triplets (duplicates summed
    by the CSC conversion)."""
    E = hessian_elements_kron(spec, D.gamma[:-1], D.lam[:-1], D.gamma[1:], D.lam[1:])
    M, b = spec.grid.M, 2 * spec.n
    idx = np.arange(M)
    nxt = (idx + 1) % M
    p = np.arange(b)
    rows, cols, data = [], [], []
    for rblk, cblk, blocks in (
        (idx, idx, E[:, :b, :b]),
        (idx, nxt, E[:, :b, b:]),
        (nxt, idx, E[:, b:, :b]),
        (nxt, nxt, E[:, b:, b:]),
    ):
        rows.append((rblk[:, None, None] * b + p[None, :, None]
                     + np.zeros((1, 1, b), dtype=int)).ravel())
        cols.append((cblk[:, None, None] * b + p[None, None, :]
                     + np.zeros((1, b, 1), dtype=int)).ravel())
        data.append(blocks.ravel())
    H = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(M * b, M * b))
    return H.tocsc()


def factorize_checked_splu(H: scipy.sparse.csc_matrix):
    """Sparse LU plus a 1-norm condition estimate; raises SingularSystemError
    with the package's messages on singularity."""
    try:
        lu = scipy.sparse.linalg.splu(H)
    except RuntimeError as exc:
        raise SingularSystemError(f"cyclic dual system is singular: {exc}") from exc
    # H is symmetric, so the inverse is its own adjoint
    inv_op = scipy.sparse.linalg.LinearOperator(H.shape, matvec=lu.solve, rmatvec=lu.solve)
    cond = scipy.sparse.linalg.onenormest(H) * scipy.sparse.linalg.onenormest(inv_op)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystemError(
            f"cyclic dual system is numerically singular "
            f"(1-norm condition estimate {cond:.3e}); for undamped linear chains this "
            f"is the signature of forcing at a resonant frequency")
    return lu


# ---------------------------------------------------------------------------
# a base state that is constant in time


def constant_base(grid: TimeGrid, x, v) -> BaseState:
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    ones = np.ones((grid.M + 1, 1))
    return BaseState(grid, ones * x, ones * v)


# ---------------------------------------------------------------------------
# bond potential for the cubic nearest-neighbour chain


def bond_potential(n, alpha, boundary="fixed"):
    """V(x) = sum over bonds of r^2/2 + (alpha/3) r^3 with r the extension."""

    def V(x):
        x = np.asarray(x, dtype=float)
        if boundary == "fixed":
            ext = np.concatenate([x, [0.0]]) - np.concatenate([[0.0], x])
        else:
            ext = x[1:] - x[:-1]
        return float(np.sum(0.5 * ext**2 + (alpha / 3.0) * ext**3))

    return V


def fd_gradient(fun, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (fun(up) - fun(dn)) / (2.0 * step)
    return g


def fd_jacobian(fun, u, step=1e-6):
    """Central finite-difference Jacobian of a vector function of a vector."""
    u = np.asarray(u, dtype=float)
    f0 = np.asarray(fun(u), dtype=float)
    J = np.empty((f0.size, u.size))
    for i in range(u.size):
        up = u.copy()
        dn = u.copy()
        up[i] += step
        dn[i] -= step
        J[:, i] = (np.asarray(fun(up)) - np.asarray(fun(dn))) / (2.0 * step)
    return J


# ---------------------------------------------------------------------------
# pre-dual functional evaluated at the mapped primal point
#
# The integrand, before any reduction:
#   -m v.ldot + d l.v + l.K(x) - l.f - x.gdot - g.v
#   + (c_x/2)|x - xbar|^2 + (c_v/2)|v - vbar|^2
# with boundary terms -m l(0).v0 - g(0).x0.  Midpoint quadrature over each
# element; (x, v) taken from the dual-to-primal map at the element midpoint.
# The interaction force at the mapped position is evaluated through the
# origin-frame coefficients, a route disjoint from the reduced closed form.


def predual_action(D, spec) -> float:
    grid = spec.grid
    base = spec.base
    h = grid.h
    ga, gb = D.gamma[:-1], D.gamma[1:]
    la, lb = D.lam[:-1], D.lam[1:]
    gmid, lmid = 0.5 * (ga + gb), 0.5 * (la + lb)
    gdot, ldot = (gb - ga) / h, (lb - la) / h
    xbm, vbm = base.xbar_mid, base.vbar_mid
    f_mid = eval_forcing(spec.params.forcing, grid.midpoints())
    m, d = spec.params.m, spec.params.d
    c_x, c_v = spec.scales.c_x, spec.scales.c_v

    total = 0.0
    for k in range(grid.M):
        x, v = dtp_map(lmid[k], ldot[k], gmid[k], gdot[k], xbm[k], vbm[k], spec)
        Kx = eval_force(spec.params.force, x)
        integrand = (
            -m * np.dot(v, ldot[k])
            + d * np.dot(lmid[k], v)
            + np.dot(lmid[k], Kx)
            - np.dot(lmid[k], f_mid[k])
            - np.dot(x, gdot[k])
            - np.dot(gmid[k], v)
            + 0.5 * c_x * np.dot(x - xbm[k], x - xbm[k])
            + 0.5 * c_v * np.dot(v - vbm[k], v - vbm[k])
        )
        total += h * integrand
    total += -m * np.dot(D.lam[0], spec.v0) - np.dot(D.gamma[0], spec.x0)
    return float(total)


# ---------------------------------------------------------------------------
# continuum action of a prescribed single-particle dual field, by fine
# quadrature (independent of the package's element assembly)


def fine_quadrature_action(lam_fun, lamdot_fun, gam_fun, gamdot_fun,
                           T, m, d, k_lin, c_x, c_v, points=200_000) -> float:
    """High-resolution midpoint quadrature of the reduced integrand for a
    scalar linear problem (B=0, base zero, f=0, x0=v0=0)."""
    t = (np.arange(points) + 0.5) * (T / points)
    lam, ld = lam_fun(t), lamdot_fun(t)
    gam, gd = gam_fun(t), gamdot_fun(t)
    w = gam + m * ld - d * lam
    r = gd - k_lin * lam
    integrand = -0.5 * (w * w / c_v + r * r / c_x)
    return float(np.sum(integrand) * (T / points))


def make_grid(T, M) -> TimeGrid:
    return TimeGrid(T=T, M=M)


# ---------------------------------------------------------------------------
# the libraries this process maps (read from /proc/self/maps, which the
# package never reads) and the OpenBLAS thread-count pairs a library resolves


def mapped_paths() -> set:
    """The file paths in /proc/self/maps; none without /proc."""
    try:
        with open("/proc/self/maps") as fh:
            return {line.split(None, 5)[-1].strip() for line in fh if "/" in line}
    except OSError:
        return set()


def openblas_thread_pairs(path: str) -> list:
    """The (getter, setter) of every OpenBLAS thread-count pair that the
    loaded library at ``path`` resolves, under any of its known names, bound
    through ctypes."""
    lib, pairs = ctypes.CDLL(path, mode=os.RTLD_NOLOAD), []
    for prefix in ("openblas", "scipy_openblas"):
        for suffix in ("", "64_"):
            getter, setter = (getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
                              for verb in ("get", "set"))
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                pairs.append((getter, setter))
    return pairs
