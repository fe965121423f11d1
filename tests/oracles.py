"""Independent oracles shared by the test modules.

Everything here is deliberately written from first principles (analytic
solutions, finite differences, direct quadrature) so that package results are
checked against a second route, not against themselves.
"""
from __future__ import annotations

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
    stiffness_lambda,
)
from dualchain.dual_action import (
    COND_LIMIT,
    SingularStiffnessError,
    _BandWriter,
    _element_fields,
    _hessian_parts,
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
    any point is singular or has a condition number beyond COND_LIMIT.
    """
    mu, Q = np.linalg.eigh(stiffness_lambda(B, lam, c_x))
    amin = np.min(np.abs(mu), axis=-1).ravel()
    amax = np.max(np.abs(mu), axis=-1).ravel()
    bad = (amin == 0.0) | (amax > COND_LIMIT * amin)
    if np.any(bad):
        where = int(np.argmax(bad))
        cond = None if amin[where] == 0.0 else float(amax[where] / amin[where])
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


def hessian_elements_quadrants(spec, D) -> np.ndarray:
    """Per-element nodal Hessian blocks of ``spec``'s problem at D, shape
    (M, 4n, 4n), from the package's parts (C, P, G, L) written into whole
    (M, 2n, 2n) quadrants aa, ab and bb, ba being ab transposed: each
    [gamma, lambda] x [gamma, lambda] block of a quadrant is C I plus or
    minus one part, added or subtracted by the sign listed for it."""
    C, P, G, L = _hessian_parts(spec, D)
    n, M, h = spec.n, spec.grid.M, spec.grid.h
    eye = np.eye(n)
    parts = ((P / h, np.swapaxes(G, 1, 2)), (G, (0.25 * h) * L))
    quads = []
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
    aa, ab, bb = quads
    return np.block([[aa, ab], [np.swapaxes(ab, 1, 2), bb]])


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
    node k to node k+1: the package's band writer given each block whole,
    as one sub-block of size b.  The band keeps each diagonal block's lower
    triangle and sums the two couplings of a cyclic F = 2 matrix."""
    diag, off = np.asarray(diag, float), np.asarray(off, float)
    writer = _BandWriter(len(diag), 1, diag.shape[1], len(off) == len(diag))
    writer.put_diag(0, 0, diag)
    writer.put_off(0, 0, off)
    return BlockTridiagonal(writer)


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
