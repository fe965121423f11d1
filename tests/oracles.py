"""Independent oracles shared by the test modules.

Everything here is deliberately written from first principles (analytic
solutions, finite differences, direct quadrature) so that package results are
checked against a second route, not against themselves.
"""
from __future__ import annotations

import numpy as np

from dualchain import (
    IntegrationBlowUpError,
    TimeGrid,
    dtp_map,
    eval_force,
    eval_forcing,
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
# direct force evaluation and the per-stage RK4 loop


def einsum_force(force, x):
    """K(x) = C + A x + 1/2 B : x x by the three-operand contraction."""
    x = np.asarray(x)
    return force.C + x @ force.A.T + 0.5 * np.einsum("jrs,...r,...s->...j", force.B, x, x)


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
