"""Physical data for the particle chain.

Quadratic interaction forces, external forcing signals, and the pointwise
evaluations built on them.  Everything in this module is a pure function of
immutable value objects: arrays are copied at construction and marked
read-only, so instances can be shared freely across threads or worker
processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadraticForce",
    "Sinusoid",
    "SampledSignal",
    "ForcingSpec",
    "ChainParams",
    "eval_force",
    "force_jacobian",
    "fput_alpha",
    "eval_forcing",
    "stiffness_lambda",
]


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _require_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must contain only finite entries")


@dataclass(frozen=True, eq=False)
class QuadraticForce:
    """Coefficients of a force that is at most quadratic in the positions.

    The stored frame is the expansion about the origin,

        K_j(x) = C_j + A[j, r] x_r + 1/2 B[j, r, s] x_r x_s,

    with B symmetric in its last two indices (enforced by symmetrization at
    construction).  The Jacobian about any point is `force_jacobian`; the
    force is polynomial, so the expansion about that point is exact.

    Derived at construction: ``B_flat``, a read-only (n, n^2) view of B with
    the index pair (r, s) flattened, and ``has_quadratic``, true when any B
    entry is nonzero (the genuinely nonlinear case).
    """

    n: int
    C: np.ndarray | None = None
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    B_flat: np.ndarray = field(init=False, repr=False)
    has_quadratic: bool = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("n must be a positive integer")
        C = np.zeros(n) if self.C is None else np.asarray(self.C, dtype=float)
        A = np.zeros((n, n)) if self.A is None else np.asarray(self.A, dtype=float)
        B = np.zeros((n, n, n)) if self.B is None else np.asarray(self.B, dtype=float)
        if C.shape != (n,):
            raise ValueError(f"C must have shape ({n},), got {C.shape}")
        if A.shape != (n, n):
            raise ValueError(f"A must have shape ({n}, {n}), got {A.shape}")
        if B.shape != (n, n, n):
            raise ValueError(f"B must have shape ({n}, {n}, {n}), got {B.shape}")
        for name, arr in (("C", C), ("A", A), ("B", B)):
            _require_finite(name, arr)
        B = 0.5 * (B + np.swapaxes(B, 1, 2))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "C", _readonly(C))
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "B", _readonly(B))
        object.__setattr__(self, "B_flat", self.B.reshape(n, n * n))
        object.__setattr__(self, "has_quadratic", bool(np.any(B)))


def eval_force(force: QuadraticForce, x) -> np.ndarray:
    """Force K(x) = C + A x + 1/2 B : x x.

    ``x`` may carry leading batch axes; the particle axis is last.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != force.n:
        raise ValueError(f"x must have trailing length {force.n}, got shape {x.shape}")
    out = force.C + x @ force.A.T
    if force.has_quadratic:
        xx = (x[..., :, None] * x[..., None, :]).reshape(x.shape[:-1] + (force.n ** 2,))
        out = out + 0.5 * (xx @ force.B_flat.T)
    return out


def force_jacobian(force: QuadraticForce, x) -> np.ndarray:
    """Jacobian dK/dx = A + B·x (contraction over the last index of B).

    ``x`` may carry leading batch axes; the result has shape x.shape + (n,).
    """
    return force.A + np.einsum("jrs,...s->...jr", force.B, x)


def fput_alpha(n: int, alpha: float, boundary: str = "fixed") -> QuadraticForce:
    """Coefficients of the quadratic-bond chain with cubic-potential bonds.

    Bond potential 1/2 r^2 + (alpha/3) r^3 per bond, r the bond extension.
    ``boundary`` is "fixed" (walls at both ends) or "free" (interior bonds
    only).  The returned coefficients satisfy eval_force == grad V exactly.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer")
    if boundary == "fixed":
        pairs = [(None, 0)] + [(j, j + 1) for j in range(n - 1)] + [(n - 1, None)]
    elif boundary == "free":
        pairs = [(j, j + 1) for j in range(n - 1)]
    else:
        raise ValueError(f"boundary must be 'fixed' or 'free', got {boundary!r}")

    A = np.zeros((n, n))
    B = np.zeros((n, n, n))
    for left, right in pairs:
        d = np.zeros(n)
        if left is not None:
            d[left] = -1.0
        if right is not None:
            d[right] = 1.0
        A += np.outer(d, d)
        if alpha != 0.0:
            B += 2.0 * alpha * np.einsum("j,r,s->jrs", d, d, d)
    return QuadraticForce(n=int(n), C=None, A=A, B=B)


@dataclass(frozen=True)
class Sinusoid:
    """One sinusoidal forcing component: amplitude * cos(omega t + phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniformly sampled signal on [times[0], times[-1]], linearly interpolated."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("times and values must be equal-length 1-d arrays (>= 2 samples)")
        _require_finite("times", t)
        _require_finite("values", v)
        steps = np.diff(t)
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=0, atol=1e-12 * (t[-1] - t[0])):
            raise ValueError("times must be strictly increasing and uniformly spaced")
        object.__setattr__(self, "times", _readonly(t))
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True, eq=False)
class ForcingSpec:
    """Per-particle forcing: constant + sinusoids + optional sampled tables.

    ``sinusoids`` and ``tables`` are sequences of (particle index, component)
    pairs; a particle may carry any number of components.
    """

    n: int
    constant: np.ndarray | None = None
    sinusoids: tuple = ()
    tables: tuple = ()

    def __post_init__(self):
        n = self.n
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("n must be a positive integer")
        const = np.zeros(n) if self.constant is None else np.asarray(self.constant, dtype=float)
        if const.shape != (n,):
            raise ValueError(f"constant must have shape ({n},), got {const.shape}")
        _require_finite("constant", const)
        sins = []
        for j, s in self.sinusoids:
            if not 0 <= int(j) < n:
                raise ValueError(f"sinusoid particle index {j} out of range for n={n}")
            if not isinstance(s, Sinusoid):
                s = Sinusoid(*s)
            sins.append((int(j), s))
        tabs = []
        for j, tab in self.tables:
            if not 0 <= int(j) < n:
                raise ValueError(f"table particle index {j} out of range for n={n}")
            if not isinstance(tab, SampledSignal):
                tab = SampledSignal(*tab)
            tabs.append((int(j), tab))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "constant", _readonly(const))
        object.__setattr__(self, "sinusoids", tuple(sins))
        object.__setattr__(self, "tables", tuple(tabs))

    @classmethod
    def zero(cls, n: int) -> "ForcingSpec":
        return cls(n=n)


def eval_forcing(forcing: ForcingSpec, t) -> np.ndarray:
    """Forcing vector at time(s) t: scalar t -> (n,), array (...,) -> (..., n).

    Times handed to a tabulated component must lie inside its sample range.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    out = np.tile(forcing.constant, t_arr.shape + (1,))
    for j, s in forcing.sinusoids:
        out[..., j] += s.amplitude * np.cos(s.omega * t_arr + s.phase)
    for j, tab in forcing.tables:
        t0, t1 = tab.times[0], tab.times[-1]
        slack = 1e-12 * max(1.0, abs(t1 - t0))
        if np.any(t_arr < t0 - slack) or np.any(t_arr > t1 + slack):
            raise ValueError(
                f"time outside table domain [{t0}, {t1}] for particle {j}"
            )
        out[..., j] += np.interp(np.clip(t_arr, t0, t1), tab.times, tab.values)
    return out[0] if scalar else out


@dataclass(frozen=True, eq=False)
class ChainParams:
    """Mass, damping, interaction force, and forcing for one chain."""

    m: float
    d: float
    force: QuadraticForce
    forcing: ForcingSpec

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m > 0):
            raise ValueError("mass m must be positive")
        if not (np.isfinite(self.d) and self.d >= 0):
            raise ValueError("damping d must be nonnegative")
        if self.forcing.n != self.force.n:
            raise ValueError(
                f"forcing is for n={self.forcing.n} particles, force for n={self.force.n}"
            )
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "d", float(self.d))

    @property
    def n(self) -> int:
        return self.force.n


def stiffness_lambda(B, lam, c_x: float) -> np.ndarray:
    """Multiplier-weighted stiffness: delta_ir + (1/c_x) lam_j B[j, i, r].

    ``lam`` may carry leading batch axes.  Always symmetric because B is
    symmetric in its last two indices.
    """
    if not (np.isfinite(c_x) and c_x > 0):
        raise ValueError("c_x must be positive")
    B = np.asarray(B, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = B.shape[0]
    if B.shape != (n, n, n):
        raise ValueError(f"B must be an (n, n, n) tensor, got {B.shape}")
    if lam.shape[-1] != n:
        raise ValueError(f"lam must have trailing length {n}, got shape {lam.shape}")
    out = np.einsum("...j,jir->...ir", lam, B) / c_x
    out = out + np.eye(n)
    return out
