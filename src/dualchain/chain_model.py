"""Physical data for the particle chain.

Quadratic interaction forces, external forcing signals, and the pointwise
evaluations built on them.  Everything in this module is a pure function of
immutable value objects: arrays are copied at construction and marked
read-only, so instances can be shared freely across threads or worker
processes.  A constant forcing is a zero-frequency `Sinusoid`.

Each rule on the package's inputs is written once, here, and its errors
name the offending field: `_check_state` for arrays (one shape, finite
entries, a read-only float copy), which frozen dataclasses store through
`_freeze_arrays`; `_count`, `_positive` and `_nonnegative` for scalars; and
`_check_forcing` for where a forcing can be read and whether it has a given
period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
]


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer >= 1 (a bool
    is not one)."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


def _positive(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is finite and > 0."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


def _nonnegative(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is finite and >= 0."""
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be nonnegative and finite")
    return float(value)


def _check_state(name: str, a, shape: tuple) -> np.ndarray:
    """A read-only float copy of ``a``, which must have ``shape`` and finite
    entries; anything else raises ValueError."""
    a = np.array(a, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    a.setflags(write=False)
    return a


def _freeze_arrays(obj, names: tuple, *shape) -> None:
    """Store each named field of the frozen dataclass ``obj`` as its
    `_check_state` copy of ``shape``.  An extent given as None is the first
    array's, so that the arrays must match there."""
    if None in shape:
        first = np.shape(getattr(obj, names[0]))
        if len(first) != len(shape):
            wanted = str(tuple("n" if s is None else s for s in shape)).replace("'", "")
            raise ValueError(f"{names[0]} must have shape {wanted}, got {first}")
        shape = tuple(f if s is None else s for f, s in zip(first, shape))
    for name in names:
        object.__setattr__(obj, name, _check_state(name, getattr(obj, name), shape))


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
    entry is nonzero (the genuinely nonlinear case).  Derived when the dual
    first reads it, then kept: ``band``, B on its diagonals.
    """

    n: int
    C: np.ndarray | None = None
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    B_flat: np.ndarray = field(init=False, repr=False)
    has_quadratic: bool = field(init=False, repr=False)

    def __post_init__(self):
        n = _count("n", self.n)
        for name, shape in (("C", (n,)), ("A", (n, n)), ("B", (n, n, n))):
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.zeros(shape))
            _freeze_arrays(self, (name,), *shape)
        B = _check_state("B", 0.5 * (self.B + np.swapaxes(self.B, 1, 2)), (n, n, n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "B_flat", B.reshape(n, n * n))
        object.__setattr__(self, "has_quadratic", bool(np.any(B)))

    @cached_property
    def band(self) -> tuple:
        """(kd, w, BK, BJ): kd = max |i - r| over B[j, i, r] != 0, the
        half-bandwidth of lam·B, and w that of Mx = A + B·x, the larger of
        A's and B·x's (max |j - i| over A[j, i] != 0 and B[j, i, r] != 0);
        lam @ BK is lam·B's lower band, BK[j, i (kd + 1) + d] = B[j, i + d,
        i], and x @ BJ B·x's diagonals -w..w, BJ[s, (w + d) n + i] = B[i, i +
        d, s]."""
        B, n = self.B, self.n
        (j, i, r), (a, c) = np.nonzero(B), np.nonzero((self.A != 0) | np.any(B, axis=2))
        kd, w = int(np.max(np.abs(i - r), initial=0)), int(np.max(np.abs(a - c), initial=0))
        BK, BJ = np.zeros((n, n, kd + 1)), np.zeros((n, 2 * w + 1, n))
        for d in range(kd + 1):
            BK[:, :n - d, d] = np.diagonal(B, -d, 1, 2)
        for d in range(-w, w + 1):
            BJ[:, w + d, max(0, -d):n - max(0, d)] = np.diagonal(B, d, 0, 1)
        return kd, w, BK.reshape(n, -1), BJ.reshape(n, -1)


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
    One matmul on the flattened B does the contraction.
    """
    x = np.asarray(x, dtype=float)
    n = force.n
    return force.A + (x @ force.B.reshape(n * n, n).T).reshape(x.shape[:-1] + (n, n))


def fput_alpha(n: int, alpha: float, boundary: str = "fixed") -> QuadraticForce:
    """Coefficients of the quadratic-bond chain with cubic-potential bonds.

    Bond potential 1/2 r^2 + (alpha/3) r^3 per bond, r the bond extension.
    ``boundary`` is "fixed" (walls at both ends) or "free" (interior bonds
    only).  The returned coefficients satisfy eval_force == grad V exactly.
    """
    n = _count("n", n)
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
    return QuadraticForce(n=n, C=None, A=A, B=B)


@dataclass(frozen=True)
class Sinusoid:
    """One sinusoidal forcing component: amplitude * cos(omega t + phase).
    A constant is the component of zero frequency and phase."""

    amplitude: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        for name in ("amplitude", "omega", "phase"):
            _check_state(name, getattr(self, name), ())


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniformly sampled signal on [times[0], times[-1]], linearly interpolated."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze_arrays(self, ("times", "values"), None)
        t = self.times
        if t.size < 2:
            raise ValueError("times must hold at least 2 samples")
        steps = np.diff(t)
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=0, atol=1e-12 * (t[-1] - t[0])):
            raise ValueError("times must be strictly increasing and uniformly spaced")


@dataclass(frozen=True, eq=False)
class ForcingSpec:
    """Per-particle forcing: sinusoids plus optional sampled tables.

    ``sinusoids`` and ``tables`` are sequences of (particle index, component)
    pairs; a particle may carry any number of components.
    """

    n: int
    sinusoids: tuple = ()
    tables: tuple = ()

    def __post_init__(self):
        n = _count("n", self.n)
        for name, kind in (("sinusoids", Sinusoid), ("tables", SampledSignal)):
            parts = []
            for j, part in getattr(self, name):
                if not (_is_integer(j) and 0 <= j < n):
                    raise ValueError(f"{name} must name a particle by an integer index "
                                     f"in 0..{n - 1}, got {j!r}")
                parts.append((int(j), part if isinstance(part, kind) else kind(*part)))
            object.__setattr__(self, name, tuple(parts))
        object.__setattr__(self, "n", n)

    @classmethod
    def zero(cls, n: int) -> "ForcingSpec":
        return cls(n=n)


def _check_forcing(forcing: ForcingSpec, start: float, end: float,
                   periodic: bool = False, names=None) -> None:
    """ValueError unless `eval_forcing` can read ``forcing`` on [start, end]:
    each table must cover it, to a slack of 1e-12 of its span (1e-12 at
    least).  ``periodic`` asks for forcing of period P = end - start too:
    each sinusoid's period divides P, and each table spans exactly one
    period, to the same slack, with equal end values.  ``names`` names the
    tables in the messages, in order; by default "table on particle j", and
    particles are counted from 1 there, as configs count them."""
    if periodic:
        P = end - start
        # an omega P that overflows is no whole number of periods
        with np.errstate(over="ignore", invalid="ignore"):
            for j, s in forcing.sinusoids:
                k = np.float64(s.omega) * P / (2.0 * np.pi)
                if s.omega != 0.0 and not abs(k - np.round(k)) <= 1e-12 * max(1.0, abs(k)):
                    raise ValueError(
                        f"sinusoid on particle {j + 1} has period {2 * np.pi / s.omega:.6g}, "
                        f"which does not divide the orbit period {P:.6g}")
    for i, (j, tab) in enumerate(forcing.tables):
        name = names[i] if names else f"table on particle {j + 1}"
        t0, t1 = float(tab.times[0]), float(tab.times[-1])
        slack = 1e-12 * max(1.0, t1 - t0)
        if start < t0 - slack or end > t1 + slack:
            raise ValueError(f"{name} spans [{t0!r}, {t1!r}], "
                             f"which does not cover [{start!r}, {end!r}]")
        if periodic and (start > t0 + slack or end < t1 - slack):
            raise ValueError(f"{name} must cover exactly one period [{start!r}, {end!r}]")
        v = tab.values
        if periodic and abs(v[0] - v[-1]) > 1e-12 * (1.0 + np.max(np.abs(v))):
            raise ValueError(f"{name} is not periodic (endpoint values differ)")


def eval_forcing(forcing: ForcingSpec, t) -> np.ndarray:
    """Forcing vector at time(s) t: scalar t -> (n,), array (...,) -> (..., n).

    Times handed to a tabulated component must lie inside its sample range,
    to `_check_forcing`'s slack.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if forcing.tables:
        _check_forcing(forcing, float(np.min(t_arr)), float(np.max(t_arr)))
    out = np.zeros(t_arr.shape + (forcing.n,))
    for j, s in forcing.sinusoids:
        out[..., j] += s.amplitude * np.cos(s.omega * t_arr + s.phase)
    for j, tab in forcing.tables:
        out[..., j] += np.interp(np.clip(t_arr, tab.times[0], tab.times[-1]),
                                 tab.times, tab.values)
    return out[0] if np.ndim(t) == 0 else out


@dataclass(frozen=True, eq=False)
class ChainParams:
    """Mass, damping, interaction force, and forcing for one chain."""

    m: float
    d: float
    force: QuadraticForce
    forcing: ForcingSpec

    def __post_init__(self):
        object.__setattr__(self, "m", _positive("mass m", self.m))
        object.__setattr__(self, "d", _nonnegative("damping d", self.d))
        if self.forcing.n != self.force.n:
            raise ValueError(
                f"forcing is for n={self.forcing.n} particles, force for n={self.force.n}"
            )

    @property
    def n(self) -> int:
        return self.force.n

