"""Exact "%.17g" formatting of float64 arrays for the tables `cli` writes,
which imports this module with a run's first table: `slots` lays out the
bytes `%` prints for each value.

|x| = m 2^(E-53) in (1e-11, 1e17) (float 1e-11 is below 10^-11) has
decimal exponent X in [-11, 16], and its 17 digits are D = m 5^s
2^(E-53+s), s = 16 - X, rounded half-even: the correctly rounded digits
`%` prints (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", AT&T NAM 90-10, 1990).  m 5^s < 2^116 is held in two uint64
limbs, and D < 10^17 is split into digit pairs in float64, where every
quotient is exact.  A value's slot is [sign, "0.000" prefix, 17 digits
each followed by a point's place, "e-XX" suffix, separator], NUL where
nothing is written.  Only nan, infinities and |x| <= 1e-11 or >= 1e17
(zeros aside) go through `%`.  The module uses no bitwise and/or or
integer division and builds its tables in Python: those numpy loops are
ones a run otherwise never maps into resident memory.
"""

import math

import numpy as np

SLOT = 44
_POW5_HI, _POW5_LO = (np.array([5 ** s >> shift & 0xFFFFFFFF for s in range(28)], np.uint64)
                      for shift in (32, 0))
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), "<u2")
_ONE, _B32, _B63 = np.uint64(1), np.uint64(32), np.uint64(63)


def _tables():
    """(decade, next_ten, frame, dropped).  Per biased binary exponent: the
    decimal exponent of the binade's least value, clipped to [-11, 16], and
    the bits of the next power of ten.  Per class (X + 11) 17 + nsig - 1
    (exponent X, nsig digits kept): the slot's prefix, point and suffix, and
    the digits dropped."""
    decade = [min(max(math.floor((b - 1023) * math.log10(2.0)), -11), 16) for b in range(2048)]
    frame, dropped = bytearray(), []
    for X in range(-11, 17):
        for nsig in range(1, 18):
            slot = bytearray(SLOT)
            after = X if X >= 0 else 0 if X < -4 else -1  # the digit a point follows
            if 0 <= after < nsig - 1:  # "ddd.ddd" or "d.ddde-XX"
                slot[7 + 2 * after] = ord(".")
            if -4 <= X < 0:
                slot[1:2 - X] = b"0.000"[:1 - X]
            if X < -4:
                slot[39:43] = b"e-%02d" % -X
            frame += slot
            dropped.append([i >= max(nsig, X + 1) for i in range(17)])
    return (np.array(decade), np.array([10.0 ** (X + 1) for X in decade]).view(np.int64),
            np.frombuffer(bytes(frame), np.uint8).reshape(-1, SLOT), np.array(dropped))


_DECADE, _NEXT_TEN, _FRAME, _DROPPED = _tables()


def _scaled(m, E, X):
    """(q, D), int64: |x| 10^(16-X) truncated and rounded half-even, for
    |x| = m 2^(E-53) in (1e-11, 1e17) and X within one of its exponent."""
    s = 16 - X
    p1, p0, m1 = _POW5_HI[s], _POW5_LO[s], m >> _B32
    m0 = m - (m1 << _B32)
    ll, mid = m0 * p0, m1 * p0 + m0 * p1  # N = m 5^s = hi 2^64 + lo
    mid1 = mid >> _B32
    lo = ll + (mid << _B32)
    hi = m1 * p1 + mid1 + (((ll >> _B32) + mid - (mid1 << _B32)) >> _B32)
    r = 53 - E - s  # q = N >> r, -5 <= r <= 64; every shift below is under 64
    u = _B63 - np.maximum(r - 1, 0).view(np.uint64)
    q2 = (lo >> (_B63 - u)) + ((hi << _ONE) << u)  # N >> (r - 1): q and its round bit
    q = q2 >> _ONE
    odd, sticky = q - ((q >> _ONE) << _ONE), np.minimum((lo << u) << _ONE, _ONE)
    D = q + (q2 - (q << _ONE)) * np.minimum(odd + sticky, _ONE)
    exact = np.flatnonzero(r < 1)  # |x| 10^(16-X) is an integer
    q[exact] = D[exact] = lo[exact] << (-r[exact]).view(np.uint64)
    return q.view(np.int64), D.view(np.int64)


def slots(x):
    """(x.size, SLOT) uint8 slots holding "%.17g" % v for each v of flat x,
    with NULs for the characters not written; one `%` call formats the
    values outside (1e-11, 1e17) but zeros."""
    a = np.abs(x)
    fast, zero = (a > 1e-11) & (a < 1e17), a == 0.0
    mag = np.where(fast, a, 1.0).view(np.int64)  # a zero is formatted as 1, its "1" made "0"
    biased = mag >> 52
    X = _DECADE[biased] + (mag >= _NEXT_TEN[biased])
    m, E = (mag - (biased << 52) + 2 ** 52).view(np.uint64), biased - 1022
    q, D = _scaled(m, E, X)
    # X is one off where |x| lies between 10^k and its float; no D rounds up
    # to 10^17 (the double below each 10^k is 4.5 units of the 17th digit off)
    off = np.flatnonzero((q < 10 ** 16) | (q >= 10 ** 17))
    if off.size:
        X[off] += np.where(q[off] < 10 ** 16, -1, 1)
        D[off] = _scaled(m[off], E[off], X[off])[1]
    # D // 10^8, or one more where D / 1e8 rounds up to an integer (a multiple
    # of 10^8 below 10^17 is a double, so the float quotient never falls short)
    N, hi = D.size, np.floor(D / 1e8).astype(np.int64)
    hi -= (D - hi * 10 ** 8 < 0)
    lead = np.floor(hi / 1e8)
    pairs = np.empty((2, 4, N))  # the 16 digits after the first, as pairs
    pairs[0, 3], pairs[1, 3] = hi - lead * 1e8, D - hi * 10 ** 8
    for k, unit in enumerate((1e6, 1e4, 1e2)):
        pairs[:, k] = np.floor(pairs[:, 3] / unit)
        pairs[:, 3] -= pairs[:, k] * unit
    digits = np.empty((N, 18), np.uint8)  # an unused byte, then the 17 digits
    digits[:, 1] = lead.astype(np.int64) + 48
    digits.view("<u2")[:, 1:] = np.take(_PAIRS, pairs.astype(np.int64)).reshape(8, N).T
    cls = (X + 11) * 17 + 16  # of 17 significant digits
    pairs = pairs.reshape(8, N)
    ends = np.flatnonzero(pairs[7] == 10.0 * np.floor(pairs[7] / 10.0))  # a last digit 0
    if ends.size:  # "%.17g" drops trailing zeros
        tails = pairs[:, ends]
        last = np.max((tails != 0.0) * np.arange(1, 9)[:, None], axis=0)  # last pair not 00
        tail = tails[np.maximum(last - 1, 0), np.arange(ends.size)]
        cls[ends] += 2 * last - 16 - ((last > 0) & (tail == 10.0 * np.floor(tail / 10.0)))
        kept = digits[ends, 1:]
        kept[np.take(_DROPPED, cls[ends], axis=0)] = 0
        digits[ends, 1:] = kept
    out = np.take(_FRAME, cls, axis=0)
    out[:, 0] = (x.view(np.int64) < 0) * 45
    out[:, 6:40:2] = digits[:, 1:]
    out[zero, 6] = 48
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        text = ("%.17g " * slow.size % tuple(x[slow].tolist())).split()
        out[slow, :SLOT - 1] = np.array(text, f"S{SLOT - 1}").view(np.uint8).reshape(-1, SLOT - 1)
    return out
