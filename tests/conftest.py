"""Hypothesis profiles and shared fixtures.

Tier-1 runs every property test at hypothesis' default budget.  The
``rk4-deep`` profile, selected with ``--hypothesis-profile rk4-deep``, gives
each test 3,000 examples; CI runs the RK4 property tests and the Hessian
band's two byte-identity tests under it.
"""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from dualchain import dual_action, dual_solver

settings.register_profile("rk4-deep", max_examples=3000)


@pytest.fixture
def band_counts(monkeypatch) -> dict:
    """Counts, while a solve runs: Hessians assembled, bands written (every
    `_BandWriter`), negated copies of a Hessian's band, dpbtrf calls (each
    must get a fresh array, never a band) and shifted factorizations."""
    counts = {"hessians": 0, "bands": 0, "copies": 0, "dpbtrf": 0, "shifted": 0}
    bands = []
    hessian, writer = dual_solver.hessian, dual_action._BandWriter
    negative, dpbtrf = np.negative, scipy.linalg.lapack.dpbtrf
    neg_cholesky = dual_action.BlockTridiagonal.neg_cholesky

    def counted_hessian(D, spec):
        counts["hessians"] += 1
        H = hessian(D, spec)
        bands.append(H.band)
        return H

    class CountedWriter(writer):
        def __init__(self, *args):
            counts["bands"] += 1
            super().__init__(*args)

    def counted_negative(a, *args, **kwargs):
        counts["copies"] += any(a is band for band in bands)
        return negative(a, *args, **kwargs)

    def counted_cholesky(ab, **kwargs):
        counts["dpbtrf"] += 1
        assert not any(np.may_share_memory(ab, band) for band in bands)
        return dpbtrf(ab, **kwargs)

    def counted_neg_cholesky(self, shift=0.0):
        counts["shifted"] += shift != 0.0
        return neg_cholesky(self, shift)

    monkeypatch.setattr(dual_solver, "hessian", counted_hessian)
    monkeypatch.setattr(dual_action, "_BandWriter", CountedWriter)
    monkeypatch.setattr(np, "negative", counted_negative)
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", counted_cholesky)
    monkeypatch.setattr(dual_action.BlockTridiagonal, "neg_cholesky", counted_neg_cholesky)
    return counts
