"""Hypothesis profiles and shared fixtures.

Tier-1 runs every property test at hypothesis' default budget.  The
``rk4-deep`` profile, selected with ``--hypothesis-profile rk4-deep``, gives
each test 3,000 examples; CI runs the RK4 property tests, the Hessian
band's byte-identity test and its reference test, open and cyclic, the
Gram factor's property tests and the weighted stiffness band's test under
it, and the table formatter's sweep, which takes 400 doubles per example.
"""
import sys

import numpy as np
import pytest
from hypothesis import settings

from dualchain import dual_action, dual_solver

settings.register_profile("rk4-deep", max_examples=3000)


@pytest.fixture
def band_counts(monkeypatch) -> dict:
    """Counts, while a solve runs: Hessians assembled, bands written (every
    `BlockTridiagonal` made, which writes its band from its node blocks),
    negated copies of a Hessian's band, dpbtrf calls (each must get a fresh
    array, never a band), shifted factorizations, `BlockTridiagonal.solve`
    calls, dpbtrs calls and dtbtrs calls (the triangular band solves of a
    Gram direction).  The weighted stiffness's band (`_stiffness_solve`)
    is counted apart: its dpbtrf and dpbtrs calls are "stiffness_dpbtrf"
    and "stiffness_dpbtrs", and every other call of either routine counts
    as a Hessian band's."""
    counts = {"hessians": 0, "bands": 0, "copies": 0, "dpbtrf": 0, "shifted": 0,
              "solves": 0, "dpbtrs": 0, "dtbtrs": 0, "stiffness_dpbtrf": 0,
              "stiffness_dpbtrs": 0}
    bands = []
    hessian, init = dual_solver.hessian, dual_action.BlockTridiagonal.__init__
    negative, lapack = np.negative, dual_action._LAPACK
    neg_cholesky = dual_action.BlockTridiagonal.neg_cholesky
    solve = dual_action.BlockTridiagonal.solve

    def counted_hessian(D, spec):
        counts["hessians"] += 1
        H = hessian(D, spec)
        bands.append(H.band)
        return H

    def counted_init(self, diag, off):
        counts["bands"] += 1
        init(self, diag, off)

    def counted_negative(a, *args, **kwargs):
        counts["copies"] += any(a is band for band in bands)
        return negative(a, *args, **kwargs)

    def stiffness():
        """Whether the caller of the counted routine is `_stiffness_solve`."""
        return sys._getframe(2).f_code is dual_action._stiffness_solve.__code__

    def counted_cholesky(ab):
        counts["stiffness_dpbtrf" if stiffness() else "dpbtrf"] += 1
        assert not any(np.may_share_memory(ab, band) for band in bands)
        return lapack.dpbtrf(ab)

    def counted_neg_cholesky(self, shift=0.0):
        counts["shifted"] += shift != 0.0
        return neg_cholesky(self, shift)

    def counted_solve(self, rhs, fac):
        counts["solves"] += 1
        return solve(self, rhs, fac)

    def counted_dpbtrs(fac, x):
        counts["stiffness_dpbtrs" if stiffness() else "dpbtrs"] += 1
        return lapack.dpbtrs(fac, x)

    def counted_dtbtrs(ab, x, trans):
        counts["dtbtrs"] += 1
        return lapack.dtbtrs(ab, x, trans)

    monkeypatch.setattr(dual_solver, "hessian", counted_hessian)
    monkeypatch.setattr(dual_action.BlockTridiagonal, "__init__", counted_init)
    monkeypatch.setattr(np, "negative", counted_negative)
    monkeypatch.setattr(dual_action, "_LAPACK", lapack._replace(
        dpbtrf=counted_cholesky, dpbtrs=counted_dpbtrs, dtbtrs=counted_dtbtrs))
    monkeypatch.setattr(dual_action.BlockTridiagonal, "neg_cholesky", counted_neg_cholesky)
    monkeypatch.setattr(dual_action.BlockTridiagonal, "solve", counted_solve)
    return counts
