"""Discrete action, dual-to-primal map, derivatives, and ellipticity."""
import ctypes
import dataclasses
import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualchain import (
    BaseState,
    BlockTridiagonal,
    ChainParams,
    DualField,
    ForcingSpec,
    NonGradientForceError,
    ProblemSpec,
    QuadraticForce,
    SampledSignal,
    ScaleParams,
    SingularStiffnessError,
    Sinusoid,
    TimeGrid,
    Trajectory,
    action,
    base_from_primal,
    dtp_map,
    ellipticity_check,
    energy_series,
    fput_alpha,
    gradient,
    hessian,
    pack_free,
    perturb_base,
    primal_residual,
    unpack_free,
    zero_base,
)
from dualchain import dual_action
from dualchain.dual_action import (
    COND_LIMIT,
    _core_state,
    _direction_band,
    _element_fields,
    _gradient_elements,
    _gram_inertia,
    _schur_complements,
    _stiffness_solve,
    _transfer_matrices,
)
from oracles import (
    assemble_nodes,
    banded_by_positions,
    block_matvec,
    block_tridiagonal,
    constant_base,
    dense_norm1,
    einsum_force,
    einsum_mapped_jacobian,
    einsum_stiffness,
    einsum_stiffness_distance,
    fine_quadrature_action,
    gram_blocks,
    hessian_elements_kron,
    node_blocks,
    pairwise_transfer_product,
    predual_action,
    shifted,
    stiffness_eig,
    transfer_matrices_by_blocks,
    upper_band_by_positions,
)

_EPS = np.finfo(float).eps


def _scalar_spec(m=1.0, d=1.0, k=1.0, c_x=1.0, c_v=1.0, T=1.0, M=1,
                 x0=0.0, v0=0.0, B111=0.0):
    B = None
    if B111 != 0.0:
        B = np.zeros((1, 1, 1))
        B[0, 0, 0] = B111
    force = QuadraticForce(n=1, A=[[k]], B=B)
    params = ChainParams(m=m, d=d, force=force, forcing=ForcingSpec.zero(1))
    grid = TimeGrid(T=T, M=M)
    return ProblemSpec(params=params, scales=ScaleParams(c_x, c_v),
                       base=zero_base(grid, 1), grid=grid,
                       x0=np.array([x0]), v0=np.array([v0]))


def _random_spec(rng, n=None, M=None, with_B=True, base_kind="table"):
    n = n or int(rng.integers(1, 5))
    M = M or int(rng.integers(2, 17))
    C = rng.normal(size=n) * 0.3
    A = rng.normal(size=(n, n))
    A = A + A.T + 2.0 * n * np.eye(n)
    B = rng.normal(size=(n, n, n)) * 0.4 if with_B else None
    force = QuadraticForce(n=n, C=C, A=A, B=B)
    constant = rng.normal(size=n) * 0.2  # a zero-frequency sinusoid on each particle
    forcing = ForcingSpec(
        n=n,
        sinusoids=[(j, Sinusoid(c, 0.0)) for j, c in enumerate(constant)]
        + [(int(rng.integers(0, n)), Sinusoid(0.5, 2.0, 0.3))],
    )
    params = ChainParams(m=float(rng.uniform(0.5, 2.0)),
                         d=float(rng.uniform(0.0, 1.0)),
                         force=force, forcing=forcing)
    grid = TimeGrid(T=float(rng.uniform(0.5, 2.0)), M=M)
    x0 = rng.normal(size=n) * 0.3
    v0 = rng.normal(size=n) * 0.3
    if base_kind == "primal":
        base = base_from_primal(params, x0, v0, grid, refine=10)
    else:
        t = grid.nodes()[:, None]
        base = BaseState(grid,
                         0.3 * np.sin(t + rng.normal(size=n)),
                         0.3 * np.cos(t + rng.normal(size=n)))
    scales = ScaleParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
    return ProblemSpec(params=params, scales=scales, base=base, grid=grid,
                       x0=x0, v0=v0)


def _small_dual(rng, spec, scale=0.05):
    g = rng.normal(size=(spec.grid.M + 1, spec.n)) * scale
    l = rng.normal(size=(spec.grid.M + 1, spec.n)) * scale
    g[-1] = 0.0
    l[-1] = 0.0
    return DualField(spec.grid, g, l)


# ---------------------------------------------------------------------------
# dual-to-primal map


def test_dtp_zero_duals_return_base_exactly():
    rng = np.random.default_rng(0)
    spec = _random_spec(rng)
    z = np.zeros(spec.n)
    for k in (0, spec.grid.M // 2):
        x, v = dtp_map(z, z, z, z, spec.base.xbar[k], spec.base.vbar[k], spec)
        np.testing.assert_array_equal(x, spec.base.xbar[k])
        np.testing.assert_array_equal(v, spec.base.vbar[k])


def test_dtp_linear_scalar_closed_form():
    k = 1.7
    spec = _scalar_spec(m=1.0, d=0.0, k=k)
    a, b, c, e = 0.3, -0.2, 0.5, 0.9
    x, v = dtp_map(np.array([a]), np.array([b]), np.array([c]), np.array([e]),
                   np.zeros(1), np.zeros(1), spec)
    assert x[0] == pytest.approx(e - k * a, rel=1e-15)
    assert v[0] == pytest.approx(c + b, rel=1e-15)


def test_dtp_quadratic_scalar_worked_example():
    # weighted stiffness 1 + 0.3*2 = 1.6; displacement 0.8 / 1.6 = 0.5
    spec = _scalar_spec(k=0.0, B111=2.0)
    x, v = dtp_map(np.array([0.3]), np.zeros(1), np.zeros(1), np.array([0.8]),
                   np.zeros(1), np.zeros(1), spec)
    assert x[0] == pytest.approx(0.5, rel=1e-15)


def test_dtp_singular_stiffness_raises():
    spec = _scalar_spec(B111=2.0)
    lam = np.array([-0.5])  # 1 + (-0.5)*2 = 0 exactly
    with pytest.raises(SingularStiffnessError):
        dtp_map(lam, np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1),
                np.zeros(1), spec)


def test_dtp_batched_rows_match_single_calls():
    rng = np.random.default_rng(1)
    spec = _random_spec(rng, n=3, M=4)
    lam = rng.normal(size=(5, 3)) * 0.05
    ld = rng.normal(size=(5, 3))
    gam = rng.normal(size=(5, 3))
    gd = rng.normal(size=(5, 3))
    xb = rng.normal(size=(5, 3))
    vb = rng.normal(size=(5, 3))
    X, V = dtp_map(lam, ld, gam, gd, xb, vb, spec)
    for i in range(5):
        x, v = dtp_map(lam[i], ld[i], gam[i], gd[i], xb[i], vb[i], spec)
        np.testing.assert_allclose(X[i], x, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(V[i], v, rtol=1e-14, atol=1e-16)


def _map_spec(rng, fput: bool, periodic: bool) -> ProblemSpec:
    """A linear (B = 0) or FPUT chain on one forcing period, with a base
    that closes up, posed as the periodic or the initial-value problem."""
    n, M = int(rng.integers(1, 6)), int(rng.integers(2, 17))
    params = ChainParams(m=float(rng.uniform(0.5, 2.0)), d=float(rng.uniform(0.0, 1.0)),
                         force=fput_alpha(n, 0.25 if fput else 0.0),
                         forcing=ForcingSpec(n=n, sinusoids=[(0, Sinusoid(0.3, 1.0, 0.2))]))
    grid = TimeGrid(T=2.0 * np.pi, M=M)
    amp, phase = 0.2 * rng.uniform(size=n), rng.uniform(0.0, 2.0 * np.pi, n)
    t, tm = grid.nodes()[:, None] + phase, grid.midpoints()[:, None] + phase
    base = BaseState(grid, amp * np.sin(t), amp * np.cos(t), amp * np.sin(tm), amp * np.cos(tm))
    ic = {} if periodic else dict(x0=rng.normal(size=n) * 0.3, v0=rng.normal(size=n) * 0.3)
    return ProblemSpec(params=params, scales=ScaleParams(*rng.uniform(0.5, 2.0, 2)),
                       base=base, grid=grid, **ic)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.floats(0.01, 0.3))
def test_dtp_map_at_midpoints_gives_the_element_state(seed, fput, periodic, scale):
    # one map serves both: dtp_map at the element-midpoint values and rates
    # is the assembly's mapped state, bit for bit
    rng = np.random.default_rng(seed)
    spec = _map_spec(rng, fput, periodic)
    u = rng.normal(size=2 * spec.n * spec.grid.M) * scale
    D = unpack_free(spec.grid, spec.n, u, periodic=periodic)

    def unexpected(*args):
        raise AssertionError("the element state must not go through dtp_map")

    with pytest.MonkeyPatch.context() as patch:  # dtp_map is traced as the nodal recovery alone
        patch.setattr(dual_action, "dtp_map", unexpected)
        state = _core_state(spec, D)
    gmid, lmid, gdot, ldot = _element_fields(D.gamma[:-1], D.lam[:-1], D.gamma[1:],
                                             D.lam[1:], spec.grid.h)
    X, V = dtp_map(lmid, ldot, gmid, gdot, spec.base.xbar_mid, spec.base.vbar_mid, spec)
    assert X.tobytes() == state.x.tobytes() and V.tobytes() == state.v.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stiffness_inverse_is_exactly_the_identity_without_quadratic_term(n, monkeypatch):
    # lam·B is exactly zero for a linear chain (B = 0) at any finite lam, and
    # for a quadratic chain at the zero field: K is then I on its band, a
    # `_Stiffness` like every other, solved on the band with y = r byte for
    # byte and no inverse, dense solve or eigenvalue formed
    rng = np.random.default_rng(n)
    linear = QuadraticForce(n=n, A=np.eye(n))  # B = 0
    quadratic = fput_alpha(n, 0.25)
    cases = [(linear, rng.normal(size=shape)) for shape in ((n,), (7, n), (3, 4, n))]
    cases += [(quadratic, np.zeros(shape)) for shape in ((n,), (7, n))]

    def refuse(*args, **kwargs):
        raise AssertionError("an inverse was formed")

    for name in ("inv", "solve", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for force, lam in cases:
        r = rng.normal(size=lam.shape)
        y, K, rho, Kinv = _stiffness_solve(force, lam, float(rng.uniform(0.1, 3.0)), r)
        assert isinstance(K, dual_action._Stiffness) and Kinv is None
        identity = np.eye(1, force.band[0] + 1)  # the diagonal 1, the rest 0
        assert np.array_equal(K.low, np.broadcast_to(identity, K.low.shape))
        assert K.low.shape == lam.shape + identity.shape[1:]
        assert y.tobytes() == r.tobytes()
        assert rho.tobytes() == np.zeros(lam.shape[:-1]).tobytes()
    # a field that is not finite makes no zero product: its K is not I but
    # nan, singular by the eigenvalue test at every n, with no condition
    # estimate (eigh once returned nan eigenvalues at n = 1 and 2, a nan y
    # with no error, and raised LinAlgError at n = 5)
    monkeypatch.undo()
    lam = np.zeros((3, n))
    lam[1, -1] = np.nan
    for force in (linear, quadratic):
        with pytest.raises(SingularStiffnessError) as info:
            _stiffness_solve(force, lam, 1.0, np.ones((3, n)))
        assert (info.value.where, info.value.cond) == (1, None)


# ---------------------------------------------------------------------------
# action values


def test_action_zero_field_is_zero():
    rng = np.random.default_rng(2)
    spec = _random_spec(rng)
    assert action(DualField.zeros(spec.grid, spec.n), spec) == 0.0


def test_action_single_element_hand_value():
    # one element, T=1, every parameter 1, base zero, no forcing, zero ICs,
    # lambda falling linearly from l to 0, gamma identically zero:
    # midpoint rule gives S = -(5/4) l^2
    ell = 0.7
    spec = _scalar_spec()
    D = DualField(spec.grid, np.zeros((2, 1)), np.array([[ell], [0.0]]))
    assert action(D, spec) == pytest.approx(-1.25 * ell * ell, rel=1e-14)


def test_action_single_element_refines_to_continuum_value():
    # same continuous dual field (piecewise linear in t) on finer and finer
    # grids: the discrete action converges to the exact integral -(4/3) l^2
    # at second order, cross-checked against a fine-quadrature oracle
    ell = 0.7
    exact = -4.0 * ell * ell / 3.0
    quad = fine_quadrature_action(
        lam_fun=lambda t: ell * (1.0 - t),
        lamdot_fun=lambda t: -ell * np.ones_like(t),
        gam_fun=lambda t: np.zeros_like(t),
        gamdot_fun=lambda t: np.zeros_like(t),
        T=1.0, m=1.0, d=1.0, k_lin=1.0, c_x=1.0, c_v=1.0)
    assert quad == pytest.approx(exact, rel=1e-9)
    errs = []
    for M in (1, 2, 4, 8, 16):
        spec = _scalar_spec(M=M)
        t = spec.grid.nodes()
        D = DualField(spec.grid, np.zeros((M + 1, 1)), (ell * (1.0 - t))[:, None])
        errs.append(abs(action(D, spec) - exact))
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_action_matches_predual_at_mapped_point():
    # the reduction to the closed form is an algebraic identity at the mapped
    # primal point; verified on 20 random problems through an independent
    # evaluation of the unreduced integrand
    rng = np.random.default_rng(3)
    for trial in range(20):
        base_kind = "primal" if trial % 3 == 0 else "table"
        spec = _random_spec(rng, base_kind=base_kind)
        D = _small_dual(rng, spec)
        S = action(D, spec)
        S_oracle = predual_action(D, spec)
        assert abs(S - S_oracle) <= 1e-10 * (1.0 + abs(S_oracle))


def test_action_matches_predual_without_quadratic_term():
    rng = np.random.default_rng(4)
    for _ in range(5):
        spec = _random_spec(rng, with_B=False)
        D = _small_dual(rng, spec, scale=0.5)
        S = action(D, spec)
        S_oracle = predual_action(D, spec)
        assert abs(S - S_oracle) <= 1e-10 * (1.0 + abs(S_oracle))


def test_action_requires_final_zero():
    spec = _scalar_spec(M=3)
    g = np.zeros((4, 1))
    l = np.zeros((4, 1))
    l[-1] = 1e-14
    D = DualField(spec.grid, g, l)
    with pytest.raises(ValueError):
        action(D, spec)
    with pytest.raises(ValueError):
        gradient(D, spec)
    with pytest.raises(ValueError):
        hessian(D, spec)


def test_action_dimension_mismatch():
    spec = _scalar_spec(M=2)
    other = TimeGrid(T=1.0, M=3)
    with pytest.raises(ValueError):
        action(DualField.zeros(other, 1), spec)


# ---------------------------------------------------------------------------
# derivatives


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    spec = _random_spec(rng, n=2, M=8)
    D = _small_dual(rng, spec)
    u0 = pack_free(D)
    g = gradient(D, spec)
    step = 1e-6
    fd = np.empty_like(u0)
    for i in range(u0.size):
        up, dn = u0.copy(), u0.copy()
        up[i] += step
        dn[i] -= step
        fd[i] = (action(unpack_free(spec.grid, spec.n, up), spec)
                 - action(unpack_free(spec.grid, spec.n, dn), spec)) / (2 * step)
    assert np.linalg.norm(g - fd) < 1e-6 * np.linalg.norm(fd)


def test_gradient_zero_dual_refinement_with_solution_base():
    # base from a fine direct solve: zero duals are the discrete extremal up
    # to the quadrature error, which shrinks at second order
    force = QuadraticForce(n=1, A=[[1.0]])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(1))
    x0, v0 = np.array([1.0]), np.array([0.0])
    norms = []
    for M in (100, 200, 400):
        grid = TimeGrid(T=2 * np.pi, M=M)
        base = base_from_primal(params, x0, v0, grid, refine=10)
        spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0),
                           base=base, grid=grid, x0=x0, v0=v0)
        norms.append(np.max(np.abs(gradient(DualField.zeros(grid, 1), spec))))
    for e0, e1 in zip(norms, norms[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_gradient_affine_when_linear():
    rng = np.random.default_rng(7)
    spec = _random_spec(rng, n=2, M=6, with_B=False)
    D1 = _small_dual(rng, spec, scale=0.7)
    D2 = _small_dual(rng, spec, scale=0.7)
    D12 = DualField(spec.grid, D1.gamma + D2.gamma, D1.lam + D2.lam)
    resid = (gradient(D12, spec) - gradient(D1, spec) - gradient(D2, spec)
             + gradient(DualField.zeros(spec.grid, spec.n), spec))
    scale = np.max(np.abs(gradient(D1, spec))) + 1.0
    assert np.max(np.abs(resid)) < 1e-12 * scale


def test_hessian_matches_finite_differences_of_gradient():
    rng = np.random.default_rng(8)
    spec = _random_spec(rng, n=2, M=6)
    D = _small_dual(rng, spec)
    u0 = pack_free(D)
    H = hessian(D, spec).to_dense()
    step = 1e-6
    fd = np.empty_like(H)
    for i in range(u0.size):
        up, dn = u0.copy(), u0.copy()
        up[i] += step
        dn[i] -= step
        fd[:, i] = (gradient(unpack_free(spec.grid, spec.n, up), spec)
                    - gradient(unpack_free(spec.grid, spec.n, dn), spec)) / (2 * step)
    assert np.linalg.norm(H - fd) < 1e-5 * np.linalg.norm(fd)


def test_hessian_symmetric():
    rng = np.random.default_rng(9)
    spec = _random_spec(rng, n=3, M=7)
    H = hessian(_small_dual(rng, spec), spec).to_dense()
    assert np.max(np.abs(H - H.T)) < 1e-14 * (1.0 + np.max(np.abs(H)))


def test_hessian_constant_when_linear():
    rng = np.random.default_rng(10)
    spec = _random_spec(rng, n=2, M=5, with_B=False)
    H1 = hessian(_small_dual(rng, spec, scale=1.0), spec)
    H2 = hessian(_small_dual(rng, spec, scale=0.1), spec)
    np.testing.assert_array_equal(H1.band, H2.band)


def test_hessian_negative_semidefinite_when_linear():
    rng = np.random.default_rng(11)
    for _ in range(3):
        spec = _random_spec(rng, with_B=False)
        H = hessian(DualField.zeros(spec.grid, spec.n), spec)
        eigs = H.eigenvalues()
        scale = np.max(np.abs(eigs))
        assert np.max(eigs) <= 1e-10 * scale


def test_quadratic_identity_when_linear():
    rng = np.random.default_rng(12)
    spec = _random_spec(rng, n=2, M=6, with_B=False)
    D0 = DualField.zeros(spec.grid, spec.n)
    S0 = action(D0, spec)
    g0 = gradient(D0, spec)
    H = hessian(D0, spec)
    for _ in range(5):
        D = _small_dual(rng, spec, scale=0.8)
        u = pack_free(D)
        S_quad = S0 + g0 @ u + 0.5 * (u @ (H.to_dense() @ u))
        S = action(D, spec)
        assert abs(S - S_quad) < 1e-12 * (1.0 + abs(S))


def test_gradient_boundary_terms_enter_node_zero():
    # initial conditions appear only through the first node of the gradient
    rng = np.random.default_rng(13)
    spec_a = _random_spec(rng, n=2, M=4)
    spec_b = ProblemSpec(params=spec_a.params, scales=spec_a.scales,
                         base=spec_a.base, grid=spec_a.grid,
                         x0=spec_a.x0 + 1.0, v0=spec_a.v0 - 2.0)
    D = _small_dual(rng, spec_a)
    ga = gradient(D, spec_a).reshape(spec_a.grid.M, 2 * spec_a.n)
    gb = gradient(D, spec_b).reshape(spec_a.grid.M, 2 * spec_a.n)
    n = spec_a.n
    np.testing.assert_array_equal(ga[1:], gb[1:])
    np.testing.assert_allclose(gb[0, :n] - ga[0, :n], -np.ones(n), rtol=1e-12)
    np.testing.assert_allclose(gb[0, n:] - ga[0, n:],
                               2.0 * spec_a.params.m * np.ones(n), rtol=1e-12)


# ---------------------------------------------------------------------------
# ellipticity


def test_ellipticity_zero_duals_exact_value():
    rng = np.random.default_rng(14)
    for _ in range(3):
        spec = _random_spec(rng)
        out = ellipticity_check(DualField.zeros(spec.grid, spec.n), spec)
        expected = min(spec.params.m ** 2 / spec.scales.c_v, 1.0 / spec.scales.c_x)
        np.testing.assert_array_equal(out, np.full(spec.grid.M + 1, expected))


def test_ellipticity_constant_when_linear():
    rng = np.random.default_rng(15)
    spec = _random_spec(rng, with_B=False)
    D = _small_dual(rng, spec, scale=2.0)
    out = ellipticity_check(D, spec)
    expected = min(spec.params.m ** 2 / spec.scales.c_v, 1.0 / spec.scales.c_x)
    np.testing.assert_array_equal(out, np.full(spec.grid.M + 1, expected))


def test_ellipticity_flags_indefinite_stiffness():
    spec = _scalar_spec(M=4, B111=2.0)
    lam = np.zeros((5, 1))
    lam[2, 0] = -0.6  # weighted stiffness 1 - 1.2 = -0.2 at that node
    lam[-1] = 0.0
    out = ellipticity_check(DualField(spec.grid, np.zeros((5, 1)), lam), spec)
    assert out[2] < 0.0
    floor = min(1.0, 1.0)
    assert out[0] == pytest.approx(floor, rel=1e-12)


def test_ellipticity_zero_at_exact_singularity():
    spec = _scalar_spec(M=2, B111=2.0)
    lam = np.zeros((3, 1))
    lam[1, 0] = -0.5  # weighted stiffness exactly 0
    out = ellipticity_check(DualField(spec.grid, np.zeros((3, 1)), lam), spec)
    assert out[1] == 0.0


# ---------------------------------------------------------------------------
# packing and the block-tridiagonal container


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(16)
    spec = _random_spec(rng, n=3, M=5)
    D = _small_dual(rng, spec)
    u = pack_free(D)
    assert u.shape == (2 * 3 * 5,)
    D2 = unpack_free(spec.grid, 3, u)
    np.testing.assert_array_equal(D.gamma, D2.gamma)
    np.testing.assert_array_equal(D.lam, D2.lam)
    np.testing.assert_array_equal(D2.gamma[-1], np.zeros(3))


@pytest.mark.parametrize("periodic", [False, True])
def test_unpack_free_restores_node_m_by_boundary(periodic):
    rng = np.random.default_rng(26)
    grid = TimeGrid(T=1.0, M=4)
    u = rng.normal(size=2 * 3 * 4)
    D = unpack_free(grid, 3, u, periodic=periodic)
    np.testing.assert_array_equal(pack_free(D), u)
    for field in (D.gamma, D.lam):
        np.testing.assert_array_equal(field[-1], field[0] if periodic else np.zeros(3))
    np.testing.assert_array_equal(D.gamma[0], u[:3])
    np.testing.assert_array_equal(D.lam[0], u[3:6])


def _random_blocks(rng, M, b, definite=None, cyclic=False):
    """Node blocks (diag, off) of a random symmetric block-tridiagonal
    matrix, open or cyclic, with diagonal blocks made negative definite
    enough to dominate when ``definite`` is "negative"."""
    diag = rng.normal(size=(M, b, b))
    diag = 0.5 * (diag + np.swapaxes(diag, 1, 2))
    off = rng.normal(size=(M if cyclic else M - 1, b, b))
    if definite == "negative":
        for k in range(M):
            diag[k] -= (b + 2.0) * np.eye(b) * (2.0 + abs(rng.normal()))
    return diag, off


def _random_block_tridiagonal(rng, M, b, definite=None, cyclic=False):
    return block_tridiagonal(*_random_blocks(rng, M, b, definite, cyclic))


def test_block_tridiagonal_dense_and_matvec_agree():
    rng = np.random.default_rng(17)
    blocks = _random_blocks(rng, M=6, b=4)
    H = block_tridiagonal(*blocks)
    dense = H.to_dense()
    np.testing.assert_allclose(dense, dense.T, atol=1e-15)
    for _ in range(3):
        u = rng.normal(size=H.size)
        np.testing.assert_allclose(block_matvec(*blocks, u), dense @ u, rtol=1e-13, atol=1e-13)


def test_block_tridiagonal_solve_matches_dense():
    rng = np.random.default_rng(18)
    H = _random_block_tridiagonal(rng, M=5, b=4, definite="negative")
    rhs = rng.normal(size=H.size)
    np.testing.assert_allclose(H.solve(rhs, H.neg_cholesky()),
                               np.linalg.solve(H.to_dense(), rhs), rtol=1e-9, atol=1e-12)


def test_block_tridiagonal_eigenvalues_match_dense():
    rng = np.random.default_rng(19)
    H = _random_block_tridiagonal(rng, M=5, b=4)
    np.testing.assert_allclose(np.sort(H.eigenvalues()),
                               np.linalg.eigvalsh(H.to_dense()), rtol=1e-8,
                               atol=1e-10)


def _ldl_inertia(H):
    """(negative, zero, positive) counts of H by Sylvester's law, read off
    the 1x1 and 2x2 pivot blocks of a dense LDL^T factorization (Golub &
    Van Loan, Matrix Computations, 4th ed., 4.4), for matrices with no
    eigenvalue near zero."""
    pivots = np.linalg.eigvalsh(scipy.linalg.ldl(H.to_dense())[1])
    return int(np.sum(pivots < 0.0)), int(np.sum(pivots == 0.0)), int(np.sum(pivots > 0.0))


def test_block_tridiagonal_inertia_matches_dense_signs():
    # a negative definite matrix counts (N, 0, 0), an indefinite one its
    # LDL^T pivot signs, and the zero matrix, whose delta is 0, has every
    # eigenvalue in [-delta, delta]
    rng = np.random.default_rng(20)
    negative = _random_block_tridiagonal(rng, M=6, b=3, definite="negative")
    assert negative.inertia() == (negative.size, 0, 0)
    indefinite = _random_block_tridiagonal(rng, M=6, b=3)
    assert indefinite.inertia() == _ldl_inertia(indefinite)
    assert 0 not in indefinite.inertia()[::2]
    for cyclic in (False, True):
        zero = block_tridiagonal(np.zeros((5, 2, 2)), np.zeros((5 if cyclic else 4, 2, 2)))
        assert zero.inertia() == (0, 10, 0)


def test_block_tridiagonal_negative_cholesky():
    rng = np.random.default_rng(21)
    H = _random_block_tridiagonal(rng, M=5, b=3, definite="negative")
    chol = H.neg_cholesky()
    assert chol is not None
    indefinite = _random_block_tridiagonal(rng, M=5, b=3)
    assert indefinite.neg_cholesky() is None


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5))
@example(seed=0, F=1, b=2)
@example(seed=1, F=3, b=2)
def test_banded_cholesky_and_direction_match_scipy_bit_for_bit(seed, F, b):
    rng = np.random.default_rng(seed)
    H = _random_block_tridiagonal(rng, M=F, b=b, definite="negative")
    want = scipy.linalg.cholesky_banded(-H.band, lower=True)
    fac = H.neg_cholesky()
    assert fac.shape == want.shape and fac.tobytes() == want.tobytes()
    g = rng.normal(size=H.size)
    step = H.solve(-g, fac)
    assert step.tobytes() == scipy.linalg.cho_solve_banded((want, True), g).tobytes()
    diag, off = node_blocks(H)
    diag[-1, -1, -1] = 1.0  # a positive diagonal entry: not negative definite
    assert block_tridiagonal(diag, off).neg_cholesky() is None
    for bad in (np.nan, np.inf):
        diag, off = node_blocks(H)
        diag[-1, -1, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            block_tridiagonal(diag, off).neg_cholesky()
        with pytest.raises(ValueError, match="infs or NaNs"):
            H.solve(np.where(np.arange(H.size) == 0, bad, -g), fac)
        with pytest.raises(ValueError, match="infs or NaNs"):
            H.neg_cholesky(bad)


def _scipy_band_cholesky(H, shift, rhs):
    """scipy.linalg.lapack's factor of -(H - shift I) the way `neg_cholesky`
    makes it (None where dpbtrf reports a failing pivot), and its dpbtrs
    solve of the band-ordered ``rhs`` with that factor."""
    ab = np.negative(H.band)
    ab[0] += shift
    fac, info = scipy.linalg.lapack.dpbtrf(ab, lower=1)
    if info:
        return None, None
    return fac, scipy.linalg.lapack.dpbtrs(fac, rhs, lower=1)[0]


def _assert_band_cholesky_bytes(H, shift, rhs):
    want_fac, want_x = _scipy_band_cholesky(H, shift, rhs)
    fac = H.neg_cholesky(shift)
    assert (fac is None) == (want_fac is None)
    if fac is not None:
        assert fac.tobytes("F") == want_fac.tobytes("F")
        x, info = dual_action._LAPACK.dpbtrs(fac, rhs.copy())
        assert info == 0 and x.tobytes() == want_x.tobytes()
        assert np.all(np.isfinite(H.solve(rhs, fac)))


# open (2b) and cyclic (3b) bands, b = 2..16, of up to 320 unknowns:
# negative definite ones and indefinite ones, shifted either way by up to
# their largest diagonal entry, so that a pivot may fail anywhere
@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(2, 160), st.booleans(),
       st.sampled_from(["negative", None]), st.floats(-1.0, 1.0))
@example(seed=0, b=16, F=20, cyclic=True, definite="negative", lift=0.0)  # the widest
def test_band_cholesky_matches_scipy_lapack_byte_for_byte(seed, b, F, cyclic, definite, lift):
    F = min(F, 320 // b)
    rng = np.random.default_rng(seed)
    H = _random_block_tridiagonal(rng, M=F, b=b, definite=definite, cyclic=cyclic)
    assert H.band.shape[0] == (3 if cyclic else 2) * b
    _assert_band_cholesky_bytes(H, lift * H.diag_max, rng.normal(size=H.size))


def _upper_band(rng, size, kd):
    """A random upper triangular band of ``size`` unknowns and ``kd``
    superdiagonals, LAPACK's ab[kd + i - j, j], and the dense matrix it
    stores; its diagonal is 1 to 2 in magnitude, of random sign."""
    ab = np.asfortranarray(0.3 * rng.normal(size=(kd + 1, size)))
    ab[kd] = rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 2.0, size)
    T = np.zeros((size, size))
    for r in range(kd + 1):  # superdiagonal kd - r
        T[np.arange(size - kd + r), np.arange(kd - r, size)] = ab[r, kd - r:]
    return ab, T


@pytest.mark.parametrize("size, kd", [(1, 0), (1, 3), (6, 1), (40, 7), (48, 31)])
def test_triangular_band_solve_matches_the_dense_solve(size, kd):
    rng = np.random.default_rng(size + kd)
    ab, T = _upper_band(rng, size, kd)
    rhs = rng.normal(size=size)
    for trans in (False, True):
        x, info = dual_action._LAPACK.dtbtrs(ab, rhs.copy(), trans)
        assert info == 0
        want = np.linalg.solve(T.T if trans else T, rhs)
        np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-12)


def test_band_lapack_falls_back_to_scipy_where_no_symbol_resolves(monkeypatch):
    # a resolver that finds none of its names binds scipy.linalg.lapack's
    # wrappers, which give the bytes the default binding gives
    rng = np.random.default_rng(29)
    bound = dual_action._LAPACK
    for symbols in ((), (("no_such_{}_", ctypes.c_int),)):
        fallback = dual_action._band_lapack(symbols)
        assert fallback.symbol == "scipy.linalg.lapack"
        for cyclic in (False, True):
            H = _random_block_tridiagonal(rng, M=9, b=5, definite="negative", cyclic=cyclic)
            rhs = rng.normal(size=H.size)
            results = []
            for lapack in (bound, fallback):
                monkeypatch.setattr(dual_action, "_LAPACK", lapack)
                fac = H.neg_cholesky()
                results.append((fac.tobytes("F"), H.solve(rhs, fac).tobytes(),
                                H.neg_cholesky(-2.0 * H.diag_max)))
            assert results[0][:2] == results[1][:2]
            assert results[0][2] is None and results[1][2] is None
        ab, _ = _upper_band(rng, size=45, kd=9)
        for trans in (False, True):
            x, info = bound.dtbtrs(ab, rhs.copy(), trans)
            y, fallback_info = fallback.dtbtrs(ab, rhs.copy(), trans)
            assert info == fallback_info == 0 and x.tobytes() == y.tobytes()


def test_band_lapack_checks_the_arrays_it_hands_to_lapack():
    if dual_action._LAPACK.symbol == "scipy.linalg.lapack":
        pytest.skip("the band is factored by scipy.linalg.lapack's wrappers, which check it")
    ab = np.asfortranarray([[2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])  # 2 I, kd = 1
    dpbtrf, dpbtrs = dual_action._LAPACK.dpbtrf, dual_action._LAPACK.dpbtrs
    for bad in (np.ascontiguousarray(ab), ab.astype(np.float32), ab[0]):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            dpbtrf(bad)
    ab.setflags(write=False)
    with pytest.raises(ValueError, match="writeable"):
        dpbtrf(ab)
    fac = np.asfortranarray([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    for bad in (np.ones(2), np.ones(3, dtype=np.float32), np.ones(6)[::2]):
        with pytest.raises(ValueError, match="vector of the band's size"):
            dpbtrs(fac, bad)
    x, info = dpbtrs(fac, np.ones(3))
    assert info == 0 and x.tolist() == [1.0, 1.0, 1.0]
    # T = [[1, 2, 0], [0, 1, 3], [0, 0, 1]], the corner ab[0, 0] outside it not read
    dtbtrs = dual_action._LAPACK.dtbtrs
    ab = np.asfortranarray([[np.nan, 2.0, 3.0], [1.0, 1.0, 1.0]])
    for bad in (np.ascontiguousarray(ab), ab.astype(np.float32), ab[0]):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            dtbtrs(bad, np.ones(3), False)
    for bad in (np.ones(2), np.ones(3, dtype=np.float32), np.ones(6)[::2]):
        with pytest.raises(ValueError, match="vector of the band's size"):
            dtbtrs(ab, bad, False)
    for trans, want in ((False, [5.0, -2.0, 1.0]), (True, [1.0, -1.0, 4.0])):
        x, info = dtbtrs(ab, np.ones(3), trans)
        assert info == 0 and x.tolist() == want


def test_a_band_that_is_not_finite_raises_before_any_lapack_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("LAPACK was called")

    rng = np.random.default_rng(30)
    H = _random_block_tridiagonal(rng, M=4, b=3, definite="negative", cyclic=True)
    fac = H.neg_cholesky()
    monkeypatch.setattr(dual_action, "_LAPACK", dual_action._LAPACK._replace(
        dpbtrf=refuse, dpbtrs=refuse))
    for bad in (np.nan, np.inf, -np.inf):
        diag, off = node_blocks(H)
        off[-1, 0, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            block_tridiagonal(diag, off).neg_cholesky()
        with pytest.raises(ValueError, match="infs or NaNs"):
            H.neg_cholesky(bad)
        with pytest.raises(ValueError, match="infs or NaNs"):
            H.solve(np.where(np.arange(H.size) == 5, bad, 1.0), fac)


@pytest.mark.parametrize("cyclic", [False, True])
def test_finiteness_and_largest_diagonal_entry_are_recorded_with_the_band(cyclic):
    # both triangles of every diagonal block and every coupling count,
    # though the band keeps only the lower triangle: ``finite`` is the Newton
    # loop's one finiteness check, and ``diag_max`` the trust region's scale
    rng = np.random.default_rng(28)
    diag, off = _random_blocks(rng, M=4, b=3, cyclic=cyclic)
    H = block_tridiagonal(diag, off)
    assert H.finite and H.diag_max == float(np.max(np.abs(diag)))
    raised = diag.copy()
    raised[2, 0, 1] = 1e3  # above the diagonal: not in the band
    assert block_tridiagonal(raised, off).diag_max == 1e3
    for where in ((0, 0, 2), (1, 2, 0), (3, 1, 1), "off"):
        for bad in (np.nan, np.inf, -np.inf):
            d, o = diag.copy(), off.copy()
            if where == "off":
                o[-1, 0, 1] = bad
            else:
                d[where] = bad
            spoilt = block_tridiagonal(d, o)
            assert not spoilt.finite
            with pytest.raises(ValueError, match="infs or NaNs"):
                spoilt.neg_cholesky()


def _one_ulp_asymmetric(diag, off):
    """Node blocks (diag, off) with the strict upper triangle of each
    diagonal block raised by one ulp: a band entry read from the other
    triangle then differs."""
    diag = diag.copy()
    upper = np.triu(np.ones(diag.shape[1:], dtype=bool), 1)
    diag[:, upper] = np.nextafter(diag[:, upper], np.inf)
    return diag, off


def _assert_bands_match(H, dense):
    """The lower band (dpbtrf, eigvals_banded) holds exactly the entries of
    ``dense`` in band order."""
    bw = H.band.shape[0] - 1
    i, j = np.indices(dense.shape)
    ab = H.band
    assert ab.flags.f_contiguous  # LAPACK reads it in place
    want = np.zeros_like(ab)
    inside = (i - j >= 0) & (i - j < ab.shape[0])
    want[(i - j)[inside], j[inside]] = dense[inside]
    assert ab.shape == (bw + 1, H.size)
    assert ab.tobytes("F") == want.tobytes("F")


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 4), st.booleans())
@example(seed=0, F=2, b=3, cyclic=True)
@example(seed=1, F=9, b=4, cyclic=True)
def test_one_factorization_serves_open_and_cyclic_matrices(seed, F, b, cyclic):
    # the Cholesky factor of the negated band, open or folded, solves every
    # system, and refuses a matrix with a clearly positive eigenvalue
    rng = np.random.default_rng(seed)
    H = _random_block_tridiagonal(rng, M=F, b=b, definite="negative", cyclic=cyclic)
    top = np.linalg.eigvalsh(H.to_dense())[-1]
    H = shifted(H, max(top + 1.0, 0.0))  # negative definite, eigenvalues <= -1
    dense = H.to_dense()
    rhs = rng.normal(size=H.size)
    want = np.linalg.solve(dense, rhs)
    fac = H.neg_cholesky()
    assert fac is not None
    x = H.solve(rhs, fac)
    np.testing.assert_allclose(x, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))
    assert x.tobytes() == H.solve(rhs, H.neg_cholesky()).tobytes()  # a fresh factor
    positive = shifted(H, np.linalg.eigvalsh(dense)[-1] - 1e-6 * dense_norm1(H))
    assert positive.neg_cholesky() is None


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 4), st.booleans(),
       st.sampled_from([None, "negative"]))
@example(seed=0, F=2, b=2, cyclic=True, definite=None)
@example(seed=1, F=3, b=3, cyclic=True, definite="negative")
def test_shifted_factorization_matches_the_shifted_matrix_bit_for_bit(seed, F, b, cyclic,
                                                                     definite):
    # neg_cholesky(s) adds s to the diagonal of -H's band, which gives the
    # bytes of the negated band of H - s I, since fl(s - d) = -fl(d - s)
    assume(F >= 2 or not cyclic)
    rng = np.random.default_rng(seed)
    H = _random_block_tridiagonal(rng, M=F, b=b, definite=definite, cyclic=cyclic)
    top = np.linalg.eigvalsh(H.to_dense())[-1]
    delta = dense_norm1(H) / COND_LIMIT
    lift = top + 0.5 * (1.0 + abs(top))  # above the top eigenvalue: H - lift I factors
    for s in (0.0, delta, -delta, lift):
        got, want = H.neg_cholesky(s), shifted(H, s).neg_cholesky()
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()
    assert H.neg_cholesky(lift) is not None
    assert (H.neg_cholesky() is not None) == (top < 0)


@pytest.mark.parametrize("cyclic", [True, False])
def test_factorizations_copy_the_band_once_each_and_leave_it_unchanged(monkeypatch, cyclic):
    # open or cyclic, the band is written once, when the matrix is made;
    # each factorization negates one fresh copy of it, which dpbtrf factors
    # in place; solve copies none, and the matrix holds its band and
    # the two facts its writer recorded
    rng = np.random.default_rng(26)
    H = _random_block_tridiagonal(rng, M=5, b=3, definite="negative", cyclic=cyclic)
    band = H.band
    assert band.flags.f_contiguous and not band.flags.writeable
    written = band.tobytes("F")
    copies, factored = [], []
    negative, lapack = np.negative, dual_action._LAPACK
    monkeypatch.setattr(np, "negative",
                        lambda a, *args, **kw: copies.append(a is band) or negative(a, *args, **kw))
    monkeypatch.setattr(dual_action, "_LAPACK", lapack._replace(
        dpbtrf=lambda ab: factored.append(ab) or lapack.dpbtrf(ab)))
    delta = dense_norm1(H) / COND_LIMIT
    assert copies == []
    fac = H.neg_cholesky()
    assert fac is not None and H.neg_cholesky(-delta) is not None
    assert H.neg_cholesky(1.0) is not None
    H.solve(np.ones(H.size), fac)
    assert copies == [True] * 3 and len(factored) == 3
    assert all(ab.flags.f_contiguous and not np.may_share_memory(ab, band) for ab in factored)
    assert set(BlockTridiagonal.__slots__) == {"band", "block", "cyclic", "diag_max", "finite"}
    assert H.band is band and band.tobytes("F") == written


def test_block_tridiagonal_band_storage_matches_dense():
    rng = np.random.default_rng(23)
    cases = [(F, b) for F in (1, 2, 3) for b in range(1, 6)] + [(5, 2), (4, 5)]
    for F, b in cases:
        blocks = _one_ulp_asymmetric(*_random_blocks(rng, M=F, b=b))
        H = block_tridiagonal(*blocks)
        dense = _dense_of_blocks(*blocks)  # each entry from the block and triangle that stores it
        assert b == 1 or np.any(dense != dense.T)
        _assert_bands_match(H, dense)
        np.testing.assert_array_equal(H.to_dense(), np.tril(dense) + np.tril(dense, -1).T)


def _hessian_case(seed, n, M, with_B, periodic, scale):
    """A random open or periodic spec with n particles on M elements and a
    field of the given scale on it (the zero field at scale 0)."""
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, n=n, M=M, with_B=with_B)
    if periodic:  # one forcing period, a base that closes, a field that wraps
        grid = TimeGrid(T=2.0 * np.pi, M=M)
        t = grid.nodes()[:, None]
        base = BaseState(grid, 0.3 * np.sin(t + rng.normal(size=n)),
                         0.3 * np.cos(t + rng.normal(size=n)))
        forcing = ForcingSpec(n=n, sinusoids=[(0, Sinusoid(0.5, 1.0, 0.3))])
        spec = ProblemSpec(params=dataclasses.replace(spec.params, forcing=forcing),
                           scales=spec.scales, base=base, grid=grid)
    u = rng.normal(size=2 * n * M) * scale
    return spec, unpack_free(spec.grid, n, u, periodic=periodic)


def _reference_blocks(seed, n, M, with_B, periodic, scale):
    """The node blocks (diag, off) of `_hessian_case`'s Hessian, summed from
    the element blocks of the dense triple products (signed zeros among
    them: a linear chain's K|_lam^-1 is diagonal)."""
    spec, D = _hessian_case(seed, n, M, with_B, periodic, scale)
    E = hessian_elements_kron(spec, D.gamma[:-1], D.lam[:-1], D.gamma[1:], D.lam[1:])
    return assemble_nodes(E, periodic)


@st.composite
def _block_families(draw):
    """(diag, off) of an open or cyclic BlockTridiagonal with F in 2..12 and
    b in 1..4, entries drawn with signed zeros among them."""
    F, b, cyclic = draw(st.integers(2, 12)), draw(st.integers(1, 4)), draw(st.booleans())
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
    return (draw(hnp.arrays(float, (F, b, b), elements=entries)),
            draw(hnp.arrays(float, (F if cyclic else F - 1, b, b), elements=entries)))


# at least 200 examples, more under a deeper profile (CI's rk4-deep)
@settings(deadline=None, max_examples=max(200, settings.default.max_examples))
@given(_block_families())
@example(blocks=(np.full((2, 1, 1), -0.0), np.full((2, 1, 1), -0.0)))
@example(blocks=(np.zeros((3, 2, 2)), -np.zeros((3, 2, 2))))
@example(blocks=_reference_blocks(0, n=2, M=2, with_B=False, periodic=True, scale=0.05))  # F = 2
@example(blocks=_reference_blocks(1, n=3, M=2, with_B=True, periodic=True, scale=0.3))  # F = 2
@example(blocks=_reference_blocks(2, n=3, M=7, with_B=False, periodic=True, scale=0.0))  # odd F
@example(blocks=_reference_blocks(3, n=2, M=8, with_B=True, periodic=False, scale=0.05))
def test_band_matches_the_positional_writer_byte_for_byte(blocks):
    # one slice assignment per block family writes the bytes that placing
    # each coupling by its folded position and summing the one-place
    # couplings into zeros writes, signed zeros included; the node blocks
    # read back from the dense matrix write those bytes again, and ``diag``
    # reads back its diagonal blocks
    H = block_tridiagonal(*blocks)
    ab = H.band
    assert ab.flags.f_contiguous
    assert ab.tobytes("F") == banded_by_positions(*blocks).tobytes("F")
    diag, off = node_blocks(H)
    assert block_tridiagonal(diag, off).band.tobytes("F") == ab.tobytes("F")
    assert H.diag.tobytes() == diag.tobytes()


def _dense_of_blocks(diag, off):
    """Dense matrix written block by block from node blocks diag and off,
    open or cyclic, each diagonal block with both its triangles."""
    F, b, _ = diag.shape
    out = np.zeros((F, b, F, b))
    for k in range(F):
        out[k, :, k] += diag[k]
    for k in range(len(off)):
        out[k, :, (k + 1) % F] += off[k]
        out[(k + 1) % F, :, k] += off[k].T
    return out.reshape(F * b, F * b)


@pytest.mark.parametrize("F", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_cyclic_block_tridiagonal_matches_dense(F, b):
    rng = np.random.default_rng(100 * F + b)
    blocks = _one_ulp_asymmetric(*_random_blocks(rng, M=F, b=b, definite="negative",
                                                 cyclic=True))
    H = block_tridiagonal(*blocks)
    dense = _dense_of_blocks(*blocks)
    symmetric = np.tril(dense) + np.tril(dense, -1).T  # the matrix the band stores
    assert H.cyclic
    np.testing.assert_array_equal(H.to_dense(), symmetric)
    u = rng.normal(size=H.size)
    np.testing.assert_allclose(block_matvec(*blocks, u), symmetric @ u, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(H.solve(u, H.neg_cholesky()), np.linalg.solve(symmetric, u),
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(np.sort(H.eigenvalues()), np.linalg.eigvalsh(symmetric),
                               rtol=1e-8, atol=1e-10)
    np.testing.assert_array_equal(shifted(H, 0.5).to_dense(), symmetric - 0.5 * np.eye(H.size))
    # the band is that of the folded node order 0, F-1, 1, F-2, ...
    order = [k for pair in zip(range(F), range(F - 1, -1, -1)) for k in pair][:F]
    perm = (np.array(order)[:, None] * b + np.arange(b)).ravel()
    folded = dense[np.ix_(perm, perm)]
    bw = 3 * b - 1
    assert H.band.shape[0] - 1 == bw
    i, j = np.indices(folded.shape)
    assert not np.any(folded[np.abs(i - j) > bw])
    _assert_bands_match(H, folded)


@pytest.mark.parametrize("definite", ["negative", "singular", None])
@pytest.mark.parametrize("F, b", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 1), (7, 3), (8, 3)])
def test_cyclic_inertia_matches_dense_eigenvalue_counts(definite, F, b):
    # counts of the folded band's eigenvalues against spectra known without
    # them: a negative definite matrix is (N, 0, 0), the cyclic chain
    # Laplacian has b exact zero eigenvalues and the rest negative, and an
    # indefinite matrix has its LDL^T pivot signs
    rng = np.random.default_rng(10 * F + b)
    H = _random_block_tridiagonal(rng, M=F, b=b, definite=definite, cyclic=True)
    if definite == "singular":
        H = block_tridiagonal(np.tile(-2.0 * np.eye(b), (F, 1, 1)), np.tile(np.eye(b), (F, 1, 1)))
    known = {"negative": (H.size, 0, 0), "singular": (H.size - b, b, 0)}
    assert H.inertia() == (known.get(definite) or _ldl_inertia(H))


# ---------------------------------------------------------------------------
# the weighted stiffness inverse and the element Hessian against the dense
# eigendecomposition references


def _eig_inverse(mu, Q):
    return (Q / mu[..., None, :]) @ np.swapaxes(Q, -1, -2)


def _outcome(fn):
    try:
        return fn(), None
    except SingularStiffnessError as exc:  # a K that is not finite among them
        return None, (exc.where, exc.cond)


@st.composite
def _stiffness_batches(draw):
    """(force, lam, c_x) with lam a batch of points where the weighted stiffness
    is well conditioned, plus, in most draws, one planted point at which K
    has the eigenvalues 1 + (1 - delta) beta_i: beta_0 = -1 makes the smallest
    delta, so condition numbers run over 1e9..1e13, or an exactly singular
    K when delta = 0 (in the coordinate basis, so the zero is exact)."""
    n = draw(st.integers(1, 5))
    c_x = draw(st.floats(0.5, 2.0))
    B = draw(hnp.arrays(float, (n, n, n), elements=st.floats(-1.0, 1.0)))
    lam = draw(hnp.arrays(float, (draw(st.integers(1, 8)), n),
                          elements=st.floats(-0.2, 0.2)))
    plant = draw(st.sampled_from(("none", "ill-conditioned", "singular")))
    if plant != "none":
        beta = np.concatenate(
            [[-1.0], draw(hnp.arrays(float, n - 1, elements=st.floats(-0.5, 0.5)))])
        if plant == "singular":
            Q, delta = np.eye(n), 0.0
        else:
            Q = np.linalg.qr(draw(hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
                             + 3.0 * np.eye(n))[0]
            delta = 10.0 ** -draw(st.floats(9.0, 13.0))
        B[0] = (Q * beta) @ Q.T
        point = np.zeros(n)
        point[0] = c_x if plant == "singular" else c_x * (1.0 - delta)
        lam = np.insert(lam, draw(st.integers(0, lam.shape[0])), point, axis=0)
    return QuadraticForce(n=n, B=B), lam, c_x


def _checked_inverse(force, lam, c_x):
    """The stiffness inverse the mapped state reads: `_stiffness_solve`'s
    where it forms one, else np.linalg.inv of its K (`_MappedState.Kinv`)."""
    _, K, _, Kinv = _stiffness_solve(force, lam, c_x, np.ones(np.shape(lam)))
    return np.linalg.inv(np.asarray(K)) if Kinv is None else Kinv


@settings(deadline=None, max_examples=300)
@given(_stiffness_batches())
def test_stiffness_inverse_matches_eigh_reference(case):
    force, lam, c_x = case
    B = force.B
    ref, ref_err = _outcome(lambda: stiffness_eig(B, lam, c_x))
    got, got_err = _outcome(lambda: _checked_inverse(force, lam, c_x))
    assert got_err == ref_err  # same point, same condition estimate
    if ref_err is None:
        mu, Q = ref
        want = _eig_inverse(mu, Q)
        cond = np.max(np.abs(mu), axis=-1) / np.min(np.abs(mu), axis=-1)
        # backward-stable inverses agree to about n eps kappa in relative terms
        tol = 64 * B.shape[0] * _EPS * cond * np.max(np.abs(want), axis=(-2, -1))
        assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= tol)


def test_stiffness_inverse_falls_back_to_eigh_when_inv_fails(monkeypatch):
    # K is about 3 I at point 2, far beyond the distance bound, so the batch
    # forms its inverse; where inv fails, the eigenvalue test forms it and y
    rng = np.random.default_rng(25)
    B = rng.normal(size=(3, 3, 3)) * 0.1
    B[0] += np.eye(3)
    force = QuadraticForce(n=3, B=B)
    lam, r = rng.normal(size=(4, 3)) * 0.1, rng.normal(size=(4, 3))
    lam[2] = [3.0, 0.0, 0.0]

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", fail)
    y, K, rho, Kinv = _stiffness_solve(force, lam, 1.5, r)
    want = _eig_inverse(*np.linalg.eigh(np.asarray(K)))
    assert rho[2] > dual_action._CERT_RHO
    np.testing.assert_array_equal(Kinv, want)
    assert y.tobytes() == (want @ r[..., None])[..., 0].tobytes()


def test_stiffness_inverse_rejects_the_first_bad_point_in_batch_order():
    # point 1 is singular and point 3 exceeds the condition limit
    force = QuadraticForce(n=2, B=np.array([[[-1.0, 0.0], [0.0, 0.0]],
                                            [[0.0, 0.0], [0.0, 0.0]]]))
    lam = np.array([[0.1, 0.0], [1.0, 0.0], [0.2, 0.0], [1.0 - 1e-13, 0.0]])
    with pytest.raises(SingularStiffnessError) as info:
        _stiffness_solve(force, lam, 1.0, np.ones((4, 2)))
    assert (info.value.where, info.value.cond) == (1, None)
    with pytest.raises(SingularStiffnessError) as info:
        _stiffness_solve(force, lam[[0, 2, 3]], 1.0, np.ones((3, 2)))
    assert info.value.where == 2 and info.value.cond > COND_LIMIT


def test_an_overflowing_certificate_bound_leaves_the_point_to_the_eigenvalue_test():
    # at lambda = 1e200 the distance from I overflows, and the squared
    # Frobenius norms overflow and underflow, so the bound is nan and
    # certifies nothing, without a RuntimeWarning (pyproject's
    # filterwarnings makes one an error); the eigenvalue test then passes
    # K = (1 + 1e200) I and rejects K = diag(1 + 1e200, 1 + 1e180)
    lam = np.array([[1e200, 0.0]])
    force = QuadraticForce(n=2, B=np.array([np.eye(2), np.zeros((2, 2))]))
    y, _, rho, Kinv = _stiffness_solve(force, lam, 1.0, np.ones((1, 2)))
    assert rho[0] == np.inf
    np.testing.assert_allclose(Kinv, np.eye(2)[None] / (1.0 + 1e200))
    np.testing.assert_allclose(y, np.ones((1, 2)) / (1.0 + 1e200))
    force = QuadraticForce(n=2, B=np.array([np.diag([1.0, 1e-20]), np.zeros((2, 2))]))
    with pytest.raises(SingularStiffnessError) as info:
        _stiffness_solve(force, lam, 1.0, np.ones((1, 2)))
    assert info.value.where == 0 and info.value.cond > COND_LIMIT


@st.composite
def _certified_batches(draw):
    """(force, lam, c_x, c_v, r): a `_stiffness_batches` batch with up to three
    more planted points at lam = t e_j: K - I = (t / c_x) B[j] at a
    Frobenius distance from I of _CERT_RHO (1 -+ 1e-12), just inside and
    just outside the bound (up to kappa_2 ~ 1e10 when B[j] is near rank
    one), or t = 1e200 (the distance overflows) or nan; and a random r."""
    force, lam, c_x = draw(_stiffness_batches())
    B, n = force.B, force.n
    for plant in draw(st.lists(st.sampled_from(("inside", "outside", "huge", "nan")),
                               max_size=3)):
        j = draw(st.integers(0, n - 1))
        norm = float(np.linalg.norm(B[j]))
        if plant in ("huge", "nan"):
            t = 1e200 if plant == "huge" else np.nan
        elif norm > 0.0:
            t = c_x * dual_action._CERT_RHO * (1.0 + (1e-12 if plant == "outside" else -1e-12)) / norm
        else:
            continue
        lam = np.insert(lam, draw(st.integers(0, lam.shape[0])), t * np.eye(n)[j], axis=0)
    r = draw(hnp.arrays(float, lam.shape, elements=st.floats(-1.0, 1.0)))
    return force, lam, c_x, draw(st.floats(0.1, 10.0)), r


def _weight_counts_reference(K, c_x, c_v):
    """`_weight_counts` from the eigenvalues of every K."""
    mu = np.linalg.eigvalsh(K)
    inv = np.concatenate([(1.0 / (c_x * mu)).ravel(), np.full(mu.size, 1.0 / c_v)])
    tiny = np.abs(inv) <= np.max(np.abs(inv)) / COND_LIMIT
    return int(np.sum(tiny)), int(np.sum((inv < 0.0) & ~tiny))


@settings(deadline=None)
@given(_certified_batches())
@example(case=(QuadraticForce(n=2, B=np.array([np.diag([1.0, 0.0]), np.zeros((2, 2))])),
               np.array([[-dual_action._CERT_RHO * (1.0 - 1e-12), 0.0]]), 1.0, 1.0,
               np.ones((1, 2))))  # just inside: K = diag(2e-10, 1)
def test_certified_stiffness_solve_matches_eigh_reference(case):
    # within _CERT_RHO of I a batch is solved with no inverse formed, and
    # elsewhere inverted and tested as before: the same exception, point
    # and condition estimate as the eigenvalue reference, and y = K^-1 r to
    # 64 n eps kappa at every finite point; on the batches that pass, the
    # Gram record's `definite` and `_weight_counts` agree with Cholesky and
    # eigvalsh of every K
    force, lam, c_x, c_v, r = case
    B, n = force.B, force.n
    ref, ref_err = _outcome(lambda: stiffness_eig(B, lam, c_x))
    got, got_err = _outcome(lambda: _stiffness_solve(force, lam, c_x, r))
    assert got_err == ref_err  # same point, same condition estimate
    if ref_err is not None:
        return
    y, K, rho, Kinv = got
    assert isinstance(K, dual_action._Stiffness)
    assert (Kinv is None) == np.all(rho <= dual_action._CERT_RHO)
    mu, Q = ref
    finite = np.all(np.isfinite(lam), axis=-1)
    with np.errstate(invalid="ignore"):  # at a nan point
        inverse = _eig_inverse(mu, Q)
        want = (inverse @ r[..., None])[..., 0]
        cond = np.max(np.abs(mu), axis=-1) / np.min(np.abs(mu), axis=-1)
    # r's magnitude plus the smallest normal float: near underflow, round-off is absolute
    scale = np.sum(np.abs(r), axis=-1) + np.finfo(float).tiny
    tol = 64 * n * _EPS * cond * np.max(np.abs(inverse), axis=(-2, -1)) * scale
    assert np.all(np.max(np.abs(y - want), axis=-1)[finite] <= tol[finite])
    if not np.all(finite):
        return  # `_gram_point` stops such a point before any record is made
    Kref = einsum_stiffness(B, lam, c_x)
    point = SimpleNamespace(spec=SimpleNamespace(scales=ScaleParams(c_x, c_v)), Mx=Kref,
                            state=SimpleNamespace(K=K, rho=rho, Kinv=Kinv))
    point.definite = dual_action._GramPoint.definite.func(point)
    try:
        np.linalg.cholesky(Kref)
        factors = True
    except np.linalg.LinAlgError:
        factors = False
    assert point.definite == factors
    assert dual_action._weight_counts(point) == _weight_counts_reference(Kref, c_x, c_v)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.integers(1, 20), st.floats(0.0, 0.999), st.booleans(), st.booleans())
@example(seed=0, n=3, reach=1.0, density=0.0, M=5, t=0.5, beyond=False, refuse=False)  # B = 0
@example(seed=1, n=4, reach=0.0, density=1.0, M=7, t=0.5, beyond=False, refuse=False)  # diagonal
@example(seed=2, n=5, reach=1.0, density=1.0, M=20, t=0.9, beyond=False, refuse=False)  # dense
@example(seed=3, n=1, reach=0.0, density=1.0, M=3, t=0.5, beyond=False, refuse=False)  # n = 1
@example(seed=4, n=5, reach=1.0, density=1.0, M=20, t=0.5, beyond=True, refuse=False)
@example(seed=5, n=4, reach=0.3, density=0.6, M=9, t=0.5, beyond=False, refuse=True)
# rho summed from terms that cancel: the two drawn by the deep profile
@example(seed=16, n=2, reach=0.0, density=0.5, M=16, t=0.196, beyond=True, refuse=False)
@example(seed=21295, n=2, reach=0.0, density=0.5, M=10, t=0.5, beyond=False, refuse=False)
# B = 0, with a field beyond the bound and with dpbtrf refused
@example(seed=6, n=4, reach=1.0, density=0.0, M=6, t=0.5, beyond=True, refuse=False)
@example(seed=7, n=3, reach=1.0, density=0.0, M=5, t=0.5, beyond=False, refuse=True)
# the zero field (t = 0) of a dense B, also with dpbtrf refused
@example(seed=8, n=5, reach=1.0, density=1.0, M=8, t=0.0, beyond=False, refuse=False)
@example(seed=9, n=3, reach=0.5, density=0.7, M=4, t=0.0, beyond=False, refuse=True)
def test_stiffness_band_matches_dense_references(seed, n, reach, density, M, t, beyond, refuse):
    # a random B, symmetric in its last two indices, zero beyond the drawn
    # half-bandwidth kd of K and at random elsewhere (B = 0 at density 0),
    # and a field whose midpoint stiffnesses reach t _CERT_RHO (the zero
    # field at t = 0), or t + 1 to t + 3 times it (beyond the bound, where
    # the inverse-and-test path takes over); with ``refuse``, dpbtrf is
    # made to report a pivot and that path takes over too.  On every path
    # K is the band's `_Stiffness`; its dense form, rho and Mx and the
    # gradient's force term match the dense einsum references to rounding,
    # y = K^-1 r the eigenvalue reference to 64 n eps kappa, with the same
    # exception where it raises
    rng = np.random.default_rng(seed)
    i, r = np.indices((n, n))
    B = rng.uniform(-1.0, 1.0, (n, n, n)) * (rng.uniform(size=(n, n, n)) < density)
    A = rng.normal(size=(n, n))
    force = QuadraticForce(n=n, A=A + A.T, B=B * (np.abs(i - r) <= round(reach * (n - 1))))
    B = force.B
    (j, i, r), (a, c) = np.nonzero(B), np.nonzero(force.A)
    w = max(np.max(np.abs(j - i), initial=0), np.max(np.abs(a - c), initial=0))
    assert force.band[:2] == (max(np.abs(i - r), default=0), w)  # w: Mx = A + B·x's
    grid, (c_x, c_v) = TimeGrid(T=1.0, M=M), rng.uniform(0.5, 2.0, 2)
    base = BaseState(grid, 0.3 * rng.normal(size=(M + 1, n)), 0.3 * rng.normal(size=(M + 1, n)))
    spec = ProblemSpec(ChainParams(m=rng.uniform(0.5, 2.0), d=rng.uniform(0.0, 1.0), force=force,
                                   forcing=ForcingSpec.zero(n)),
                       ScaleParams(c_x, c_v), base, grid, x0=rng.normal(size=n), v0=np.zeros(n))
    lam, gamma = rng.normal(size=(2, M + 1, n))
    lam[-1] = gamma[-1] = 0.0
    unit = np.max(einsum_stiffness_distance(B, 0.5 * (lam[:-1] + lam[1:]), c_x))
    if unit > 0.0:
        lam *= (t + (1.0 + 2.0 * rng.uniform() if beyond else 0.0)) * dual_action._CERT_RHO / unit
    D = DualField(grid, gamma, lam)
    lmid = 0.5 * (lam[:-1] + lam[1:])
    ref, ref_err = _outcome(lambda: stiffness_eig(B, lmid, c_x))
    with pytest.MonkeyPatch.context() as patch:
        if refuse:
            patch.setattr(dual_action, "_LAPACK",
                          dual_action._LAPACK._replace(dpbtrf=lambda ab: (ab, 1)))
        state, err = _outcome(lambda: _core_state(spec, D))
    assert err == ref_err
    if ref_err is not None:
        return
    # K - I sums (1/c_x) lam_j B[j] over j, whose terms can cancel: rho's
    # round-off is bounded by the magnitudes, ||(1/c_x) |lam|·|B| ||_F
    rho = einsum_stiffness_distance(B, lmid, c_x)
    magnitude = einsum_stiffness_distance(np.abs(B), np.abs(lmid), c_x)
    assert np.all(np.abs(state.rho - rho) <= 8 * n * _EPS * magnitude)
    assert isinstance(state.K, dual_action._Stiffness)
    if not (np.any(B) and np.any(lmid)):  # lam·B is exactly zero: K is I
        assert np.all(rho == 0.0) and np.all(np.asarray(state.K) == np.eye(n))
    # solved on the band where the distance certifies every point and dpbtrf
    # factors; else K's inverse is formed
    banded = bool(np.all(rho <= dual_action._CERT_RHO)) and not refuse
    assert ("Kinv" in state.__dict__) != banded
    scale = 1.0 + np.sum(np.abs(lmid), axis=-1)[:, None, None] * np.max(np.abs(B)) / c_x
    assert np.all(np.abs(np.asarray(state.K) - einsum_stiffness(B, lmid, c_x))
                  <= 8 * n * _EPS * scale)
    mu, Q = ref
    cond = np.max(np.abs(mu), axis=-1) / np.min(np.abs(mu), axis=-1)
    inverse = _eig_inverse(mu, Q)
    tol = 64 * n * _EPS * cond * np.max(np.abs(inverse), axis=(-2, -1))
    want = (inverse @ state.r[..., None])[..., 0]
    assert np.all(np.max(np.abs(state.y - want), axis=-1)
                  <= tol * (np.sum(np.abs(state.r), axis=-1) + np.finfo(float).tiny))
    # Mx = J + B·dx, and K(x) in the gradient's lambda parts, to rounding
    J, dx, x, v = state.J, state.dx, state.x, state.v
    assert np.all(np.abs(state.Mx - einsum_mapped_jacobian(B, J, dx))
                  <= 8 * n * _EPS * einsum_mapped_jacobian(np.abs(B), np.abs(J), np.abs(dx)))
    p, h = spec.params, grid.h
    _, g_la, _, g_lb = _gradient_elements(spec, D)
    mom = p.d * v + einsum_force(force, x)
    span = np.abs(x) + np.abs(base.xbar_mid)  # of K(x) and of K(xbar) + J dx
    K_size = (np.abs(force.C) + span @ np.abs(force.A).T
              + np.einsum("jrs,mr,ms->mj", np.abs(B), span, span))
    g_tol = 64 * n * n * _EPS * (0.5 * h * (p.d * np.abs(v) + K_size) + p.m * np.abs(v))
    assert np.all(np.abs(g_la - (0.5 * h * mom + p.m * v)) <= g_tol)
    assert np.all(np.abs(g_lb - (0.5 * h * mom - p.m * v)) <= g_tol)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 16), st.booleans(),
       st.booleans(), st.one_of(st.just(0.0), st.floats(0.01, 0.5)))
@example(seed=0, n=2, M=2, with_B=False, periodic=True, scale=0.05)  # F = 2, linear
@example(seed=1, n=3, M=2, with_B=True, periodic=True, scale=0.3)  # F = 2, quadratic
@example(seed=2, n=3, M=7, with_B=False, periodic=True, scale=0.0)  # odd F, zero field
@example(seed=4, n=2, M=5, with_B=True, periodic=True, scale=0.0)  # odd F, zero field
def test_element_hessian_matches_kron_reference(seed, n, M, with_B, periodic, scale):
    spec, D = _hessian_case(seed, n, M, with_B, periodic, scale)
    args = (D.gamma[:-1], D.lam[:-1], D.gamma[1:], D.lam[1:])
    # the band the package writes from the Gram blocks against the band of
    # the node blocks summed from the dense triple products, open or cyclic
    want = block_tridiagonal(*assemble_nodes(hessian_elements_kron(spec, *args),
                                             periodic)).band
    got = hessian(D, spec).band
    cond = 1.0
    if with_B:
        mu = stiffness_eig(spec.params.force.B, 0.5 * (args[1] + args[3]), spec.scales.c_x)[0]
        cond = float(np.max(np.max(np.abs(mu), axis=1) / np.min(np.abs(mu), axis=1)))
    # both sum the same terms in other orders; the stiffness inverse adds
    # its condition number
    tol = 64 * 4 * spec.n * _EPS * cond * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= tol


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.tuples(st.sampled_from(("action", "gradient", "hessian")), st.booleans()),
                min_size=1, max_size=8))
def test_evaluations_share_one_state_in_any_order(seed, with_B, calls):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, with_B=with_B)
    D = _small_dual(rng, spec, scale=0.1)
    # a second spec on the same grid has midpoint data of its own
    other = dataclasses.replace(spec, scales=ScaleParams(spec.scales.c_x * 1.5, spec.scales.c_v))
    evaluate = {"action": action, "gradient": gradient, "hessian": hessian}

    def result(name, field, where):
        out = evaluate[name](field, where)
        if name == "hessian":
            return out.band.tobytes("F")
        return np.asarray(out).tobytes()

    for name, on_other in calls:
        where = other if on_other else spec
        fresh = DualField(D.grid, D.gamma, D.lam)
        assert result(name, D, where) == result(name, fresh, where)


def test_one_field_under_two_scales_gives_each_spec_the_bytes_of_a_fresh_field():
    # _core_state keeps a field's mapped state keyed by the spec, and the
    # Gram record reads it: at lam = -2 the weighted stiffness 1 + lam / c_x
    # is -1 under c_x = 1 and 14/15 under c_x = 30, so the two specs map the
    # field apart and count different inertias; each evaluation, the spec
    # switching at every call, gives the bytes a fresh field gives
    force = QuadraticForce(n=1, A=[[1.0]], B=np.ones((1, 1, 1)))
    params = ChainParams(m=1.0, d=0.2, force=force, forcing=ForcingSpec.zero(1))
    grid = TimeGrid(T=2.0 * np.pi, M=8)
    specs = [ProblemSpec(params=params, scales=ScaleParams(c_x, 1.0), base=zero_base(grid, 1),
                         grid=grid) for c_x in (1.0, 30.0)]
    gamma = 0.1 * np.sin(grid.nodes())[:, None]
    gamma[-1] = gamma[0]
    D = DualField(grid, gamma, np.full((grid.M + 1, 1), -2.0))
    evaluations = (lambda F, spec: np.float64(action(F, spec)).tobytes(),
                   lambda F, spec: gradient(F, spec).tobytes(),
                   lambda F, spec: _gram_inertia(spec, F))
    got = [[evaluate(D, spec) for spec in specs] for evaluate in evaluations]
    for evaluate, pair in zip(evaluations, got):
        assert pair == [evaluate(DualField(grid, D.gamma, D.lam), spec) for spec in specs]
        assert pair[0] != pair[1]


# ---------------------------------------------------------------------------
# Hessian inertia from the Gram factors


def _gram_blocks(spec, D):
    """Element k's Gram factor blocks (A_a, A_b) on nodes k and k+1 at D."""
    return gram_blocks(spec, _core_state(spec, D).Mx)


def _gram_product(spec, D):
    """-A^T W^-1 A, dense: row block k of A holds `_gram_blocks` at nodes k
    and k+1 (node M dropped, or node 0 when cyclic), and W^-1 =
    diag(K|_lam^-1 / c_x, I / c_v) per element."""
    n, M = spec.n, spec.grid.M
    b = 2 * n
    A_a, A_b = _gram_blocks(spec, D)
    Kinv = _core_state(spec, D).Kinv
    A = np.zeros((M * b, M * b))
    Winv = np.zeros((M * b, M * b))
    for k in range(M):
        rows = slice(k * b, (k + 1) * b)
        A[rows, rows] = A_a[k]
        if k + 1 < M or spec.periodic:
            j = (k + 1) % M
            A[rows, j * b:(j + 1) * b] = A_b[k]
        Winv[k * b:k * b + n, k * b:k * b + n] = Kinv[k] / spec.scales.c_x
        Winv[k * b + n:(k + 1) * b, k * b + n:(k + 1) * b] = np.eye(n) / spec.scales.c_v
    return -A.T @ Winv @ A


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 9), st.booleans(),
       st.booleans(), st.sampled_from([0.0, 0.05, 0.3]))
@example(seed=0, n=2, M=2, with_B=False, periodic=True, scale=0.05)  # F = 2, linear
@example(seed=1, n=3, M=2, with_B=True, periodic=True, scale=0.3)  # F = 2, quadratic
def test_hessian_is_the_gram_product(seed, n, M, with_B, periodic, scale):
    # H = -A^T W^-1 A with A square, open and cyclic, to rounding; the
    # stiffness inverse adds its condition number; and the transfer
    # matrices, from n x n Schur complements, are -A_a^-1 A_b
    spec, D = _hessian_case(seed, n, M, with_B, periodic, scale)
    H = hessian(D, spec).to_dense()
    mu = np.abs(stiffness_eig(spec.params.force.B, _core_state(spec, D).lam, spec.scales.c_x)[0])
    cond = float(np.max(np.max(mu, axis=1) / np.min(mu, axis=1)))
    assert np.max(np.abs(_gram_product(spec, D) - H)) <= 64 * n * _EPS * cond * np.max(np.abs(H))
    A_a, A_b = _gram_blocks(spec, D)
    Mx = _core_state(spec, D).Mx
    Einv = np.linalg.inv(_schur_complements(spec, Mx))
    np.testing.assert_allclose(_transfer_matrices(spec, Mx, Einv),
                               -np.linalg.solve(A_a, A_b), rtol=1e-12, atol=1e-12)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 9), st.booleans(),
       st.booleans(), st.sampled_from([0.0, 0.05, 0.3, 1.0]))
@example(seed=3, n=2, M=5, with_B=True, periodic=True, scale=1.0)  # 2 positive
@example(seed=11, n=3, M=4, with_B=True, periodic=False, scale=1.0)  # 2 positive
def test_gram_inertia_matches_the_hessian_inertia(seed, n, M, with_B, periodic, scale):
    # kappa_2(H) <= 1e9 keeps every eigenvalue beyond inertia()'s delta =
    # ||H||_1 / COND_LIMIT <= sqrt(N) ||H||_2 / COND_LIMIT (N <= 72 here),
    # and A and W well conditioned, so both count the signs.  Without the
    # bound they part where H is near singular: a drawn spec with
    # kappa_2(H) = 4.8e14 gives 57 3 12 from inertia() and 60 0 12 here
    spec, D = _hessian_case(seed, n, M, with_B, periodic, scale)
    try:
        H = hessian(D, spec)
    except SingularStiffnessError:
        assume(False)
    mu = np.abs(np.linalg.eigvalsh(H.to_dense()))
    assume(np.max(mu) <= 1e9 * np.min(mu))
    assert _gram_inertia(spec, D) == H.inertia()


def _linear_spec(n, M, k, d=0.0):
    """Unit-mass linear chain with stiffness k I at rest on [0, 2 pi], zero
    base, as the initial-value problem."""
    force = QuadraticForce(n=n, A=k * np.eye(n))
    params = ChainParams(m=1.0, d=d, force=force, forcing=ForcingSpec.zero(n))
    grid = TimeGrid(T=2.0 * np.pi, M=M)
    return ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0), base=zero_base(grid, n),
                       grid=grid, x0=np.zeros(n), v0=np.zeros(n))


def test_gram_inertia_counts_singular_elements_as_an_upper_bound():
    # at k = -4 (d/2 + m/h) / h every element's A_a is singular, E = 0: the
    # elements' sum, 2 per element, bounds the open nullity, 2, from above
    spec = _linear_spec(n=2, M=6, k=-4.0 * (0.25 + 6.0 / (2.0 * np.pi)) / (np.pi / 3.0), d=0.5)
    D = DualField.zeros(spec.grid, 2)
    assert hessian(D, spec).inertia() == (22, 2, 0)
    assert _gram_inertia(spec, D) == (12, 12, 0)
    # a regular element needs no SVD
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("an element SVD ran"))
        assert _gram_inertia(_linear_spec(n=2, M=6, k=1.0), D) == (24, 0, 0)


@pytest.mark.parametrize("lam, c_v, counts, reference", [
    # K = 1e-13 factors, but its weight 1e13 puts the v weights, 1, within
    # max|1/w| / COND_LIMIT of zero; inertia() counts one more there
    (-(1.0 - 1e-13), 1.0, (8, 8, 0), (7, 9, 0)),
    # K = -1 beside 1/c_v = 1e13: its weights count as zero, not positive
    (-2.0, 1e-13, (8, 8, 0), (8, 8, 0)),
    (-2.0, 1.0, (8, 0, 8), (8, 0, 8)),
], ids=["small-K", "negative-K-beside-tiny-c_v", "negative-K"])
def test_gram_inertia_counts_weights_near_zero_beside_the_largest(lam, c_v, counts, reference):
    # n = 1, K = 1 + lam on every element of a constant field over one period
    force = QuadraticForce(n=1, A=[[1.0]], B=np.ones((1, 1, 1)))
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(1))
    grid = TimeGrid(T=2.0 * np.pi, M=8)
    spec = ProblemSpec(params=params, scales=ScaleParams(1.0, c_v), base=zero_base(grid, 1),
                       grid=grid)
    D = DualField(grid, np.zeros((9, 1)), np.full((9, 1), lam))
    assert _gram_inertia(spec, D) == counts
    assert hessian(D, spec).inertia() == reference


def test_gram_inertia_is_none_where_a_hessian_part_overflows():
    # m = 1e300 leaves the mapped state finite but overflows the Hessian's
    # (m/h)^2 h / c_v terms
    spec = _linear_spec(n=1, M=4, k=1.0)
    huge = dataclasses.replace(spec, params=dataclasses.replace(spec.params, m=1e300))
    D = DualField.zeros(spec.grid, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not hessian(D, huge).finite
        assert _gram_inertia(huge, D) is None
    assert _gram_inertia(spec, D) == (8, 0, 0)


@pytest.mark.parametrize("k, n, formed, want", [
    (1e150, 2, False, (16, 0, 0)),  # the bound certifies the Hessian
    (4.5e153, 2, True, (16, 0, 0)),  # 4n^2 cannot, though 4n would
    (1.3e154, 2, True, (16, 0, 0)),  # it cannot; the largest entry, h k^2 / 2, is finite
    (1e155, 1, True, None),  # Mx = k I and P = I are finite, the Hessian overflows
    (1e200, 3, True, None),
])
def test_gram_inertia_forms_the_hessian_parts_only_where_their_bounds_leave_overflow_open(
        monkeypatch, k, n, formed, want):
    # on the linear chain k I, Mx = k I and P = I, the Gram blocks' largest
    # entry is s = k/2, and the bound h 4n^2 s^2 = h n^2 k^2 rules out
    # overflow at k = 1e150, not at 4.5e153 or beyond; the answers are those
    # of forming the Hessian, None where it is not finite
    spec = _linear_spec(n=n, M=4, k=k)
    D = DualField.zeros(spec.grid, n)
    calls = []
    assemble = dual_action.hessian
    monkeypatch.setattr(dual_action, "hessian",
                        lambda *args: calls.append(1) or assemble(*args))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _gram_inertia(spec, D) == want
        assert calls == [1] * formed
        assert hessian(D, spec).finite == (want is not None)


def _resonant_case(M):
    """The undamped linear chain x'' + x = cos t over one period, periodic,
    at the zero field: every multiplier of its transfer product is at 1 to
    the discretization's phase error."""
    params = ChainParams(m=1.0, d=0.0, force=QuadraticForce(n=1, A=[[1.0]]),
                         forcing=ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))]))
    grid = TimeGrid(T=2.0 * np.pi, M=M)
    spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0), base=zero_base(grid, 1),
                       grid=grid)
    return spec, DualField.zeros(grid, 1)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40),
       st.floats(0.0, 2.0, exclude_min=True), st.floats(0.0, 2.0), st.floats(0.1, 2.0),
       st.floats(0.1, 2.0), st.booleans(), st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       st.booleans(), st.just(False))
@example(seed=0, n=2, M=1, m=1.0, d=0.5, c_x=1.0, c_v=1.0, with_B=True, scale=0.05,
         periodic=False, resonant=False)  # no U
@example(seed=4, n=3, M=12, m=1.0, d=0.0, c_x=0.2, c_v=1.0, with_B=True, scale=1.0,
         periodic=False, resonant=False)
@example(seed=5, n=1, M=40, m=2.0, d=2.0, c_x=1.0, c_v=0.1, with_B=False, scale=0.3,
         periodic=False, resonant=False)
@example(seed=6, n=2, M=2, m=1.0, d=0.5, c_x=1.0, c_v=1.0, with_B=True, scale=0.3,
         periodic=True, resonant=False)  # M = 2: the folded band sums the pair
@example(seed=7, n=3, M=7, m=1.5, d=0.2, c_x=0.5, c_v=2.0, with_B=True, scale=0.05,
         periodic=True, resonant=False)  # odd M
@example(seed=0, n=1, M=500, m=1.0, d=0.0, c_x=1.0, c_v=1.0, with_B=False, scale=0.0,
         periodic=True, resonant=True)  # x'' + x = cos t: the multiplier test refuses
@example(seed=3, n=1, M=4, m=1.0, d=1.0, c_x=1.0, c_v=1.0, with_B=False, scale=0.0,
         periodic=True, resonant=False)  # cond(H) = 12, cond(I - Pi) = 4.7e6: refused
def test_gram_direction_is_the_newton_direction_of_the_band(seed, n, M, m, d, c_x, c_v,
                                                          with_B, scale, periodic, resonant):
    # open and periodic specs with linear and quadratic forces and small
    # random fields: where -H factors, A^-1 W A^-T g, through the capacitance
    # of the cyclic corner when periodic, is the band's H^-1 (-g), open or
    # folded, to 1e-9 relative where H is well conditioned, unless the
    # capacitance I - Pi is too ill conditioned for the corner's solves (a
    # coarse grid of a strongly damped chain: 0.73 relative error at
    # cond(I - Pi) = 7.7e13 with cond(H) below 1e6), where the Gram
    # direction refuses; where a weighted stiffness has a negative
    # eigenvalue, H is indefinite and both refuse; at resonance the
    # transfer product has multipliers at 1 and the Gram direction refuses
    if resonant:
        spec, D = _resonant_case(M)
        assert dual_action._gram_point(spec, D).nullity == 2
        assert dual_action._gram_direction(spec, dual_action._gram_point(spec, D),
                                           gradient(D, spec), _direction_band(spec)) is None
        return
    assume(M >= 2 or not periodic)
    spec, D = _hessian_case(seed, n, M, with_B, periodic, scale)
    spec = dataclasses.replace(spec, params=dataclasses.replace(spec.params, m=m, d=d),
                               scales=ScaleParams(c_x, c_v))
    try:
        g = gradient(D, spec)
    except SingularStiffnessError:
        assume(False)
    H = hessian(D, spec)
    point = dual_action._gram_point(spec, D)
    assert point is not None and H.finite
    direction = dual_action._gram_direction(spec, point, g, _direction_band(spec))
    fac = H.neg_cholesky()
    K = einsum_stiffness(spec.params.force.B, _core_state(spec, D).lam, c_x)
    if np.min(np.linalg.eigvalsh(K)) < 0.0:
        assert direction is None and fac is None
        return
    mu = np.abs(np.linalg.eigvalsh(H.to_dense()))
    assume(fac is not None and np.max(mu) <= 1e6 * np.min(mu))
    if direction is None:
        Mx = _core_state(spec, D).Mx
        R = _transfer_matrices(spec, Mx, np.linalg.inv(_schur_complements(spec, Mx)))
        P, s = dual_action._transfer_product(R)
        cond = np.linalg.cond(np.eye(2 * n) - np.exp(s) * P, 1)
        assert periodic and cond > dual_action._CAPACITANCE_LIMIT
        return
    want = H.solve(-g, fac)
    assert np.max(np.abs(direction - want)) <= 1e-9 * np.max(np.abs(want))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 64),
       st.floats(0.05, 20.0), st.floats(0.1, 10.0), st.floats(0.0, 2.0),
       st.floats(0.0, 1.5), st.sampled_from([None, np.nan, np.inf, -np.inf]))
@example(seed=0, n=4, M=64, T=2.0 * np.pi, m=1.0, d=0.4, size=0.003, bad=None)  # workload size
@example(seed=1, n=8, M=64, T=20.0, m=0.1, d=0.0, size=0.5, bad=None)  # rho up to 1/2
@example(seed=2, n=3, M=5, T=1.0, m=1.0, d=1.0, size=0.0, bad=None)  # X = 0: no step
@example(seed=3, n=2, M=7, T=1.0, m=1.0, d=1.0, size=0.1, bad=np.nan)
@example(seed=0, n=3, M=1, T=1.0, m=1.0, d=0.0, size=0.0, bad=np.inf)  # LU raises
def test_schur_lu_and_its_inverses_match_inv_under_their_bound(seed, n, M, T, m, d, size, bad):
    # E_k = c (I + X_k) with ||X_k||_F drawn in [0, size] and X_k zero
    # beyond a half-bandwidth w drawn from 0 to n - 1, the chain's A that
    # wide: the record made from Mx has the largest norm as its rho, and an
    # open record's nullity forms no factor.  Where rho is at most 1/2 the
    # record's LU holds F E = U, F unit lower triangular and U upper within
    # w of its diagonal, and its E^-1 = U^-1 F matches inv's to 4 n eps
    # cond(E_k), with no np.linalg.inv call; where rho exceeds 1/2, or is
    # not finite because an entry of Mx is not (`_gram_point` stops such a
    # point before any record is made), inv inverts them, once, and F and
    # E^-1 are its bytes.  A RuntimeWarning is an error in this suite, so
    # none escapes
    rng = np.random.default_rng(seed)
    w = int(rng.integers(n))
    i, j = np.indices((n, n))
    near = np.abs(i - j) <= w
    force = QuadraticForce(n=n, A=near.astype(float))
    params = ChainParams(m=m, d=d, force=force, forcing=ForcingSpec.zero(n))
    grid = TimeGrid(T=T, M=M)
    spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0), base=zero_base(grid, n),
                       grid=grid, x0=np.zeros(n), v0=np.zeros(n))
    assert force.band[1] == w
    h = grid.h
    c = 0.5 * d + m / h
    X = rng.normal(size=(M, n, n)) * near
    X *= (size * rng.uniform(size=M) / np.linalg.norm(X, axis=(1, 2)))[:, None, None]
    norms = np.linalg.norm(X, axis=(1, 2))
    assume(np.all(np.abs(norms - 0.5) > 1e-9))  # clear of the bound's round-off
    Mx = (4.0 * c / h) * np.swapaxes(X, 1, 2)
    if bad is not None:
        Mx[rng.integers(M), rng.integers(n), rng.integers(n)] = bad
    # the linear chain's weights: K|_lam = I
    point = dual_action._GramPoint(spec, SimpleNamespace(Mx=Mx, K=None, rho=np.zeros(M)))
    if bad is None:
        assert point.nullity == 0 and not {"lu", "Einv"} & set(vars(point))  # open: no factor
        assert abs(point.rho - np.max(norms)) <= 1e-12 * max(1.0, np.max(norms))
    else:
        assert not np.isfinite(point.rho)
    within = bad is None and np.all(norms <= 0.5)
    calls = []
    inv = np.linalg.inv
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        try:
            Einv = point.Einv
        except np.linalg.LinAlgError:  # LU may meet an exact zero pivot past an inf
            assert bad is not None
            return
    assert calls == ([] if within else [(M, n, n)])
    E = _schur_complements(spec, Mx)
    F, U = point.lu
    if not within:
        want = inv(E)
        assert F.tobytes() == Einv.tobytes() == want.tobytes() and np.all(U == np.eye(n))
        return
    U = np.where((j >= i) & (j - i <= w), U, 0.0)  # the U the band reads
    assert np.all(np.diagonal(F, 0, 1, 2) == 1.0) and not np.any(np.triu(F, 1))
    # plus the smallest normal float: near underflow, round-off is absolute
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(F @ E - U) <= 16 * n * _EPS * (np.abs(F) @ np.abs(E)) + tiny)
    want = inv(E)
    err = np.linalg.norm(Einv - want, axis=(1, 2))
    bound = 4 * n * _EPS * np.linalg.cond(E) * np.linalg.norm(want, axis=(1, 2))
    assert np.all(err <= bound)


def _corner_case(rng, n, M, T, m, d, size, exact=False):
    """(spec, Mx): an open spec of a chain whose A has a half-bandwidth drawn
    from 0 to n - 1, and Mx with X_k = (h/4c) Mx_k^T of that band and
    ||X_k||_F = size (``exact``) or drawn in [0, size], c = d/2 + m/h."""
    w = int(rng.integers(n))
    i, j = np.indices((n, n))
    near = np.abs(i - j) <= w
    force = QuadraticForce(n=n, A=near.astype(float))
    params = ChainParams(m=m, d=d, force=force, forcing=ForcingSpec.zero(n))
    grid = TimeGrid(T=T, M=M)
    spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0), base=zero_base(grid, n),
                       grid=grid, x0=np.zeros(n), v0=np.zeros(n))
    h = grid.h
    X = rng.normal(size=(M, n, n)) * near
    norms = size * (np.ones(M) if exact else rng.uniform(size=M))
    X *= (norms / np.linalg.norm(X, axis=(1, 2)))[:, None, None]
    return spec, (4.0 * (0.5 * d + m / h) / h) * np.swapaxes(X, 1, 2)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 24),
       st.floats(0.05, 20.0), st.floats(0.1, 10.0), st.floats(0.0, 2.0),
       st.one_of(st.just(0.0), st.floats(1e-12, 1.5)))
@example(seed=0, n=4, M=24, T=0.15, m=1.0, d=0.4, size=0.003)  # a workload's element size
@example(seed=1, n=6, M=3, T=1.0, m=1.0, d=0.4, size=1.5)  # rho > 1/2: E^-1 from inv
def test_transfer_matrices_are_the_block_formula_byte_for_byte(seed, n, M, T, m, d, size):
    # R = D + Y Q, one matmul, against the block formula of tests/oracles.py
    # (its four block writes) on the record's E^-1, back substituted
    # and flushed where rho <= 1/2 and from inv beyond: every entry's bytes,
    # a zero's sign aside (Y Q sums from +0, where -(4m/h) q E^-1 gave -0).
    # -2 q = (-h/2) Mx^T is exactly -2 times (h/4) Mx^T where neither
    # underflows, so X_k is drawn zero or of norm at least 1e-12
    spec, Mx = _corner_case(np.random.default_rng(seed), n, M, T, m, d, size)
    Einv = dual_action._GramPoint(spec, SimpleNamespace(Mx=Mx, K=None, rho=np.zeros(M))).Einv
    got = _transfer_matrices(spec, Mx, Einv)
    want = transfer_matrices_by_blocks(spec, Mx, Einv)
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 70),
       st.floats(0.6, 3.0), st.floats(0.0, 150.0))
@example(seed=0, n=2, M=1, size=1.0, spread=0.0)  # one factor, no level
@example(seed=1, n=3, M=70, size=2.0, spread=150.0)
@example(seed=2, n=1, M=64, size=0.6, spread=150.0)  # no odd level
@example(seed=3, n=4, M=63, size=3.0, spread=0.0)  # an odd factor at every level
def test_transfer_product_matches_the_pairwise_reference(seed, n, M, size, spread):
    # R from E with rho = size > 1/2 (E^-1 from inv), each R_k scaled to a
    # largest entry 10^u, u uniform in [-spread, spread] (1e-150 to 1e150):
    # the in-place product scaled by powers of two against the pairwise one
    # of tests/oracles.py, which divides each partial product by its largest
    # entry.  Each is within (levels + 1)(2n + 1) eps |R_0| ... |R_{M-1}| of
    # the exact product (Higham, Accuracy and Stability, 3.5; the pairwise
    # division adds one rounding a level), here M (2n + 1) eps times the
    # largest entry of the pairwise product of the |R_k|, compared in that
    # product's log scale.  Each log adds its own round-off: eps |s| for
    # each exponential, and the reference's sum of one log a partial
    # product, eps times at most twice sum_k |log max|R_k|| plus 2M log(4n)
    # (each partial product of factors scaled to largest entry 1 has one
    # at most 2n); and by Bauer-Fike every multiplier of P lies within
    # cond(V) ||Pi - Pi_ref||_F (plus the eigenvalues' own round-off) of
    # one of the reference's, V the reference's eigenvectors.  P's largest
    # entry is in [1, 2)
    rng = np.random.default_rng(seed)
    spec, Mx = _corner_case(rng, n, M, 2.0 * np.pi, 1.0, 0.4, size, exact=True)
    try:
        Einv = np.linalg.inv(_schur_complements(spec, Mx))
    except np.linalg.LinAlgError:  # X_k = -I exactly
        assume(False)
    R = _transfer_matrices(spec, Mx, Einv)
    R *= (10.0 ** rng.uniform(-spread, spread, size=M)
          / np.max(np.abs(R), axis=(1, 2)))[:, None, None]
    factors = R.copy()
    want, s_want = pairwise_transfer_product(R.copy())
    bound, s_bound = pairwise_transfer_product(np.abs(R))
    P, s = dual_action._transfer_product(R)
    assert 1.0 <= np.max(np.abs(P)) < 2.0 and np.isfinite(s)
    b = 2 * n
    got, ref = P * np.exp(s - s_bound), want * np.exp(s_want - s_bound)
    logs = (abs(s) + abs(s_want) + 2.0 * abs(s_bound) + 2.0 + 2.0 * M * np.log(2.0 * b)
            + 2.0 * np.sum(np.abs(np.log(np.max(np.abs(factors), axis=(1, 2))))))
    assert np.max(np.abs(got - ref)) <= (M * (b + 1) + logs) * _EPS * np.max(bound)
    B = P * np.exp(s - s_want)  # in the reference's scale, whose P has largest entry 1
    mu_ref, V = np.linalg.eig(want)
    radius = np.linalg.cond(V) * (np.linalg.norm(B - want)
                                  + 16 * b * _EPS * (np.linalg.norm(want) + np.linalg.norm(B)))
    gaps = np.min(np.abs(np.linalg.eigvals(B)[:, None] - mu_ref[None, :]), axis=1)
    assert np.all(gaps <= radius)


def test_a_decaying_inverse_at_n128_is_flushed_within_its_bound():
    # n = 128 with a tridiagonal stiffness, each element's scaled by a draw
    # in [0.9, 1.1], on the grid of the periodic FPUT run at M = 200 (h =
    # 2 pi / 200) but M = 5 elements: E^-1 decays off its diagonal by about
    # 2.5e-4 a step, so inv's far entries are subnormal, and so are those
    # of the R built from them.  The record's E^-1 flushes what lies below
    # tau = eps / (n c): within inv's by eps / c, the flush's own bound, plus
    # the back substitution's (4 n eps cond(E) ||E^-1||_F, as
    # `test_schur_lu_and_its_inverses_match_inv_under_their_bound` allows),
    # every entry it zeroed within that of |entry| < tau, and no subnormal
    # left in E^-1, in R or in the first level's products
    n, M, m, d = 128, 5, 1.0, 0.4
    A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    params = ChainParams(m=m, d=d, force=QuadraticForce(n=n, A=A), forcing=ForcingSpec.zero(n))
    grid = TimeGrid(T=2.0 * np.pi * M / 200, M=M)
    spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0), base=zero_base(grid, n),
                       grid=grid, x0=np.zeros(n), v0=np.zeros(n))
    Mx = A * np.random.default_rng(128).uniform(0.9, 1.1, size=M)[:, None, None]
    point = dual_action._GramPoint(spec, SimpleNamespace(Mx=Mx, K=None, rho=np.zeros(M)))
    assert point.rho <= 0.5
    E = _schur_complements(spec, Mx)
    want = np.linalg.inv(E)
    tiny = np.finfo(float).tiny

    def subnormal(a):
        return np.any((a != 0.0) & (np.abs(a) < tiny))

    assert subnormal(want) and subnormal(_transfer_matrices(spec, Mx, want))
    Einv = point.Einv
    c = 0.5 * d + m / grid.h
    tau = _EPS / (n * c)
    sub = 4 * n * _EPS * np.linalg.cond(E) * np.linalg.norm(want, axis=(1, 2))
    assert np.all(np.linalg.norm(Einv - want, axis=(1, 2)) <= _EPS / c + sub)
    flushed = (Einv == 0.0) & (want != 0.0)
    assert np.any(flushed)
    assert np.all(np.abs(want) <= tau + sub[:, None, None], where=flushed)
    assert np.all(np.abs(Einv) >= tau, where=Einv != 0.0)
    R = _transfer_matrices(spec, Mx, Einv)
    assert not subnormal(Einv) and not subnormal(R)
    assert not subnormal(R[0:M - 1:2] @ R[1:M:2])


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 64),
       st.floats(0.1, 10.0), st.floats(0.0, 2.0), st.booleans(),
       st.sampled_from([0.0, 0.05, 0.3, 1.0]))
@example(seed=0, n=4, M=64, m=1.0, d=0.4, with_B=True, scale=0.05)
def test_a_cyclic_record_read_for_its_nullity_first_gives_the_fresh_direction(
        seed, n, M, m, d, with_B, scale):
    # a cyclic solve's first iterate reads its record's nullity, for the
    # singularity test, before the direction reads the record: that gives
    # the bytes of the direction from a fresh record, refused or not, and
    # the nullity read first is the one the fresh record reads after
    spec, D = _hessian_case(seed, n, M, with_B, True, scale)
    spec = dataclasses.replace(spec, params=dataclasses.replace(spec.params, m=m, d=d))
    try:
        g = gradient(D, spec)
    except SingularStiffnessError:
        assume(False)
    point = dual_action._gram_point(spec, D)
    assume(point is not None)
    nullity = point.nullity
    shared = dual_action._gram_direction(spec, point, g, _direction_band(spec))
    fresh_point = dual_action._gram_point(spec, D)
    fresh = dual_action._gram_direction(spec, fresh_point, g, _direction_band(spec))
    assert fresh_point.nullity == nullity
    assert (shared is None) == (fresh is None)
    if fresh is not None:
        assert shared.tobytes() == fresh.tobytes()


def _factor_case(seed, n, M, T, reach, density, d, periodic):
    """A unit-mass spec with n particles on M elements, open or periodic,
    whose A and B·x are zero more than round(reach (n - 1)) off the
    diagonal and random within, each entry kept with probability
    ``density``, and a small random field on it."""
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    near = np.abs(i - j) <= round(reach * (n - 1))
    A = rng.normal(size=(n, n)) * near * (rng.uniform(size=(n, n)) < density)
    B = (0.5 * rng.normal(size=(n, n, n)) * near[:, :, None] * near[:, None, :]
         * (rng.uniform(size=(n, n, n)) < density))
    grid = TimeGrid(T=T, M=M)
    t = (2.0 * np.pi / T) * grid.nodes()[:, None]  # one period: the base closes
    base = BaseState(grid, 0.3 * np.sin(t + rng.normal(size=n)),
                     0.3 * np.cos(t + rng.normal(size=n)))
    params = ChainParams(m=1.0, d=d, force=QuadraticForce(n=n, A=A + A.T, B=B),
                         forcing=ForcingSpec.zero(n))
    ends = {} if periodic else {"x0": rng.normal(size=n), "v0": rng.normal(size=n)}
    spec = ProblemSpec(params, ScaleParams(*rng.uniform(0.5, 2.0, 2)), base, grid, **ends)
    return spec, unpack_free(grid, n, 0.05 * rng.normal(size=2 * n * M), periodic=periodic)


def _with_rho(spec, D, rho):
    """``spec`` with the mass m and damping d, in the ratio d/m it has, that
    put rho = max ||(h/4c) Mx_k^T||_F, c = d/2 + m/h, at ``rho`` for the
    field D (Mx depends on neither m nor d); as it is where Mx is zero."""
    h, params = spec.grid.h, spec.params
    mu = float(np.max(np.linalg.norm(_core_state(spec, D).Mx, axis=(1, 2))))
    if mu == 0.0:
        return spec
    m = h * mu / (4.0 * rho * (0.5 * params.d / params.m + 1.0 / h))
    return dataclasses.replace(spec, params=dataclasses.replace(
        params, m=m, d=m * params.d / params.m))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 20), st.floats(0.5, 4.0),
       st.floats(0.0, 1.0), st.floats(0.2, 1.0), st.floats(0.0, 2.0), st.booleans(),
       st.one_of(st.floats(1e-6, 0.5), st.floats(0.5, 2.0, exclude_min=True)))
@example(seed=0, n=1, M=5, T=1.0, reach=0.0, density=1.0, d=0.5, periodic=False,
         rho=0.3)  # w = 0
@example(seed=1, n=3, M=1, T=1.0, reach=1.0, density=1.0, d=0.5, periodic=False,
         rho=0.3)  # M = 1
@example(seed=2, n=5, M=8, T=2.0, reach=1.0, density=1.0, d=1.0, periodic=True,
         rho=0.1)  # dense A and B·x
@example(seed=3, n=8, M=64, T=3.0, reach=1.0 / 7.0, density=1.0, d=0.0, periodic=False,
         rho=1e-3)  # the open workloads' smallest chain: n = 8, w = 1
@example(seed=4, n=4, M=12, T=1.0, reach=0.4, density=1.0, d=0.5, periodic=False,
         rho=0.5 - 1e-9)  # rho just under 1/2: the no-pivot LU
@example(seed=5, n=4, M=12, T=1.0, reach=0.4, density=1.0, d=0.5, periodic=False,
         rho=1.5)  # beyond 1/2: F = E^-1
def test_band_lu_factor_reproduces_the_gram_factor_and_its_newton_direction(
        seed, n, M, T, reach, density, d, periodic, rho):
    # Mx of every half-bandwidth w from 0 to n - 1, banded or dense, and the
    # mass, at the damping rate d/m drawn as d, that puts rho = max
    # ||X_k||_F at the drawn value, within 1/2 (the no-pivot LU, F E = U
    # with F unit lower triangular and U upper, within w of the diagonal)
    # or beyond (F = E^-1, U = I).  The band, open or periodic, has kd =
    # 3n + w and holds T: G A = sqrt(h) T block by block, with nothing of G
    # A outside T's band, to 64 n eps times its largest entry (times max
    # cond(E_k) where F = E^-1); a periodic direction's corner V, element
    # M-1's block on node 0, is its G A / sqrt(h) to the same bound.  The
    # direction, on a band another spec's direction (another h, the other
    # side of 1/2) wrote first, is the fresh band's, and the Hessian band's
    # H^-1 (-g) to 1e-9 relative where H is well conditioned
    assume(M >= 2 or not periodic)
    spec, D = _factor_case(seed, n, M, T, reach, density, d, periodic)
    spec = _with_rho(spec, D, rho)
    force, h = spec.params.force, spec.grid.h
    i, j = np.nonzero(force.A)
    jb, ib, _ = np.nonzero(force.B)
    w = max(np.max(np.abs(i - j), initial=0), np.max(np.abs(jb - ib), initial=0))
    try:
        g = gradient(D, spec)
    except SingularStiffnessError:
        assume(False)
    point = dual_action._gram_point(spec, D)
    assume(point is not None)
    Mx = point.Mx
    assert abs(point.rho - rho) <= 1e-12 * rho or not np.any(Mx)
    lu = point.rho <= 0.5
    ab = dual_action._direction_band(spec)
    kd = 3 * n + w
    assert ab.shape == (kd + 1, 2 * n * M) and not np.any(ab)
    grid = TimeGrid(T=1.5 * T, M=M)
    other = dataclasses.replace(spec, grid=grid, base=BaseState(grid, spec.base.xbar,
                                                                spec.base.vbar))
    D_other = DualField(grid, D.gamma, D.lam)
    other = _with_rho(other, D_other, 1.5 if lu else 0.25)
    dual_action._gram_direction(other, dual_action._gram_point(other, D_other),
                                gradient(D_other, other), ab)
    corners, block = [], np.block
    with pytest.MonkeyPatch.context() as patch:  # the corner V, the one block np.block makes
        patch.setattr(np, "block", lambda *args: corners.append(block(*args)) or corners[-1])
        direction = dual_action._gram_direction(spec, point, g, ab)
    assert ("Einv" in vars(point)) == periodic or direction is None  # E^-1 for R only
    fresh = dual_action._gram_direction(spec, dual_action._gram_point(spec, D), g,
                                        _direction_band(spec))
    assert (direction is None) == (fresh is None)
    if direction is None:  # refused: a singular A, or a cyclic capacitance
        assert not point.definite or point.nullity or periodic
        return
    assert direction.tobytes() == fresh.tobytes()

    assert len(corners) == periodic
    A_a, A_b = gram_blocks(spec, Mx)
    E = _schur_complements(spec, Mx)
    if lu:
        F, U = dual_action._schur_lu(spec, Mx, w)
        r, c = np.indices((n, n))
        U = np.where((c >= r) & (c - r <= w), U, 0.0)  # the U the band reads
        assert np.all(np.diagonal(F, 0, 1, 2) == 1.0) and not np.any(np.triu(F, 1))
        assert np.all(np.abs(F @ E - U) <= 16 * n * _EPS * (np.abs(F) @ np.abs(E)))
        cond = 1.0
    else:
        F = point.lu[0]
        cond = float(np.max(np.linalg.cond(E)))
    G = np.zeros((M, 2 * n, 2 * n))
    G[:, :n, :n] = np.eye(n)
    G[:, n:, :n] = 0.5 * h * F
    G[:, n:, n:] = F
    diag, sup = G @ A_a / np.sqrt(h), G @ A_b / np.sqrt(h)
    want, outside = upper_band_by_positions(diag, sup[:-1], kd)
    tol = 64 * n * _EPS * cond * max(np.max(np.abs(diag)), np.max(np.abs(sup)))
    assert outside <= tol and np.max(np.abs(ab - want)) <= tol
    if periodic:
        assert np.max(np.abs(corners[0] - sup[-1])) <= tol
    _assert_newton_direction(spec, D, g, direction)


def _assert_newton_direction(spec, D, g, direction):
    """``direction`` is the Hessian band's H^-1 (-g) to 1e-9 relative,
    where H is negative definite with condition number at most 1e6."""
    H = hessian(D, spec)
    fac = H.neg_cholesky()
    mu = np.abs(np.linalg.eigvalsh(H.to_dense()))
    assume(fac is not None and np.max(mu) <= 1e6 * np.min(mu))
    want = H.solve(-g, fac)
    assert np.max(np.abs(direction - want)) <= 1e-9 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# base states


def test_zero_and_constant_base():
    grid = TimeGrid(T=1.0, M=4)
    zb = zero_base(grid, 2)
    np.testing.assert_array_equal(zb.xbar, np.zeros((5, 2)))
    np.testing.assert_array_equal(zb.xbar_mid, np.zeros((4, 2)))
    cb = constant_base(grid, [1.0, -2.0], [0.5, 0.0])
    np.testing.assert_array_equal(cb.xbar, np.tile([1.0, -2.0], (5, 1)))
    np.testing.assert_array_equal(cb.vbar_mid, np.tile([0.5, 0.0], (4, 1)))


def test_base_from_primal_midpoints_are_fine_samples():
    force = QuadraticForce(n=1, A=[[1.0]])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(1))
    grid = TimeGrid(T=2 * np.pi, M=50)
    base = base_from_primal(params, [1.0], [0.0], grid, refine=10)
    # midpoint samples are much closer to the solution than nodal averages
    mid_exact = np.cos(grid.midpoints())
    averaged = 0.5 * (base.xbar[:-1] + base.xbar[1:])
    assert np.max(np.abs(base.xbar_mid[:, 0] - mid_exact)) < 1e-8
    assert np.max(np.abs(averaged[:, 0] - mid_exact)) > 1e-4


def test_base_from_primal_odd_refine():
    force = QuadraticForce(n=1, A=[[1.0]])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(1))
    grid = TimeGrid(T=1.0, M=8)
    base = base_from_primal(params, [1.0], [0.0], grid, refine=5)
    assert base.xbar_mid.shape == (8, 1)
    assert np.max(np.abs(base.xbar_mid[:, 0] - np.cos(grid.midpoints()))) < 1e-3


def test_table_base_interpolates_midpoints():
    grid = TimeGrid(T=1.0, M=3)
    x = np.arange(8.0).reshape(4, 2)
    v = -x
    base = BaseState(grid, x, v)
    np.testing.assert_array_equal(base.xbar_mid, 0.5 * (x[:-1] + x[1:]))


def test_perturb_base_bounded_and_reproducible():
    grid = TimeGrid(T=2.0, M=64)
    base = constant_base(grid, [0.3], [0.0])
    p1 = perturb_base(base, 0.05, seed=7)
    p2 = perturb_base(base, 0.05, seed=7)
    np.testing.assert_array_equal(p1.xbar, p2.xbar)
    np.testing.assert_array_equal(p1.xbar_mid, p2.xbar_mid)
    assert np.max(np.abs(p1.xbar - base.xbar)) <= 0.05 + 1e-15
    assert np.max(np.abs(p1.vbar - base.vbar)) <= 0.05 + 1e-15
    assert np.max(np.abs(p1.xbar - base.xbar)) > 0.0
    p3 = perturb_base(base, 0.05, seed=8)
    assert np.max(np.abs(p3.xbar - p1.xbar)) > 0.0


def test_perturb_base_midpoints_follow_same_series():
    # node and midpoint samples of the same smooth series: second differences
    # along interleaved samples stay O((T/M)^2), so the perturbation is smooth
    grid = TimeGrid(T=1.0, M=256)
    base = zero_base(grid, 1)
    p = perturb_base(base, 0.05, seed=3)
    interleaved = np.empty(2 * grid.M + 1)
    interleaved[0::2] = p.xbar[:, 0]
    interleaved[1::2] = p.xbar_mid[:, 0]
    second_diff = np.abs(np.diff(interleaved, n=2))
    assert np.max(second_diff) < 0.05 * (np.pi * 3 / (2 * grid.M)) ** 2 * 1.1


@pytest.mark.parametrize("n, M, seed, digest", [
    (1, 64, 7, "2f38b564324bc1056ab60d48cd88d3e09d754499e18e5bf2741cc9e03cf428fb"),
    (3, 50, 2026, "24b7131181b3cc0f384b7fd5c44746906511af21b2b2006b176c3e022e49deea"),
])
def test_perturb_base_bytes_are_pinned(n, M, seed, digest):
    # the seeded weights and phases are drawn, normalized and summed in one
    # fixed order: a perturbed-primal run's base, and so its report, keeps
    # its bytes from one release to the next
    p = perturb_base(zero_base(TimeGrid(T=2.0, M=M), n), 0.05, seed=seed)
    data = b"".join(a.tobytes() for a in (p.xbar, p.vbar, p.xbar_mid, p.vbar_mid))
    assert hashlib.sha256(data).hexdigest() == digest


def test_determinism_of_assembly():
    rng = np.random.default_rng(22)
    spec = _random_spec(rng, n=3, M=9)
    D = _small_dual(rng, spec)
    assert action(D, spec) == action(D, spec)
    np.testing.assert_array_equal(gradient(D, spec), gradient(D, spec))
    H1, H2 = hessian(D, spec), hessian(D, spec)
    np.testing.assert_array_equal(H1.band, H2.band)


_NODE_GRID = TimeGrid(T=1.0, M=4)


def _initial_state(x0, v0):
    params = ChainParams(m=1.0, d=0.0, force=QuadraticForce(n=2, A=np.eye(2)),
                         forcing=ForcingSpec.zero(2))
    return ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0),
                       base=zero_base(_NODE_GRID, 2), grid=_NODE_GRID, x0=x0, v0=v0)


def _node_problem(base=None, forcing=None, periodic=False, B=None):
    """A two-particle problem on the node grid, initial-value from rest or
    periodic, with ``base`` (zero by default) and ``forcing`` (none)."""
    params = ChainParams(m=1.0, d=0.0, force=QuadraticForce(n=2, A=np.eye(2), B=B),
                         forcing=forcing or ForcingSpec.zero(2))
    rest = None if periodic else np.zeros(2)
    return ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0),
                       base=base or zero_base(_NODE_GRID, 2), grid=_NODE_GRID, x0=rest, v0=rest)


# every pair of node arrays the package takes from its caller: how to build
# the holder from the pair, the pair's field names and the shape each needs
_NODE_ARRAYS = {
    "trajectory": (lambda a, b: Trajectory(_NODE_GRID, a, b), ("x", "v"), (5, 2)),
    "dual field": (lambda a, b: DualField(_NODE_GRID, a, b), ("gamma", "lam"), (5, 2)),
    "base nodes": (lambda a, b: BaseState(_NODE_GRID, a, b), ("xbar", "vbar"), (5, 2)),
    "base midpoints": (lambda a, b: BaseState(_NODE_GRID, np.zeros((5, 2)), np.zeros((5, 2)),
                                              a, b),
                       ("xbar_mid", "vbar_mid"), (4, 2)),
    "initial state": (_initial_state, ("x0", "v0"), (2,)),
}


def _spoilt_pair(kind, defect):
    """A call building the node-array holder ``kind`` from a pair with
    ``defect``, and the field its error must name."""
    make, (first, second), shape = _NODE_ARRAYS[kind]
    a, b = np.ones(shape), np.ones(shape)
    culprit = first
    if defect == "rows":  # one node too many
        a = b = np.ones((shape[0] + 1,) + shape[1:])
    elif defect == "pair":  # the second array has one column more
        b = np.ones(shape[:-1] + (shape[-1] + 1,))
        culprit = second
    elif defect == "rank":  # a vector where a table belongs, or the reverse
        a = b = np.ones(shape[:1]) if len(shape) == 2 else np.ones((1,) + shape)
    elif defect == "nan":
        a.flat[-1] = np.nan
    else:
        b.flat[0] = np.inf
        culprit = second
    return lambda: make(a, b), culprit


_TIMES = np.linspace(0.0, 1.0, 3)

# every input the package takes from its caller, spoilt one way: the call
# that builds its holder, and the field the error must name; the node-array
# pairs first, then the chain's data
_SPOILT = {(kind, defect): _spoilt_pair(kind, defect)
           for kind in sorted(_NODE_ARRAYS) for defect in ("rows", "pair", "rank", "nan", "inf")}
_SPOILT.update({
    ("force C", "rows"): (lambda: QuadraticForce(n=2, C=np.ones(3)), "C"),
    ("force A", "rank"): (lambda: QuadraticForce(n=2, A=np.ones(2)), "A"),
    ("force B", "nan"): (lambda: QuadraticForce(n=1, B=np.full((1, 1, 1), np.nan)), "B"),
    ("force A", "inf"): (lambda: QuadraticForce(n=1, A=[[np.inf]]), "A"),
    ("signal", "pair"): (lambda: SampledSignal(_TIMES, np.ones(4)), "values"),
    ("signal", "rank"): (lambda: SampledSignal(np.ones((3, 1)), np.ones((3, 1))), "times"),
    ("signal", "nan"): (lambda: SampledSignal(_TIMES, [0.0, np.nan, 0.0]), "values"),
    ("signal", "inf"): (lambda: SampledSignal([0.0, 0.5, np.inf], np.zeros(3)), "times"),
    ("sinusoid amplitude", "nan"): (lambda: Sinusoid(np.nan, 1.0), "amplitude"),
    ("sinusoid omega", "inf"): (lambda: Sinusoid(1.0, np.inf), "omega"),
    ("sinusoid phase", "inf"): (lambda: Sinusoid(1.0, 1.0, -np.inf), "phase"),
    ("forcing", "nan"): (lambda: ForcingSpec(n=1, sinusoids=[(0, (1.0, np.nan))]), "omega"),
    ("forcing", "index"): (lambda: ForcingSpec(n=2, sinusoids=[(0.5, Sinusoid(1.0, 1.0))]),
                           "sinusoids"),
    ("forcing", "range"): (lambda: ForcingSpec(n=2, tables=[(2, (_TIMES, np.zeros(3)))]),
                           "tables"),
    ("perturbation amplitude", "nan"): (
        lambda: perturb_base(zero_base(_NODE_GRID, 2), np.nan, seed=0), "amplitude"),
    ("perturbation amplitude", "inf"): (
        lambda: perturb_base(zero_base(_NODE_GRID, 2), np.inf, seed=0), "amplitude"),
    ("perturbation amplitude", "sign"): (
        lambda: perturb_base(zero_base(_NODE_GRID, 2), -1.0, seed=0), "amplitude"),
    ("signal", "short"): (lambda: SampledSignal([0.0], [1.0]), "times"),
    ("periodic table", "span"): (
        lambda: _node_problem(periodic=True, forcing=ForcingSpec(
            n=2, tables=[(0, (np.linspace(0.0, 2.0, 5), np.zeros(5)))])),
        "table on particle 1"),
    ("problem base", "grid"): (lambda: _node_problem(base=zero_base(TimeGrid(T=1.0, M=8), 2)),
                               "base state"),
    ("free vector", "rows"): (lambda: unpack_free(_NODE_GRID, 2, np.ones(15)), "u"),
    ("dtp_map inputs", "pair"): (
        lambda: dtp_map(*[np.ones(2)] * 5, np.ones((3, 2)), _node_problem()), "all dtp_map inputs"),
    ("grid refinement", "zero"): (lambda: _NODE_GRID.refined(0), "refinement factor"),
    ("trajectory restriction", "divisor"): (
        lambda: Trajectory(_NODE_GRID, np.zeros((5, 2)), np.zeros((5, 2))).restrict(3), "factor"),
})


@pytest.mark.parametrize("kind, defect", list(_SPOILT))
def test_node_arrays_reject_bad_shapes_and_non_finite_entries(kind, defect):
    make, culprit = _SPOILT[kind, defect]
    with pytest.raises(ValueError, match=f"^{culprit} must"):
        make()


_THREE_AT_REST = Trajectory(_NODE_GRID, np.zeros((5, 3)), np.zeros((5, 3)))
_NOT_FULLY_SYMMETRIC = np.zeros((2, 2, 2))
_NOT_FULLY_SYMMETRIC[0, 1, 1] = 1.0  # B[1, 0, 1] and B[1, 1, 0] stay 0

# inputs that are well formed alone but do not fit what they meet: the call,
# the error and its whole message, which names both sides
_MISMATCHED = {
    "base midpoints": (lambda: BaseState(_NODE_GRID, np.zeros((5, 2)), np.zeros((5, 2)),
                                         np.zeros((4, 2))),
                       ValueError, "give both midpoint arrays or neither"),
    "problem base n": (lambda: _node_problem(base=zero_base(_NODE_GRID, 3)),
                       ValueError, "base state is for n=3 particles, params for n=2"),
    "dual field n": (lambda: action(DualField.zeros(_NODE_GRID, 3), _node_problem()),
                     ValueError, "dual field is for n=3, problem for n=2"),
    "ellipticity field n": (
        lambda: ellipticity_check(DualField.zeros(_NODE_GRID, 3), _node_problem()),
        ValueError, "dual field is for n=3, problem for n=2"),
    "residual trajectory n": (lambda: primal_residual(_THREE_AT_REST, _node_problem().params),
                              ValueError, "trajectory has n=3, params have n=2"),
    "energy trajectory n": (lambda: energy_series(_THREE_AT_REST, _node_problem().params),
                            ValueError, "trajectory has n=3, params have n=2"),
    "energy of a non-gradient B": (
        lambda: energy_series(Trajectory(_NODE_GRID, np.zeros((5, 2)), np.zeros((5, 2))),
                              _node_problem(B=_NOT_FULLY_SYMMETRIC).params),
        NonGradientForceError, "not a gradient force: B is not fully symmetric"),
}


@pytest.mark.parametrize("case", list(_MISMATCHED))
def test_mismatched_inputs_name_what_does_not_fit(case):
    make, error, message = _MISMATCHED[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("kind", sorted(_NODE_ARRAYS))
def test_node_arrays_are_read_only_copies(kind):
    make, names, shape = _NODE_ARRAYS[kind]
    given = [np.arange(np.prod(shape), dtype=float).reshape(shape) + i for i in (0.5, 1.5)]
    held = make(*given)
    for name, arr in zip(names, given):
        kept, before = getattr(held, name), arr.copy()
        arr[...] = -7.0
        np.testing.assert_array_equal(kept, before)
        assert kept.dtype == float and not kept.flags.writeable
