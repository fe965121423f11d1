"""Force model, forcing signals, and weighted stiffness."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualchain import (
    ChainParams,
    ForcingSpec,
    QuadraticForce,
    SampledSignal,
    Sinusoid,
    SolveOptions,
    TimeGrid,
    eval_force,
    eval_forcing,
    force_jacobian,
    fput_alpha,
    stiffness_lambda,
)
from oracles import bond_potential, einsum_force, einsum_jacobian, einsum_stiffness, fd_gradient


def test_eval_force_pure_linear():
    force = QuadraticForce(n=1, A=[[1.0]])
    assert eval_force(force, [2.0]) == pytest.approx([2.0], abs=0)
    # the same spring with B = 2: K(0.9) = 0.9 + 0.81 = 1.71
    B = np.zeros((1, 1, 1))
    B[0, 0, 0] = 2.0
    stiffening = QuadraticForce(n=1, A=[[1.0]], B=B)
    assert eval_force(stiffening, [0.9]) == pytest.approx([1.71], rel=1e-14)


def test_eval_force_constant():
    force = QuadraticForce(n=1, C=[3.0])
    for x in ([0.0], [17.0], [-4.2]):
        assert eval_force(force, x) == pytest.approx([3.0], abs=0)


def test_eval_force_dimension_mismatch():
    force = QuadraticForce(n=2, A=np.eye(2))
    with pytest.raises(ValueError):
        eval_force(force, [1.0, 2.0, 3.0])


def test_eval_force_batched_axes():
    rng = np.random.default_rng(0)
    force = QuadraticForce(n=3, C=rng.normal(size=3), A=rng.normal(size=(3, 3)),
                           B=rng.normal(size=(3, 3, 3)))
    xs = rng.normal(size=(5, 4, 3))
    batched = eval_force(force, xs)
    assert batched.shape == (5, 4, 3)
    for i in range(5):
        for j in range(4):
            np.testing.assert_allclose(batched[i, j], eval_force(force, xs[i, j]),
                                       rtol=1e-14, atol=1e-15)


def test_b_stored_symmetric_in_last_two_indices():
    B = np.zeros((2, 2, 2))
    B[0, 0, 1] = 3.0  # deliberately asymmetric input
    force = QuadraticForce(n=2, B=B)
    np.testing.assert_array_equal(force.B, np.swapaxes(force.B, 1, 2))
    # symmetrization never changes the polynomial itself
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=2)
        direct = 0.5 * np.einsum("jrs,r,s->j", B, x, x)
        np.testing.assert_allclose(eval_force(force, x), direct, rtol=0, atol=1e-15)


def test_fput_alpha_three_particle_value_vs_potential_gradient():
    force = fput_alpha(3, 0.25, boundary="fixed")
    x = np.array([0.1, 0.0, -0.1])
    oracle = fd_gradient(bond_potential(3, 0.25, "fixed"), x, step=1e-6)
    np.testing.assert_allclose(eval_force(force, x), oracle, atol=1e-8)


def test_fput_alpha_harmonic_limit_n2():
    force = fput_alpha(2, 0.0, boundary="fixed")
    np.testing.assert_array_equal(force.A, [[2.0, -1.0], [-1.0, 2.0]])
    np.testing.assert_array_equal(force.C, np.zeros(2))
    np.testing.assert_array_equal(force.B, np.zeros((2, 2, 2)))


def test_fput_alpha_n2_force_matches_potential_fd():
    force = fput_alpha(2, 0.25, boundary="fixed")
    x = np.array([0.1, -0.1])
    oracle = fd_gradient(bond_potential(2, 0.25, "fixed"), x, step=1e-6)
    np.testing.assert_allclose(eval_force(force, x), oracle, atol=1e-8)


def test_fput_alpha_equilibrium_at_origin():
    for alpha in (0.0, 0.25, -1.3):
        for boundary in ("fixed", "free"):
            force = fput_alpha(4, alpha, boundary=boundary)
            np.testing.assert_array_equal(eval_force(force, np.zeros(4)), np.zeros(4))


def test_fput_alpha_gradient_property_random():
    rng = np.random.default_rng(42)
    for n in (2, 5, 8):
        for alpha in (0.1, 0.7):
            for boundary in ("fixed", "free"):
                force = fput_alpha(n, alpha, boundary=boundary)
                V = bond_potential(n, alpha, boundary)
                for _ in range(5):
                    x = rng.uniform(-1.0, 1.0, size=n)
                    np.testing.assert_allclose(
                        eval_force(force, x), fd_gradient(V, x), atol=1e-6)


def test_fput_alpha_free_chain_total_force_zero():
    rng = np.random.default_rng(3)
    force = fput_alpha(5, 0.4, boundary="free")
    for _ in range(5):
        x = rng.normal(size=5)
        assert abs(np.sum(eval_force(force, x))) < 1e-12


def test_fput_alpha_rejects_bad_input():
    with pytest.raises(ValueError):
        fput_alpha(0, 0.1)
    for boundary in ("clamped", "fixed-ends"):
        with pytest.raises(ValueError, match="boundary must be"):
            fput_alpha(3, 0.1, boundary=boundary)


def test_force_jacobian_at_origin_is_linear_coefficient():
    rng = np.random.default_rng(4)
    force = QuadraticForce(n=3, C=rng.normal(size=3), A=rng.normal(size=(3, 3)),
                           B=rng.normal(size=(3, 3, 3)))
    np.testing.assert_array_equal(force_jacobian(force, np.zeros(3)), force.A)


def test_force_jacobian_linear_case():
    rng = np.random.default_rng(5)
    force = QuadraticForce(n=3, C=rng.normal(size=3), A=rng.normal(size=(3, 3)))
    np.testing.assert_array_equal(force_jacobian(force, rng.normal(size=3)), force.A)


def test_force_jacobian_exact_expansion_random():
    # the force is quadratic, so K(x) = K(xbar) + J(xbar) dx + 1/2 B : dx dx
    # holds exactly about any base point, batch axes included
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        force = QuadraticForce(n=n, C=rng.normal(size=n), A=rng.normal(size=(n, n)),
                               B=rng.normal(size=(n, n, n)))
        xbar = rng.normal(size=(2, n))
        dx = rng.normal(size=(2, n))
        J = force_jacobian(force, xbar)
        assert J.shape == (2, n, n)
        expanded = (eval_force(force, xbar) + np.einsum("mjr,mr->mj", J, dx)
                    + 0.5 * np.einsum("jrs,mr,ms->mj", force.B, dx, dx))
        ref = eval_force(force, xbar + dx)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(expanded - ref)) < 1e-12 * scale


@st.composite
def _forces_and_states(draw):
    n = draw(st.integers(1, 6))
    entries = st.floats(-10.0, 10.0)
    B = draw(st.none() | hnp.arrays(float, (n, n, n), elements=entries))
    force = QuadraticForce(n=n, C=draw(hnp.arrays(float, n, elements=entries)),
                           A=draw(hnp.arrays(float, (n, n), elements=entries)), B=B)
    batch = draw(st.sampled_from(((), (7,), (3, 5))))
    return force, draw(hnp.arrays(float, batch + (n,), elements=entries))


@settings(deadline=None)
@given(_forces_and_states())
def test_eval_force_matches_einsum_contraction(case):
    force, x = case
    got = eval_force(force, x)
    assert got.shape == x.shape
    # relative to the size of the terms summed; the smallest normal float
    # covers results that underflow into the subnormal range
    size = (np.abs(force.C) + np.abs(x) @ np.abs(force.A).T
            + 0.5 * np.einsum("jrs,...r,...s->...j", np.abs(force.B), np.abs(x), np.abs(x)))
    assert np.all(np.abs(got - einsum_force(force, x)) <= 1e-14 * size + np.finfo(float).tiny)


@st.composite
def _contractions(draw):
    """(force, points, c_x): an FPUT table or a random B, with a batch of
    points at which to take the Jacobian and the weighted stiffness."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        force = fput_alpha(n, draw(st.floats(-2.0, 2.0)), draw(st.sampled_from(("fixed", "free"))))
    else:
        force = QuadraticForce(n=n, B=draw(hnp.arrays(float, (n, n, n),
                                                      elements=st.floats(-10.0, 10.0))))
    batch = draw(st.sampled_from(((), (7,), (3, 5))))
    points = draw(hnp.arrays(float, batch + (n,), elements=st.floats(-10.0, 10.0)))
    return force, points, draw(st.floats(0.1, 10.0))


@settings(deadline=None)
@given(_contractions())
@example(case=(fput_alpha(2, 1.2429337899), np.array([7.0, 7.0]), 1.0))
def test_jacobian_and_stiffness_match_the_einsum_contractions(case):
    # one matmul on the flattened B against np.einsum, to the rounding of an
    # n-term sum of the terms' size: BLAS may fuse a multiply and an add, so
    # where the terms cancel exactly, as the bond terms of an FPUT table do
    # at equal displacements (the explicit example), the two can differ by
    # the rounding error of one product; the smallest normal float covers
    # terms in the subnormal range
    force, x, c_x = case
    got = (force_jacobian(force, x), stiffness_lambda(force.B, x, c_x))
    want = (einsum_jacobian(force, x), einsum_stiffness(force.B, x, c_x))
    size = (np.abs(force.A) + np.einsum("jrs,...s->...jr", np.abs(force.B), np.abs(x)),
            np.einsum("...j,jir->...ir", np.abs(x), np.abs(force.B)) / c_x + 1.0)
    for g, w, s in zip(got, want, size):
        assert g.shape == w.shape
        assert np.all(np.abs(g - w) <= 2 * force.n * np.finfo(float).eps * s
                      + np.finfo(float).tiny)


def test_quadratic_force_is_immutable():
    force = fput_alpha(3, 0.25)
    assert force.has_quadratic
    assert not QuadraticForce(n=3, A=np.eye(3)).has_quadratic
    np.testing.assert_array_equal(force.B_flat, force.B.reshape(3, 9))
    for arr in (force.B, force.B_flat):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    for name, value in (("has_quadratic", False), ("B_flat", np.zeros((3, 9)))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(force, name, value)


def test_force_jacobian_dimension_mismatch():
    force = QuadraticForce(n=2)
    with pytest.raises(ValueError):
        force_jacobian(force, [1.0, 2.0, 3.0])


def test_eval_forcing_constant():
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(0.5, 0.0))])
    for t in (0.0, 1.7, 300.0):
        np.testing.assert_array_equal(eval_forcing(forcing, t), [0.5])


def test_eval_forcing_sinusoid():
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 2.0, 0.0))])
    assert eval_forcing(forcing, np.pi / 4)[0] == pytest.approx(0.0, abs=1e-15)
    assert eval_forcing(forcing, 0.0)[0] == pytest.approx(1.0, rel=1e-15)


def test_eval_forcing_table_interpolation():
    forcing = ForcingSpec(n=1, tables=[(0, SampledSignal([0.0, 1.0], [0.0, 2.0]))])
    assert eval_forcing(forcing, 0.25)[0] == pytest.approx(0.5, rel=1e-15)
    # exact at the sample points
    assert eval_forcing(forcing, 0.0)[0] == 0.0
    assert eval_forcing(forcing, 1.0)[0] == 2.0


def test_eval_forcing_table_domain_error():
    forcing = ForcingSpec(n=1, tables=[(0, SampledSignal([0.0, 1.0], [0.0, 2.0]))])
    with pytest.raises(ValueError):
        eval_forcing(forcing, 1.5)
    with pytest.raises(ValueError):
        eval_forcing(forcing, -0.5)


def test_eval_forcing_array_times_and_mixed_components():
    forcing = ForcingSpec(
        n=2,
        sinusoids=[(0, Sinusoid(0.1, 0.0)), (1, Sinusoid(0.5, 3.0, 0.2))],
        tables=[(0, SampledSignal(np.linspace(0.0, 2.0, 21), np.linspace(0.0, 2.0, 21) ** 2))],
    )
    ts = np.array([0.0, 0.5, 1.0])
    out = eval_forcing(forcing, ts)
    assert out.shape == (3, 2)
    for i, t in enumerate(ts):
        np.testing.assert_allclose(out[i], eval_forcing(forcing, t), rtol=1e-15)


def test_sampled_signal_requires_uniform_spacing():
    with pytest.raises(ValueError):
        SampledSignal([0.0, 0.4, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        SampledSignal([1.0, 0.0], [0.0, 0.0])


def test_forcing_index_validation():
    with pytest.raises(ValueError):
        ForcingSpec(n=2, sinusoids=[(2, Sinusoid(1.0, 1.0))])
    with pytest.raises(ValueError):
        ForcingSpec(n=2, tables=[(-1, SampledSignal([0.0, 1.0], [0.0, 0.0]))])


def test_forcing_particle_indices_are_integers():
    # a fractional index was truncated to a particle, a bool taken as 0 or 1
    signal = SampledSignal([0.0, 1.0], [0.0, 0.0])
    for j in (0.5, 1.9, True, np.float64(1.0)):
        with pytest.raises(ValueError, match=r"^sinusoids must name a particle by an integer "
                                             r"index in 0\.\.1, got "):
            ForcingSpec(n=2, sinusoids=[(j, Sinusoid(1.0, 1.0))])
        with pytest.raises(ValueError, match=r"^tables must name a particle by an integer"):
            ForcingSpec(n=2, tables=[(j, signal)])
    forcing = ForcingSpec(n=2, sinusoids=[(np.int64(1), Sinusoid(1.0, 1.0))])
    assert forcing.sinusoids[0][0] == 1 and type(forcing.sinusoids[0][0]) is int


@pytest.mark.parametrize("make", [
    lambda n: QuadraticForce(n=n),
    lambda n: ForcingSpec(n=n),
    lambda n: fput_alpha(n, 0.25),
    lambda M: TimeGrid(T=1.0, M=M),
    lambda k: SolveOptions(max_iterations=k),
], ids=["QuadraticForce.n", "ForcingSpec.n", "fput_alpha", "TimeGrid.M", "max_iterations"])
def test_counts_are_positive_integers_and_not_bools(make):
    for bad in (True, False, 0, 2.0):
        with pytest.raises(ValueError, match="must be a positive integer"):
            make(bad)
    make(np.int64(2))


def test_stiffness_lambda_identity_cases():
    B = np.zeros((2, 2, 2))
    np.testing.assert_array_equal(stiffness_lambda(B, np.zeros(2), 1.0), np.eye(2))
    np.testing.assert_array_equal(stiffness_lambda(B, np.array([3.0, -1.0]), 2.0), np.eye(2))
    Bq = np.random.default_rng(7).normal(size=(2, 2, 2))
    Bq = 0.5 * (Bq + np.swapaxes(Bq, 1, 2))
    np.testing.assert_array_equal(stiffness_lambda(Bq, np.zeros(2), 1.3), np.eye(2))


def test_stiffness_lambda_scalar_example():
    B = np.zeros((1, 1, 1))
    B[0, 0, 0] = 2.0
    out = stiffness_lambda(B, np.array([0.3]), 1.0)
    np.testing.assert_allclose(out, [[1.6]], rtol=1e-15)


def test_stiffness_lambda_symmetry_random():
    rng = np.random.default_rng(8)
    for n in (2, 4):
        B = rng.normal(size=(n, n, n))
        B = 0.5 * (B + np.swapaxes(B, 1, 2))
        lam = rng.normal(size=n)
        K = stiffness_lambda(B, lam, 0.7)
        np.testing.assert_allclose(K, K.T, rtol=0, atol=1e-15)


def test_stiffness_lambda_batched():
    rng = np.random.default_rng(9)
    B = rng.normal(size=(2, 2, 2))
    B = 0.5 * (B + np.swapaxes(B, 1, 2))
    lams = rng.normal(size=(5, 2))
    batched = stiffness_lambda(B, lams, 1.1)
    assert batched.shape == (5, 2, 2)
    for i in range(5):
        np.testing.assert_allclose(batched[i], stiffness_lambda(B, lams[i], 1.1),
                                   rtol=1e-15)


def test_stiffness_lambda_rejects_bad_weight():
    B = np.zeros((1, 1, 1))
    with pytest.raises(ValueError):
        stiffness_lambda(B, np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        stiffness_lambda(B, np.zeros(1), -1.0)


def test_chain_params_validation():
    force = QuadraticForce(n=1, A=[[1.0]])
    forcing = ForcingSpec.zero(1)
    ChainParams(m=1.0, d=0.0, force=force, forcing=forcing)
    with pytest.raises(ValueError):
        ChainParams(m=0.0, d=0.0, force=force, forcing=forcing)
    for d in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="damping d must be nonnegative and finite"):
            ChainParams(m=1.0, d=d, force=force, forcing=forcing)
    with pytest.raises(ValueError):
        ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(2))


def test_quadratic_force_shape_validation():
    with pytest.raises(ValueError):
        QuadraticForce(n=2, C=[1.0])
    with pytest.raises(ValueError):
        QuadraticForce(n=2, A=np.eye(3))
    with pytest.raises(ValueError):
        QuadraticForce(n=0)
    with pytest.raises(ValueError):
        QuadraticForce(n=1, C=[np.nan])
