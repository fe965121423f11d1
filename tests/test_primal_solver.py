"""Direct integration, residual diagnostics, and the energy series."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualchain import (
    ChainParams,
    ForcingSpec,
    IntegrationBlowUpError,
    NonGradientForceError,
    QuadraticForce,
    SampledSignal,
    Sinusoid,
    TimeGrid,
    Trajectory,
    energy_series,
    eval_force,
    fput_alpha,
    integrate_primal,
    primal_residual,
)
from oracles import (
    critically_damped_solution,
    forced_damped_solution,
    harmonic_solution,
    linear_chain_solution,
    rk4_reference,
)


def _oscillator(m=1.0, d=0.0, k=1.0, f=None, n=1):
    force = QuadraticForce(n=n, A=k * np.eye(n))
    forcing = ForcingSpec.zero(n) if f is None else f
    return ChainParams(m=m, d=d, force=force, forcing=forcing)


def test_rk4_harmonic_oscillator_full_period():
    grid = TimeGrid(T=2 * np.pi, M=2000)
    traj = integrate_primal(_oscillator(), [1.0], [0.0], grid)
    assert abs(traj.x[-1, 0] - 1.0) < 1e-6
    x_ref, v_ref = harmonic_solution(grid.nodes())
    assert np.max(np.abs(traj.x[:, 0] - x_ref)) < 1e-6
    assert np.max(np.abs(traj.v[:, 0] - v_ref)) < 1e-6


def test_rk4_critically_damped():
    grid = TimeGrid(T=5.0, M=2000)
    traj = integrate_primal(_oscillator(d=2.0), [1.0], [0.0], grid)
    x_ref, v_ref = critically_damped_solution(grid.nodes())
    assert np.max(np.abs(traj.x[:, 0] - x_ref)) < 1e-6
    assert np.max(np.abs(traj.v[:, 0] - v_ref)) < 1e-6


def test_rk4_forced_damped_exact_particular_solution():
    f = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    grid = TimeGrid(T=2 * np.pi, M=2000)
    traj = integrate_primal(_oscillator(d=1.0, f=f), [0.0], [1.0], grid)
    x_ref, v_ref = forced_damped_solution(grid.nodes())
    assert np.max(np.abs(traj.x[:, 0] - x_ref)) < 1e-6
    assert np.max(np.abs(traj.v[:, 0] - v_ref)) < 1e-6


def test_rk4_forced_damped_transient_decays_to_steady_state():
    f = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    grid = TimeGrid(T=30.0, M=6000)
    traj = integrate_primal(_oscillator(d=1.0, f=f), [0.7], [0.0], grid)
    t = grid.nodes()
    tail = t >= 25.0
    assert np.max(np.abs(traj.x[tail, 0] - np.sin(t[tail]))) < 1e-3


def test_rk4_fourth_order_on_linear_chain():
    force = fput_alpha(3, 0.0, boundary="fixed")
    params = ChainParams(m=1.0, d=0.3, force=force, forcing=ForcingSpec.zero(3))
    x0 = np.array([0.5, -0.2, 0.1])
    v0 = np.array([0.0, 0.4, -0.3])
    errs = []
    for M in (40, 80, 160):
        grid = TimeGrid(T=2.0, M=M)
        traj = integrate_primal(params, x0, v0, grid)
        x_ref, v_ref = linear_chain_solution(force.A, 1.0, 0.3, x0, v0, [2.0])
        errs.append(max(np.max(np.abs(traj.x[-1] - x_ref[0])),
                        np.max(np.abs(traj.v[-1] - v_ref[0]))))
    for e0, e1 in zip(errs, errs[1:]):
        assert 12.0 < e0 / e1 < 20.0


def test_trajectory_starts_exactly_at_initial_conditions():
    rng = np.random.default_rng(0)
    x0, v0 = rng.normal(size=2), rng.normal(size=2)
    params = ChainParams(m=1.3, d=0.2, force=fput_alpha(2, 0.25),
                         forcing=ForcingSpec.zero(2))
    for method in ("rk4", "implicit-midpoint"):
        traj = integrate_primal(params, x0, v0, TimeGrid(T=1.0, M=10), method=method)
        np.testing.assert_array_equal(traj.x[0], x0)
        np.testing.assert_array_equal(traj.v[0], v0)


def test_blow_up_reports_step_index():
    # anti-restoring force, enormous step: the state overflows quickly
    force = QuadraticForce(n=1, A=[[-1.0]])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(1))
    with pytest.raises(IntegrationBlowUpError) as info:
        integrate_primal(params, [1e300], [0.0], TimeGrid(T=1e6, M=10))
    assert 0 <= info.value.step < 10


def test_implicit_midpoint_second_order_on_harmonic():
    errs = []
    for M in (100, 200, 400):
        grid = TimeGrid(T=2 * np.pi, M=M)
        traj = integrate_primal(_oscillator(), [1.0], [0.0], grid,
                                method="implicit-midpoint")
        x_ref, _ = harmonic_solution(grid.nodes())
        errs.append(np.max(np.abs(traj.x[:, 0] - x_ref)))
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_implicit_midpoint_agrees_with_rk4_on_fput():
    params = ChainParams(m=1.0, d=0.1, force=fput_alpha(4, 0.25),
                         forcing=ForcingSpec.zero(4))
    x0 = 0.2 * np.sin(np.arange(1, 5) * np.pi / 5)
    v0 = np.zeros(4)
    grid = TimeGrid(T=2.0, M=4000)
    a = integrate_primal(params, x0, v0, grid, method="rk4")
    b = integrate_primal(params, x0, v0, grid, method="implicit-midpoint")
    assert np.max(np.abs(a.x - b.x)) < 1e-6


def test_implicit_midpoint_stall_reports_step_index():
    # a stiffening chain from a large displacement: the per-step Newton
    # iteration stops converging partway through
    params = ChainParams(m=1.0, d=0.0, force=fput_alpha(8, 0.25),
                         forcing=ForcingSpec.zero(8))
    with pytest.raises(IntegrationBlowUpError, match="stalled at step 19") as info:
        integrate_primal(params, np.full(8, 10.0), np.zeros(8), TimeGrid(T=3.0, M=20),
                         method="implicit-midpoint")
    assert info.value.step == 19
    assert info.value.t == pytest.approx(19 * 3.0 / 20)


def test_implicit_midpoint_overflow_is_a_blow_up_not_a_stall():
    # the first Newton residual overflows; the iterate it produces is not finite
    force = QuadraticForce(n=1, A=[[-1.0]])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationBlowUpError, match="state became non-finite at step 1") as info:
            integrate_primal(params, [1e300], [0.0], TimeGrid(T=1e6, M=10),
                             method="implicit-midpoint")
    assert info.value.step == 1


def test_integrate_primal_rejects_unknown_method():
    with pytest.raises(ValueError):
        integrate_primal(_oscillator(), [1.0], [0.0], TimeGrid(T=1.0, M=2),
                         method="euler")


def test_primal_residual_zero_at_equilibrium():
    # constant state with K(x*) = f exactly
    params = _oscillator(f=ForcingSpec(n=1, constant=[0.5]))
    grid = TimeGrid(T=3.0, M=12)
    x = np.full((13, 1), 0.5)
    v = np.zeros((13, 1))
    traj = Trajectory(grid, x, v)
    mom, kin = primal_residual(traj, params)
    np.testing.assert_array_equal(mom, np.zeros(13))
    np.testing.assert_array_equal(kin, np.zeros(13))


def test_primal_residual_refinement_on_analytic_solution():
    params = _oscillator()
    maxima = []
    for M in (100, 200, 400):
        grid = TimeGrid(T=2 * np.pi, M=M)
        x_ref, v_ref = harmonic_solution(grid.nodes())
        traj = Trajectory(grid, x_ref[:, None], v_ref[:, None])
        mom, kin = primal_residual(traj, params)
        maxima.append(max(np.max(mom), np.max(kin)))
    for e0, e1 in zip(maxima, maxima[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_primal_residual_small_on_rk4_trajectory():
    params = ChainParams(m=1.0, d=0.2, force=fput_alpha(3, 0.25),
                         forcing=ForcingSpec.zero(3))
    x0 = np.array([0.3, 0.0, -0.3])
    v0 = np.zeros(3)
    maxima = []
    for M in (200, 400):
        traj = integrate_primal(params, x0, v0, TimeGrid(T=2.0, M=M))
        mom, kin = primal_residual(traj, params)
        maxima.append(max(np.max(mom), np.max(kin)))
    assert maxima[0] < 1e-3
    assert 3.0 < maxima[0] / maxima[1] < 5.0


def test_energy_conservation_harmonic_chain():
    params = ChainParams(m=1.0, d=0.0, force=fput_alpha(3, 0.0),
                         forcing=ForcingSpec.zero(3))
    x0 = np.array([0.5, 0.0, -0.5])
    v0 = np.zeros(3)
    traj = integrate_primal(params, x0, v0, TimeGrid(T=10.0, M=10_000))
    E = energy_series(traj, params)
    assert np.max(np.abs(E - E[0])) < 1e-8


def test_energy_dissipates_with_damping():
    params = ChainParams(m=1.0, d=0.5, force=fput_alpha(2, 0.0),
                         forcing=ForcingSpec.zero(2))
    traj = integrate_primal(params, [0.4, -0.1], [0.0, 0.0],
                            TimeGrid(T=6.0, M=600))
    E = energy_series(traj, params)
    h = 6.0 / 600
    assert np.all(np.diff(E) <= h * h)
    assert E[-1] < E[0]


def test_energy_conservation_fput_small_amplitude():
    params = ChainParams(m=1.0, d=0.0, force=fput_alpha(4, 0.25),
                         forcing=ForcingSpec.zero(4))
    x0 = 0.1 * np.sin(np.arange(1, 5) * np.pi / 5)
    v0 = np.zeros(4)
    traj = integrate_primal(params, x0, v0, TimeGrid(T=10.0, M=10_000))
    E = energy_series(traj, params)
    assert np.max(np.abs(E - E[0])) < 1e-7


def test_energy_series_rejects_non_gradient_force():
    # asymmetric A cannot come from a potential
    force = QuadraticForce(n=2, A=[[1.0, 0.5], [0.0, 1.0]])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(2))
    x = np.zeros((3, 2))
    v = np.zeros((3, 2))
    traj = Trajectory(TimeGrid(T=1.0, M=2), x, v)
    with pytest.raises(NonGradientForceError):
        energy_series(traj, params)


def test_energy_series_potential_is_consistent_with_force():
    # numerical check that the closed-form potential differentiates to K
    rng = np.random.default_rng(11)
    params = ChainParams(m=1.0, d=0.0, force=fput_alpha(3, 0.4),
                         forcing=ForcingSpec.zero(3))
    grid = TimeGrid(T=1.0, M=2)
    step = 1e-6
    for _ in range(5):
        x = rng.normal(size=3) * 0.5
        grad = np.empty(3)
        for i in range(3):
            up, dn = x.copy(), x.copy()
            up[i] += step
            dn[i] -= step
            e_up = energy_series(Trajectory(grid, np.tile(up, (3, 1)), np.zeros((3, 3))), params)[0]
            e_dn = energy_series(Trajectory(grid, np.tile(dn, (3, 1)), np.zeros((3, 3))), params)[0]
            grad[i] = (e_up - e_dn) / (2 * step)
        np.testing.assert_allclose(grad, eval_force(params.force, x), atol=1e-6)


def test_time_grid_validation_and_refinement():
    grid = TimeGrid(T=2.0, M=4)
    assert grid.h == pytest.approx(0.5, rel=0)
    np.testing.assert_allclose(grid.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0], rtol=1e-15)
    np.testing.assert_allclose(grid.midpoints(), [0.25, 0.75, 1.25, 1.75], rtol=1e-15)
    fine = grid.refined(3)
    assert fine.M == 12 and fine.T == grid.T
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, M=4)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, M=0)


def test_trajectory_restrict_inverse_of_refine():
    params = _oscillator()
    grid = TimeGrid(T=1.0, M=8)
    fine = integrate_primal(params, [1.0], [0.0], grid.refined(4))
    coarse = fine.restrict(4)
    assert coarse.grid == grid
    np.testing.assert_array_equal(coarse.x, fine.x[::4])
    np.testing.assert_array_equal(coarse.v, fine.v[::4])


# ---------------------------------------------------------------------------
# the stacked-state RK4 against the one-stage-at-a-time reference

_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _chains(draw, T, anti_restoring=False):
    """A chain of 1..6 particles with random A, C, and B (zero or random),
    d >= 0, m > 0, and any mix of sinusoid, constant and table forcing on
    [0, T].  ``anti_restoring`` makes A = -(I + A'/5), which drives every
    mode away from rest."""
    n = draw(st.integers(1, 6))
    A = draw(hnp.arrays(float, (n, n), elements=_UNIT))
    if anti_restoring:
        A = -(np.eye(n) + 0.2 * A)
    B = draw(st.none() | hnp.arrays(float, (n, n, n), elements=_UNIT))
    force = QuadraticForce(n=n, C=draw(hnp.arrays(float, n, elements=_UNIT)), A=A, B=B)
    kinds = draw(st.sets(st.sampled_from(("sinusoid", "constant", "table"))))
    sinusoids = tables = ()
    constant = None
    if "sinusoid" in kinds:
        sinusoids = [(draw(st.integers(0, n - 1)),
                      Sinusoid(draw(_UNIT), draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 6.3))))]
    if "constant" in kinds:
        constant = draw(hnp.arrays(float, n, elements=_UNIT))
    if "table" in kinds:
        values = draw(hnp.arrays(float, draw(st.integers(2, 20)), elements=_UNIT))
        tables = [(draw(st.integers(0, n - 1)),
                   SampledSignal(np.linspace(0.0, T, values.size), values))]
    forcing = ForcingSpec(n=n, constant=constant, sinusoids=sinusoids, tables=tables)
    params = ChainParams(m=draw(st.floats(0.25, 4.0)), d=draw(st.floats(0.0, 2.0)),
                         force=force, forcing=forcing)
    x0 = draw(hnp.arrays(float, n, elements=_UNIT))
    v0 = draw(hnp.arrays(float, n, elements=_UNIT))
    return params, x0, v0


@st.composite
def _bounded_runs(draw):
    T = draw(st.floats(0.1, 3.0))
    return draw(_chains(T)) + (TimeGrid(T=T, M=draw(st.integers(1, 200))),)


@settings(deadline=None)
@given(_bounded_runs())
def test_rk4_matches_per_stage_reference(run):
    params, x0, v0, grid = run
    try:
        xs, vs = rk4_reference(params, x0, v0, grid)
    except IntegrationBlowUpError:
        assume(False)  # overflowing runs are compared in the divergence test
    size = max(np.max(np.abs(xs)), np.max(np.abs(vs)))
    # on the way to a finite-time blow-up the flow magnifies every rounding
    # difference without bound, so the tolerance speaks of moderate states
    assume(size <= 1e4)
    traj = integrate_primal(params, x0, v0, grid)
    dev = max(np.max(np.abs(traj.x - xs)), np.max(np.abs(traj.v - vs)))
    assert dev <= 1e-12 * (1.0 + size)


@st.composite
def _diverging_runs(draw):
    # steps of 1e10..1e25 time units put RK4 far outside its stability
    # region: every step multiplies the state by 1e40 or more
    M = draw(st.integers(1, 200))
    h = 10.0 ** draw(st.floats(10.0, 25.0))
    params, x0, v0 = draw(_chains(h * M, anti_restoring=True))
    # a state of size 1 keeps the growth from starting below the rounding
    # level of C and f, where the two forms of the rate disagree in full
    size = max(np.max(np.abs(x0)), np.max(np.abs(v0)))
    assume(size > 0.0)
    return params, x0 / size, v0 / size, TimeGrid(T=h * M, M=M)


def _blow_up_step(integrate, *args):
    try:
        integrate(*args)
    except IntegrationBlowUpError as exc:
        return exc.step
    return None


@pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= np.finfo(float).maxexp,
                    reason="needs a long double with a wider exponent range than float")
@settings(deadline=None)
@given(_diverging_runs())
def test_rk4_blows_up_at_the_reference_step(run):
    params, x0, v0, grid = run
    ref = _blow_up_step(rk4_reference, params, x0, v0, grid)
    new = _blow_up_step(integrate_primal, params, x0, v0, grid)
    # The two order their sums differently, so a step whose exact state
    # comes near the largest float may overflow in one and not the other.
    # The exact states, from the reference in extended precision, must keep
    # well clear of that band for the steps to be comparable.
    steps = max(ref or 0, new or 0) or grid.M
    xs, vs = rk4_reference(params, x0, v0, TimeGrid(T=grid.h * steps, M=steps),
                           dtype=np.longdouble)
    size = np.maximum(np.max(np.abs(xs), axis=1), np.max(np.abs(vs), axis=1))
    digits = np.log10(np.maximum(size, 1.0))
    assume(not np.any((digits > 304) & (digits < 312)))
    assert new == ref
