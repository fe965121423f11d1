"""Direct integration, residual diagnostics, and the energy series."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualchain import primal_solver
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


@pytest.mark.parametrize("M", [2, 3, 7])
def test_nodal_rates_are_exact_for_a_quadratic(M):
    # central inside, the one-sided three-point formula at the ends: both
    # exact for a quadratic in t, at every node
    grid = TimeGrid(T=1.7, M=M)
    t = grid.nodes()[:, None]
    a, b, c = np.array([0.3, -1.0]), np.array([2.0, 0.5]), np.array([-1.5, 4.0])
    rates = primal_solver._time_derivative(a + b * t + c * t * t, grid.h)
    np.testing.assert_allclose(rates, b + 2.0 * c * t, rtol=0, atol=1e-13)


def test_nodal_rates_on_one_element_are_its_rate():
    grid = TimeGrid(T=0.3, M=1)
    t = grid.nodes()[:, None]
    rates = primal_solver._time_derivative(1.0 - 2.5 * t, grid.h)
    np.testing.assert_allclose(rates, np.full((2, 1), -2.5), rtol=0, atol=1e-14)


@pytest.mark.parametrize("M", [2, 3, 8])
def test_periodic_nodal_rates_are_the_cyclic_central_difference(M):
    rng = np.random.default_rng(M)
    h = 0.25
    values = rng.normal(size=(M + 1, 3))
    values[-1] = values[0]
    rates = primal_solver._time_derivative(values, h, periodic=True)
    expected = [(values[(k + 1) % M] - values[(k - 1) % M]) / (2.0 * h) for k in range(M)]
    np.testing.assert_array_equal(rates, expected)


def test_primal_residual_zero_at_equilibrium():
    # constant state with K(x*) = f exactly
    params = _oscillator(f=ForcingSpec(n=1, sinusoids=[(0, Sinusoid(0.5, 0.0))]))
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
    if "sinusoid" in kinds:
        sinusoids = [(draw(st.integers(0, n - 1)),
                      Sinusoid(draw(_UNIT), draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 6.3))))]
    if "constant" in kinds:  # a zero-frequency sinusoid on each particle
        constant = draw(hnp.arrays(float, n, elements=_UNIT))
        sinusoids = [(j, Sinusoid(c, 0.0)) for j, c in enumerate(constant)] + list(sinusoids)
    if "table" in kinds:
        values = draw(hnp.arrays(float, draw(st.integers(2, 20)), elements=_UNIT))
        tables = [(draw(st.integers(0, n - 1)),
                   SampledSignal(np.linspace(0.0, T, values.size), values))]
    forcing = ForcingSpec(n=n, sinusoids=sinusoids, tables=tables)
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


# folded stage maps without the overflow bound overflowed here at step 9:
# x0 is the equilibrium of x'' = x - C, which the reference holds exactly,
# while R(hL) z and the forcing's image, each about h^4 / 24 = 4e38, cancel
_AT_REST_ON_AN_UNSTABLE_EQUILIBRIUM = (
    ChainParams(m=1.0, d=0.0, force=QuadraticForce(n=2, A=-np.eye(2), C=[1.0, 0.0]),
                forcing=ForcingSpec.zero(2)),
    np.array([1.0, 0.0]), np.zeros(2), TimeGrid(T=9e10, M=9))


def _barely_moving_off_an_unstable_equilibrium(v0, T, M):
    # x'' = x - 1 - x', at rest on x = 1 but for a velocity far below the
    # rounding level of the force: summed with A x before C, the velocity
    # rate lost it and the stage loop never overflowed, while the reference,
    # forming K(x) = A x + C first, grows it by about h^4 / 24 a step
    params = ChainParams(m=1.0, d=1.0, force=QuadraticForce(n=1, A=[[-1.0]], C=[1.0]),
                         forcing=ForcingSpec.zero(1))
    return params, np.array([1.0]), np.array([v0]), TimeGrid(T=T, M=M)


@pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= np.finfo(float).maxexp,
                    reason="needs a long double with a wider exponent range than float")
@settings(deadline=None)
@given(_diverging_runs())
@example(run=_AT_REST_ON_AN_UNSTABLE_EQUILIBRIUM)
@example(run=_barely_moving_off_an_unstable_equilibrium(3.86e-172, T=9e14, M=9))
@example(run=_barely_moving_off_an_unstable_equilibrium(5.4e-130, T=8e14, M=8))
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


# ---------------------------------------------------------------------------
# the stage maps: blocks of steps, and the stage loop behind their bound

_BLOCKS = (1, 7, primal_solver.RK4_BLOCK)


def _integrate_in_blocks(block, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primal_solver, "RK4_BLOCK", block)
        return integrate_primal(*args)


@settings(deadline=None)
@given(_bounded_runs())
def test_rk4_trajectory_does_not_depend_on_the_block_size(run):
    params, x0, v0, grid = run
    try:
        trajs = [_integrate_in_blocks(block, params, x0, v0, grid) for block in _BLOCKS]
    except IntegrationBlowUpError:
        assume(False)  # the step where a run leaves the maps depends on the block
    # states this moderate keep every block on the maps
    assume(max(np.max(np.abs(trajs[0].x)), np.max(np.abs(trajs[0].v))) <= 1e4)
    for traj in trajs[1:]:
        assert traj.x.tobytes() == trajs[0].x.tobytes()
        assert traj.v.tobytes() == trajs[0].v.tobytes()


def _quadratic_blow_up():
    # x_1'' = x_1^2 - x_1 / 2 + ..., from x_1 = 3: a finite-time blow-up
    B = np.zeros((2, 2, 2))
    B[0, 0, 0] = -2.0
    B[1, 0, 1] = 0.5
    force = QuadraticForce(n=2, A=0.5 * np.eye(2), B=B)
    return ChainParams(m=1.0, d=0.1, force=force,
                       forcing=ForcingSpec(n=2, sinusoids=[(0, Sinusoid(0.5, 1.0))]))


_DIVERGING = {
    # an anti-restoring linear chain grows about 2.7-fold per step
    "linear": (ChainParams(m=1.0, d=0.0, force=QuadraticForce(n=2, A=-np.eye(2)),
                           forcing=ForcingSpec(n=2, sinusoids=[(1, Sinusoid(0.5, 1.0))])),
               np.array([1.0, 1.0]), TimeGrid(T=1000.0, M=1000)),
    "quadratic": (_quadratic_blow_up(), np.array([3.0, 3.0]), TimeGrid(T=3.0, M=1000)),
}


@pytest.mark.parametrize("case", sorted(_DIVERGING))
def test_rk4_leaves_the_maps_for_the_stage_loop_before_a_blow_up(case, monkeypatch):
    params, x0, grid = _DIVERGING[case]
    v0 = np.zeros(params.n)
    ref = _blow_up_step(rk4_reference, params, x0, v0, grid)
    assert ref is not None
    starts = []
    stage_loop = primal_solver._rk4_stages

    def spy(*args):
        starts.append(args[-1])
        return stage_loop(*args)

    monkeypatch.setattr(primal_solver, "_rk4_stages", spy)
    for block in _BLOCKS:
        monkeypatch.setattr(primal_solver, "RK4_BLOCK", block)
        assert _blow_up_step(integrate_primal, params, x0, v0, grid) == ref
    # every block size ran the maps partway and the stage loop from there
    assert len(starts) == len(_BLOCKS)
    assert all(0 < start < ref for start in starts)


def test_rk4_blows_up_where_the_stage_sum_overflows():
    # each rate is about 5e307, so the stage sum k1 + 2 k2 + 2 k3 + k4
    # overflows one stage at a time, while the maps, with h / 6 folded in,
    # would give a finite state; the bound sends the run to the stage loop
    params = _oscillator()
    args = (params, [5e307], [0.0], TimeGrid(T=1e-2, M=10))
    assert _blow_up_step(rk4_reference, *args) == 1
    assert _blow_up_step(integrate_primal, *args) == 1


def test_rk4_bound_counts_the_outer_product_of_the_maps(monkeypatch):
    # B ~ 1e-300 keeps the stage loop's P = (B x) x near 1e20 at x ~ 1e160,
    # but every entry of the maps' Y = x x^T overflows: the bound must send
    # the run to the stage loop before the maps are built
    force = QuadraticForce(n=2, A=np.eye(2), B=np.full((2, 2, 2), 1e-300))
    params = ChainParams(m=1.0, d=0.1, force=force, forcing=ForcingSpec.zero(2))
    args = (params, np.array([1e160, -5e159]), np.zeros(2), TimeGrid(T=1.0, M=20))

    def refuse(*a):
        raise AssertionError("the stage maps were built for a state whose Y overflows")

    monkeypatch.setattr(primal_solver, "_rk4_maps", refuse)
    traj = integrate_primal(*args)
    xs, vs = rk4_reference(*args)
    size = max(np.max(np.abs(xs)), np.max(np.abs(vs)))
    dev = max(np.max(np.abs(traj.x - xs)), np.max(np.abs(traj.v - vs)))
    assert dev <= 1e-12 * size
