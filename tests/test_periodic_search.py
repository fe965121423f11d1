"""Periodic-orbit dual solves: cyclic assembly, resonance detection, recovery."""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualchain import dual_action, dual_solver
from dualchain.cli import load_config, scenario_presets
from dualchain import (
    BaseState,
    ChainParams,
    DualField,
    ForcingSpec,
    PeriodicSpec,
    ProblemSpec,
    QuadraticForce,
    SampledSignal,
    ScaleParams,
    SingularSystemError,
    Sinusoid,
    SolveOptions,
    TimeGrid,
    action,
    fput_alpha,
    gradient,
    hessian,
    integrate_primal,
    recover_periodic_orbit,
    solve_dual,
    solve_periodic,
    unpack_free,
    zero_base,
)
from oracles import (
    factorize_checked_splu,
    fd_gradient,
    fd_jacobian,
    hessian_cyclic_coo,
    shifted,
)

UNIT = ScaleParams(1.0, 1.0)
PRESETS = {p.stem: p for p in scenario_presets()}
_EPS = np.finfo(float).eps


def _sampled_base(grid, fx, fv):
    tn, tm = grid.nodes(), grid.midpoints()
    xb, vb = fx(tn)[:, None], fv(tn)[:, None]
    xb[-1], vb[-1] = xb[0], vb[0]
    return BaseState(grid, xb, vb, fx(tm)[:, None], fv(tm)[:, None])


def _forced_damped_spec(M, d=1.0, k=1.0, base_fx=None, base_fv=None):
    force = QuadraticForce(n=1, A=[[k]])
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=d, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=M)
    fx = base_fx or (lambda t: 0.8 * np.sin(t) + 0.1)
    fv = base_fv or (lambda t: 0.8 * np.cos(t))
    base = _sampled_base(grid, fx, fv)
    return PeriodicSpec(params=params, scales=UNIT, base=base, grid=grid)


def test_forced_damped_orbit_converges_to_steady_state():
    # m = d = k = 1, f = cos t: the periodic response is exactly sin t
    errs = []
    for M in (100, 200, 400):
        spec = _forced_damped_spec(M)
        sol = solve_periodic(spec)
        assert sol.converged
        assert sol.iterations == 1  # quadratic force absent: one Newton step
        orbit = recover_periodic_orbit(sol, spec)
        tn = spec.grid.nodes()
        errs.append(max(np.max(np.abs(orbit.x[:, 0] - np.sin(tn))),
                        np.max(np.abs(orbit.v[:, 0] - np.cos(tn)))))
    assert errs[0] < 1e-3
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_unforced_damped_orbit_is_zero():
    force = QuadraticForce(n=1, A=[[1.0]])
    params = ChainParams(m=1.0, d=0.5, force=force, forcing=ForcingSpec.zero(1))
    sizes = []
    for M in (100, 200):
        grid = TimeGrid(T=2 * np.pi, M=M)
        base = _sampled_base(grid, lambda t: 0.1 * np.sin(t),
                             lambda t: 0.1 * np.cos(t))
        spec = PeriodicSpec(params=params, scales=UNIT, base=base, grid=grid)
        orbit = recover_periodic_orbit(solve_periodic(spec), spec)
        sizes.append(max(np.max(np.abs(orbit.x)), np.max(np.abs(orbit.v))))
    assert sizes[0] < 5e-4
    assert 3.0 < sizes[0] / sizes[1] < 5.0


def test_trivial_fixed_point_zero_forcing_zero_base():
    force = QuadraticForce(n=2, A=[[2.0, -1.0], [-1.0, 2.0]])
    params = ChainParams(m=1.0, d=0.3, force=force, forcing=ForcingSpec.zero(2))
    grid = TimeGrid(T=2 * np.pi, M=32)
    spec = PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 2),
                        grid=grid)
    sol = solve_periodic(spec)
    assert sol.converged
    assert sol.iterations == 0
    np.testing.assert_array_equal(sol.D.gamma, 0.0)
    np.testing.assert_array_equal(sol.D.lam, 0.0)


def test_resonant_forcing_raises_singular_system():
    # undamped unit oscillator forced at its natural frequency over one period
    force = QuadraticForce(n=1, A=[[1.0]])
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=forcing)
    for M in (500, 501, 1000):
        grid = TimeGrid(T=2 * np.pi, M=M)
        spec = PeriodicSpec(params=params, scales=UNIT,
                            base=zero_base(grid, 1), grid=grid)
        for step_control in ("damped-newton", "trust-region"):
            with pytest.raises(SingularSystemError, match="1-norm condition estimate"):
                solve_periodic(spec, SolveOptions(step_control=step_control))


def test_undamped_off_resonance_solves():
    # stiffness 2: natural period 2*pi/sqrt(2) does not divide the span, so
    # the cyclic system is regular; steady response to cos t is cos t
    force = QuadraticForce(n=1, A=[[2.0]])
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=forcing)
    for M in (400, 501):
        grid = TimeGrid(T=2 * np.pi, M=M)
        spec = PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 1),
                            grid=grid)
        sol = solve_periodic(spec)
        assert sol.converged
        orbit = recover_periodic_orbit(sol, spec)
        assert np.max(np.abs(orbit.x[:, 0] - np.cos(grid.nodes()))) < 1e-3


def test_table_forcing_matches_sinusoid():
    force = QuadraticForce(n=1, A=[[1.0]])
    times = np.linspace(0.0, 2 * np.pi, 2001)
    vals = np.cos(times)
    vals[-1] = vals[0]
    forcing = ForcingSpec(n=1, tables=[(0, SampledSignal(times, vals))])
    params = ChainParams(m=1.0, d=1.0, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=200)
    base = _sampled_base(grid, np.sin, np.cos)
    spec = PeriodicSpec(params=params, scales=UNIT, base=base, grid=grid)
    orbit = recover_periodic_orbit(solve_periodic(spec), spec)
    assert np.max(np.abs(orbit.x[:, 0] - np.sin(grid.nodes()))) < 5e-4


def test_recovered_orbit_closes_exactly():
    spec = _forced_damped_spec(64)
    orbit = recover_periodic_orbit(solve_periodic(spec), spec)
    np.testing.assert_array_equal(orbit.x[0], orbit.x[-1])
    np.testing.assert_array_equal(orbit.v[0], orbit.v[-1])


def test_fput_limit_cycle_matches_long_integration():
    # damped forced chain settles onto a limit cycle; the periodic solve,
    # seeded with the settled period, must reproduce it
    n = 2
    force = fput_alpha(n, 0.25)
    forcing = ForcingSpec(n=n, sinusoids=[(0, Sinusoid(0.5, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.4, force=force, forcing=forcing)
    P = 2 * np.pi
    periods, M, fine = 20, 200, 10
    long_grid = TimeGrid(T=periods * P, M=periods * M * fine)
    traj = integrate_primal(params, np.zeros(n), np.zeros(n), long_grid)
    start = (periods - 1) * M * fine
    xb = traj.x[start::fine][:M + 1].copy()
    vb = traj.v[start::fine][:M + 1].copy()
    xb[-1], vb[-1] = xb[0], vb[0]
    xm = traj.x[start + fine // 2::fine][:M]
    vm = traj.v[start + fine // 2::fine][:M]
    grid = TimeGrid(T=P, M=M)
    base = BaseState(grid, xb, vb, xm, vm)
    spec = PeriodicSpec(params=params, scales=UNIT, base=base, grid=grid)
    sol = solve_periodic(spec)
    assert sol.converged
    orbit = recover_periodic_orbit(sol, spec)
    ref_x = traj.x[start::fine][:M + 1]
    ref_v = traj.v[start::fine][:M + 1]
    amp = np.max(np.abs(ref_x))
    assert np.max(np.abs(orbit.x - ref_x)) < 0.01 * amp
    assert np.max(np.abs(orbit.v - ref_v)) < 0.01 * amp


def test_nonperiodic_forcing_rejected():
    # omega P / 2 pi overflows to inf at omega = 1e308, which the check
    # refuses without a RuntimeWarning (pyproject's filterwarnings makes one
    # an error)
    force = QuadraticForce(n=1, A=[[1.0]])
    grid = TimeGrid(T=2 * np.pi, M=16)
    for omega in (1.3, 1e308):
        forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, omega, 0.0))])
        params = ChainParams(m=1.0, d=1.0, force=force, forcing=forcing)
        with pytest.raises(ValueError, match="does not divide"):
            PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 1),
                         grid=grid)


def test_nonperiodic_table_rejected():
    force = QuadraticForce(n=1, A=[[1.0]])
    times = np.linspace(0.0, 2 * np.pi, 101)
    vals = np.cos(0.5 * times)  # endpoint values 1 and -1
    forcing = ForcingSpec(n=1, tables=[(0, SampledSignal(times, vals))])
    params = ChainParams(m=1.0, d=1.0, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=16)
    with pytest.raises(ValueError, match="periodic"):
        PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 1),
                     grid=grid)


def test_open_base_rejected():
    force = QuadraticForce(n=1, A=[[1.0]])
    params = ChainParams(m=1.0, d=1.0, force=force, forcing=ForcingSpec.zero(1))
    grid = TimeGrid(T=2 * np.pi, M=16)
    tn = grid.nodes()
    base = BaseState(grid, tn[:, None], np.ones((17, 1)))  # xbar ramps, no closure
    with pytest.raises(ValueError, match="not periodic"):
        PeriodicSpec(params=params, scales=UNIT, base=base, grid=grid)


def test_minimum_element_count():
    force = QuadraticForce(n=1, A=[[1.0]])
    params = ChainParams(m=1.0, d=1.0, force=force, forcing=ForcingSpec.zero(1))
    grid = TimeGrid(T=2 * np.pi, M=1)
    with pytest.raises(ValueError, match="at least"):
        PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 1),
                     grid=grid)


def test_initial_guess_validation():
    spec = _forced_damped_spec(16)
    g = np.zeros((17, 1))
    l = np.zeros((17, 1))
    l[-1, 0] = 1.0  # node M differs from node 0
    with pytest.raises(ValueError, match="periodic"):
        solve_periodic(spec, SolveOptions(
            initial_guess=DualField(spec.grid, g, l)))
    with pytest.raises(ValueError, match="grid"):
        solve_periodic(spec, SolveOptions(
            initial_guess=DualField.zeros(TimeGrid(T=2 * np.pi, M=32), 1)))


def test_recovery_grid_validation():
    spec = _forced_damped_spec(16)
    sol = solve_periodic(spec)
    other = _forced_damped_spec(32)
    with pytest.raises(ValueError, match="grid"):
        recover_periodic_orbit(sol, other)


def test_periodic_solve_deterministic():
    spec = _forced_damped_spec(64)
    a = solve_periodic(spec)
    b = solve_periodic(spec)
    np.testing.assert_array_equal(a.D.gamma, b.D.gamma)
    np.testing.assert_array_equal(a.D.lam, b.D.lam)


def test_earlier_import_path_forwards_to_the_shared_solver():
    from dualchain import periodic_search

    assert periodic_search.PeriodicSpec is ProblemSpec
    assert periodic_search.solve_periodic is solve_periodic
    assert periodic_search.recover_periodic_orbit is recover_periodic_orbit
    assert solve_periodic is not dual_solver.solve_dual  # a name of its own
    spec = _forced_damped_spec(32)
    a, b = solve_periodic(spec), solve_dual(spec)
    np.testing.assert_array_equal(a.D.lam, b.D.lam)
    assert a.hessian_inertia == b.hessian_inertia
    np.testing.assert_array_equal(recover_periodic_orbit(a, spec).x,
                                  dual_solver.recover_primal(b, spec).x)


def _fput_forced_spec(M=200):
    force = fput_alpha(3, 0.25)
    forcing = ForcingSpec(n=3, sinusoids=[(0, Sinusoid(0.15, 1.0, 0.3))])
    params = ChainParams(m=1.0, d=0.4, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=M)
    return PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 3), grid=grid)


def test_trust_region_converges_to_the_damped_newton_orbit():
    spec = _fput_forced_spec()
    newton = solve_periodic(spec)
    trust = solve_periodic(spec, SolveOptions(step_control="trust-region"))
    assert newton.converged and trust.converged
    assert newton.iterations > 1  # nonlinear: several Newton steps
    scale = np.max(np.abs(newton.D.lam))
    np.testing.assert_allclose(trust.D.lam, newton.D.lam, rtol=0, atol=1e-8 * scale)
    np.testing.assert_allclose(trust.D.gamma, newton.D.gamma, rtol=0, atol=1e-8 * scale)


def test_periodic_non_convergence_is_reported_not_raised():
    sol = solve_periodic(_fput_forced_spec(), SolveOptions(max_iterations=1))
    assert not sol.converged
    assert sol.iterations == 1
    assert len(sol.residual_history) == 2
    assert sol.residual_history[1] < sol.residual_history[0]


def test_midpoint_data_built_once_per_solve(monkeypatch):
    # the spec samples the forcing at the element midpoints once
    calls = []
    sample = dual_action.eval_forcing

    def counted(forcing, t):
        calls.append(forcing)
        return sample(forcing, t)

    monkeypatch.setattr(dual_action, "eval_forcing", counted)
    spec = _fput_forced_spec(M=64)
    sol = solve_periodic(spec)
    assert sol.iterations > 1
    assert calls == [spec.params.forcing]


def _outcome(fn, H):
    try:
        fn(H)
    except SingularSystemError:
        return "singular"
    return "regular"


@settings(deadline=None, max_examples=150)
@given(n=st.integers(1, 3), M=st.integers(2, 13), singular=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, M=2, singular=False, seed=0)
@example(n=3, M=2, singular=True, seed=1)
@example(n=2, M=7, singular=False, seed=2)
@example(n=2, M=8, singular=True, seed=3)
def test_cyclic_hessian_matches_coo_reference(n, M, singular, seed):
    # without a restoring force (A = 0, B = 0) every constant shift is a
    # periodic orbit, so the cyclic Hessian is exactly singular
    rng = np.random.default_rng(seed)
    if singular:
        force = QuadraticForce(n=n, A=np.zeros((n, n)))
    else:
        X = rng.normal(size=(n, n))
        B = 0.3 * rng.normal(size=(n, n, n)) if rng.uniform() < 0.5 else None
        force = QuadraticForce(n=n, A=X @ X.T + 0.5 * np.eye(n), B=B)
    params = ChainParams(m=rng.uniform(0.5, 2.0), d=rng.uniform(0.0, 1.0), force=force,
                         forcing=ForcingSpec.zero(n))
    grid = TimeGrid(T=2 * np.pi, M=M)
    spec = PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, n), grid=grid)
    u = 0.05 * rng.normal(size=2 * n * M)
    D = unpack_free(grid, n, u, periodic=True)

    H = hessian(D, spec)
    ref_sparse = hessian_cyclic_coo(spec, D)
    ref = ref_sparse.toarray()
    assert H.cyclic
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(H.to_dense(), ref, rtol=0, atol=64 * _EPS * scale)

    # an estimate cannot be asked to agree near its own threshold
    cond = np.linalg.cond(ref, 1)
    assume(not dual_action.COND_LIMIT / 100 < cond < dual_action.COND_LIMIT * 100)
    decision = _outcome(dual_solver._factorize_checked, H)
    assert decision == _outcome(factorize_checked_splu, ref_sparse)
    assert decision == ("singular" if singular else "regular")
    if decision == "regular":
        rhs = rng.normal(size=H.size)
        want = np.linalg.solve(ref, rhs)
        np.testing.assert_allclose(H.solve(rhs, H.neg_cholesky()), want, rtol=0,
                                   atol=1e3 * _EPS * cond * np.max(np.abs(want)))


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_periodic_solve_probes_once_and_factors_only_newton_directions(band_counts, monkeypatch,
                                                                        step_control):
    # the singularity check factors -H and one shifted probe on the first
    # iterate; a later iterate factors -H only for a damped Newton direction,
    # so trust-region factors it that once; each shift (the probe, a
    # trust-region shift, or the final inertia's certificate) gets one
    # factorization of its own; each Hessian writes its folded band once,
    # every factorization negates one copy of it, and no LU runs
    counts = band_counts

    def refuse(*args, **kwargs):
        raise AssertionError("a banded LU ran")

    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", refuse)
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrs", refuse)
    sol = solve_periodic(_fput_forced_spec(M=64), SolveOptions(step_control=step_control))
    k = sol.iterations
    assert sol.converged and k > 1
    assert counts["bands"] == counts["hessians"] == k + 1
    assert counts["copies"] == counts["dpbtrf"]
    if step_control == "damped-newton":  # k Newton factors, one probe, one certificate
        assert counts["dpbtrf"] == k + 2
        assert counts["shifted"] == 2
    else:  # the first iterate's -H, then only shifts
        assert counts["dpbtrf"] == 1 + counts["shifted"]
        assert counts["shifted"] > k + 1


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_singularity_check_runs_on_the_first_periodic_iterate_only(monkeypatch,
                                                                   step_control):
    # the check runs once per periodic solve, on its first Hessian, whether
    # the solve converges or stalls (the zero-base periodic_forced_n4 run
    # stops unconverged under both step controls), and never in an
    # initial-value solve
    calls = []
    check = dual_solver._factorize_checked

    def counted(H):
        calls.append(H)
        return check(H)

    monkeypatch.setattr(dual_solver, "_factorize_checked", counted)
    opts = SolveOptions(step_control=step_control)
    stalling = load_config(PRESETS["periodic_forced_n4"],
                           sets=("base.kind=zero", "grid.M=100")).problem()
    for spec, converged in ((_fput_forced_spec(M=64), True), (stalling, False)):
        calls.clear()
        sol = solve_periodic(spec, opts)
        assert sol.converged == converged and sol.iterations >= 1
        assert len(calls) == 1
    calls.clear()
    open_spec = load_config(PRESETS["fput_alpha_n8"], sets=("grid.M=100",)).problem()
    sol = solve_dual(open_spec, opts)
    assert not open_spec.periodic and sol.iterations >= 1
    assert calls == []


def test_a_stalled_solve_assembles_the_hessian_of_each_point_once(band_counts):
    # the zero-base damped-newton run visits two points and stalls at the
    # second, where no trust-region shift helps; the Hessian the loop
    # assembled there is the one whose inertia the solve reports
    spec = load_config(PRESETS["periodic_forced_n4"],
                       sets=("base.kind=zero", "grid.M=100")).problem()
    sol = solve_periodic(spec, SolveOptions(step_control="damped-newton"))
    assert not sol.converged and sol.iterations == 1
    assert band_counts["hessians"] == 2
    assert sol.hessian_inertia == (770, 0, 30)


def test_spec_needs_both_initial_conditions_or_neither():
    spec = _forced_damped_spec(16)
    for x0, v0 in ((np.zeros(1), None), (None, np.zeros(1))):
        with pytest.raises(ValueError, match="both x0 and v0"):
            ProblemSpec(params=spec.params, scales=UNIT, base=spec.base,
                         grid=spec.grid, x0=x0, v0=v0)
    assert spec.periodic


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 3), M=st.integers(2, 9), with_B=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, M=2, with_B=False, seed=0)
@example(n=3, M=2, with_B=True, seed=1)
def test_periodic_derivatives_match_finite_differences(n, M, with_B, seed):
    # the cyclic wrap of gradient and Hessian against differences of the
    # periodic action over the packed unknowns (node M follows node 0)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n))
    B = 0.4 * rng.normal(size=(n, n, n)) if with_B else None
    force = QuadraticForce(n=n, C=0.3 * rng.normal(size=n), A=X @ X.T + n * np.eye(n), B=B)
    constant = 0.2 * rng.normal(size=n)  # a zero-frequency sinusoid on each particle
    forcing = ForcingSpec(n=n, sinusoids=[(j, Sinusoid(c, 0.0)) for j, c in enumerate(constant)]
                          + [(int(rng.integers(0, n)), Sinusoid(0.5, 2.0, 0.3))])
    params = ChainParams(m=rng.uniform(0.5, 2.0), d=rng.uniform(0.0, 1.0), force=force,
                         forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=M)
    tn, tm = grid.nodes()[:, None], grid.midpoints()[:, None]
    phase = rng.uniform(0.0, 2 * np.pi, size=n)
    xb, vb = 0.3 * np.sin(tn + phase), 0.3 * np.cos(tn + phase)
    xb[-1], vb[-1] = xb[0], vb[0]
    base = BaseState(grid, xb, vb, 0.3 * np.sin(tm + phase), 0.3 * np.cos(tm + phase))
    spec = ProblemSpec(params=params,
                        scales=ScaleParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
                        base=base, grid=grid)
    u = 0.05 * rng.normal(size=2 * n * M)

    def field(w):
        return unpack_free(grid, n, w, periodic=True)

    g, g_fd = gradient(field(u), spec), fd_gradient(lambda w: action(field(w), spec), u)
    assert np.max(np.abs(g - g_fd)) <= 1e-6 * (1.0 + np.max(np.abs(g_fd)))
    H = hessian(field(u), spec)
    H_fd = fd_jacobian(lambda w: gradient(field(w), spec), u)
    assert H.cyclic
    assert np.max(np.abs(H.to_dense() - H_fd)) <= 1e-5 * (1.0 + np.max(np.abs(H_fd)))


def _resonant_hessian(M):
    force = QuadraticForce(n=1, A=[[1.0]])
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=M)
    spec = ProblemSpec(params=params, scales=UNIT, base=zero_base(grid, 1), grid=grid)
    return hessian(DualField.zeros(grid, 1), spec)


def _decision_bytes(H):
    try:
        return dual_solver._factorize_checked(H).tobytes()
    except SingularSystemError as exc:
        return str(exc)


def test_condition_check_is_deterministic_and_draws_no_random_numbers():
    state = np.random.get_state()
    sol = solve_dual(_fput_forced_spec(M=64))
    assert sol.converged and sol.iterations > 1
    after = np.random.get_state()
    assert after[0] == state[0] and after[2:] == state[2:]
    np.testing.assert_array_equal(after[1], state[1])
    # equal matrices, equal decisions: byte-equal factors or the same message
    for H in (_resonant_hessian(500), shifted(_resonant_hessian(64), 0.5)):
        decisions = [_decision_bytes(H) for _ in range(2)]
        assert decisions[0] == decisions[1]


def test_condition_check_returns_the_factor_it_checked(monkeypatch):
    # the check factors -H and one shifted probe, and hands -H's factor to
    # the Newton direction, which factors nothing; the 1-norm is exact
    calls = []
    dpbtrf = scipy.linalg.lapack.dpbtrf
    H = shifted(_resonant_hessian(64), 0.5)
    want = H.neg_cholesky()
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf",
                        lambda *args, **kwargs: calls.append(1) or dpbtrf(*args, **kwargs))
    fac = dual_solver._factorize_checked(H)
    step = H.solve(-np.ones(H.size), fac)
    assert calls == [1, 1]
    assert fac.tobytes() == want.tobytes()
    np.testing.assert_allclose(step, np.linalg.solve(H.to_dense(), -np.ones(H.size)),
                               rtol=1e-10)
    np.testing.assert_allclose(H.norm1(), np.max(np.sum(np.abs(H.to_dense()), axis=0)),
                               rtol=1e-14)


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
@pytest.mark.parametrize("M", [200, 500, 501])
def test_chain_without_restoring_force_is_singular(step_control, M):
    # with A = 0 the forced damped chain has a one-parameter family of
    # orbits (any constant shift), so the cyclic Hessian is singular; -H need
    # not factor, and the shifted probe still reports it as singular rather
    # than sending it to the trust region as an indefinite one
    force = QuadraticForce(n=1, A=[[0.0]])
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=1.0, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=M)
    spec = PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 1), grid=grid)
    with pytest.raises(SingularSystemError, match="1-norm condition estimate"):
        solve_periodic(spec, SolveOptions(step_control=step_control))


def test_singularity_probe_and_inertia_agree_on_the_resonant_hessian():
    # the undamped n = 1 oscillator over its own period at M = 500 (the
    # forcing does not enter the Hessian): its top eigenvalues, -2.6e-12 and
    # -2.1e-12, lie within delta = ||H||_1 / COND_LIMIT = 3.2e-10 of zero, so
    # -H factors and -(H + delta I) does not; the probe calls H singular and
    # the inertia counts those two eigenvalues as zero
    H = _resonant_hessian(500)
    assert H.inertia() == (998, 2, 0)
    with pytest.raises(SingularSystemError, match="condition estimate > 1.000e"):
        dual_solver._factorize_checked(H)


def test_singular_probe_tells_singular_from_indefinite():
    # a Hessian that does not factor is singular when its shift by
    # ||H||_1 / COND_LIMIT factors, and indefinite when that does not either;
    # one that factors is singular when its shift the other way does not
    H = shifted(_resonant_hessian(65), 0.5)
    top = np.linalg.eigvalsh(H.to_dense())[-1]
    delta = H.norm1() / dual_action.COND_LIMIT
    with pytest.raises(SingularSystemError, match="condition estimate > 1.000e"):
        dual_solver._factorize_checked(shifted(H, top - 0.5 * delta))
    assert dual_solver._factorize_checked(shifted(H, top - 10.0 * delta)) is None
    with pytest.raises(SingularSystemError, match="condition estimate > 1.000e"):
        dual_solver._factorize_checked(shifted(H, top + 0.5 * delta))
    # the test is the eigenvalue's distance from zero, not cond_1: 1.1 delta
    # below zero passes as regular though cond_1 is above COND_LIMIT
    for regular in (shifted(H, top + 10.0 * delta), shifted(H, top + 1.1 * delta)):
        assert (dual_solver._factorize_checked(regular).tobytes()
                == regular.neg_cholesky().tobytes())
    dense = regular.to_dense()
    cond1 = np.linalg.norm(dense, 1) * np.linalg.norm(np.linalg.inv(dense), 1)
    assert cond1 > 1.05 * dual_action.COND_LIMIT
