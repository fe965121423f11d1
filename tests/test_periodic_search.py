"""Periodic-orbit dual solves: cyclic assembly, resonance detection, recovery."""
import functools
import sys

import numpy as np
import pytest
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
            with pytest.raises(SingularSystemError, match="transfer multiplier"):
                solve_periodic(spec, SolveOptions(step_control=step_control))


@pytest.mark.parametrize("M", [200, 500, 1000])
def test_the_singular_verdict_does_not_move_with_the_scales(M):
    # the resonant x'' + x = cos t: A does not hold the scales, so its
    # multipliers, and the verdict on them, are the same at c_x = 1 and 30
    # under both step controls (the band's eigenvalues scale with c_x: a
    # test on them would call M = 200 singular at c_x = 30 only)
    outcomes = set()
    for c_x in (1.0, 30.0):
        spec = _resonant_spec(M, ScaleParams(c_x, 1.0))
        for step_control in ("damped-newton", "trust-region"):
            try:
                sol = solve_periodic(spec, SolveOptions(step_control=step_control))
            except SingularSystemError:
                outcomes.add("singular")
            else:
                outcomes.add("converged" if sol.converged else "stalled")
    assert outcomes == {"stalled" if M == 200 else "singular"}


def test_a_free_period_that_divides_the_span_is_not_singular():
    # x'' + 4x = cos t over [0, 2 pi]: the free period pi divides the span,
    # so the free oscillations at frequency 2 are periodic too, but the
    # midpoint rule's phase error puts the discrete multipliers 4.19 h^2 =
    # 6.6e-4 from 1 at M = 500, beyond M * _GRAM_LIMIT = 5e-4 (from M = 549
    # on they count as zero and the solve raises); the verdict agrees with
    # the reported count, no zero eigenvalue, and the orbit the solve finds
    # is cos t / 3 to the midpoint rule's O(h^2)
    force = QuadraticForce(n=1, A=[[4.0]])
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=500)
    spec = PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 1), grid=grid)
    for step_control in ("damped-newton", "trust-region"):
        sol = solve_periodic(spec, SolveOptions(step_control=step_control))
        assert sol.converged and sol.hessian_inertia == (1000, 0, 0)
        orbit = recover_periodic_orbit(sol, spec)
        assert np.max(np.abs(orbit.x[:, 0] - np.cos(grid.nodes()) / 3.0)) < 1e-4


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


def _fput_forced_workload_spec():
    """A forced damped FPUT chain of the periodic workloads' size, n = 4 and M = 1000."""
    forcing = ForcingSpec(n=4, sinusoids=[(0, Sinusoid(0.1, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.4, force=fput_alpha(4, 0.25), forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=1000)
    return PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 4), grid=grid)


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


def _splu_outcome(H):
    try:
        factorize_checked_splu(H)
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

    # an estimate cannot be asked to agree near its own threshold; the
    # solver's verdict is the nullity of the Gram factor A at the point
    cond = np.linalg.cond(ref, 1)
    assume(not dual_action.COND_LIMIT / 100 < cond < dual_action.COND_LIMIT * 100)
    decision = "singular" if dual_action._gram_point(spec, D).nullity else "regular"
    assert decision == _splu_outcome(ref_sparse)
    assert decision == ("singular" if singular else "regular")
    if decision == "regular":
        rhs = rng.normal(size=H.size)
        want = np.linalg.solve(ref, rhs)
        np.testing.assert_allclose(H.solve(rhs, H.neg_cholesky()), want, rtol=0,
                                   atol=1e3 * _EPS * cond * np.max(np.abs(want)))


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_periodic_solve_probes_once_and_factors_only_newton_directions(band_counts, step_control):
    # the singularity test reads the first iterate's Gram factor, with no
    # band; every damped Newton iterate, the first included, takes its
    # direction from the Gram factors, with no band written and no dpbtrf,
    # in four dtbtrs calls (two on the open unit band around each
    # capacitance solve of the cyclic corner); under trust-region every
    # iterate writes its band once, each trust-region shift gets one
    # factorization of its own, and no dtbtrs runs; the converged point
    # assembles none, every factorization negates one copy of its band,
    # and every step solved from a Cholesky factor is one dpbtrs
    counts = band_counts
    sol = solve_periodic(_fput_forced_spec(M=64), SolveOptions(step_control=step_control))
    k = sol.iterations
    assert sol.converged and k > 1
    assert counts["copies"] == counts["dpbtrf"]
    assert counts["dpbtrs"] == counts["solves"]
    if step_control == "damped-newton":  # k Gram directions, no band
        assert counts["bands"] == counts["hessians"] == 0
        assert counts["dpbtrf"] == counts["solves"] == 0
        assert counts["dtbtrs"] == 4 * k
    else:  # at least one shift per iterate, each factored once
        assert counts["bands"] == counts["hessians"] == k
        assert counts["dpbtrf"] == counts["shifted"] >= k
        assert k <= counts["solves"] <= counts["shifted"]
        assert counts["dtbtrs"] == 0


def test_a_refused_cyclic_gram_direction_takes_the_trust_region(band_counts):
    # a damped chain with a negative linear stiffness (A = -4) over one
    # period: its transfer product grows like e^(2 T), so cond_1(I - Pi) is
    # 2.6e5, beyond the capacitance limit, though H is well conditioned;
    # every iterate refuses the Gram direction before any dtbtrs and steps
    # on its band's trust region, as a refused open direction does, to the
    # orbit the trust-region step control finds
    force = QuadraticForce(n=1, A=[[-4.0]], B=np.full((1, 1, 1), 0.5))
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(0.3, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.3, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=200)
    spec = PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 1), grid=grid)
    refused = []
    direction = dual_solver._gram_direction

    def spy(*args):
        out = direction(*args)
        refused.append(out is None)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dual_solver, "_gram_direction", spy)
        sol = solve_periodic(spec)
    k = sol.iterations
    assert sol.converged and k == 3 and refused == [True] * k
    assert sol.hessian_inertia == (400, 0, 0)
    assert band_counts["bands"] == band_counts["hessians"] == k
    assert band_counts["dpbtrf"] == band_counts["shifted"] >= k
    assert band_counts["dtbtrs"] == 0
    orbit = recover_periodic_orbit(sol, spec)
    other = solve_periodic(spec, SolveOptions(step_control="trust-region"))
    assert other.converged
    reference = recover_periodic_orbit(other, spec)
    for got, want in ((orbit.x, reference.x), (orbit.v, reference.v)):
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_singularity_check_runs_on_the_first_periodic_iterate_only(monkeypatch,
                                                                   step_control):
    # the check reads the nullity of its point's Gram record once per
    # periodic solve, at its first iterate, whether the solve converges or
    # stalls (the zero-base periodic_forced_n4 run stops unconverged under
    # both step controls), and never in an initial-value solve; directions
    # and the final point's inertia read theirs inside dual_action, so only
    # the reads made in _maximize are the check's
    calls = []
    nullity = dual_action._GramPoint.nullity

    def spied(point):
        if sys._getframe(1).f_code.co_name == "_maximize":
            calls.append(point)
        return nullity.__get__(point)

    monkeypatch.setattr(dual_action._GramPoint, "nullity", property(spied))
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


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_each_periodic_point_forms_one_transfer_product_and_no_lu_schur_inverse(monkeypatch,
                                                                               step_control):
    # a periodic solve that converges forms one transfer product per damped
    # Newton iterate, the first iterate's singularity test and direction
    # sharing its record's, and one at the final point for its inertia;
    # under the trust region only the first iterate's test and the final
    # point form one.  On a chain of the periodic workloads' size (n = 4,
    # M = 1000) Newton-Schulz inverts every Schur complement and every
    # weighted stiffness is within the distance bound of I, so
    # np.linalg.inv runs on nothing under damped Newton and only for the
    # trust region's Hessian parts, K^-1 (`_MappedState.Kinv`).  An open solve forms
    # E^-1 once per Gram direction taken and none at the final point, whose
    # nullity needs none
    products, inverters, schur, directions = [], [], [], []
    product, inv = dual_action._transfer_product, np.linalg.inv
    monkeypatch.setattr(dual_action, "_transfer_product",
                        lambda R: products.append(len(R)) or product(R))

    def counted_inv(a):
        inverters.append(sys._getframe(1).f_code.co_name)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    opts = SolveOptions(step_control=step_control)
    sol = solve_periodic(_fput_forced_workload_spec(), opts)
    assert sol.converged and sol.iterations > 1
    damped = step_control == "damped-newton"
    assert products == [1000] * (sol.iterations + 1 if damped else 2)
    assert set(inverters) == (set() if damped else {"Kinv"})

    inverses, direction = dual_action._schur_inverses, dual_solver._gram_direction
    monkeypatch.setattr(dual_action, "_schur_inverses",
                        lambda *args: schur.append(1) or inverses(*args))

    def counted_direction(*args):
        d = direction(*args)
        directions.append(d is not None)
        return d

    monkeypatch.setattr(dual_solver, "_gram_direction", counted_direction)
    open_spec = load_config(PRESETS["perturbed_base_n4"], sets=("grid.M=100",)).problem()
    sol = solve_dual(open_spec, opts)
    assert sol.converged and sol.iterations > 1
    assert len(schur) == sum(directions) == (sol.iterations if damped else 0)


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_each_point_forms_its_mapped_jacobian_once(monkeypatch, step_control):
    # Mx = dK/dx at the mapped state is kept on the point's mapped state,
    # which the Gram record and, under the trust region, the Hessian parts
    # both read: one Mx per iterate and one at the final point, for its
    # inertia, and none at a trial point the line search rejects
    formed, mx = [], dual_action._MappedState.Mx

    def spied(state):
        formed.append(state)
        return mx.func(state)

    once = functools.cached_property(spied)
    once.__set_name__(dual_action._MappedState, "Mx")
    monkeypatch.setattr(dual_action._MappedState, "Mx", once)
    sol = solve_periodic(_fput_forced_workload_spec(), SolveOptions(step_control=step_control))
    assert sol.converged and sol.iterations > 1
    assert len(formed) == sol.iterations + 1
    assert len({id(state) for state in formed}) == len(formed)


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_every_iterate_tests_its_gram_parts(monkeypatch, step_control):
    # open or cyclic, under either step control, each iterate the loop steps
    # from makes and tests its Gram record once; the final point's inertia
    # makes its own inside dual_action, past this name
    calls = []
    point = dual_solver._gram_point
    monkeypatch.setattr(dual_solver, "_gram_point",
                        lambda spec, D: calls.append(D) or point(spec, D))
    open_spec = load_config(PRESETS["perturbed_base_n4"], sets=("grid.M=100",)).problem()
    for spec in (open_spec, _fput_forced_spec(M=64)):
        calls.clear()
        sol = solve_dual(spec, SolveOptions(step_control=step_control))
        assert sol.converged and sol.iterations > 1
        assert len(calls) == sol.iterations


def test_a_stalled_solve_assembles_the_hessian_of_each_point_once(band_counts):
    # the zero-base damped-newton run visits two points and stalls at the
    # second, where no trust-region shift helps; the first takes a Gram
    # direction and assembles nothing, and the Hessian the loop assembled
    # at the second is the one whose inertia the solve reports
    spec = load_config(PRESETS["periodic_forced_n4"],
                       sets=("base.kind=zero", "grid.M=100")).problem()
    sol = solve_periodic(spec, SolveOptions(step_control="damped-newton"))
    assert not sol.converged and sol.iterations == 1
    assert band_counts["hessians"] == 1
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


def _resonant_spec(M, scales=UNIT):
    force = QuadraticForce(n=1, A=[[1.0]])
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=M)
    return ProblemSpec(params=params, scales=scales, base=zero_base(grid, 1), grid=grid)


def _decision(spec):
    try:
        return solve_dual(spec).D.lam.tobytes()
    except SingularSystemError as exc:
        return str(exc)


def test_condition_check_is_deterministic_and_draws_no_random_numbers():
    state = np.random.get_state()
    sol = solve_dual(_fput_forced_spec(M=64))
    assert sol.converged and sol.iterations > 1
    after = np.random.get_state()
    assert after[0] == state[0] and after[2:] == state[2:]
    np.testing.assert_array_equal(after[1], state[1])
    # equal problems, equal decisions: byte-equal solutions or the same message
    for spec in (_resonant_spec(500), _forced_damped_spec(64)):
        decisions = [_decision(spec) for _ in range(2)]
        assert decisions[0] == decisions[1]


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
@pytest.mark.parametrize("M", [200, 500, 501])
def test_chain_without_restoring_force_is_singular(step_control, M):
    # with A = 0 the forced damped chain has a one-parameter family of
    # orbits (any constant shift), so the cyclic Hessian is singular: the
    # transfer product has a multiplier at exactly 1, and the first iterate
    # reports it as singular rather than sending it to the trust region
    force = QuadraticForce(n=1, A=[[0.0]])
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=1.0, force=force, forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=M)
    spec = PeriodicSpec(params=params, scales=UNIT, base=zero_base(grid, 1), grid=grid)
    with pytest.raises(SingularSystemError, match="transfer multiplier"):
        solve_periodic(spec, SolveOptions(step_control=step_control))


def test_singularity_probe_and_inertia_agree_on_the_resonant_hessian():
    # the undamped n = 1 oscillator over its own period at M = 500 (the
    # forcing does not enter the Hessian): its transfer product's two
    # multipliers lie within M * _GRAM_LIMIT of 1, so the solve raises, and
    # the reference inertia counts the two eigenvalues they stand for,
    # -2.6e-12 and -2.1e-12, as zero within ||H||_1 / COND_LIMIT = 3.2e-10
    spec = _resonant_spec(500)
    D = DualField.zeros(spec.grid, 1)
    assert dual_action._gram_point(spec, D).nullity == 2
    assert hessian(D, spec).inertia() == (998, 2, 0)
    with pytest.raises(SingularSystemError, match=r"within M \* 1e-06 = 5.000e-04 of 1"):
        solve_dual(spec)


@pytest.mark.parametrize("M, zero", [(100, 0), (200, 0), (500, 2), (1000, 2)])
def test_gram_inertia_counts_the_resonant_multipliers_as_zero(M, zero):
    # the transfer product's two multipliers lie 0.524 h^2 from 1 (the
    # midpoint rule's phase error), and count as zero within M / sqrt(
    # COND_LIMIT): from M = 275 on, as inertia() does at 300 but not at 200
    spec = _resonant_spec(M)
    D = DualField.zeros(spec.grid, 1)
    assert dual_action._gram_inertia(spec, D) == hessian(D, spec).inertia() == (2 * M - zero,
                                                                                 zero, 0)
