"""Newton solve of the dual system, primal recovery, verification reports."""
import importlib.util
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualchain import dual_action, dual_solver
from dualchain import (
    ChainParams,
    DualField,
    DualSolution,
    ForcingSpec,
    ProblemSpec,
    QuadraticForce,
    ScaleParams,
    Sinusoid,
    SolveOptions,
    TimeGrid,
    Trajectory,
    base_from_primal,
    ellipticity_check,
    fput_alpha,
    integrate_primal,
    perturb_base,
    recover_primal,
    solve_dual,
    verify,
    zero_base,
)
from oracles import (
    harmonic_solution,
    mapped_paths,
    openblas_thread_pairs,
)


def _harmonic_spec(M, T=2 * np.pi, base=None, x0=1.0, v0=0.0):
    force = QuadraticForce(n=1, A=[[1.0]])
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(1))
    grid = TimeGrid(T=T, M=M)
    x0v = np.array([x0])
    v0v = np.array([v0])
    if base is None:
        base = base_from_primal(params, x0v, v0v, grid, refine=10)
    return ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0), base=base,
                       grid=grid, x0=x0v, v0=v0v)


def _fput_spec(n, M, T=3.0, alpha=0.25, amplitude=0.2, d=0.0, perturb=None,
               seed=0):
    force = fput_alpha(n, alpha)
    params = ChainParams(m=1.0, d=d, force=force, forcing=ForcingSpec.zero(n))
    grid = TimeGrid(T=T, M=M)
    x0 = amplitude * np.sin(np.arange(1, n + 1) * np.pi / (n + 1))
    v0 = np.zeros(n)
    base = base_from_primal(params, x0, v0, grid, refine=10)
    if perturb is not None:
        base = perturb_base(base, perturb, seed=seed)
    return ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0), base=base,
                       grid=grid, x0=x0, v0=v0)


def test_linear_case_one_newton_iteration_from_any_start():
    rng = np.random.default_rng(0)
    spec = _harmonic_spec(M=64)
    g = rng.normal(size=(65, 1))
    l = rng.normal(size=(65, 1))
    g[-1] = l[-1] = 0.0
    start = DualField(spec.grid, g, l)
    sol = solve_dual(spec, SolveOptions(initial_guess=start))
    assert sol.converged
    assert sol.iterations == 1
    assert sol.residual_history[-1] <= 1e-10 * (1.0 + sol.residual_history[0])


def test_idempotent_resolve_terminates_immediately():
    spec = _fput_spec(n=4, M=128)
    sol = solve_dual(spec)
    assert sol.converged
    again = solve_dual(spec, SolveOptions(initial_guess=sol.D))
    assert again.converged
    assert again.iterations == 0
    np.testing.assert_array_equal(again.D.gamma, sol.D.gamma)
    np.testing.assert_array_equal(again.D.lam, sol.D.lam)


def test_solution_base_gives_vanishing_duals_under_refinement():
    norms = []
    for M in (64, 128, 256):
        sol = solve_dual(_fput_spec(n=4, M=M))
        assert sol.converged
        norms.append(max(np.max(np.abs(sol.D.lam)), np.max(np.abs(sol.D.gamma))))
    for e0, e1 in zip(norms, norms[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_recover_primal_zero_duals_returns_base():
    spec = _fput_spec(n=3, M=32)
    sol = DualSolution(D=DualField.zeros(spec.grid, 3), converged=True,
                       iterations=0, residual_history=(0.0,),
                       hessian_inertia=(0, 0, 0))
    traj = recover_primal(sol, spec)
    np.testing.assert_array_equal(traj.x, spec.base.xbar)
    np.testing.assert_array_equal(traj.v, spec.base.vbar)


def test_recovery_harmonic_with_perturbed_base():
    # base = analytic solution + 0.02 sin(3t): the solve must pull the
    # recovered trajectory back onto cos t at second order
    errs = []
    for M in (200, 400, 800):
        grid = TimeGrid(T=2 * np.pi, M=M)
        t_n, t_m = grid.nodes(), grid.midpoints()
        from dualchain import BaseState

        def bump(t):
            return 0.02 * np.sin(3.0 * t)

        x_n, v_n = harmonic_solution(t_n)
        x_m, v_m = harmonic_solution(t_m)
        base = BaseState(grid, (x_n + bump(t_n))[:, None], (v_n + bump(t_n))[:, None],
                         (x_m + bump(t_m))[:, None], (v_m + bump(t_m))[:, None])
        spec = _harmonic_spec(M=M, base=base)
        sol = solve_dual(spec)
        assert sol.converged
        traj = recover_primal(sol, spec)
        errs.append(np.max(np.abs(traj.x[:, 0] - x_n)))
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_recovery_forced_damped_vs_fine_oracle():
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    force = QuadraticForce(n=1, A=[[1.0]])
    params = ChainParams(m=1.0, d=1.0, force=force, forcing=forcing)
    x0, v0 = np.array([0.0]), np.array([1.0])
    errs = []
    for M in (100, 200, 400):
        grid = TimeGrid(T=2 * np.pi, M=M)
        base = base_from_primal(params, x0, v0, grid, refine=10)
        spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0),
                           base=base, grid=grid, x0=x0, v0=v0)
        sol = solve_dual(spec)
        assert sol.converged
        traj = recover_primal(sol, spec)
        oracle = integrate_primal(params, x0, v0, grid.refined(10)).restrict(10)
        errs.append(max(np.max(np.abs(traj.x - oracle.x)),
                        np.max(np.abs(traj.v - oracle.v))))
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.0 < e0 / e1 < 5.0


def test_perturbed_base_recovers_unperturbed_solution():
    spec = _fput_spec(n=4, M=256, perturb=0.05, seed=11)
    sol = solve_dual(spec)
    assert sol.converged
    traj = recover_primal(sol, spec)
    params = spec.params
    oracle = integrate_primal(params, spec.x0, spec.v0,
                              spec.grid.refined(10)).restrict(10)
    err = max(np.max(np.abs(traj.x - oracle.x)), np.max(np.abs(traj.v - oracle.v)))
    # discretization error level, far below the 0.05 base perturbation
    assert err < 2e-3


def test_trust_region_path_also_converges():
    spec = _fput_spec(n=3, M=64, perturb=0.05, seed=2)
    sol = solve_dual(spec, SolveOptions(step_control="trust-region"))
    assert sol.converged


def test_a_trust_region_step_must_lower_the_gradient_beyond_its_round_off():
    # the zero-base FPUT chain started at x0 = 4 everywhere: after the first
    # step the weighted stiffness is indefinite, and the best trust-region
    # step lowers the gradient max-norm only in its last bits (from
    # 10521.774278176585 to ...583), which is no progress: the solve stops
    # there, unconverged, after 1 iteration
    n = 8
    grid = TimeGrid(T=3.0, M=200)
    params = ChainParams(m=1.0, d=0.0, force=fput_alpha(n, 0.25), forcing=ForcingSpec.zero(n))
    spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0), base=zero_base(grid, n),
                       grid=grid, x0=np.full(n, 4.0), v0=np.zeros(n))
    sol = solve_dual(spec)
    assert not sol.converged and sol.iterations == 1


def test_line_search_backtracks_once_then_newton_converges(monkeypatch):
    # a stiff FPUT chain from the zero base: the second full Newton step
    # lowers the action too far, and its half is accepted
    n = 3
    grid = TimeGrid(T=2.0, M=20)
    params = ChainParams(m=1.0, d=0.5, force=fput_alpha(n, 1.0), forcing=ForcingSpec.zero(n))
    spec = ProblemSpec(params=params, scales=ScaleParams(5.0, 1.0), base=zero_base(grid, n),
                       grid=grid, x0=0.5 * np.sin(np.arange(1, n + 1) * np.pi / (n + 1)),
                       v0=np.zeros(n))
    steps = []
    line_search = dual_solver._line_search

    def spy(spec, D, u, direction):
        trial, D_trial = line_search(spec, D, u, direction)
        steps.append(float((trial - u) @ direction / (direction @ direction)))
        return trial, D_trial

    monkeypatch.setattr(dual_solver, "_line_search", spy)
    sol = solve_dual(spec)
    assert sol.converged and sol.iterations == 6
    assert len(steps) == 6
    assert steps[1] == pytest.approx(0.5)
    assert all(t == pytest.approx(1.0) for i, t in enumerate(steps) if i != 1)


def test_a_line_search_trial_beyond_the_largest_float_is_no_step():
    # u + t d overflows at the first trial, which is halved like one that
    # lowers the action instead of reaching the field's finite check
    grid = TimeGrid(T=2 * np.pi, M=10)
    spec = _harmonic_spec(M=10, base=zero_base(grid, 1))
    u = np.full(2 * grid.M, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        got = dual_solver._line_search(spec, dual_solver._field(spec, u), u, np.full_like(u, 1e308))
    assert got is None or np.all(np.isfinite(got[0]))


def test_non_convergence_is_reported_not_raised():
    spec = _fput_spec(n=3, M=64, perturb=0.3, seed=5, amplitude=0.4)
    sol = solve_dual(spec, SolveOptions(max_iterations=1))
    assert not sol.converged
    assert sol.iterations == 1
    report = verify(sol, spec, recover_primal(sol, spec))
    assert report.gradient_norm > 1e-10
    assert np.isfinite(report.gradient_norm)


def test_a_hessian_that_is_not_finite_ends_the_solve_unconverged(band_counts):
    # finiteness is decided on the Gram record, before anything is assembled
    # or solved: at c_x = 1e-310, P = K^-1 / c_x overflows at the zero field
    # while the gradient there stays finite, so the loop stops with no
    # Hessian, factorization or Gram direction, and the final point has no
    # inertia
    base = _fput_spec(n=2, M=16)
    spec = ProblemSpec(params=base.params, scales=ScaleParams(1e-310, 1.0), base=base.base,
                       grid=base.grid, x0=base.x0, v0=base.v0)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_dual(spec)
    assert not sol.converged and sol.iterations == 0 and sol.hessian_inertia is None
    assert band_counts["hessians"] == band_counts["dpbtrf"] == band_counts["dtbtrs"] == 0


def test_verify_report_on_converged_linear_solve():
    spec = _harmonic_spec(M=256)
    sol = solve_dual(spec)
    oracle = integrate_primal(spec.params, spec.x0, spec.v0,
                              spec.grid.refined(10)).restrict(10)
    traj = recover_primal(sol, spec)
    report = verify(sol, spec, traj, oracle=oracle)
    coarse = oracle.restrict(2)  # every other node: another grid
    with pytest.raises(ValueError, match="recovered trajectory must live on the problem grid"):
        verify(sol, spec, coarse)
    with pytest.raises(ValueError, match="oracle trajectory must live on the problem grid"):
        verify(sol, spec, traj, oracle=coarse)
    assert report.gradient_norm <= 1e-10 * (1.0 + sol.residual_history[0])
    assert report.momentum_residual_max < 1e-3
    assert report.kinematic_residual_max < 1e-3
    assert report.oracle_deviation_max < 1e-3
    assert report.ellipticity_min == 1.0  # min(m^2/c_v, 1/c_x) with unit scales
    assert report.concavity_ok is True
    assert report.hessian_inertia[1] == 0
    assert report.hessian_inertia[2] == 0


def test_verify_reports_ellipticity_loss():
    B = np.zeros((1, 1, 1))
    B[0, 0, 0] = 2.0
    force = QuadraticForce(n=1, A=[[1.0]], B=B)
    params = ChainParams(m=1.0, d=0.0, force=force, forcing=ForcingSpec.zero(1))
    grid = TimeGrid(T=1.0, M=8)
    spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0),
                       base=zero_base(grid, 1), grid=grid,
                       x0=np.zeros(1), v0=np.zeros(1))
    lam = np.zeros((9, 1))
    lam[3, 0] = -0.75  # weighted stiffness 1 - 1.5 < 0 at one node
    D = DualField(grid, np.zeros((9, 1)), lam)
    sol = DualSolution(D=D, converged=False, iterations=0,
                       residual_history=(1.0,), hessian_inertia=(0, 0, 0))
    report = verify(sol, spec, recover_primal(sol, spec))
    assert report.ellipticity_min < 0.0
    assert report.concavity_ok is None  # nonlinear force: reported, not asserted


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolveOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        SolveOptions(step_control="bisection")
    spec = _harmonic_spec(M=8)
    wrong_grid = DualField.zeros(TimeGrid(T=2 * np.pi, M=16), 1)
    with pytest.raises(ValueError):
        solve_dual(spec, SolveOptions(initial_guess=wrong_grid))


def test_deterministic_resolves():
    spec = _fput_spec(n=3, M=128, perturb=0.03, seed=9)
    a = solve_dual(spec)
    b = solve_dual(spec)
    np.testing.assert_array_equal(a.D.gamma, b.D.gamma)
    np.testing.assert_array_equal(a.D.lam, b.D.lam)
    assert a.residual_history == b.residual_history


def test_residual_history_tracks_iterations():
    spec = _fput_spec(n=2, M=64, perturb=0.05, seed=4)
    sol = solve_dual(spec)
    assert sol.converged
    assert len(sol.residual_history) == sol.iterations + 1
    assert sol.residual_history[-1] < sol.residual_history[0]


def test_midpoint_data_built_once_per_solve(monkeypatch):
    # the spec samples the forcing at the element midpoints once
    calls = []
    sample = dual_action.eval_forcing

    def counted(forcing, t):
        calls.append(forcing)
        return sample(forcing, t)

    monkeypatch.setattr(dual_action, "eval_forcing", counted)
    spec = _fput_spec(n=3, M=64, perturb=0.05, seed=2)
    sol = solve_dual(spec)
    assert sol.iterations > 1
    verify(sol, spec, recover_primal(sol, spec))  # the report reuses the solve's midpoint data
    assert calls == [spec.params.forcing]


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_open_problem_factors_only_for_a_newton_direction(band_counts, monkeypatch,
                                                         step_control):
    # a damped Newton iterate takes its direction from the Gram factors: two
    # triangular band solves (dtbtrs), no Hessian band and no dpbtrf; the
    # trust region writes each iterate's open band once and factors only at
    # its shifts, each factorization copying the band; the converged point
    # assembles no Hessian, and its inertia comes from the Gram factors, not
    # from inertia(), with no eigenvalues: the weighted stiffness there
    # factors by Cholesky.  Either way each mapped state whose K|_lam is
    # not I factors exactly one stiffness band and solves it once, and no
    # K|_lam goes through np.linalg.solve
    def refuse(*args, **kwargs):
        raise AssertionError("inertia(), eigvalsh or np.linalg.solve ran")

    monkeypatch.setattr(dual_action.BlockTridiagonal, "inertia", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    states, init = [], dual_action._MappedState.__init__
    monkeypatch.setattr(dual_action._MappedState, "__init__",
                        lambda self, *args: states.append(self) or init(self, *args))
    n = 4
    grid = TimeGrid(T=3.0, M=80)
    spec = ProblemSpec(params=ChainParams(m=1.0, d=0.0, force=fput_alpha(n, 0.25),
                                          forcing=ForcingSpec.zero(n)),
                       scales=ScaleParams(1.0, 1.0), base=zero_base(grid, n), grid=grid,
                       x0=0.3 * np.sin(np.arange(1, n + 1) * np.pi / (n + 1)), v0=np.zeros(n))
    counts = band_counts
    sol = solve_dual(spec, SolveOptions(step_control=step_control))
    assert sol.converged and sol.iterations >= 2
    if step_control == "damped-newton":
        assert counts["dtbtrs"] == 2 * sol.iterations
        assert counts["bands"] == counts["hessians"] == counts["dpbtrf"] == 0
    else:
        # one band per Hessian, one Hessian per iterate that takes a step,
        # one negated copy of it per factorization, all of them shifted
        assert counts["dtbtrs"] == 0
        assert counts["bands"] == counts["hessians"] == sol.iterations
        assert counts["dpbtrf"] == counts["shifted"] > 0
    assert counts["copies"] == counts["dpbtrf"]
    assert sol.hessian_inertia == (2 * n * grid.M, 0, 0)
    stiff = sum(state.K is not None for state in states)
    assert counts["stiffness_dpbtrf"] == counts["stiffness_dpbtrs"] == stiff >= sol.iterations


def test_a_solve_from_its_own_maximum_assembles_no_hessian(band_counts):
    # convergence is tested before any direction is made, so a re-solve from
    # the converged field stops at once, with the same inertia, no Hessian
    # and no Gram direction
    spec = _fput_spec(n=3, M=64, perturb=0.05, seed=2)
    sol = solve_dual(spec)
    assert sol.converged and band_counts["dtbtrs"] == 2 * sol.iterations > 0
    again = solve_dual(spec, SolveOptions(initial_guess=sol.D))
    assert again.converged and again.iterations == 0
    assert band_counts["hessians"] == 0 and band_counts["dtbtrs"] == 2 * sol.iterations
    assert again.hessian_inertia == sol.hessian_inertia == (2 * 3 * 64, 0, 0)


def test_failed_line_search_falls_back_to_a_trust_region_step(monkeypatch, band_counts):
    # the first iterate's Newton direction is found from the Gram factors,
    # but every backtracked trial point's action is nan, so the line search
    # accepts none; the same iterate then assembles its Hessian band and
    # takes a trust-region step on it, the one band of the solve, and the
    # solve still converges to the maximum the unspoilt solve finds
    spec = _fput_spec(n=2, M=32)
    ref = solve_dual(spec)
    assert band_counts["hessians"] == 0
    action, line_search = dual_solver.action, dual_solver._line_search
    trust_region = dual_solver._trust_region_step
    events, trials = [], []

    def spoilt_first_search(spec, D, u, direction):
        if events:
            return line_search(spec, D, u, direction)

        def nan_off_the_iterate(D_at, spec):
            if D_at is D:
                return action(D_at, spec)
            trials.append(D_at)
            return np.nan

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dual_solver, "action", nan_off_the_iterate)
            accepted = line_search(spec, D, u, direction)
        events.append(("line search", accepted is None))
        return accepted

    def spied_trust_region(spec, H, g, u, gnorm):
        events.append(("trust region", u, band_counts["hessians"]))
        return trust_region(spec, H, g, u, gnorm)

    monkeypatch.setattr(dual_solver, "_line_search", spoilt_first_search)
    monkeypatch.setattr(dual_solver, "_trust_region_step", spied_trust_region)
    sol = solve_dual(spec)
    assert len(trials) == dual_solver._MAX_BACKTRACK
    assert events[0] == ("line search", True)
    assert events[1][0] == "trust region" and not np.any(events[1][1])  # from the zero field
    assert events[1][2] == band_counts["hessians"] == band_counts["bands"] == 1
    assert band_counts["dpbtrf"] == band_counts["shifted"] > 0
    assert band_counts["dtbtrs"] == 2 * (ref.iterations + sol.iterations)
    assert sol.converged
    scale = max(np.max(np.abs(ref.D.gamma)), np.max(np.abs(ref.D.lam)))
    for got, want in ((sol.D.gamma, ref.D.gamma), (sol.D.lam, ref.D.lam)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * scale)


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_each_point_solves_its_stiffness_once(monkeypatch, step_control):
    # every point is within the distance bound of I here, so its weighted
    # stiffness is solved, not inverted, and judged definite with no
    # Cholesky: a damped solve inverts and factors no K; under the trust
    # region each point whose band is assembled forms K^-1 once, for the
    # Hessian parts
    n, M = 4, 80
    params = ChainParams(m=1.0, d=0.0, force=fput_alpha(n, 0.25),
                         forcing=ForcingSpec.zero(n))
    grid = TimeGrid(T=3.0, M=M)
    spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0),
                       base=zero_base(grid, n), grid=grid,
                       x0=0.3 * np.sin(np.arange(1, n + 1) * np.pi / (n + 1)),
                       v0=np.zeros(n))
    solved, formed = [], []  # batch sizes of K solves; (caller, batch) of K inverses, factors

    def spy(log, fn, callers):
        def spied(a, *args):
            caller = sys._getframe(1).f_code.co_name
            if caller in callers:
                log.append(a.shape[0] if log is solved else (caller, a.shape[0]))
            return fn(a, *args)
        return spied

    # M midpoints per point, M + 1 nodes in recovery, each batch one band
    # solve; a K solved by np.linalg.solve would count twice
    lapack = dual_action._LAPACK

    def band_solve(fac, x):
        if sys._getframe(1).f_code.co_name == "_stiffness_solve":
            solved.append(x.size // n)
        return lapack.dpbtrs(fac, x)

    monkeypatch.setattr(np.linalg, "solve", spy(solved, np.linalg.solve, {"_stiffness_solve"}))
    monkeypatch.setattr(dual_action, "_LAPACK", lapack._replace(dpbtrs=band_solve))
    for name in ("inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, spy(formed, getattr(np.linalg, name),
                                                 {"_stiffness_solve", "Kinv", "definite"}))
    points, banded = [], []  # every DualField evaluated, kept alive so identities stay distinct
    for name in ("action", "gradient", "hessian"):
        def spied_evaluation(D, spec, _fn=getattr(dual_solver, name), _name=name):
            if not any(D is seen for seen in points):
                points.append(D)
            if _name == "hessian":
                banded.append(D)
            return _fn(D, spec)
        monkeypatch.setattr(dual_solver, name, spied_evaluation)

    sol = solve_dual(spec, SolveOptions(step_control=step_control))
    verify(sol, spec, recover_primal(sol, spec))
    assert sol.converged and sol.iterations >= 2
    # one point per step trial, each solved once, after the zero start,
    # whose K is I; the final inertia and verify's gradient reuse the last
    # point's state
    assert not np.any(points[0].lam) and solved.count(M) == len(points) - 1
    assert len({D.gamma.tobytes() + D.lam.tobytes() for D in points}) == len(points)
    assert solved.count(M + 1) == 1 and len(solved) == len(points)
    assert points[-1] is sol.D
    if step_control == "damped-newton":
        assert formed == [] and banded == []
        assert len(points) <= 2 * sol.iterations
    else:
        assert len(banded) == sol.iterations
        assert all(not any(D is E for E in banded[:k]) for k, D in enumerate(banded))
        # the zero start's K^-1 is a read-only I, formed by no inverse
        assert formed == [("Kinv", M)] * sum(bool(np.any(D.lam)) for D in banded)


@pytest.fixture
def blas_pool():
    """The getter of the OpenBLAS pool that numpy's LAPACK runs on, set to
    two threads so that a change shows on a one-core machine too; its count
    is put back after the test.  Skips where numpy's `_umath_linalg` resolves
    no OpenBLAS thread setter."""
    pairs = openblas_thread_pairs(np.linalg._umath_linalg.__file__)
    if not pairs:
        pytest.skip("numpy's LAPACK has no OpenBLAS thread setter")
    getter, setter = pairs[0]
    before = getter()
    setter(2)
    yield getter
    setter(before)


def _resonant_periodic_spec():
    # undamped unit oscillator forced at its natural frequency over one period
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.0, force=QuadraticForce(n=1, A=[[1.0]]),
                         forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=500)
    return ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0),
                       base=zero_base(grid, 1), grid=grid)


def test_a_solve_leaves_the_openblas_thread_count_as_it_found_it(monkeypatch, blas_pool):
    inside = []
    maximize = dual_solver._maximize

    def spy(spec, opts):
        inside.append(blas_pool())
        return maximize(spec, opts)

    monkeypatch.setattr(dual_solver, "_maximize", spy)
    assert solve_dual(_fput_spec(n=3, M=40)).converged
    with pytest.raises(dual_solver.SingularSystemError):
        solve_dual(_resonant_periodic_spec())
    assert inside == [2, 2]
    assert blas_pool() == 2


def test_the_library_lookup_loads_no_library():
    specs = (importlib.util.find_spec(name) for name in ("xxlimited", "_testbuffer"))
    unloaded = [spec.origin for spec in specs
                if spec and spec.origin.endswith(".so") and spec.origin not in mapped_paths()]
    if not unloaded:
        pytest.skip("no unloaded extension library to offer")
    assert dual_action._loaded_library(unloaded[0]) is None
    assert unloaded[0] not in mapped_paths()


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_each_point_assembles_its_action_and_gradient_once(monkeypatch, step_control):
    # a point's action and gradient are kept with its mapped state: the line
    # search's current action is its accepted trial's, the iterate's
    # gradient a trust-region trial's, and verify's the final iterate's;
    # each value is the one a fresh copy of its field assembles
    spec = _fput_spec(n=3, M=64, perturb=0.05, seed=2)
    assembled = {"_action_elements": [], "_gradient_elements": []}
    for name, log in assembled.items():
        def spied(spec, D, _fn=getattr(dual_action, name), _log=log):
            _log.append(D)
            return _fn(spec, D)
        monkeypatch.setattr(dual_action, name, spied)

    sol = solve_dual(spec, SolveOptions(step_control=step_control))
    before = {name: len(log) for name, log in assembled.items()}
    report = verify(sol, spec, recover_primal(sol, spec))
    assert sol.converged and sol.iterations >= 2
    assert {name: len(log) for name, log in assembled.items()} == before
    assert assembled["_gradient_elements"][-1] is sol.D
    if step_control == "damped-newton":
        assert len(assembled["_action_elements"]) > sol.iterations
    for log in assembled.values():
        assert all(not any(D is E for E in log[:k]) for k, D in enumerate(log))
    g = dual_action.gradient(sol.D, spec)
    assert report.gradient_norm == float(np.max(np.abs(g)))
    with pytest.raises(ValueError, match="read-only"):
        g[0] = 0.0
    for D in assembled["_action_elements"] + assembled["_gradient_elements"]:
        fresh = DualField(D.grid, D.gamma.copy(), D.lam.copy())
        assert dual_action.action(D, spec) == dual_action.action(fresh, spec)
        assert dual_action.gradient(D, spec).tobytes() == dual_action.gradient(fresh, spec).tobytes()


def _node_field_spec(n, M, periodic, B, c_x, c_v, m):
    grid = TimeGrid(T=1.0, M=M)
    params = ChainParams(m=m, d=0.1, force=QuadraticForce(n=n, A=np.eye(n), B=B),
                         forcing=ForcingSpec.zero(n))
    start = {} if periodic else {"x0": np.zeros(n), "v0": np.zeros(n)}
    return ProblemSpec(params=params, scales=ScaleParams(c_x, c_v), base=zero_base(grid, n),
                       grid=grid, **start)


def _report_of(spec, lam):
    """verify's report on the field (0, lam), read as a solution."""
    D = DualField(spec.grid, np.zeros_like(lam), lam)
    sol = DualSolution(D=D, converged=False, iterations=0, residual_history=(0.0,),
                       hessian_inertia=None)
    zero = np.zeros_like(lam)
    return D, verify(sol, spec, Trajectory(spec.grid, zero, zero))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(2, 9), st.booleans(), st.data())
@example(n=1, M=4, periodic=False, data="singular")  # K = 0 exactly at a node
@example(n=1, M=4, periodic=True, data="indefinite")  # K = -0.5 at a node
@example(n=2, M=6, periodic=False, data="identity")  # a linear chain: K = I
@example(n=1, M=4, periodic=False, data="within")  # K = 1.6: certified, eigvalsh decides
def test_verify_reads_the_certified_ellipticity_minimum_bit_for_bit(n, M, periodic, data):
    # verify's ellipticity_min is ellipticity_check's minimum, whether the
    # certificate reads it (every nodal K within _CERT_RHO of I) or not;
    # lambda lives on every other node, so the midpoint stiffness verify's
    # gradient solves is regular where a node's K is singular or indefinite
    B = np.zeros((n, n, n))
    c_x = c_v = m = 1.0
    lam = np.zeros((M + 1, n))
    if isinstance(data, str):
        if data != "identity":
            B[0, 0, 0] = 2.0
            lam[2, 0] = {"singular": -0.5, "indefinite": -0.75, "within": 0.3}[data]
    else:
        c_x, c_v, m = (data.draw(st.floats(0.2, 5.0)) for _ in range(3))
        if data.draw(st.booleans()):  # else a linear chain
            B = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n ** 3, max_size=n ** 3)
                          .map(lambda v: np.reshape(v, (n, n, n))))
            B = B + np.swapaxes(B, 1, 2)  # symmetric in its last two indices
        scale = data.draw(st.sampled_from([0.0, 1e-3, 0.1, 0.4, 1.0, 3.0]))
        for k in range(0, M + 1, 2):
            lam[k] = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0),
                                                         min_size=n, max_size=n)))
    lam[-1] = lam[0] if periodic else 0.0
    spec = _node_field_spec(n, M, periodic, B, c_x, c_v, m)
    try:
        D, report = _report_of(spec, lam)
    except dual_action.SingularStiffnessError:  # at a midpoint, in verify's gradient
        assume(False)
    want = float(np.min(ellipticity_check(D, spec)))
    assert np.float64(report.ellipticity_min).tobytes() == np.float64(want).tobytes()


def test_eigvalsh_sees_only_the_candidate_nodes_of_a_certified_field(monkeypatch):
    # every nodal K is within _CERT_RHO of I, and m^2/c_v is too large to
    # decide: eigvalsh sees the node of the largest bound min(1 + rho,
    # Gershgorin) on its largest eigenvalue, then only the nodes whose bound
    # reaches that node's, none of the flat ends of the field; with a small
    # m^2/c_v it sees no node at all
    n, M = 3, 60
    force = fput_alpha(n, 0.25)
    lam = np.zeros((M + 1, n))
    t = np.linspace(0.0, 1.0, M + 1)
    lam[:, 0] = 0.8 * np.exp(-((t - 0.4) / 0.05) ** 2)
    lam[-1] = 0.0
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spied(K):
        seen.append(np.array(K, ndmin=3))
        return eigvalsh(K)

    for c_v, expected_calls in ((1e-3, 2), (1e3, 0)):
        grid = TimeGrid(T=1.0, M=M)
        spec = ProblemSpec(params=ChainParams(m=1.0, d=0.0, force=force,
                                              forcing=ForcingSpec.zero(n)),
                           scales=ScaleParams(1.0, c_v), base=zero_base(grid, n), grid=grid,
                           x0=np.zeros(n), v0=np.zeros(n))
        K = dual_action.stiffness_lambda(force.B, lam, 1.0)
        dev = K - np.eye(n)
        rho = np.sqrt(np.sum(dev * dev, axis=(1, 2)))
        assert np.all(rho <= dual_action._CERT_RHO)
        bound = np.minimum(1.0 + rho, np.max(np.sum(np.abs(K), axis=2), axis=1))
        bound *= np.where(rho > 0.0, 1.0 + 1e-10, 1.0)
        best = int(np.argmax(bound))
        near = np.flatnonzero(bound >= np.max(eigvalsh(K[best])))  # best among them
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", spied)
            D, report = _report_of(spec, lam)
        assert len(seen) == expected_calls
        if expected_calls:
            assert seen[0].tobytes() == K[best].tobytes()
            assert seen[1].tobytes() == K[near].tobytes() and best in near
            assert len(near) < (M + 1) // 4
        want = float(np.min(ellipticity_check(D, spec)))
        assert report.ellipticity_min == want
        assert want == (1.0 / c_v if expected_calls == 0 else 1.0 / np.max(eigvalsh(K)))
