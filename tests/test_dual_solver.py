"""Newton solve of the dual system, primal recovery, verification reports."""
import _ctypes
import importlib.util
import os
import threading

import numpy as np
import pytest

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
    base_from_primal,
    fput_alpha,
    integrate_primal,
    perturb_base,
    recover_primal,
    solve_dual,
    verify,
    zero_base,
)
from oracles import harmonic_solution


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


def test_non_convergence_is_reported_not_raised():
    spec = _fput_spec(n=3, M=64, perturb=0.3, seed=5, amplitude=0.4)
    sol = solve_dual(spec, SolveOptions(max_iterations=1))
    assert not sol.converged
    assert sol.iterations == 1
    report = verify(sol, spec, recover_primal(sol, spec))
    assert report.gradient_norm > 1e-10
    assert np.isfinite(report.gradient_norm)


def test_a_hessian_that_is_not_finite_ends_the_solve_unconverged(band_counts):
    # finiteness is decided once, when hessian writes the band: at c_x =
    # 1e-310, P = K^-1 / c_x overflows at the zero field while the gradient
    # there stays finite, so the loop stops before any factorization, and
    # the final Hessian has no inertia
    base = _fput_spec(n=2, M=16)
    spec = ProblemSpec(params=base.params, scales=ScaleParams(1e-310, 1.0), base=base.base,
                       grid=base.grid, x0=base.x0, v0=base.v0)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_dual(spec)
    assert not sol.converged and sol.iterations == 0 and sol.hessian_inertia is None
    assert band_counts["hessians"] == 1 and band_counts["dpbtrf"] == 0


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
def test_open_problem_factors_only_for_a_newton_direction(band_counts, step_control):
    # damped Newton factors -H once per iterate; the trust region factors only
    # at its shifts (and the final inertia's certificate is one more); each
    # Hessian writes its open band once, and each factorization copies it
    n = 4
    grid = TimeGrid(T=3.0, M=80)
    spec = ProblemSpec(params=ChainParams(m=1.0, d=0.0, force=fput_alpha(n, 0.25),
                                          forcing=ForcingSpec.zero(n)),
                       scales=ScaleParams(1.0, 1.0), base=zero_base(grid, n), grid=grid,
                       x0=0.3 * np.sin(np.arange(1, n + 1) * np.pi / (n + 1)), v0=np.zeros(n))
    counts = band_counts
    sol = solve_dual(spec, SolveOptions(step_control=step_control))
    assert sol.converged and sol.iterations >= 2
    newton = sol.iterations if step_control == "damped-newton" else 0
    assert counts["dpbtrf"] == newton + counts["shifted"]
    # one band per Hessian (the loop's and the final one), one negated copy
    # of it per factorization
    assert counts["bands"] == counts["hessians"] == sol.iterations + 1
    assert counts["copies"] == counts["dpbtrf"]


def test_failed_line_search_falls_back_to_a_trust_region_step(monkeypatch):
    # the first iterate's Newton direction is found, but every backtracked
    # trial point's action is nan, so the line search accepts none; the same
    # iterate then takes a trust-region step, and the solve still converges
    # to the maximum the unspoilt solve finds
    spec = _fput_spec(n=2, M=32)
    ref = solve_dual(spec)
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
        events.append(("trust region", u))
        return trust_region(spec, H, g, u, gnorm)

    monkeypatch.setattr(dual_solver, "_line_search", spoilt_first_search)
    monkeypatch.setattr(dual_solver, "_trust_region_step", spied_trust_region)
    sol = solve_dual(spec)
    assert len(trials) == dual_solver._MAX_BACKTRACK
    assert events[0] == ("line search", True)
    assert events[1][0] == "trust region" and not np.any(events[1][1])  # from the zero field
    assert sol.converged
    scale = max(np.max(np.abs(ref.D.gamma)), np.max(np.abs(ref.D.lam)))
    for got, want in ((sol.D.gamma, ref.D.gamma), (sol.D.lam, ref.D.lam)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * scale)


@pytest.mark.parametrize("step_control", ["damped-newton", "trust-region"])
def test_each_point_inverts_its_stiffness_once(monkeypatch, step_control):
    n, M = 4, 80
    params = ChainParams(m=1.0, d=0.0, force=fput_alpha(n, 0.25),
                         forcing=ForcingSpec.zero(n))
    grid = TimeGrid(T=3.0, M=M)
    spec = ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0),
                       base=zero_base(grid, n), grid=grid,
                       x0=0.3 * np.sin(np.arange(1, n + 1) * np.pi / (n + 1)),
                       v0=np.zeros(n))
    inverted = []
    invert = dual_action._stiffness_inv

    def spy_inverse(B, lam, c_x):
        inverted.append(lam.shape[0])  # M midpoints per point, M + 1 nodes in recovery
        return invert(B, lam, c_x)

    monkeypatch.setattr(dual_action, "_stiffness_inv", spy_inverse)
    points = []  # every DualField evaluated, kept alive so identities stay distinct
    for name in ("action", "gradient", "hessian"):
        def spy(D, spec, _fn=getattr(dual_solver, name)):
            if not any(D is seen for seen in points):
                points.append(D)
            return _fn(D, spec)
        monkeypatch.setattr(dual_solver, name, spy)

    sol = solve_dual(spec, SolveOptions(step_control=step_control))
    verify(sol, spec, recover_primal(sol, spec))
    assert sol.converged and sol.iterations >= 2
    # the zero start plus one point per step trial, each inverted once, and
    # the final Hessian and verify's gradient reuse the last point's inverse
    assert inverted.count(M) == len(points)
    assert len({D.gamma.tobytes() + D.lam.tobytes() for D in points}) == len(points)
    assert inverted.count(M + 1) == 1 and len(inverted) == len(points) + 1
    assert points[-1] is sol.D
    if step_control == "damped-newton":
        assert len(points) <= 2 * sol.iterations


@pytest.fixture
def blas_pools(monkeypatch):
    """The OpenBLAS pools the solver found, each set to two threads so that a
    restore shows on a one-core machine too; their counts are put back after
    the test.  Skips where this process has no OpenBLAS."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    pools = dual_solver._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS is loaded")
    before = _counts(pools)
    for _, _, setter in pools:
        setter(2)
    yield pools
    for (_, _, setter), count in zip(pools, before):
        setter(count)


def _counts(pools):
    return [getter() for _, getter, _ in pools]


def _resonant_periodic_spec():
    # undamped unit oscillator forced at its natural frequency over one period
    forcing = ForcingSpec(n=1, sinusoids=[(0, Sinusoid(1.0, 1.0, 0.0))])
    params = ChainParams(m=1.0, d=0.0, force=QuadraticForce(n=1, A=[[1.0]]),
                         forcing=forcing)
    grid = TimeGrid(T=2 * np.pi, M=500)
    return ProblemSpec(params=params, scales=ScaleParams(1.0, 1.0),
                       base=zero_base(grid, 1), grid=grid)


def _spy_maximize(monkeypatch, pools):
    inside = []
    maximize = dual_solver._maximize

    def spy(spec, opts):
        inside.append(_counts(pools))
        return maximize(spec, opts)

    monkeypatch.setattr(dual_solver, "_maximize", spy)
    return inside


def test_solve_runs_with_one_blas_thread_and_restores_the_counts(monkeypatch, blas_pools):
    inside = _spy_maximize(monkeypatch, blas_pools)
    sol = solve_dual(_fput_spec(n=3, M=40))
    assert sol.converged
    assert inside == [[1] * len(blas_pools)]
    assert _counts(blas_pools) == [2] * len(blas_pools)
    with pytest.raises(dual_solver.SingularSystemError):
        solve_dual(_resonant_periodic_spec())
    assert inside[1:] == [[1] * len(blas_pools)]
    assert _counts(blas_pools) == [2] * len(blas_pools)


def test_user_set_blas_threads_are_left_alone(monkeypatch, blas_pools):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    inside = _spy_maximize(monkeypatch, blas_pools)
    solve_dual(_fput_spec(n=3, M=40))
    assert inside == [[2] * len(blas_pools)]
    assert _counts(blas_pools) == [2] * len(blas_pools)


class _FakePool:
    def __init__(self, count):
        self.count, self.calls = count, []

    def get(self):
        return self.count

    def set(self, count):
        self.calls.append(count)
        self.count = count


def test_nested_and_concurrent_holders_set_and_restore_once(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    fakes = [_FakePool(2), _FakePool(4)]
    found = []
    limit = dual_solver._OneBlasThread(
        lambda: found.append(1) or [("fake", f.get, f.set) for f in fakes])
    with limit:
        with limit:
            assert [f.count for f in fakes] == [1, 1]
        assert [f.count for f in fakes] == [1, 1]  # the outer holder is still inside
    assert [f.calls for f in fakes] == [[1, 2], [1, 4]] and len(found) == 1
    # a holder that raises restores too, and the next entry reads the counts afresh
    fakes[0].count = 3
    with pytest.raises(ZeroDivisionError), limit:
        1 / 0
    assert [f.calls for f in fakes] == [[1, 2, 1, 3], [1, 4, 1, 4]]
    # threads that overlap inside the limit share one set and one restore
    barrier = threading.Barrier(4, timeout=10)

    def hold():
        with limit:
            barrier.wait()  # all four are inside at once
            barrier.wait()

    threads = [threading.Thread(target=hold) for _ in range(3)]
    for t in threads:
        t.start()
    with limit:
        barrier.wait()
        barrier.wait()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert [f.calls[4:] for f in fakes] == [[1, 3], [1, 4]]


@pytest.fixture
def fresh_pool_search():
    """The once-per-process pool search, run afresh inside the test and
    again by the next caller after it."""
    dual_solver._openblas_pools.cache_clear()
    yield dual_solver._openblas_pools
    dual_solver._openblas_pools.cache_clear()


def test_without_proc_or_an_openblas_setter_the_limit_does_nothing(
        monkeypatch, fresh_pool_search):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)

    def no_proc(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(dual_solver, "open", no_proc, raising=False)
    assert dual_solver._mapped_openblas() == []
    assert fresh_pool_search() == ()
    # a mapped library that neither exports nor links an OpenBLAS setter
    fresh_pool_search.cache_clear()
    monkeypatch.setattr(dual_solver, "_mapped_openblas", lambda: [_ctypes.__file__])
    assert fresh_pool_search() == ()
    with dual_solver._OneBlasThread(fresh_pool_search):
        pass


def test_the_pool_search_loads_no_library(monkeypatch, fresh_pool_search):
    specs = (importlib.util.find_spec(name) for name in ("xxlimited", "_testbuffer"))
    unloaded = [spec.origin for spec in specs
                if spec and spec.origin.endswith(".so") and spec.origin not in _maps_paths()]
    if not unloaded:
        pytest.skip("no unloaded extension library to offer")
    monkeypatch.setattr(dual_solver, "_mapped_openblas", lambda: unloaded[:1])
    assert fresh_pool_search() == ()
    assert unloaded[0] not in _maps_paths()


def test_one_blas_thread_gives_the_same_bits(monkeypatch, blas_pools):
    spec = _fput_spec(n=4, M=60, amplitude=0.3)
    with_limit = solve_dual(spec)
    monkeypatch.setattr(dual_solver, "_ONE_BLAS_THREAD", dual_solver._OneBlasThread(lambda: ()))
    without = solve_dual(spec)
    assert with_limit.iterations == without.iterations >= 2
    for got, want in ((with_limit.D.gamma, without.D.gamma), (with_limit.D.lam, without.D.lam)):
        assert got.tobytes() == want.tobytes()


def _maps_paths():
    """The file paths in /proc/self/maps, read apart from the solver's
    finder; none without /proc."""
    try:
        with open("/proc/self/maps") as fh:
            return {line.split(None, 5)[-1].strip() for line in fh if "/" in line}
    except OSError:
        return set()


def test_every_mapped_openblas_has_a_thread_setter(fresh_pool_search):
    # a wheel that renames the setter fails here instead of silently
    # running every solve with the default thread count
    found = {path for path, _, _ in fresh_pool_search()}
    assert found == {path for path in _maps_paths()
                     if "openblas" in os.path.basename(path).lower()}
