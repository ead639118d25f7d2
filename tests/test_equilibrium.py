import csv
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fmfgc.equilibrium as equilibrium
from fmfgc import measures, spectral
from fmfgc.artifacts import theta_row
from fmfgc.errors import CflError
from fmfgc.equilibrium import (
    EquilibriumSolution,
    LoopConfig,
    analytic_base,
    equilibrium_certificate,
    picard_iterate,
    solve_equilibrium,
    sweep_theta,
)
from fmfgc.fokker_planck import initial_density, solve_forward
from fmfgc.hjb import HjbSolution, solve_backward
from fmfgc.models import PushedForward, QuadraticModel, ThetaScaledModel, growth_check
from fmfgc.spectral import SpectralGrid, TimeGrid


class NoCoupling:
    """Plain |alpha|^2/2 running cost: no mean term, no potential.  It has
    the three field forms of a model and nothing more."""

    C0 = 2.0
    q = 2.0
    q_tilde = 2.0

    # Field forms take one slice (dim, *shape) or a path with a leading
    # time axis, so components are summed over axis -(dim + 1).

    def hamiltonian_at(self, mu):
        axis = -(mu.grid.dim + 1)
        return (
            lambda p, j=None: 0.5 * np.sum(np.asarray(p, dtype=float) ** 2, axis=axis),
            lambda p, j=None: np.asarray(p, dtype=float),
        )

    def grad_p_field(self, p, mu):
        return np.asarray(p, dtype=float)

    def lagrangian_field(self, alpha, mu):
        return 0.5 * np.sum(np.asarray(alpha, dtype=float) ** 2, axis=-(mu.grid.dim + 1))


def small_scenario(n=32, n_steps=50, horizon=0.5):
    grid = SpectralGrid(dim=1, n=n, s=0.75)
    tg = TimeGrid(horizon=horizon, n_steps=n_steps)
    m0 = initial_density(grid, "vonmises")
    u_t = 0.1 * np.cos(2 * np.pi * grid.nodes()[0])
    return grid, tg, m0, u_t


@pytest.fixture(scope="module")
def benchmark_solution():
    grid = SpectralGrid(dim=1, n=64, s=0.75)
    tg = TimeGrid(horizon=1.0, n_steps=100)
    model = QuadraticModel(coupling_beta=0.3)
    m0 = initial_density(grid, "vonmises")
    u_t = 0.15 * np.cos(2 * np.pi * grid.nodes()[0])
    sol = solve_equilibrium(model, m0, u_t, tg, theta_target=1.0)
    return grid, tg, model, m0, u_t, sol


@pytest.fixture(scope="module")
def benchmark_stages(benchmark_solution):
    grid, tg, model, m0, u_t, sol = benchmark_solution
    return list(sweep_theta(model, m0, u_t, tg))


def test_loop_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        LoopConfig(theta_schedule=(0.5, 0.25))
    with pytest.raises(ValueError):
        LoopConfig(theta_schedule=(0.0, 1.5))
    for schedule in ((), (0.0,)):
        with pytest.raises(ValueError, match="theta_schedule must be nonempty and end above 0"):
            LoopConfig(theta_schedule=schedule)
    with pytest.raises(ValueError):
        LoopConfig(max_sweeps=0)


def test_no_sweep_runs_at_theta_zero(monkeypatch):
    # the analytic base is the one theta = 0 solution: a stage scales the
    # model before its first sweep, so a stage, like a direct solve, needs
    # a scaling in (0, 1]
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    base = analytic_base(m0, u_t, tg)

    def no_sweep(*args):
        raise AssertionError("a sweep ran at theta = 0")

    monkeypatch.setattr(equilibrium, "picard_iterate", no_sweep)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        equilibrium._run_stage(base, 0.0, model, LoopConfig(), None)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        solve_equilibrium(model, m0, u_t, tg, theta_target=0.0)


def test_theta_zero_base_is_fixed_point():
    grid, tg, m0, u_t = small_scenario()
    base = analytic_base(m0, u_t, tg)
    assert np.all(base.u_sol.u == 0.0)
    assert all(np.all(mu.alpha == 0.0) for mu in base.mu_path)
    exact = grid.semigroup_apply(m0.values, tg.horizon)
    assert np.max(np.abs(base.m_sol.m[-1] - exact)) < 1e-10
    for j, t in enumerate(tg.times()):
        flow = grid.semigroup_apply(m0.values, t)
        assert np.max(np.abs(base.mu_path.density[j] - flow)) <= 1e-14


def test_theta_zero_base_holds_one_density_path():
    # the checked heat flow is the one path with memory behind it; the
    # control path views it, every zero path is a read-only broadcast, and
    # the drift evaluates to zero on the levels it is indexed with
    grid, tg, m0, u_t = small_scenario()
    base = analytic_base(m0, u_t, tg)
    assert np.shares_memory(base.mu_path.density, base.m_sol.m)
    assert not base.m_sol.m.flags.writeable
    zeros = (base.u_sol.u, base.u_sol.hamiltonian, base.u_sol.du, base.mu_path.alpha)
    for path in zeros:
        assert not path.flags.writeable
        assert set(path.strides) == {0}
    assert base.u_sol.drift.shape == base.u_sol.du.shape
    assert not np.any(base.u_sol.drift[:])
    assert base.u_sol.u.shape == base.m_sol.m.shape == (tg.n_steps + 1,) + grid.shape
    assert base.mu_path.alpha.shape == base.u_sol.du.shape == (tg.n_steps + 1, 1) + grid.shape


@pytest.mark.parametrize("dim", [1, 2])
def test_every_solution_holds_one_density_path(dim):
    # A stage returns the density its last sweep wrote, which its controls
    # were re-solved on: the solution's density and its measure path's are
    # one array, for a direct solve and for every stage of sweep_theta, the
    # analytic base among them
    grid = SpectralGrid(dim=dim, n=16, s=0.75)
    tg = TimeGrid(horizon=0.25, n_steps=20)
    model = QuadraticModel(coupling_beta=0.3, dim=dim)
    m0 = initial_density(grid, "twobump")
    u_t = 0.15 * np.prod(np.cos(2 * np.pi * np.asarray(grid.nodes())), axis=0)
    stages = list(sweep_theta(model, m0, u_t, tg))
    solved = [solve_equilibrium(model, m0, u_t, tg)] + stages
    assert [s.theta for s in stages] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for sol in solved:
        assert sol.converged
        assert np.shares_memory(sol.mu_path.density, sol.m_sol.m), sol.theta


def test_a_stage_marches_the_density_once_per_sweep(monkeypatch):
    # the closing control re-solve reads the last sweep's density and
    # marches no density path of its own
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    march = equilibrium.solve_forward
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return march(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "solve_forward", counted)
    sol = solve_equilibrium(model, m0, u_t, tg)
    assert sol.converged and len(calls) == sol.sweeps > 1


def test_returned_density_is_a_march_under_the_returned_drift_to_tolerance():
    # The returned density is the last sweep's, marched under the drift of
    # the controls that sweep solved; the stage's controls are re-solved on
    # it afterwards.  Where the mean control is far from zero (strong
    # coupling from two bumps, as in the CLI's short-horizon case), a fresh
    # march under the returned drift lies within the loop tolerance of it
    # in W1 on every level: 1.6e-10 measured at tolerance 1e-6.
    grid = SpectralGrid(dim=1, n=128, s=0.75)
    tg = TimeGrid(horizon=0.1, n_steps=200)
    model = QuadraticModel(coupling_beta=0.9)
    m0 = initial_density(grid, "twobump")
    u_t = 0.15 * np.cos(2 * np.pi * grid.nodes()[0])
    cfg = LoopConfig()
    sol = solve_equilibrium(model, m0, u_t, tg, cfg=cfg)
    assert sol.converged
    assert np.max(np.abs(sol.mu_path.mean_control())) > 1e-3
    fresh = solve_forward(sol.u_sol.drift, m0, tg)
    view = measures.GridMeasure.view
    w1 = measures.wasserstein_1d(view(grid, fresh.m), view(grid, sol.m_sol.m))
    assert np.max(w1) <= cfg.tolerance


@pytest.mark.parametrize("n_steps", [24, 48])
def test_solve_and_certificate_hold_ten_scalar_paths_and_block_scratch(n_steps):
    # A certified 2-D solve at n = 64, where a block of path work is 4
    # levels.  In scalar paths (a vector path is two in d = 2): the stage
    # owns its value (1), gradient (2), H (1), density (1) and controls
    # (2), which its sweeps and its closing re-solve write over, and the
    # caller holds the analytic base's density, the stage's baseline (1):
    # 8.  The backward march and the closing H write add the potential path
    # the Hamiltonian holds (1): 9 at most, 10.74 and 9.88 measured with the
    # blocks below, against 11.02 and 10.02 when the stage marched a second
    # density path after its sweeps, and 11.74 and 10.88 when every sweep
    # allocated its paths anew.  No drift path is held:
    # the CFL guard, the forward march, the duality pairing and the
    # exploitability evaluate -D_p H a block of levels at a time, and no
    # stacked transform makes a path-sized spectrum.  On top come the block
    # buffers and temporaries, in arrays of BLOCK_NODES floats: in the
    # backward march its w and stacked levels (5) and the CFL guard's drift
    # block and sums (3); fewer than 12 at once.  The potential's block
    # spectra come before the march's paths exist.  A drift path would add
    # 2 paths, as the solve held at 12.
    grid = SpectralGrid(dim=2, n=64, s=0.75)
    assert spectral.BLOCK_NODES // grid.n**grid.dim == 4
    tg = TimeGrid(horizon=n_steps / 96, n_steps=n_steps)
    model = QuadraticModel(coupling_beta=0.3, dim=2)
    m0 = initial_density(grid, "vonmises")
    x, y = grid.nodes()
    u_t = 0.15 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    tracemalloc.start()
    try:
        sol = solve_equilibrium(model, m0, u_t, tg)
        cert = equilibrium_certificate(sol, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.converged and cert.moments_ok and cert.monotone_ok
    scalar_path = (tg.n_steps + 1) * grid.n**grid.dim * 8
    block = spectral.BLOCK_NODES * 8
    assert peak < 10 * scalar_path + 12 * block, (
        f"traced peak {peak / scalar_path:.2f} scalar paths"
    )


def test_continuation_holds_one_solve_and_the_stage_it_started_from():
    # A 2-D continuation consumed as fmfgc sweep-theta consumes it: each
    # stage becomes its theta-table row as it ends, and only the last
    # stage is kept.  A stage holds what a direct solve's does (the solve
    # test above, less the analytic base's density that test counts as
    # its baseline): its own 7 scalar paths and the potential in the
    # backward march (1), so 8.  On top come the stage it started from,
    # which the generator holds, with its value (1), gradient (2), H (1),
    # density (1) and controls (2), solved on that one density: 7; and
    # that stage's baseline, the controls of the stage before and their
    # density (3).  That is 18, plus the block arrays of the solve test:
    # 18.92 measured, against 20.07 when a stage marched a second density
    # path after its sweeps and 20.93 when every sweep allocated its paths
    # anew.  At theta < 1 the
    # march reads the mean of the controls pushed forward by 1/theta a
    # block of levels at a time, with no copy of them.  Every earlier
    # stage is gone: holding them all took 45 paths, and a drift path per
    # solve and the pushed-forward controls 26.
    grid = SpectralGrid(dim=2, n=64, s=0.75)
    tg = TimeGrid(horizon=0.5, n_steps=48)
    model = QuadraticModel(coupling_beta=0.3, dim=2)
    m0 = initial_density(grid, "vonmises")
    x, y = grid.nodes()
    u_t = 0.15 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    tracemalloc.start()
    try:
        rows = []
        for stage in sweep_theta(model, m0, u_t, tg):
            rows.append(theta_row(stage))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row[0] for row in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert stage.converged and stage.theta == 1.0
    scalar_path = (tg.n_steps + 1) * grid.n**grid.dim * 8
    block = spectral.BLOCK_NODES * 8
    assert peak < 19 * scalar_path + 12 * block, (
        f"traced peak {peak / scalar_path:.2f} scalar paths"
    )


def test_a_sweep_writes_over_the_paths_its_stage_owns(monkeypatch):
    # The continuation above, traced one sweep at a time: a stage copies
    # its start into paths of its own once, and its sweeps write over
    # them, so a sweep holds one scalar path of its own at its peak, the
    # potential its Hamiltonian reads in the backward march, and block
    # arrays (fewer than 12) on top of what was traced when it started:
    # 1.86 scalar paths.  The first sweep also builds the step operators
    # the grid keeps for the later ones.  A sweep that allocated its
    # value, gradient, H, density and controls anew read 7.91.
    grid = SpectralGrid(dim=2, n=64, s=0.75)
    tg = TimeGrid(horizon=0.5, n_steps=48)
    model = QuadraticModel(coupling_beta=0.3, dim=2)
    m0 = initial_density(grid, "vonmises")
    x, y = grid.nodes()
    u_t = 0.15 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    picard = equilibrium.picard_iterate
    above = []

    def traced(*args, **kwargs):
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        state = picard(*args, **kwargs)
        above.append(tracemalloc.get_traced_memory()[1] - start)
        return state

    monkeypatch.setattr(equilibrium, "picard_iterate", traced)
    tracemalloc.start()
    try:
        for stage in sweep_theta(model, m0, u_t, tg):
            pass
    finally:
        tracemalloc.stop()
    assert stage.converged and stage.theta == 1.0 and len(above) == stage.sweeps > 4
    scalar_path = (tg.n_steps + 1) * grid.n**grid.dim * 8
    block = spectral.BLOCK_NODES * 8
    assert max(above[1:]) < scalar_path + 12 * block, (
        f"a sweep allocated {max(above[1:]) / scalar_path:.2f} scalar paths"
    )


def test_a_sweep_is_a_map_on_the_gradient_and_the_density(benchmark_solution, benchmark_stages):
    # One sweep reads the value gradient and the density, and the controls
    # only as the start of their fixed point: two copies of a stage's paths
    # that differ only in u and H (a constant value, and NaN for H) are
    # written to the same bits, with the same density change and duality.
    # Only the value change, taken against what u held, differs.
    model, stage = benchmark_solution[2], benchmark_stages[2]
    scaled = ThetaScaledModel(model, 0.75)
    kept, wiped = equilibrium._own(stage), equilibrium._own(stage)
    wiped[0].u[...] = 1.0
    wiped[0].hamiltonian[...] = np.nan
    first = picard_iterate(scaled, kept, 0.75 * stage.u_terminal)
    second = picard_iterate(scaled, wiped, 0.75 * stage.u_terminal)

    def written(paths):
        value, m, alpha = paths
        return [a.tobytes() for a in (value.u, value.du, value.hamiltonian, m, alpha)]

    assert written(kept) == written(wiped)
    assert np.all(np.isfinite(wiped[0].hamiltonian))
    assert first[1].change == second[1].change and first[2] == second[2]
    assert first[0].change != second[0].change


def _path_arrays(sol):
    """Every array a solution holds, by name."""
    arrays = {
        "u": sol.u_sol.u, "du": sol.u_sol.du, "hamiltonian": sol.u_sol.hamiltonian,
        "m": sol.m_sol.m, "mu.density": sol.mu_path.density,
        "mu.alpha": sol.mu_path.alpha, "u_terminal": sol.u_terminal,
    }
    if sol.baseline_mu is not None:
        arrays.update({"baseline.density": sol.baseline_mu.density,
                       "baseline.alpha": sol.baseline_mu.alpha})
    return arrays


def test_a_solve_frees_and_writes_nothing_a_caller_holds(monkeypatch):
    # A stage's sweeps write over the stage's own copy of its start, never
    # over what its caller holds: each stage of sweep_theta, the start of
    # the next, and a warm start keep every array, bit for bit.
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    made = []
    run_stage = equilibrium._run_stage

    def recorded(*args, **kwargs):
        stage = run_stage(*args, **kwargs)
        made.append((stage, {k: v.copy() for k, v in _path_arrays(stage).items()}))
        return stage

    monkeypatch.setattr(equilibrium, "_run_stage", recorded)
    stages = list(sweep_theta(model, m0, u_t, tg))
    assert len(made) == len(stages) - 1 == 4
    for stage, (kept, copies) in zip(stages[1:], made):
        assert stage is kept
        for name, array in _path_arrays(stage).items():
            assert np.array_equal(array, copies[name]), (stage.theta, name)

    warm = stages[2]
    copies = {k: v.copy() for k, v in _path_arrays(warm).items()}
    held = (warm.u_sol, warm.m_sol, warm.mu_path, warm.baseline_mu, warm.history)
    sol = solve_equilibrium(model, m0, u_t, tg, theta_target=1.0, warm_start=warm)
    assert sol.converged
    assert all(a is b for a, b in zip(held, (warm.u_sol, warm.m_sol, warm.mu_path,
                                             warm.baseline_mu, warm.history)))
    for name, array in _path_arrays(warm).items():
        assert np.array_equal(array, copies[name]), name


def test_a_stage_that_raises_leaves_what_its_caller_holds(monkeypatch):
    # A stage's second sweep writes over the stage's own paths and then
    # raises: its half-written paths are dropped with the error, and the
    # stage sweep_theta yielded before it, and a warm start, keep every
    # array bit for bit.
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    march = equilibrium.solve_forward
    calls = []

    def second_sweep_fails(*args, **kwargs):
        m_sol = march(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            raise CflError("injected", required_steps=99)
        return m_sol

    stages = sweep_theta(model, m0, u_t, tg)
    next(stages)
    held = next(stages)
    assert held.theta == 0.25 and held.converged
    copies = {k: v.tobytes() for k, v in _path_arrays(held).items()}
    monkeypatch.setattr(equilibrium, "solve_forward", second_sweep_fails)
    with pytest.raises(CflError) as raised:
        next(stages)
    assert raised.value.sweep_index == held.sweeps + 1
    calls.clear()
    with pytest.raises(CflError):
        solve_equilibrium(model, m0, u_t, tg, theta_target=1.0, warm_start=held)
    assert len(calls) == 2
    for name, array in _path_arrays(held).items():
        assert array.tobytes() == copies[name], name


def test_decoupled_model_control_is_minus_gradient():
    grid, tg, m0, u_t = small_scenario()
    model = NoCoupling()
    sol = solve_equilibrium(model, m0, u_t, tg)
    assert sol.converged
    for j in (0, tg.n_steps // 2, tg.n_steps):
        defect = sol.mu_path[j].alpha + sol.u_sol.du[j]
        assert np.max(np.abs(defect)) < 1e-11
    cert = equilibrium_certificate(sol, model)
    assert cert.monotonicity_min >= -1e-10


def test_duck_typed_model_with_three_forms():
    # hamiltonian_at, grad_p_field, lagrangian_field and the growth class
    # are the whole model surface: the solve, its certificate and the
    # growth check need nothing else
    grid, tg, m0, u_t = small_scenario()
    model = NoCoupling()
    assert not hasattr(model, "hamiltonian_field")
    sol = solve_equilibrium(model, m0, u_t, tg, theta_target=0.5)
    assert sol.converged
    cert = equilibrium_certificate(sol, model)
    assert cert.duality < 1e-2 and cert.moments_ok and cert.monotone_ok
    assert growth_check(model, grid).violations(model.C0) == 0


def test_benchmark_converges(benchmark_solution):
    grid, tg, model, m0, u_t, sol = benchmark_solution
    assert sol.converged
    assert sol.theta == 1.0
    assert sol.sweeps < 40
    assert np.max(np.abs(sol.u_sol.u[-1] - 1.0 * u_t)) == 0.0
    cert = equilibrium_certificate(sol, model)
    assert cert.exploitability <= 1e-12
    assert cert.duality < 1e-2
    assert cert.monotonicity_min >= -1e-10
    assert cert.moments_ok
    assert cert.lambda_sup > 0.0


def test_uniqueness_from_perturbed_start(benchmark_solution):
    grid, tg, model, m0, u_t, sol = benchmark_solution
    x = grid.nodes()[0]
    bump = 0.05 * np.cos(2 * np.pi * x)
    u_pert = sol.u_sol.u + bump
    du_pert = np.stack([grid.gradient(u_pert[j]) for j in range(tg.n_steps + 1)])
    pert_u_sol = HjbSolution(time_grid=tg, grid=grid, u=u_pert, du=du_pert)
    start = EquilibriumSolution(
        theta=1.0,
        u_sol=pert_u_sol,
        m_sol=sol.m_sol,
        mu_path=sol.mu_path,
        u_terminal=sol.u_terminal,
        history=[],
    )
    again = solve_equilibrium(model, m0, u_t, tg, warm_start=start)
    assert again.converged
    assert np.max(np.abs(again.u_sol.u - sol.u_sol.u)) <= 2e-6


def test_sweeps_count_the_history_of_a_hand_built_warm_start(benchmark_solution):
    # a state built by hand with earlier sweeps in its history counts them,
    # and the solve started from it counts on from there
    grid, tg, model, m0, u_t, sol = benchmark_solution
    start = EquilibriumSolution(
        theta=1.0,
        u_sol=replace(sol.u_sol, hamiltonian=None, grad_p=None),
        m_sol=sol.m_sol,
        mu_path=sol.mu_path,
        u_terminal=sol.u_terminal,
        history=list(sol.history),
    )
    assert start.sweeps == len(sol.history) > 0
    again = solve_equilibrium(model, m0, u_t, tg, warm_start=start)
    assert again.converged
    assert again.sweeps == len(again.history) > start.sweeps
    assert [m.sweep for m in again.history] == list(range(1, again.sweeps + 1))


def test_schedule_path_independence(benchmark_solution, benchmark_stages):
    grid, tg, model, m0, u_t, cold = benchmark_solution
    continued = benchmark_stages[-1]
    assert cold.converged
    assert continued.converged
    assert np.max(np.abs(cold.u_sol.u - continued.u_sol.u)) <= 2e-6
    # warm-start dominance: the final stage of the continuation run needs
    # no more sweeps than the direct solve spent in total
    warm_final = sum(1 for m in continued.history if m.theta == 1.0)
    assert warm_final <= cold.sweeps


def test_solve_runs_one_stage_at_target(benchmark_solution, benchmark_stages):
    grid, tg, model, m0, u_t, sol = benchmark_solution
    direct = solve_equilibrium(model, m0, u_t, tg, cfg=LoopConfig(theta_schedule=(1.0,)))
    for got in (sol, direct):
        assert got.theta == 1.0
        assert got.history
        assert all(m.theta == 1.0 for m in got.history)
    # the schedule is the continuation's only; the direct solve ignores it
    assert np.array_equal(direct.u_sol.u, sol.u_sol.u)
    assert np.array_equal(direct.m_sol.m, sol.m_sol.m)
    assert np.array_equal(direct.mu_path.alpha, sol.mu_path.alpha)
    assert np.max(np.abs(sol.u_sol.u - benchmark_stages[-1].u_sol.u)) <= 2e-6


def test_nonconvergence_returns_flagged_state():
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    # Three sweeps cannot meet the tolerance: Picard here gains about a
    # factor 30 per sweep, so the third defect (about 3e-5) is far above
    # roundoff, and no rounding change can land the iterate on a fixed point.
    cfg = LoopConfig(tolerance=1e-300, max_sweeps=3)
    sol = solve_equilibrium(model, m0, u_t, tg, cfg=cfg)
    assert not sol.converged
    assert sol.history[-1].defect > 1e-8
    assert len(sol.history) == cfg.max_sweeps
    assert all(m.delta == 1.0 for m in sol.history)  # plain Picard: no averaging
    assert np.all(np.isfinite(sol.u_sol.u))


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_sweep_reads_each_path_quantity_once(theta, monkeypatch):
    # Past the control fixed point, one sweep reads the potential and the
    # mean control once, on the whole path (at theta < 1 the mean of the
    # controls pushed forward by 1/theta), and evaluates D_p H only on
    # blocks of levels, never on a whole path: the CFL guard, the forward
    # march and the duality pairing read the solution's drift a block of
    # levels at a time.  Blocks here are 8 levels of the 51.
    monkeypatch.setattr(spectral, "BLOCK_NODES", 8 * 32)
    calls = []
    solve_mu = equilibrium.solve_mu
    potential = QuadraticModel._potential
    means = {cls: cls.mean_control for cls in (measures._JointFields, PushedForward)}
    field, at = QuadraticModel.grad_p_field, QuadraticModel.hamiltonian_at

    def fixed_point_then_count(*args, **kwargs):
        out = solve_mu(*args, **kwargs)
        calls.clear()  # the fixed point's own reads are its iterations
        return out

    def counted_potential(self, grid, density):
        calls.append(("potential", density.ndim))
        return potential(self, grid, density)

    def counted_mean(cls):
        def mean(self):
            calls.append(("mean", self.density.ndim))
            return means[cls](self)

        return mean

    def counted_field(self, p, mu):
        calls.append(("grad_p_field", np.ndim(p)))
        return field(self, p, mu)

    def counted_at(self, mu):
        h, grad_p = at(self, mu)

        def counted_grad_p(p, j=None):
            # the levels of a block, or one level
            calls.append(("grad_p", len(p) if np.ndim(p) == 3 else 1))
            return grad_p(p, j)

        return h, counted_grad_p

    monkeypatch.setattr(equilibrium, "solve_mu", fixed_point_then_count)
    monkeypatch.setattr(QuadraticModel, "_potential", counted_potential)
    for cls in means:
        monkeypatch.setattr(cls, "mean_control", counted_mean(cls))
    monkeypatch.setattr(QuadraticModel, "grad_p_field", counted_field)
    monkeypatch.setattr(QuadraticModel, "hamiltonian_at", counted_at)
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    base = analytic_base(m0, u_t, tg)
    scaled = ThetaScaledModel(model, theta)
    _, _, duality = picard_iterate(scaled, equilibrium._own(base), theta * base.u_terminal)
    assert sorted(c for c in calls if c[0] != "grad_p") == [("mean", 2), ("potential", 2)]
    levels = [count for name, count in calls if name == "grad_p"]
    # the CFL guard, the forward march's check and march, and the pairing
    assert len(levels) >= 4 * len(list(grid.level_blocks(tg.n_steps))) > 4
    assert max(levels) == 8 < tg.n_steps + 1
    assert np.isfinite(duality)


def test_metrics_stream_csv():
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    sink = io.StringIO()
    sol = solve_equilibrium(model, m0, u_t, tg, metrics_stream=sink)
    rows = list(csv.reader(io.StringIO(sink.getvalue())))
    assert rows[0] == ["sweep", "theta", "delta", "u_change", "m_change", "duality"]
    assert len(rows) - 1 == len(sol.history)
    floats = [float(r[3]) for r in rows[1:]]
    assert all(np.isfinite(v) for v in floats)


def test_sweep_theta_stages():
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    stages = list(sweep_theta(model, m0, u_t, tg))
    assert [s.theta for s in stages] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(s.converged for s in stages)
    sups = [float(np.max(np.abs(s.u_sol.u))) for s in stages]
    assert sups[0] == 0.0
    assert all(a < b for a, b in zip(sups, sups[1:]))


@pytest.mark.parametrize("dim", [1, 2])
def test_loop_changes_across_level_blocks_are_the_whole_path_values(dim, monkeypatch):
    # The marches take the sweep's value and density changes as they write
    # over the old paths, a block of levels at a time (1, 3 and 8 levels
    # here, so the blocks split the 22 steps unevenly, and one block of
    # all of them); each is the whole-path value to the bit: the sup of
    # |u_new - u_old|, and the largest exact W1 per level in d = 1 or the
    # scaled total variation in d = 2.  A march given no paths writes the
    # same bytes into paths of its own.
    grid = SpectralGrid(dim=dim, n=16, s=0.75)
    tg = TimeGrid(horizon=0.2, n_steps=22)
    model = QuadraticModel(coupling_beta=0.3, dim=dim)
    rng = np.random.default_rng(61 + dim)
    shape = (tg.n_steps + 1,) + grid.shape
    m_old = rng.uniform(0.5, 1.5, shape)
    m_old /= grid.integrate(m_old)[(...,) + (None,) * dim]
    m_old[0] = initial_density(grid, "twobump").values
    u_old = rng.standard_normal(shape)
    du_old = rng.standard_normal((tg.n_steps + 1, dim) + grid.shape)
    alpha = 0.1 * rng.standard_normal(du_old.shape)
    mu_path = measures.MeasurePath(tg, grid, m_old, alpha)
    u_t = 0.15 * np.cos(2 * np.pi * grid.nodes()[0])
    changes = []
    for levels in (1, 3, 8, 22):
        monkeypatch.setattr(spectral, "BLOCK_NODES", levels * grid.n**dim)
        value = HjbSolution(tg, grid, u_old.copy(), du_old.copy(), np.empty(shape))
        u_sol = solve_backward(model, mu_path, u_t, value)
        assert u_sol.u is value.u and u_sol.hamiltonian is value.hamiltonian
        own = solve_backward(model, mu_path, u_t)
        assert own.u.tobytes() == u_sol.u.tobytes() and own.du.tobytes() == u_sol.du.tobytes()
        m = m_old.copy()
        m0 = measures.GridMeasure.view(grid, m[0])
        m_sol = solve_forward(u_sol.drift, m0, tg, m, equilibrium._density_change)
        assert np.shares_memory(m_sol.m, m)
        assert solve_forward(u_sol.drift, m0, tg).m.tobytes() == m.tobytes()
        if dim == 1:
            view = measures.GridMeasure.view
            w1 = measures.wasserstein_1d(view(grid, m_old), view(grid, m))
            whole = float(np.max(w1))
        else:
            l1 = np.max(grid.integrate(np.abs(m - m_old)))
            whole = float(np.sqrt(2.0) / 2.0 * 0.5 * l1)
        assert repr(m_sol.change) == repr(whole)
        assert repr(u_sol.change) == repr(float(np.max(np.abs(u_sol.u - u_old))))
        changes.append((u_sol.change, m_sol.change))
    assert len(set(changes)) == 1
    # the value change is found on whichever level it is largest, the
    # terminal level included
    for level in range(tg.n_steps + 1):
        far = u_old.copy()
        far[level] += 100.0
        value = HjbSolution(tg, grid, far.copy(), du_old.copy(), np.empty(shape))
        u_sol = solve_backward(model, mu_path, u_t, value)
        assert repr(u_sol.change) == repr(float(np.max(np.abs(u_sol.u - far))))
        assert np.argmax(np.max(np.abs(u_sol.u - far).reshape(len(far), -1), axis=1)) == level


def test_packaged_drift_is_feedback_drift_at_every_stage(benchmark_solution, benchmark_stages):
    # the drift a solution carries, which the particles advect by, is
    # -D_p H at the closing control path and the value gradient, to the bit;
    # stage 0 is the analytic base, whose drift is zero with no model
    model = benchmark_solution[2]
    assert benchmark_stages[0].theta == 0.0
    for stage in benchmark_stages[1:]:
        scaled = ThetaScaledModel(model, stage.theta)
        want = -scaled.grad_p_field(stage.u_sol.du, stage.mu_path)
        drift = stage.u_sol.drift
        assert np.array_equal(drift[:], want)
        for block in stage.grid.level_blocks(len(drift)):
            assert drift[block].tobytes() == want[block].tobytes()


def test_sweep_theta_stops_at_unconverged_stage():
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    # three sweeps carry theta = 0.25 and 0.5 to tolerance but not 0.75,
    # so theta = 1 must not start from the unconverged 0.75 state
    stages = list(sweep_theta(model, m0, u_t, tg, cfg=LoopConfig(max_sweeps=3)))
    assert [s.theta for s in stages] == [0.0, 0.25, 0.5, 0.75]
    assert [s.converged for s in stages] == [True, True, True, False]
    assert stages[-1].sweeps == 9


def test_certificate_pairing_minimum_covers_every_row(benchmark_solution, monkeypatch):
    # A negative or NaN pairing on any slice, not only on every
    # (n_t // 8)-th one, must fail the monotonicity check.
    grid, tg, model, m0, u_t, sol = benchmark_solution
    assert sol.baseline_mu is not None
    assert equilibrium_certificate(sol, model).monotone_ok
    for bad in (-1e-3, np.nan):
        pairing = np.zeros(tg.n_steps + 1)
        pairing[5] = bad
        monkeypatch.setattr(equilibrium, "monotonicity_pairing", lambda *_, p=pairing: p)
        assert not equilibrium_certificate(sol, model).monotone_ok


def test_certificate_theta_zero_trivial():
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    base = analytic_base(m0, u_t, tg)
    cert = equilibrium_certificate(base, model)
    assert cert.duality == 0.0
    assert cert.exploitability == 0.0
    assert cert.monotonicity_min == 0.0
    assert cert.lambda_sup == 0.0
    assert cert.moments_ok


def test_final_stage_defect_decreases(benchmark_solution):
    grid, tg, model, m0, u_t, sol = benchmark_solution
    stage = [m.defect for m in sol.history if m.theta == 1.0]
    assert len(stage) >= 3
    assert all(b < a for a, b in zip(stage, stage[1:]))
