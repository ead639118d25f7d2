import csv
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fmfgc.equilibrium as equilibrium
from fmfgc import measures, spectral
from fmfgc.artifacts import theta_row
from fmfgc.equilibrium import (
    EquilibriumSolution,
    LoopConfig,
    analytic_base,
    equilibrium_certificate,
    picard_iterate,
    solve_equilibrium,
    sweep_theta,
)
from fmfgc.fokker_planck import initial_density
from fmfgc.hjb import HjbSolution
from fmfgc.models import PushedForward, QuadraticModel, coerce_theta, growth_check
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


def test_no_sweep_runs_at_theta_zero():
    # the analytic base is the one theta = 0 solution: a sweep, like a
    # direct solve, needs a scaling in (0, 1]
    grid, tg, m0, u_t = small_scenario()
    model = QuadraticModel(coupling_beta=0.3)
    base = analytic_base(m0, u_t, tg)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        picard_iterate(base, model, LoopConfig())
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


@pytest.mark.parametrize("n_steps", [24, 48])
def test_solve_and_certificate_hold_ten_scalar_paths_and_block_scratch(n_steps):
    # A certified 2-D solve at n = 64, where a block of path work is 4
    # levels.  What a sweep holds at its peak, in the backward march, in
    # scalar paths (a vector path is two in d = 2): the analytic base's
    # density, which the stage keeps as its baseline (1); the last
    # iterate's value and density, for the changes (2); the new controls
    # (2); the march's value, gradient and H (4); and the potential path
    # its Hamiltonian holds (1).  That is 10; the forward march holds the
    # new density in place of the last value and the potential, 9, and the
    # packaging and the certificate less.  No drift path is held: the CFL
    # guard, the forward march, the duality pairing and the exploitability
    # evaluate -D_p H a block of levels at a time, and no stacked
    # transform makes a path-sized spectrum.  On top come the block buffers
    # and temporaries, in arrays of BLOCK_NODES floats: in the backward
    # march its w and stacked levels (5) and the CFL guard's drift block
    # and sums (3); fewer than 12 at once.  The potential's block spectra
    # come before the march's paths exist.  A drift path would add 2
    # paths, as the solve held at 12.
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
    # stage is kept.  A stage's sweeps hold what a direct solve's do (the
    # 10 scalar paths of the solve test above, less the analytic base's
    # density that test counts as its baseline: 9).  On top come the
    # stage it started from, which the generator holds, with its value (1),
    # gradient (2), H (1), density (1) and controls, paired with the
    # density they were solved on (3): 8; and that stage's baseline, the
    # controls of the stage before (3).  That is 20, plus the block arrays
    # of the solve test.  At theta < 1 the march reads the mean of the
    # controls pushed forward by 1/theta a block of levels at a time, with
    # no copy of them.  Every earlier stage is gone: holding them all took
    # 45 paths, and a drift path per solve and the pushed-forward controls
    # 26.
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
    assert peak < 20 * scalar_path + 12 * block, (
        f"traced peak {peak / scalar_path:.2f} scalar paths"
    )


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
    # A stage lets go of what its sweeps no longer read, but never of what
    # its caller holds: each stage of sweep_theta, the start of the next,
    # and a warm start keep every array, bit for bit.
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
    base = replace(analytic_base(m0, u_t, tg), theta=theta)
    state = picard_iterate(base, model, LoopConfig())
    assert sorted(c for c in calls if c[0] != "grad_p") == [("mean", 2), ("potential", 2)]
    levels = [count for name, count in calls if name == "grad_p"]
    # the CFL guard, the forward march's check and march, and the pairing
    assert len(levels) >= 4 * len(list(grid.level_blocks(tg.n_steps))) > 4
    assert max(levels) == 8 < tg.n_steps + 1
    assert np.isfinite(state.history[-1].duality)


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
    # The sweep's value and density changes are taken a block of levels at
    # a time (3 levels here, so the blocks split 22 levels unevenly); each
    # is the whole-path value to the bit: the sup of |u_new - u_old|, and
    # the largest exact W1 per level in d = 1 or the scaled total
    # variation in d = 2.
    grid = SpectralGrid(dim=dim, n=16, s=0.75)
    monkeypatch.setattr(spectral, "BLOCK_NODES", 3 * grid.n**dim)
    rng = np.random.default_rng(61 + dim)
    shape = (22,) + grid.shape
    m_old, m_new = (m / grid.integrate(m)[(...,) + (None,) * dim]
                    for m in rng.uniform(0.5, 1.5, (2,) + shape))
    u_old, u_new = rng.standard_normal((2,) + shape)
    if dim == 1:
        view = measures.GridMeasure.view
        whole = float(np.max(measures.wasserstein_1d(view(grid, m_old), view(grid, m_new))))
    else:
        whole = float(np.sqrt(2.0) / 2.0 * 0.5 * np.max(grid.integrate(np.abs(m_new - m_old))))
    assert repr(equilibrium._density_change(grid, m_old, m_new)) == repr(whole)
    assert repr(equilibrium._value_change(grid, u_old, u_new)) == repr(
        float(np.max(np.abs(u_new - u_old)))
    )


def test_packaged_drift_is_feedback_drift_at_every_stage(benchmark_solution, benchmark_stages):
    # the drift a solution carries, which the particles advect by, is
    # -D_p H at the packaged control path and the value gradient, to the bit;
    # stage 0 is the analytic base, whose drift is zero with no model
    model = benchmark_solution[2]
    assert benchmark_stages[0].theta == 0.0
    for stage in benchmark_stages[1:]:
        scaled = coerce_theta(model, stage.theta)
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
