import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmfgc import fokker_planck, spectral
from fmfgc.equilibrium import analytic_base
from fmfgc.errors import CflError, ConservationError, InvalidFieldError
from fmfgc.fokker_planck import (
    CLIP_MASS_TOL,
    STEP_MASS_TOL,
    check_cfl,
    duality_residual,
    heat_flow,
    initial_density,
    solve_forward,
)
from fmfgc.hjb import FeedbackDrift, solve_backward
from fmfgc.measures import GridMeasure, MeasurePath
from fmfgc.models import QuadraticModel, ThetaScaledModel
from fmfgc.mu_solver import solve_mu
from fmfgc.spectral import SpectralGrid, TimeGrid

from helpers import band_limited_field, smooth_density, step_semigroup


@pytest.fixture
def grid():
    return SpectralGrid(dim=1, n=64, s=0.75)


def zero_b(grid):
    return np.zeros((grid.dim,) + grid.shape)


def one_step(m, b, dt):
    """The density after a one-step march at the constant drift field b."""
    tg = TimeGrid(horizon=dt, n_steps=1)
    return solve_forward(np.stack([b, b]), m, tg).terminal()


def test_uniform_fixed_point_zero_drift(grid):
    m = GridMeasure.uniform(grid)
    out = one_step(m, zero_b(grid), 0.02)
    assert np.max(np.abs(out.values - 1.0)) < 1e-14
    # a march takes a drift path, not one drift field
    with pytest.raises(ValueError, match="drift path shape"):
        solve_forward(zero_b(grid), m, TimeGrid(horizon=0.02, n_steps=1))


def test_uniform_constant_drift(grid):
    m = GridMeasure.uniform(grid)
    b = np.full((1, grid.n), 0.4)
    out = one_step(m, b, 0.01)
    assert np.max(np.abs(out.values - 1.0)) < 1e-14


def test_one_step_matches_fine_reference(grid):
    # Reference is the same spatial operator at dt/100, so the defect is the
    # local time error of the split step and shrinks like dt^2.
    x = grid.nodes()[0]
    b = np.stack([np.sin(2 * np.pi * x)])
    m0 = GridMeasure.uniform(grid)

    def advance(dt_total, steps):
        tg = TimeGrid(horizon=dt_total, n_steps=steps)
        return solve_forward(np.broadcast_to(b, (steps + 1,) + b.shape), m0, tg).m[-1]

    def defect(dt):
        return np.max(np.abs(advance(dt, 1) - advance(dt, 100)))

    assert defect(4e-3) < 4e-3
    assert 3.2 < defect(4e-3) / defect(2e-3) < 4.8


def test_step_cfl_error(grid):
    # one step of 0.05 at speed 2 on dx = 1/64 needs ceil(6.4) = 7 steps
    m = GridMeasure.uniform(grid)
    b = np.full((1, grid.n), 2.0)
    with pytest.raises(CflError) as info:
        one_step(m, b, 0.05)
    assert info.value.required_steps == 7


def test_spike_clip_conservation_error(grid):
    spike = np.zeros(grid.n)
    spike[10] = float(grid.n)
    m = GridMeasure(grid, spike)
    with pytest.raises(ConservationError):
        one_step(m, zero_b(grid), 1e-3)


def test_step_mass_drift_error(grid, monkeypatch):
    # An advection stage that leaks mass trips the step's guard; a leak
    # under STEP_MASS_TOL marches and is the drift the step records.
    advect = fokker_planck._advect
    m = GridMeasure.uniform(grid)
    tg = TimeGrid(horizon=0.01, n_steps=1)
    b_path = np.zeros((2, 1, grid.n))
    for leak in (1e-9, 1e-13):

        def leaky(*args, leak=leak):
            advect(*args)
            out = args[-1]
            out *= 1.0 + leak

        monkeypatch.setattr(fokker_planck, "_advect", leaky)
        if leak > STEP_MASS_TOL:
            with pytest.raises(ConservationError, match="advection stage drifted mass"):
                solve_forward(b_path, m, tg)
        else:
            drift = solve_forward(b_path, m, tg).advect_drift_trace[1]
            assert drift == pytest.approx(leak, rel=1e-2)


@pytest.mark.parametrize("offset", [5e-11, -5e-11])
def test_march_starts_from_any_checked_m0(grid, offset):
    # GridMeasure accepts a mass within MASS_TOL = 1e-10 of 1, above the
    # step's STEP_MASS_TOL: the first step measures advection against m0's
    # own mass, and the march is the march of m0 at unit mass.
    x = grid.nodes()[0]
    b_path = np.broadcast_to(0.3 * np.sin(2 * np.pi * x), (11, 1, grid.n))
    tg = TimeGrid(horizon=0.1, n_steps=10)
    unit = initial_density(grid, "vonmises")
    off = GridMeasure(grid, unit.values * (1.0 + offset))
    sol, ref = solve_forward(b_path, off, tg), solve_forward(b_path, unit, tg)
    assert np.all(sol.advect_drift_trace <= STEP_MASS_TOL)
    assert np.max(np.abs(sol.mass_trace[1:] - 1.0)) <= STEP_MASS_TOL
    assert np.max(np.abs(sol.m[1:] - ref.m[1:])) <= 1e-13


def test_solve_forward_traces_random_drift(grid):
    rng = np.random.default_rng(0)
    tg = TimeGrid(horizon=0.5, n_steps=100)
    b_path = np.stack(
        [
            np.stack([0.3 * band_limited_field(grid, rng, max_mode=3)])
            for _ in range(tg.n_steps + 1)
        ]
    )
    m0 = initial_density(grid, "vonmises")
    sol = solve_forward(b_path, m0, tg)
    assert np.max(np.abs(sol.mass_trace - 1.0)) <= 1e-10
    assert np.all(sol.min_trace >= 0.0)
    assert np.all(sol.preclip_min_trace >= -1e-12)
    assert np.max(sol.advect_drift_trace) <= 1e-12
    assert np.sum(sol.advect_drift_trace) <= 1e-10
    assert sol.m.shape == (101, grid.n)


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_forward_is_chained_one_step_marches_bitwise(dim):
    # The march splits the face velocities of the whole path once; each of
    # its steps is a one-step march on the same drift, to the bit.
    grid = SpectralGrid(dim=dim, n=32 if dim == 1 else 16, s=0.75)
    tg = TimeGrid(horizon=0.2, n_steps=20)
    rng = np.random.default_rng(47)
    # each component at 0.9 / dim of the CFL limit: the summed speed at 0.9
    limit = 0.9 * grid.dx / tg.dt / dim
    b_path = limit * rng.uniform(-1, 1, (tg.n_steps + 1, dim) + grid.shape)
    m0 = initial_density(grid, "twobump")
    sol = solve_forward(b_path, m0, tg)
    step = TimeGrid(horizon=tg.dt, n_steps=1)
    assert step.dt == tg.dt
    m = m0
    for j in range(tg.n_steps):
        m = solve_forward(b_path[j : j + 2], m, step).terminal()
        assert m.values.tobytes() == sol.m[j + 1].tobytes()


def reference_march(b_path, m0, tg):
    """The forward march step by step through public operators: donor-cell
    advection from the face-averaged drift, the mass check against the mass
    the step starts from (m0's, then 1), the semigroup as a step applies it
    (the real kernel of semigroup_apply on a small 1-D grid, semigroup_apply
    in d = 2), an unconditional clip and the renormalization; returns the
    path, the pre-clip minima and the advection mass drifts."""
    grid, dt = m0.grid, tg.dt
    path, preclip, drift = [m0.values], [float(np.min(m0.values))], [0.0]
    mass_in = m0.mass
    for j in range(tg.n_steps):
        values = path[-1]
        advected = values.copy()
        for axis in range(grid.dim):
            b = b_path[j, axis]
            face = (b + np.roll(b, -1, axis)) * 0.5
            flux = np.maximum(face, 0.0) * values + np.minimum(face, 0.0) * np.roll(
                values, -1, axis
            )
            advected -= dt / grid.dx * (flux - np.roll(flux, 1, axis))
        mass = grid.integrate(advected)
        assert abs(mass - mass_in) <= STEP_MASS_TOL
        diffused = step_semigroup(grid, advected, dt)
        clipped = np.maximum(diffused, 0.0)
        assert grid.integrate(clipped - diffused) <= CLIP_MASS_TOL
        path.append(clipped / grid.integrate(clipped))
        preclip.append(float(diffused.min()))
        drift.append(abs(mass - mass_in))
        mass_in = 1.0
    return np.stack(path), np.array(preclip), np.array(drift)


@st.composite
def smooth_marches(draw):
    """A smooth density and a band-limited drift path at up to 0.95 of the
    CFL limit, in d = 1 or 2.  In d = 2 each component peaks at half the
    speed, so the summed speed |b_1| + |b_2| that the CFL rule bounds stays
    under the limit too."""
    dim = draw(st.sampled_from([1, 2]))
    grid = SpectralGrid(dim=dim, n=32 if dim == 1 else 16, s=draw(st.floats(0.55, 0.95)))
    tg = TimeGrid(horizon=draw(st.floats(1e-3, 0.2)), n_steps=draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    speed = draw(st.floats(0.0, 0.95)) * grid.dx / tg.dt
    modes = draw(st.integers(1, 3))
    b_path = np.stack(
        [
            [band_limited_field(grid, rng, max_mode=modes, scale=speed / dim) for _ in range(dim)]
            for _ in range(tg.n_steps + 1)
        ]
    )
    m0 = GridMeasure(grid, smooth_density(grid, rng, roughness=draw(st.integers(1, 4))))
    return b_path, m0, tg


@settings(max_examples=40, deadline=None, database=None)
@given(smooth_marches())
def test_forward_steps_conserve_mass_and_sign(march):
    b_path, m0, tg = march
    sol = solve_forward(b_path, m0, tg)
    assert np.all(sol.advect_drift_trace <= STEP_MASS_TOL)
    assert np.all(np.abs(sol.mass_trace - 1.0) <= STEP_MASS_TOL)
    assert np.min(sol.m) >= 0.0


@settings(max_examples=40, deadline=None, database=None)
@given(smooth_marches())
def test_solve_forward_is_the_reference_march_bitwise(march):
    b_path, m0, tg = march
    sol = solve_forward(b_path, m0, tg)
    path, preclip, drift = reference_march(b_path, m0, tg)
    assert sol.m.tobytes() == path.tobytes()
    assert sol.preclip_min_trace.tobytes() == preclip.tobytes()
    assert sol.advect_drift_trace.tobytes() == drift.tobytes()


def test_clip_below_its_tolerance_is_the_reference_march_bitwise(grid):
    # A spike on a uniform floor: the semigroup rings below zero at one
    # node by about 1e-9, so the clip fires and removes about 1e-11 of
    # mass, under CLIP_MASS_TOL.
    tg = TimeGrid(horizon=1e-3, n_steps=1)
    spike = np.zeros(grid.n)
    spike[21] = float(grid.n)
    ring = float(grid.semigroup_apply(spike, tg.dt).min())
    assert ring < -1e-6
    floor = (-1e-9 - ring) / (1.0 - ring)
    m0 = GridMeasure(grid, (1.0 - floor) * spike + floor)
    sol = solve_forward(np.zeros((2, 1, grid.n)), m0, tg)
    assert -1e-8 < sol.preclip_min_trace[1] < 0.0
    assert sol.min_trace[1] == 0.0
    path, preclip, drift = reference_march(np.zeros((2, 1, grid.n)), m0, tg)
    assert sol.m.tobytes() == path.tobytes()
    assert sol.preclip_min_trace.tobytes() == preclip.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_heat_flow_is_the_semigroup_at_each_node(dim):
    grid = SpectralGrid(dim=dim, n=32 if dim == 1 else 16, s=0.75)
    tg = TimeGrid(horizon=0.5, n_steps=25)
    m0 = initial_density(grid, "vonmises")
    sol = heat_flow(m0, tg)
    assert sol.m.shape == (tg.n_steps + 1,) + grid.shape
    assert not sol.m.flags.writeable
    assert sol.m[0].tobytes() == m0.values.tobytes()
    for j, t in enumerate(tg.times()):
        assert np.max(np.abs(sol.m[j] - grid.semigroup_apply(m0.values, t))) <= 1e-14
    assert np.max(np.abs(sol.mass_trace - 1.0)) <= 1e-14
    assert np.array_equal(sol.preclip_min_trace, sol.min_trace)
    assert np.all(sol.advect_drift_trace == 0.0)
    assert sol.drift_div_neg == 0.0 and sol.sup_bound == np.max(m0.values)
    # the march over a zero drift path is the same flow up to roundoff
    zero = solve_forward(np.zeros((tg.n_steps + 1, dim) + grid.shape), m0, tg)
    assert np.max(np.abs(zero.m - sol.m)) <= 1e-13


def test_pure_diffusion_matches_semigroup(grid):
    m0 = initial_density(grid, "vonmises")
    tg = TimeGrid(horizon=0.5, n_steps=50)
    b_path = np.zeros((51, 1, grid.n))
    sol = solve_forward(b_path, m0, tg)
    exact = grid.semigroup_apply(m0.values, 0.5)
    assert np.max(np.abs(sol.terminal().values - exact)) < 1e-10


def test_divergence_free_2d_uniform_invariant():
    # Stream function cos(2pi(x+y)): equal wavenumbers make the discrete
    # face divergence vanish, so uniform density is an exact fixed point.
    grid = SpectralGrid(dim=2, n=32, s=0.75)
    xx, yy = grid.nodes()
    psi_arg = 2 * np.pi * (xx + yy)
    b = np.stack(
        [-np.pi * np.sin(psi_arg), np.pi * np.sin(psi_arg)]
    )
    tg = TimeGrid(horizon=0.05, n_steps=20)
    b_path = np.broadcast_to(b, (21,) + b.shape).copy()
    sol = solve_forward(b_path, GridMeasure.uniform(grid), tg)
    assert np.max(np.abs(sol.m - 1.0)) < 1e-10


def test_sup_norm_comparison_bound(grid):
    rng = np.random.default_rng(1)
    tg = TimeGrid(horizon=0.5, n_steps=100)
    b = np.stack([0.3 * band_limited_field(grid, rng, max_mode=3)])
    b_path = np.broadcast_to(b, (101,) + b.shape).copy()
    sol = solve_forward(b_path, initial_density(grid, "vonmises"), tg)
    assert sol.drift_div_neg > 0.0
    assert np.max(sol.sup_trace) <= sol.sup_bound * 1.1


def face_compression(b_path, grid):
    """K_j = max(-div_h f_j)^+ of the face velocities f_j = (b_j(x) +
    b_j(x + dx e_axis)) / 2, per slice, straight from the definition."""
    div = 0.0
    for axis in range(grid.dim):
        v = b_path[:, axis]  # grid axis `axis` of v is array axis 1 + axis
        f = 0.5 * (v + np.roll(v, -1, 1 + axis))
        div = div + (f - np.roll(f, 1, 1 + axis)) / grid.dx
    return np.maximum(np.max(-div.reshape(len(b_path), -1), axis=1), 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_sup_under_the_stepwise_face_bound(dim):
    # The donor-cell coefficients of step i sum to 1 - dt div_h f_i, so the
    # sup grows by at most 1 + dt K_i per step; rough drifts at 0.95 CFL.
    grid = SpectralGrid(dim=dim, n=64 if dim == 1 else 32, s=0.75)
    tg = TimeGrid(horizon=0.2, n_steps=40)
    rng = np.random.default_rng(59 + dim)
    b_path = rng.uniform(-1, 1, (tg.n_steps + 1, dim) + grid.shape)
    # 0.95 of the limit on the summed speed sum_i |b_i|, which is |b| in d = 1
    b_path *= 0.95 * grid.dx / tg.dt / np.max(np.abs(b_path).sum(axis=1))
    m0 = initial_density(grid, "twobump")
    sol = solve_forward(b_path, m0, tg)
    k = face_compression(b_path, grid)[: tg.n_steps]  # the slices that step
    growth = np.concatenate([[1.0], np.cumprod(1.0 + tg.dt * k)])
    assert np.all(sol.sup_trace <= np.max(m0.values) * growth * (1.0 + 1e-12))
    assert sol.drift_div_neg == pytest.approx(np.max(k), rel=1e-12)
    assert sol.sup_bound == pytest.approx(
        np.max(m0.values) * np.exp(np.max(k) * tg.horizon), rel=1e-12
    )


def test_l2_dissipation_zero_drift(grid):
    tg = TimeGrid(horizon=0.4, n_steps=40)
    sol = solve_forward(
        np.zeros((41, 1, grid.n)), initial_density(grid, "twobump"), tg
    )
    norms = [np.sqrt(np.sum(d**2) * grid.dx) for d in sol.m]
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-12)


def test_solve_forward_cfl_error(grid):
    tg = TimeGrid(horizon=1.0, n_steps=10)
    b_path = np.full((11, 1, grid.n), 5.0)
    with pytest.raises(CflError) as info:
        solve_forward(b_path, GridMeasure.uniform(grid), tg)
    assert info.value.required_steps == 320
    assert "n_t" in str(info.value)


def test_solve_forward_cfl_guards_only_the_levels_it_steps_from(grid):
    # The step from t^j reads b at t^j, so level n steps nowhere: a speed
    # there past the limit marches, and the density is the one of the path
    # with level n zeroed.  Level n is still checked finite.
    tg = TimeGrid(horizon=1.0, n_steps=20)
    m0 = initial_density(grid, "vonmises")
    x = grid.nodes()[0]
    b_path = np.broadcast_to(0.2 * np.cos(2 * np.pi * x), (21, 1, grid.n)).copy()
    b_path[-1] = 2.0
    zeroed = b_path.copy()
    zeroed[-1] = 0.0
    marched = solve_forward(b_path, m0, tg)
    assert marched.m.tobytes() == solve_forward(zeroed, m0, tg).m.tobytes()
    # the same speed at level n - 1 steps, and is stopped
    b_path[-2] = 2.0
    with pytest.raises(CflError) as info:
        solve_forward(b_path, m0, tg)
    assert info.value.required_steps == 128
    zeroed[-1, 0, 3] = np.nan
    with pytest.raises(InvalidFieldError, match="non-finite"):
        solve_forward(zeroed, m0, tg)


def test_solve_forward_cfl_bounds_the_summed_speed_in_2d():
    # Each component of the drift (c, c) is within the limit, c dt < dx, but
    # the donor-cell step loses mass through both axes' faces at once: at
    # 2 c dt > dx the clip would remove mass, so the guard must stop it first.
    grid = SpectralGrid(dim=2, n=16, s=0.75)
    tg = TimeGrid(horizon=1e-3, n_steps=1)
    x, y = grid.nodes()
    m0 = GridMeasure.normalized(grid, np.exp(3.0 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y))))
    b_path = np.full((2, 2) + grid.shape, 0.95 * grid.dx / tg.dt)
    with pytest.raises(CflError) as info:
        solve_forward(b_path, m0, tg)
    assert info.value.required_steps == 2
    # the check reads the path a block of levels at a time; the largest
    # summed speed counts wherever it sits
    grid = SpectralGrid(dim=2, n=64, s=0.75)
    tg = TimeGrid(horizon=0.2, n_steps=20)
    rng = np.random.default_rng(61)
    b_path = rng.uniform(-1, 1, (tg.n_steps + 1, 2) + grid.shape)
    b_path[17, :, 5, 9] = (30.0, -40.0)
    with pytest.raises(CflError) as info:
        solve_forward(b_path, GridMeasure.uniform(grid), tg)
    assert info.value.required_steps == int(np.ceil(70.0 * tg.horizon / grid.dx)) == 896


def test_solve_forward_shape_error(grid):
    tg = TimeGrid(horizon=1.0, n_steps=10)
    with pytest.raises(ValueError):
        solve_forward(np.zeros((10, 1, grid.n)), GridMeasure.uniform(grid), tg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_forward_rejects_non_finite_drift(grid, bad):
    tg = TimeGrid(horizon=1.0, n_steps=10)
    b_path = np.zeros((11, 1, grid.n))
    b_path[7, 0, 5] = bad
    # a package error that is also a ValueError
    with pytest.raises(InvalidFieldError, match="non-finite"):
        solve_forward(b_path, GridMeasure.uniform(grid), tg)


def test_initial_density_presets(grid):
    vm = initial_density(grid, "vonmises")
    assert abs(vm.mass - 1.0) < 1e-12
    assert np.argmax(vm.values) == 0
    two = initial_density(grid, "twobump")
    v = two.values
    local_max = [
        j
        for j in range(grid.n)
        if v[j] > v[(j - 1) % grid.n] and v[j] > v[(j + 1) % grid.n]
    ]
    assert len(local_max) == 2
    assert abs(v[local_max[0]] - v[local_max[1]]) > 0.01  # asymmetric bumps
    assert initial_density(grid, "uniform").values[0] == 1.0
    with pytest.raises(ValueError):
        initial_density(grid, "bell")
    grid2 = SpectralGrid(dim=2, n=16, s=0.75)
    assert abs(initial_density(grid2, "vonmises").mass - 1.0) < 1e-12


class ConstH:
    """Hamiltonian identically c with zero momentum gradient."""

    C0 = 1.0
    q = 2.0
    q_tilde = 2.0

    def __init__(self, c):
        self.c = c

    def hamiltonian_at(self, mu):
        return (
            lambda p, j=None: np.full(mu.density.shape if j is None else mu.grid.shape, self.c),
            lambda p, j=None: self.grad_p_field(p, mu),
        )

    def grad_p_field(self, p, mu):
        return np.zeros_like(np.asarray(p, dtype=float))


def frozen_path(grid, tg, m):
    n = tg.n_steps + 1
    return MeasurePath(
        tg, grid, np.broadcast_to(m.values, (n,) + grid.shape),
        np.zeros((n, grid.dim) + grid.shape),
    )


def test_duality_theta_zero_exact(grid):
    # the theta = 0 value (the analytic base's: u, H and the drift zero)
    # against the march of m0 at zero drift
    tg = TimeGrid(horizon=0.5, n_steps=40)
    m0 = initial_density(grid, "vonmises")
    u_t = 0.1 * np.cos(2 * np.pi * grid.nodes()[0])
    u_sol = analytic_base(m0, u_t, tg).u_sol
    m_sol = solve_forward(np.zeros((41, 1, grid.n)), m0, tg)
    assert duality_residual(u_sol, m_sol) == 0.0


def test_duality_constant_hamiltonian(grid):
    # Boundary terms cancel through semigroup self-adjointness and the cT
    # pieces cancel exactly, leaving pure roundoff.
    model = ConstH(0.7)
    tg = TimeGrid(horizon=0.5, n_steps=50)
    m0 = initial_density(grid, "vonmises")
    mu_path = frozen_path(grid, tg, m0)
    u_t = 0.2 * np.cos(2 * np.pi * grid.nodes()[0])
    u_sol = solve_backward(model, mu_path, u_t)
    m_sol = solve_forward(np.zeros((51, 1, grid.n)), m0, tg)
    assert duality_residual(u_sol, m_sol) < 1e-10


def test_duality_frozen_mu_smoke(grid):
    model = QuadraticModel(coupling_beta=0.3)
    tg = TimeGrid(horizon=0.5, n_steps=100)
    m0 = initial_density(grid, "vonmises")
    x = grid.nodes()[0]
    u_t = 0.1 * np.cos(2 * np.pi * x)
    du_t = np.stack([-0.2 * np.pi * np.sin(2 * np.pi * x)])
    mu = solve_mu(m0, du_t, model)
    mu_path = MeasurePath(
        tg, grid, np.broadcast_to(mu.density, (101, grid.n)),
        np.broadcast_to(mu.alpha, (101, 1, grid.n)),
    )
    u_sol = solve_backward(model, mu_path, u_t)
    scaled = ThetaScaledModel(model, 1.0)
    b_path = np.stack(
        [-scaled.grad_p_field(u_sol.du[j], mu_path[j]) for j in range(101)]
    )
    m_sol = solve_forward(b_path, m0, tg)
    assert duality_residual(u_sol, m_sol) < 0.05


def test_duality_mismatch_errors(grid):
    model = ConstH(0.0)
    tg = TimeGrid(horizon=0.5, n_steps=10)
    other = SpectralGrid(dim=1, n=32, s=0.75)
    m0 = initial_density(grid, "vonmises")
    mu_path = frozen_path(grid, tg, m0)
    u_sol = solve_backward(model, mu_path, np.zeros(grid.shape))
    m_other = solve_forward(
        np.zeros((11, 1, 32)), GridMeasure.uniform(other), tg
    )
    with pytest.raises(ValueError):
        duality_residual(u_sol, m_other)



# -- paths that span several blocks of levels -------------------------------


def multi_block_scenario(dim):
    """A grid, time grid, density and rough drift path at 0.9 of the CFL
    limit whose steps span at least three blocks of path work: a block is
    64 levels at n = 256 in d = 1 and 4 levels at n = 64 in d = 2.  The
    drift fades over the path, so its largest speed and compression sit
    in the first block, not the last."""
    grid = SpectralGrid(dim=dim, n=256 if dim == 1 else 64, s=0.75)
    tg = TimeGrid(horizon=0.5 if dim == 1 else 0.1, n_steps=140 if dim == 1 else 13)
    assert len(list(grid.level_blocks(tg.n_steps))) >= 3
    rng = np.random.default_rng(67 + dim)
    b_path = rng.uniform(-1, 1, (tg.n_steps + 1, dim) + grid.shape)
    b_path *= np.linspace(1.0, 0.5, tg.n_steps + 1).reshape((-1,) + (1,) * (dim + 1))
    b_path *= 0.9 * grid.dx / tg.dt / np.max(np.abs(b_path).sum(axis=1))
    return grid, tg, initial_density(grid, "twobump"), b_path


def one_block(monkeypatch, tg, grid):
    """Make one block of levels span every path on tg, as if path work ran
    over the whole path at once."""
    monkeypatch.setattr(spectral, "BLOCK_NODES", (tg.n_steps + 1) * grid.n**grid.dim)
    assert len(list(grid.level_blocks(tg.n_steps + 1))) == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_forward_across_level_blocks_is_the_whole_path_march_bitwise(dim, monkeypatch):
    # The face velocities are split a block of levels at a time; the path,
    # every trace and the comparison bound are what one block over the
    # whole path gives, to the bit.
    grid, tg, m0, b_path = multi_block_scenario(dim)
    sol = solve_forward(b_path, m0, tg)
    path, preclip, drift = reference_march(b_path, m0, tg)
    assert sol.m.tobytes() == path.tobytes()
    assert sol.preclip_min_trace.tobytes() == preclip.tobytes()
    assert sol.advect_drift_trace.tobytes() == drift.tobytes()
    one_block(monkeypatch, tg, grid)
    whole = solve_forward(b_path, m0, tg)
    for name in ("m", "mass_trace", "min_trace", "preclip_min_trace", "advect_drift_trace",
                 "sup_trace"):
        assert getattr(sol, name).tobytes() == getattr(whole, name).tobytes()
    assert sol.drift_div_neg > 0.0
    assert repr(sol.drift_div_neg) == repr(whole.drift_div_neg)
    assert repr(sol.sup_bound) == repr(whole.sup_bound)


def whole_path_duality(u_sol, m_sol):
    """duality_residual's formula on the whole path at once."""
    grid, tg = m_sol.grid, m_sol.time_grid
    integrand = -np.sum(u_sol.du * u_sol.drift[:], axis=1)
    integrand -= u_sol.hamiltonian
    running = grid.integrate(integrand * m_sol.m)
    time_integral = float(tg.dt * (running.sum() - 0.5 * (running[0] + running[-1])))
    boundary = m_sol[0].expectation(u_sol.u[0]) - m_sol[-1].expectation(u_sol.u[-1])
    return abs(boundary - time_integral)


@pytest.mark.parametrize("dim", [1, 2])
def test_duality_across_level_blocks_is_the_whole_path_sum_bitwise(dim):
    grid, tg, m0, _ = multi_block_scenario(dim)
    assert len(list(grid.level_blocks(tg.n_steps + 1))) >= 3
    rng = np.random.default_rng(73 + dim)
    model = ThetaScaledModel(QuadraticModel(coupling_beta=0.3, dim=dim), 0.5)
    density = heat_flow(m0, tg).m
    mu_path = MeasurePath(tg, grid, density, rng.uniform(-0.5, 0.5, (len(density), dim) + grid.shape))
    u_t = 0.1 * np.sum([np.cos(2 * np.pi * x) for x in grid.nodes()], axis=0)
    u_sol = solve_backward(model, mu_path, u_t)
    m_sol = solve_forward(u_sol.drift, m0, tg)
    duality = duality_residual(u_sol, m_sol)
    assert duality > 0.0
    assert repr(duality) == repr(whole_path_duality(u_sol, m_sol))


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_forward_reads_a_drift_view_as_its_array(dim):
    # The march reads its drift only as b_path[block], so a value
    # solution's drift view and the array it evaluates to give the same
    # bytes, and raise the same errors: a non-finite level, even level n,
    # ahead of a CFL violation, and the same step count for the violation.
    grid, tg, m0, _ = multi_block_scenario(dim)
    rng = np.random.default_rng(83 + dim)
    model = ThetaScaledModel(QuadraticModel(coupling_beta=0.3, dim=dim), 0.5)
    density = heat_flow(m0, tg).m
    mu_path = MeasurePath(tg, grid, density, rng.uniform(-0.5, 0.5, (len(density), dim) + grid.shape))
    u_t = 0.1 * np.sum([np.cos(2 * np.pi * x) for x in grid.nodes()], axis=0)
    u_sol = solve_backward(model, mu_path, u_t)
    view = u_sol.drift
    assert isinstance(view, FeedbackDrift)
    by_view, by_array = solve_forward(view, m0, tg), solve_forward(view[:], m0, tg)
    for name in ("m", "preclip_min_trace", "advect_drift_trace"):
        assert getattr(by_view, name).tobytes() == getattr(by_array, name).tobytes()
    assert repr(by_view.drift_div_neg) == repr(by_array.drift_div_neg)
    du = u_sol.du.copy()
    du[tg.n_steps // 2] *= 1e3
    du[-1, 0, 0] = np.nan
    spoiled = FeedbackDrift(u_sol.grad_p, du)
    for b_path in (spoiled, spoiled[:]):
        with pytest.raises(InvalidFieldError, match="drift path contains non-finite"):
            solve_forward(b_path, m0, tg)
    du[-1, 0, 0] = 0.0
    required = []
    for b_path in (spoiled, spoiled[:]):
        with pytest.raises(CflError) as info:
            solve_forward(b_path, m0, tg)
        required.append(info.value.required_steps)
    assert required[0] == required[1] > tg.n_steps
    with pytest.raises(ValueError, match="drift path shape"):
        solve_forward(FeedbackDrift(u_sol.grad_p, du[1:]), m0, tg)


@pytest.mark.parametrize("dim", [1, 2])
def test_check_cfl_across_level_blocks_is_the_whole_path_rule(dim):
    # The summed speed is read a block of levels at a time; wherever the
    # largest one sits, at a block's first or last level, the verdict and
    # the step count are the whole path's.
    grid, tg, _, b_path = multi_block_scenario(dim)
    blocks = list(grid.level_blocks(len(b_path)))
    assert len(blocks) >= 3
    check_cfl(b_path, tg, grid)  # 0.9 of the limit passes
    for level in sorted({j for b in blocks for j in (b.start, b.stop - 1)}):
        hot = b_path.copy()
        hot[level] *= 1.5 + level / len(b_path)
        speed = float(np.max(np.sum(np.abs(hot), axis=1)))
        required = int(np.ceil(speed * tg.horizon / grid.dx))
        assert speed * tg.dt > grid.dx
        # the speed is |b|, so the negated path has the same verdict
        for drift in (hot, -hot):
            with pytest.raises(CflError) as info:
                check_cfl(drift, tg, grid)
            assert info.value.required_steps == required


def small_blocks(monkeypatch, grid, levels):
    """Make a block of path work span the given number of levels."""
    monkeypatch.setattr(spectral, "BLOCK_NODES", levels * grid.n**grid.dim)


def failing_scenario(monkeypatch):
    """A 20-step march on blocks of 8 levels, at 0.9 of the CFL limit."""
    grid = SpectralGrid(dim=1, n=32, s=0.75)
    tg = TimeGrid(horizon=20 * 2.0**-10, n_steps=20)
    small_blocks(monkeypatch, grid, 8)
    assert [b.start for b in grid.level_blocks(tg.n_steps)] == [0, 8, 16]
    rng = np.random.default_rng(79)
    b_path = 0.9 * grid.dx / tg.dt * rng.uniform(-1, 1, (tg.n_steps + 1, 1) + grid.shape)
    return grid, tg, initial_density(grid, "twobump"), b_path


def spoil_step(monkeypatch, spoil, step, later=None):
    """Route the advected density of the given step, counted from 0 over
    every march from here on, through spoil, and that of the next step but
    one through later, if given."""
    advect, calls = fokker_planck._advect, []
    spoils = {step: spoil, step + 2: later or (lambda advected: advected)}

    def spoiled(*args):
        calls.append(None)
        advect(*args)
        out = args[-1]
        out[...] = spoils.get(len(calls) - 1, lambda advected: advected)(out)

    monkeypatch.setattr(fokker_planck, "_advect", spoiled)


def leak(advected):
    """The advected density with 1e-9 more mass."""
    return advected * (1.0 + 1e-9)


def spike(advected):
    """The advected mass on one node: the same sum, to the bit, which the
    semigroup rings far below zero around."""
    out = np.zeros_like(advected)
    out[5] = advected.sum()
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spoil, error, match",
    [
        (leak, ConservationError, "advection stage drifted"),
        (spike, ConservationError, "positivity clip removed"),
        (lambda advected: advected * np.inf, InvalidFieldError, "non-finite"),
    ],
)
def test_step_failing_mid_block_raises_the_one_step_march_error(monkeypatch, spoil, error, match):
    # Steps are checked a block at a time.  A step in the middle of a
    # block that leaks mass, whose clip removes more than CLIP_MASS_TOL,
    # or whose advected density is not finite raises the error a one-step
    # march from the same density raises, with the same figure in its
    # message, and the steps past it in the block raise nothing, not even
    # a warning.
    grid, tg, m0, b_path = failing_scenario(monkeypatch)
    clean = solve_forward(b_path, m0, tg)
    fail = 11
    spoil_step(monkeypatch, spoil, fail)
    with pytest.raises(error, match=match) as info:
        solve_forward(b_path, m0, tg)
    spoil_step(monkeypatch, spoil, 0)
    step = TimeGrid(horizon=tg.dt, n_steps=1)
    assert step.dt == tg.dt
    with pytest.raises(error) as one:
        solve_forward(b_path[fail : fail + 2], clean[fail], step)
    assert str(info.value) == str(one.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "first, later, match",
    [(leak, spike, "advection stage drifted"), (spike, leak, "positivity clip removed")],
)
def test_first_failing_step_of_a_block_raises(monkeypatch, first, later, match):
    # Steps 10 and 12 of the block of steps 8..15 both fail: the first
    # failure raises, as it stops a march that checks each step.
    grid, tg, m0, b_path = failing_scenario(monkeypatch)
    spoil_step(monkeypatch, first, 10, later)
    with pytest.raises(ConservationError, match=match):
        solve_forward(b_path, m0, tg)
