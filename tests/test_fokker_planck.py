import numpy as np
import pytest

from fmfgc.errors import CflError, ConservationError, GridMismatchError
from fmfgc.fokker_planck import (
    duality_residual,
    fp_step,
    heat_flow,
    initial_density,
    solve_forward,
)
from fmfgc.hjb import solve_backward
from fmfgc.measures import GridMeasure, MeasurePath
from fmfgc.models import QuadraticModel, coerce_theta
from fmfgc.mu_solver import solve_mu
from fmfgc.spectral import SpectralGrid, TimeGrid

from helpers import band_limited_field


@pytest.fixture
def grid():
    return SpectralGrid(dim=1, n=64, s=0.75)


def zero_b(grid):
    return np.zeros((grid.dim,) + grid.shape)


def test_uniform_fixed_point_zero_drift(grid):
    m = GridMeasure.uniform(grid)
    out = fp_step(m, zero_b(grid), 0.02)
    assert np.max(np.abs(out.values - 1.0)) < 1e-14
    # one step takes one drift field, not a stack of them
    with pytest.raises(GridMismatchError):
        fp_step(m, zero_b(grid)[None], 0.02)


def test_uniform_constant_drift(grid):
    m = GridMeasure.uniform(grid)
    b = np.full((1, grid.n), 0.4)
    out = fp_step(m, b, 0.01)
    assert np.max(np.abs(out.values - 1.0)) < 1e-14


def test_one_step_matches_fine_reference(grid):
    # Reference is the same spatial operator at dt/100, so the defect is the
    # local time error of the split step and shrinks like dt^2.
    x = grid.nodes()[0]
    b = np.stack([np.sin(2 * np.pi * x)])
    m0 = GridMeasure.uniform(grid)

    def advance(dt_total, steps):
        m = m0
        for _ in range(steps):
            m = fp_step(m, b, dt_total / steps)
        return m.values

    def defect(dt):
        return np.max(np.abs(advance(dt, 1) - advance(dt, 100)))

    assert defect(4e-3) < 4e-3
    assert 3.2 < defect(4e-3) / defect(2e-3) < 4.8


def test_step_cfl_error(grid):
    m = GridMeasure.uniform(grid)
    b = np.full((1, grid.n), 2.0)
    with pytest.raises(CflError) as info:
        fp_step(m, b, 0.05)
    assert info.value.required_steps == 7


def test_spike_clip_conservation_error(grid):
    spike = np.zeros(grid.n)
    spike[10] = float(grid.n)
    m = GridMeasure(grid, spike)
    with pytest.raises(ConservationError):
        fp_step(m, zero_b(grid), 1e-3)


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
def test_solve_forward_is_repeated_fp_step_bitwise(dim):
    # The march splits the face velocities of the whole path once; each of
    # its steps is the one-step solve on the same drift, to the bit.
    grid = SpectralGrid(dim=dim, n=32 if dim == 1 else 16, s=0.75)
    tg = TimeGrid(horizon=0.2, n_steps=20)
    rng = np.random.default_rng(47)
    limit = 0.9 * grid.dx / tg.dt
    b_path = limit * rng.uniform(-1, 1, (tg.n_steps + 1, dim) + grid.shape)
    m0 = initial_density(grid, "twobump")
    sol = solve_forward(b_path, m0, tg)
    m = m0
    for j in range(tg.n_steps):
        m = fp_step(m, b_path[j], tg.dt)
        assert m.values.tobytes() == sol.m[j + 1].tobytes()


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
    b_path *= 0.95 * grid.dx / tg.dt / np.max(np.abs(b_path))
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


def test_solve_forward_shape_error(grid):
    tg = TimeGrid(horizon=1.0, n_steps=10)
    with pytest.raises(ValueError):
        solve_forward(np.zeros((10, 1, grid.n)), GridMeasure.uniform(grid), tg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_forward_rejects_non_finite_drift(grid, bad):
    tg = TimeGrid(horizon=1.0, n_steps=10)
    b_path = np.zeros((11, 1, grid.n))
    b_path[7, 0, 5] = bad
    with pytest.raises(ValueError, match="non-finite"):
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

    def hamiltonian_field(self, p, mu):
        return self.hamiltonian_at(mu)[0](p)

    def grad_p_field(self, p, mu):
        return np.zeros_like(np.asarray(p, dtype=float))


def frozen_path(grid, tg, m):
    n = tg.n_steps + 1
    return MeasurePath(
        tg, grid, np.broadcast_to(m.values, (n,) + grid.shape),
        np.zeros((n, grid.dim) + grid.shape),
    )


def test_duality_theta_zero_exact(grid):
    model = QuadraticModel(coupling_beta=0.3)
    tg = TimeGrid(horizon=0.5, n_steps=40)
    m0 = initial_density(grid, "vonmises")
    mu_path = frozen_path(grid, tg, m0)
    u_t = 0.1 * np.cos(2 * np.pi * grid.nodes()[0])
    u_sol = solve_backward(model, mu_path, u_t, theta=0.0)
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
    u_sol = solve_backward(model, mu_path, u_t, theta=1.0)
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
    u_sol = solve_backward(model, mu_path, u_t, theta=1.0)
    scaled = coerce_theta(model, 1.0)
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
    u_sol = solve_backward(model, mu_path, np.zeros(grid.shape), theta=1.0)
    m_other = solve_forward(
        np.zeros((11, 1, 32)), GridMeasure.uniform(other), tg
    )
    with pytest.raises(ValueError):
        duality_residual(u_sol, m_other)

