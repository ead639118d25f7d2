from dataclasses import replace

import numpy as np
import pytest

from fmfgc.artifacts import theta_row
from fmfgc.equilibrium import EquilibriumSolution, analytic_base
from fmfgc.errors import BlowUpError, CflError, GridMismatchError
from fmfgc.hjb import FeedbackDrift, centered_curvature, solve_backward
from fmfgc import measures, spectral
from fmfgc.measures import GridMeasure, JointControlMeasure, MeasurePath
from fmfgc.models import PushedForward, QuadraticModel, ThetaScaledModel
from fmfgc.spectral import SpectralGrid, TimeGrid

from helpers import band_limited_field, smooth_density, step_semigroup


class PlainH:
    """H = |p|^2 / 2 with no measure coupling."""

    C0 = 2.0
    q = 2.0
    q_tilde = 2.0

    def hamiltonian_at(self, mu):
        axis = -(mu.grid.dim + 1)
        return (
            lambda p, j=None: 0.5 * np.sum(np.asarray(p, dtype=float) ** 2, axis=axis),
            lambda p, j=None: np.asarray(p, dtype=float),
        )

    def grad_p_field(self, p, mu):
        return np.asarray(p, dtype=float)


class ZeroH(PlainH):
    def hamiltonian_at(self, mu):
        return lambda p, j=None: np.zeros(mu.grid.shape), self._zero_grad

    @staticmethod
    def _zero_grad(p, j=None):
        return np.zeros_like(np.asarray(p, dtype=float))

    def grad_p_field(self, p, mu):
        return self._zero_grad(p)


class NonFiniteH(ZeroH):
    def hamiltonian_at(self, mu):
        def hamiltonian(p, j=None):
            out = np.zeros(mu.grid.shape)
            out.flat[0] = np.inf
            return out

        return hamiltonian, self._zero_grad


def uniform_mu(grid):
    m = GridMeasure.uniform(grid)
    return JointControlMeasure(m, np.zeros((grid.dim,) + grid.shape))


def constant_path(time_grid, mu):
    n = time_grid.n_steps + 1
    return MeasurePath(
        time_grid, mu.grid, np.broadcast_to(mu.density, (n,) + mu.grid.shape),
        np.broadcast_to(mu.alpha, (n,) + mu.alpha.shape),
    )


def value_bounds(sol, mu_path):
    """sup |u|, sup |Du| and the semiconcavity of a value solution paired
    with mu_path, as the theta table reports them for a stage holding it."""
    stage = EquilibriumSolution(
        theta=1.0, u_sol=sol, m_sol=None, mu_path=mu_path, u_terminal=sol.u[-1], history=[]
    )
    _, sup_u, sup_du, _, semiconcavity, _, _ = theta_row(stage)
    return sup_u, sup_du, semiconcavity


@pytest.fixture
def grid():
    return SpectralGrid(dim=1, n=64, s=0.75)


def one_step(model, mu, u_next, dt):
    """u at t = 0 of a one-level march over a constant measure path."""
    tg = TimeGrid(horizon=dt, n_steps=1)
    return solve_backward(model, constant_path(tg, mu), u_next).u[0]


def test_step_zero_hamiltonian_is_semigroup(grid):
    rng = np.random.default_rng(0)
    u_next = band_limited_field(grid, rng)
    out = one_step(ZeroH(), uniform_mu(grid), u_next, 0.02)
    assert np.array_equal(out, step_semigroup(grid, u_next, 0.02))


def test_step_constant_state(grid):
    # Uniform m makes the convolution potential the constant kernel mean 1,
    # so H(x, 0, mu) = -1 and constants shift by +dt.
    model = QuadraticModel(coupling_beta=0.4)
    u_next = np.full(grid.shape, 1.7)
    out = one_step(model, uniform_mu(grid), u_next, 0.03)
    assert np.max(np.abs(out - (1.7 + 0.03))) < 1e-13


def test_step_richardson_second_order_local(grid):
    # dt must resolve the stiffest mode of the Hamiltonian field, otherwise
    # the semigroup damping hides the quadratic local error.
    rng = np.random.default_rng(1)
    u_next = 0.3 * band_limited_field(grid, rng, max_mode=2)
    mu = uniform_mu(grid)
    model = PlainH()

    def defect(dt):
        one = one_step(model, mu, u_next, dt)
        half = solve_backward(model, constant_path(TimeGrid(dt, 2), mu), u_next).u[0]
        return np.max(np.abs(one - half))

    ratio = defect(1e-3) / defect(5e-4)
    assert 3.2 < ratio < 4.8


def test_step_rejects_bad_dt(grid):
    # a march steps by horizon / n_steps, and a time grid takes neither a
    # zero horizon nor zero steps
    with pytest.raises(ValueError):
        TimeGrid(horizon=0.0, n_steps=1)
    with pytest.raises(ValueError):
        TimeGrid(horizon=0.01, n_steps=0)
    # one march takes one terminal field, not a stack
    with pytest.raises(GridMismatchError):
        one_step(ZeroH(), uniform_mu(grid), np.zeros((2,) + grid.shape), 0.01)


def test_solve_terminal_exact(grid):
    model = QuadraticModel(coupling_beta=0.3)
    rng = np.random.default_rng(2)
    m = GridMeasure(grid, smooth_density(grid, rng))
    mu = JointControlMeasure(m, np.zeros((1, grid.n)))
    tg = TimeGrid(horizon=0.5, n_steps=80)
    u_t = 0.1 * np.cos(2 * np.pi * grid.nodes()[0])
    # the march starts from the terminal value it is given; a caller that
    # scales the problem by theta scales that value
    sol = solve_backward(ThetaScaledModel(model, 0.7), constant_path(tg, mu), 0.7 * u_t)
    assert np.array_equal(sol.u[-1], 0.7 * u_t)
    assert sol.u.shape == (81, 64)
    assert sol.du.shape == (81, 1, 64)
    assert np.all(np.isfinite(sol.u))
    with pytest.raises(GridMismatchError):
        solve_backward(model, constant_path(tg, mu), np.stack([u_t, u_t]))


def test_solve_theta_zero_identically_zero(grid):
    # the theta = 0 value is the analytic base's, zero at every level
    tg = TimeGrid(horizon=1.0, n_steps=50)
    u_t = 0.3 * np.cos(2 * np.pi * grid.nodes()[0])
    base = analytic_base(GridMeasure.uniform(grid), u_t, tg)
    assert np.all(base.u_sol.u == 0.0)
    # its theta-table row: sup |u|, sup |Du|, lambda_2 and semiconcavity zero
    assert theta_row(base) == (0.0, 0.0, 0.0, 0.0, 0.0, True, 0)


def test_solve_self_convergence_first_order():
    grid = SpectralGrid(dim=1, n=32, s=0.75)
    model = QuadraticModel(coupling_beta=0.3, kernel_decay=2.0)
    rng = np.random.default_rng(3)
    m = GridMeasure(grid, smooth_density(grid, rng))
    alpha = np.stack([0.2 * band_limited_field(grid, rng, max_mode=3)])
    mu = JointControlMeasure(m, alpha)
    u_t = 0.2 * np.cos(2 * np.pi * grid.nodes()[0])

    def at_zero(n_steps):
        tg = TimeGrid(horizon=0.5, n_steps=n_steps)
        return solve_backward(model, constant_path(tg, mu), u_t).u[0]

    coarse, mid, fine = at_zero(50), at_zero(100), at_zero(200)
    d1 = np.max(np.abs(coarse - mid))
    d2 = np.max(np.abs(mid - fine))
    assert d1 / d2 >= 1.8


def test_solve_linearized_single_mode():
    # With H = |p|^2/2 the scheme is exact for the linear part, so the error
    # against the per-mode decay e^{-(T-t) lambda} is purely the quadratic
    # remainder and shrinks like amplitude^2.
    grid = SpectralGrid(dim=1, n=64, s=0.75)
    model = PlainH()
    mu = uniform_mu(grid)
    tg = TimeGrid(horizon=0.25, n_steps=200)
    lam = (2 * np.pi) ** (2 * 0.75)
    x = grid.nodes()[0]

    def error(eps):
        sol = solve_backward(model, constant_path(tg, mu), eps * np.cos(2 * np.pi * x))
        exact = eps * np.exp(-tg.horizon * lam) * np.cos(2 * np.pi * x)
        return np.max(np.abs(sol.u[0] - exact))

    e1, e2 = error(1e-3), error(5e-4)
    assert e1 < 20 * (1e-3) ** 2
    assert 3.2 < e1 / e2 < 4.8


def test_solve_cfl_error(grid):
    model = QuadraticModel(coupling_beta=0.3)
    mu = uniform_mu(grid)
    tg = TimeGrid(horizon=1.0, n_steps=20)
    u_t = 5.0 * np.cos(2 * np.pi * grid.nodes()[0])
    with pytest.raises(CflError) as info:
        solve_backward(model, constant_path(tg, mu), u_t)
    assert info.value.required_steps > 1000
    assert "n_t" in str(info.value)


def test_solve_blowup_error(grid):
    mu = uniform_mu(grid)
    tg = TimeGrid(horizon=0.5, n_steps=10)
    u_t = 0.1 * np.cos(2 * np.pi * grid.nodes()[0])
    with pytest.raises(BlowUpError) as info:
        solve_backward(NonFiniteH(), constant_path(tg, mu), u_t)
    assert info.value.time_index == 9


class SpeedH:
    """Reads the level off the control path: D_p H is the control, and H is
    non-finite wherever the control is negative."""

    C0 = q = q_tilde = 2.0

    def hamiltonian_at(self, mu):
        def hamiltonian(p, j=None):
            alpha = mu.alpha if j is None else mu.alpha[j]
            return np.where(alpha[0] < 0.0, np.inf, 0.0)

        def grad_p(p, j=None):
            return np.broadcast_to(mu.alpha if j is None else mu.alpha[j], np.shape(p))

        return hamiltonian, grad_p

    def grad_p_field(self, p, mu):
        return np.broadcast_to(mu.alpha, np.shape(p))


def speed_path(grid, tg, speeds):
    n = tg.n_steps + 1
    alpha = np.zeros((n, 1) + grid.shape)
    for level, speed in speeds.items():
        alpha[level] = speed
    return MeasurePath(tg, grid, np.ones((n,) + grid.shape), alpha)


def test_cfl_error_ahead_of_blowup_below(grid):
    # Level 8 violates |D_p H| dt <= dx (dx = 1/64, dt = 0.05), level 5
    # violates it more, and H is non-finite at level 3.  The violations sit
    # above the blow-up, so the error is a CflError, with the step count
    # that the largest speed over the levels stepped from needs: level 5's.
    tg = TimeGrid(horizon=0.5, n_steps=10)
    u_t = np.zeros(grid.shape)
    path = speed_path(grid, tg, {8: 0.5, 5: 2.0, 3: -1e-3})
    with pytest.raises(CflError) as info:
        solve_backward(SpeedH(), path, u_t)
    assert info.value.required_steps == int(np.ceil(2.0 * tg.horizon / grid.dx)) == 64
    # that many steps satisfy the rule at every level
    fine = TimeGrid(horizon=0.5, n_steps=info.value.required_steps)
    assert 2.0 * fine.dt <= grid.dx
    # Without the violations the same path blows up at level 3, in the
    # step to time index 2.
    with pytest.raises(BlowUpError) as info:
        solve_backward(SpeedH(), speed_path(grid, tg, {3: -1e-3}), u_t)
    assert info.value.time_index == 2
    # A violation below the blow-up is never reached.
    with pytest.raises(BlowUpError):
        solve_backward(SpeedH(), speed_path(grid, tg, {5: -1e-3, 2: 2.0}), u_t)
    # A violation at t = 0 alone is never stepped from.
    solve_backward(SpeedH(), speed_path(grid, tg, {0: 2.0}), u_t)
    # A gradient that overflowed above the blow-up is part of it: the
    # finite violations above it still set the step count.
    path = speed_path(grid, tg, {8: 0.5, 3: -1e-3})
    alpha = path.alpha.copy()
    alpha[5] = np.inf
    overflowed = MeasurePath.view(tg, grid, path.density, alpha)
    with pytest.raises(CflError) as info:
        solve_backward(SpeedH(), overflowed, u_t)
    assert info.value.required_steps == 16


def reference_march(scaled, mu_path, u_terminal):
    """The march level by level from the public field form and operators."""
    grid, tg = mu_path.grid, mu_path.time_grid
    u = [u_terminal]
    du = [grid.gradient(u[0])]
    for j in range(tg.n_steps - 1, -1, -1):
        h = scaled.hamiltonian_at(mu_path[j + 1])[0](du[-1])
        u.append(grid.semigroup_apply(u[-1] - tg.dt * h, tg.dt))
        du.append(grid.gradient(u[-1]))
    return np.stack(u[::-1]), np.stack(du[::-1])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_march_matches_level_by_level_reference(dim, theta):
    grid = SpectralGrid(dim=dim, n=32 if dim == 1 else 16, s=0.75)
    tg = TimeGrid(horizon=0.5, n_steps=40)
    rng = np.random.default_rng(41)
    density = np.stack([smooth_density(grid, rng) for _ in range(tg.n_steps + 1)])
    alpha = 0.3 * np.stack(
        [
            np.stack([band_limited_field(grid, rng, max_mode=3) for _ in range(dim)])
            for _ in range(tg.n_steps + 1)
        ]
    )
    path = MeasurePath(tg, grid, density, alpha)
    u_t = theta * 0.1 * band_limited_field(grid, rng, max_mode=3)
    scaled = ThetaScaledModel(QuadraticModel(coupling_beta=0.3, dim=dim), theta)
    sol = solve_backward(scaled, path, u_t)
    u_ref, du_ref = reference_march(scaled, path, u_t)
    assert np.max(np.abs(sol.u - u_ref)) <= 1e-13
    assert np.max(np.abs(sol.du - du_ref)) <= 1e-13


def test_march_reads_the_measure_once_per_path(grid, monkeypatch):
    # The potential and the mean control come from batched calls on the
    # whole path, once each: H and the advective guard's D_p H share the
    # mean control; no level reads its slice.  At theta < 1 the mean is
    # that of the controls pushed forward by 1/theta.
    calls = []
    potential, mean = QuadraticModel._potential, PushedForward.mean_control

    def counted_potential(self, grid, density):
        calls.append(("potential", density.ndim))
        return potential(self, grid, density)

    def counted_mean(self):
        calls.append(("mean", self.density.ndim))
        return mean(self)

    monkeypatch.setattr(QuadraticModel, "_potential", counted_potential)
    monkeypatch.setattr(PushedForward, "mean_control", counted_mean)
    monkeypatch.setattr(measures._JointFields, "mean_control", None)  # never read
    rng = np.random.default_rng(53)
    mu = JointControlMeasure(
        GridMeasure(grid, smooth_density(grid, rng)), 0.2 * band_limited_field(grid, rng)[None]
    )
    tg = TimeGrid(horizon=0.5, n_steps=50)
    u_t = 0.1 * np.cos(2 * np.pi * grid.nodes()[0])
    solve_backward(ThetaScaledModel(QuadraticModel(0.3), 0.5), constant_path(tg, mu), u_t)
    assert sorted(calls) == [("mean", 2), ("potential", 2)]


def test_step_is_one_level_of_the_march(grid):
    # a one-level march is the exponential Euler step from the public
    # field form and operators, to the bit; on this 1-D grid the step
    # applies the semigroup as its real kernel
    model = QuadraticModel(coupling_beta=0.3)
    rng = np.random.default_rng(43)
    mu = JointControlMeasure(
        GridMeasure(grid, smooth_density(grid, rng)), 0.2 * band_limited_field(grid, rng)[None]
    )
    dt = 0.01
    u_t = 0.02 * band_limited_field(grid, rng, max_mode=4)
    h = model.hamiltonian_at(mu)[0](grid.gradient(u_t))
    assert np.array_equal(one_step(model, mu, u_t, dt), step_semigroup(grid, u_t - dt * h, dt))


def test_comparison_envelope_zero_hamiltonian(grid):
    x = grid.nodes()[0]
    u_t = 0.3 * np.cos(2 * np.pi * x) + 0.1 * np.sin(4 * np.pi * x)
    mu = uniform_mu(grid)
    tg = TimeGrid(horizon=0.5, n_steps=40)
    sol = solve_backward(ZeroH(), constant_path(tg, mu), u_t)
    hi, lo = np.max(u_t), np.min(u_t)
    for j in range(tg.n_steps + 1):
        assert np.max(sol.u[j]) <= hi + 1e-12
        assert np.min(sol.u[j]) >= lo - 1e-12


def test_curvature_matches_analytic(grid):
    x = grid.nodes()[0]
    u = np.cos(2 * np.pi * x)
    curv = centered_curvature(u, grid)
    exact = -4 * np.pi**2 * np.cos(2 * np.pi * x)
    assert np.max(np.abs(curv[0] - exact)) < 0.05
    assert curv[0, 0] < 0.0  # negative curvature at the crest
    # a stack gives each field's curvature, bit for bit
    stack = np.stack([u, 2.0 * u, u**2])
    curvs = centered_curvature(stack, grid)
    assert curvs.shape == (3, 1) + grid.shape
    for i in range(3):
        assert np.array_equal(curvs[i], centered_curvature(stack[i], grid))


def test_diagnostics_zero_h_solution(grid):
    x = grid.nodes()[0]
    u_t = 0.2 * np.cos(2 * np.pi * x)
    mu = uniform_mu(grid)
    tg = TimeGrid(horizon=0.5, n_steps=40)
    path = constant_path(tg, mu)
    sol = solve_backward(ZeroH(), path, u_t)
    sup_u, sup_du, semiconcavity = value_bounds(sol, path)
    assert sup_u == pytest.approx(0.2, abs=1e-12)
    assert sup_du == pytest.approx(0.4 * np.pi, rel=1e-10)
    assert semiconcavity == pytest.approx(0.2 * 4 * np.pi**2, rel=0.02)
    # the statistics equal the per-level maxima bit for bit
    assert semiconcavity == max(
        float(np.max(centered_curvature(level, grid))) for level in sol.u
    )
    # each call computes the statistics afresh, to the same values
    assert value_bounds(sol, path) == (sup_u, sup_du, semiconcavity)


def test_diagnostics_follow_a_replaced_value(grid):
    # a solution copied with a new value path reports that path's
    # statistics: nothing from the original's evaluation is carried over
    x = grid.nodes()[0]
    tg = TimeGrid(horizon=0.5, n_steps=40)
    path = constant_path(tg, uniform_mu(grid))
    sol = solve_backward(ZeroH(), path, 0.2 * np.cos(2 * np.pi * x))
    bounds = value_bounds(sol, path)
    doubled = value_bounds(replace(sol, u=2.0 * sol.u, du=2.0 * sol.du), path)
    assert doubled == tuple(2.0 * value for value in bounds)


def test_drift_view_evaluates_only_the_levels_it_is_indexed_with():
    # The drift holds no path: each index evaluates -D_p H on its own
    # levels, with grad_p told which, into a new array.
    rng = np.random.default_rng(5)
    du = rng.standard_normal((4, 1, 16))
    before = du.copy()
    seen = []

    def grad_p(p, j=None):
        seen.append((np.shape(p), j))
        return p + 0.25

    drift = FeedbackDrift(grad_p, du)
    assert drift.shape == du.shape and len(drift) == 4
    assert drift[1:3].tobytes() == (-(before[1:3] + 0.25)).tobytes()
    assert drift[2].tobytes() == (-(before[2] + 0.25)).tobytes()
    assert drift[:].tobytes() == (-(before + 0.25)).tobytes()
    assert seen == [((2, 1, 16), slice(1, 3)), ((1, 16), 2), ((4, 1, 16), slice(None))]
    # D_p H that is the gradient itself, or a read-only view of it: the
    # drift is a new array and the gradient is left as it is
    for same in (lambda p, j=None: p, lambda p, j=None: np.broadcast_to(p, p.shape)):
        assert FeedbackDrift(same, du)[:].tobytes() == (-before).tobytes()
        assert du.tobytes() == before.tobytes()
    with pytest.raises(TypeError):
        drift[1, 0]
    with pytest.raises(TypeError):
        drift[0] = 0.0


def test_solution_drift_is_minus_grad_p_on_every_level(grid):
    # The drift of a march's solution evaluates the march's own D_p H on
    # its gradient: a block of levels has the bits of the whole path's.
    tg = TimeGrid(horizon=0.5, n_steps=40)
    x = grid.nodes()[0]
    sol = solve_backward(PlainH(), constant_path(tg, uniform_mu(grid)), 0.1 * np.cos(2 * np.pi * x))
    whole = sol.drift[:]
    assert whole.tobytes() == (-sol.du).tobytes()
    for block in grid.level_blocks(len(whole)):
        assert sol.drift[block].tobytes() == whole[block].tobytes()
    assert replace(sol, grad_p=None).drift is None


class BlowsUpAt(PlainH):
    """H = |p|^2 / 2, non-finite on one level; strict, if asked, about the
    momentum it takes, as a model that checks its input would be."""

    def __init__(self, level, strict=False):
        self.level, self.strict = level, strict

    def hamiltonian_at(self, mu):
        h, grad_p = super().hamiltonian_at(mu)

        def hamiltonian(p, j=None):
            if self.strict and not np.all(np.isfinite(p)):
                raise ValueError("non-finite momentum")
            return np.full(mu.grid.shape, np.inf) if j == self.level else h(p, j)

        return hamiltonian, grad_p


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("levels", [8, 64])
def test_blowup_mid_block_names_its_level(grid, monkeypatch, levels, strict):
    # Levels are checked a block at a time.  H non-finite at level 21, in
    # the middle of the block of levels 16..23 (or of the one block 0..39),
    # is the step to time index 20, as a level-by-level march reports it;
    # the levels the march steps past raise no warning, and a model that
    # rejects their momentum changes nothing.
    monkeypatch.setattr(spectral, "BLOCK_NODES", levels * grid.n)
    tg = TimeGrid(horizon=0.5, n_steps=40)
    u_t = 0.1 * np.cos(2 * np.pi * grid.nodes()[0])
    with pytest.raises(BlowUpError) as info:
        solve_backward(BlowsUpAt(21, strict), constant_path(tg, uniform_mu(grid)), u_t)
    assert info.value.time_index == 20
    assert str(info.value) == "Hamiltonian step produced a non-finite value at time level 20"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cfl_guard_at_a_blowup_mid_block_reads_only_the_levels_above(grid, monkeypatch):
    # Blocks of levels 16..23: a violation at level 23, above the blow-up
    # at level 21, is a CflError at its speed; one at level 18, in the
    # block but below the blow-up, is never reached.
    monkeypatch.setattr(spectral, "BLOCK_NODES", 8 * grid.n)
    tg = TimeGrid(horizon=0.5, n_steps=40)
    u_t = np.zeros(grid.shape)
    with pytest.raises(CflError) as info:
        solve_backward(SpeedH(), speed_path(grid, tg, {23: 2.0, 21: -1e-3, 18: 5.0}), u_t)
    assert info.value.required_steps == int(np.ceil(2.0 * tg.horizon / grid.dx)) == 64
    with pytest.raises(BlowUpError) as info:
        solve_backward(SpeedH(), speed_path(grid, tg, {21: -1e-3, 18: 5.0}), u_t)
    assert info.value.time_index == 20
