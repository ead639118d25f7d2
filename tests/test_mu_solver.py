import numpy as np
import pytest

from fmfgc import mu_solver
from fmfgc.errors import GridMismatchError, InvalidFieldError, NonContractionError
from fmfgc.measures import (
    GridMeasure,
    JointControlMeasure,
    MeasurePath,
    lambda_inf,
    lambda_q,
)
from fmfgc.models import QuadraticModel, ThetaScaledModel
from fmfgc.mu_solver import (
    MuSolveConfig,
    moment_certificate,
    solve_mu,
    solve_mu_detailed,
)
from fmfgc.spectral import SpectralGrid, TimeGrid

from helpers import smooth_density


@pytest.fixture
def grid():
    return SpectralGrid(dim=1, n=64, s=0.75)


def test_config_validation():
    with pytest.raises(ValueError):
        MuSolveConfig(tolerance=0.0)


def test_closed_form_mean_and_pointwise(grid):
    # alpha(x) = -Du(x) + beta (int Du dm) / (1 + beta), derived from the
    # scalar mean equation abar = -int Du dm - beta abar.
    beta = 0.3
    model = QuadraticModel(coupling_beta=beta)
    rng = np.random.default_rng(11)
    m = GridMeasure(grid, smooth_density(grid, rng))
    x = grid.nodes()[0]
    du = np.stack([0.4 + np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x)])
    mean_du = m.expectation(du[0])
    assert abs(mean_du) > 0.05  # the interesting case needs a nonzero mean

    mu = solve_mu(m, du, model, MuSolveConfig(tolerance=1e-12))
    expected = -du + beta * mean_du / (1.0 + beta)
    assert np.max(np.abs(mu.alpha - expected)) < 1e-10
    abar = m.expectation(mu.alpha[0])
    assert abs(abar + mean_du / (1.0 + beta)) < 1e-10


def test_fixed_point_residual(grid):
    model = QuadraticModel(coupling_beta=0.6)
    rng = np.random.default_rng(3)
    m = GridMeasure(grid, smooth_density(grid, rng))
    du = np.stack([np.sin(2 * np.pi * grid.nodes()[0]) + 0.3])
    cfg = MuSolveConfig(tolerance=1e-11)
    mu = solve_mu(m, du, model, cfg)
    defect = mu.alpha + model.grad_p_field(du, mu)
    assert np.max(np.abs(defect)) <= cfg.tolerance


def test_zero_gradient_zero_control(grid):
    model = QuadraticModel(coupling_beta=0.5, kernel_decay=0.7)
    rng = np.random.default_rng(5)
    m = GridMeasure(grid, smooth_density(grid, rng))
    du = np.zeros((1, grid.n))
    result = solve_mu_detailed(m, du, model, MuSolveConfig(tolerance=1e-10))
    assert result.iterations == 0
    assert np.all(result.mu.alpha == 0.0)


def test_contraction_ratio_equals_beta(grid):
    # The mean-control recursion is linear with factor exactly beta, so the
    # update norms shrink geometrically once the pointwise part has cancelled.
    beta = 0.3
    model = QuadraticModel(coupling_beta=beta)
    rng = np.random.default_rng(13)
    m = GridMeasure(grid, smooth_density(grid, rng))
    du = np.stack([0.7 + np.cos(2 * np.pi * grid.nodes()[0])])
    result = solve_mu_detailed(m, du, model, MuSolveConfig(tolerance=1e-12))
    ratios = result.contraction_ratios()
    assert len(ratios) >= 8
    # skip the first ratio (mixes the pointwise and mean parts), read the
    # next few where magnitudes are still far from roundoff
    assert np.max(np.abs(ratios[1:5] - beta)) < 1e-8


def test_uniqueness_from_two_starts(grid):
    model = QuadraticModel(coupling_beta=0.45)
    rng = np.random.default_rng(17)
    m = GridMeasure(grid, smooth_density(grid, rng))
    du = np.stack([0.2 + 0.5 * np.sin(2 * np.pi * grid.nodes()[0])])
    cfg = MuSolveConfig(tolerance=1e-11)
    mu_zero = solve_mu(m, du, model, cfg)
    mu_rand = solve_mu(
        JointControlMeasure(m, rng.uniform(-1.0, 1.0, size=(1, grid.n))), du, model, cfg
    )
    assert np.max(np.abs(mu_zero.alpha - mu_rand.alpha)) <= 2 * cfg.tolerance


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_path_solve_matches_slice_solves(grid, theta):
    # One path solve iterates every slice together from the path's own
    # controls; each slice must land where its own solve lands.
    model = ThetaScaledModel(QuadraticModel(coupling_beta=0.45), theta)
    rng = np.random.default_rng(37)
    tg = TimeGrid(horizon=1.0, n_steps=5)
    x = grid.nodes()[0]
    density = np.stack([smooth_density(grid, rng) for _ in range(6)])
    du = np.stack(
        [[rng.uniform(-1, 1) + np.sin(2 * np.pi * (x + rng.random()))] for _ in range(6)]
    )
    alpha0 = rng.uniform(-1.0, 1.0, (6, 1, grid.n))
    alpha0[2] = -theta * du[2]  # near its fixed point: fewer iterations
    cfg = MuSolveConfig(tolerance=1e-11)

    path = solve_mu_detailed(MeasurePath(tg, grid, density, alpha0), du, model, cfg)
    singles = [
        solve_mu_detailed(
            JointControlMeasure(GridMeasure(grid, density[j]), alpha0[j]), du[j], model, cfg
        )
        for j in range(6)
    ]
    assert isinstance(path.mu, MeasurePath)
    for j, one in enumerate(singles):
        assert np.max(np.abs(path.mu.alpha[j] - one.mu.alpha)) <= cfg.tolerance
    counts = [one.iterations for one in singles]
    assert len(set(counts)) > 1
    assert path.iterations == max(counts)
    assert path.residual <= cfg.tolerance
    defect = path.mu.alpha + model.grad_p_field(du, path.mu)
    assert np.max(np.abs(defect)) <= cfg.tolerance


class _Expanding:
    """Mean-feedback gain above one: the Picard map cannot contract."""

    theta = 1.0

    def grad_p_field(self, p, mu):
        abar = mu.m.expectation(mu.alpha[0])
        return p + 1.5 * abar


def test_non_contraction_error(grid, monkeypatch):
    monkeypatch.setattr(mu_solver, "MAX_ITERATIONS", 25)
    rng = np.random.default_rng(19)
    m = GridMeasure(grid, smooth_density(grid, rng))
    du = np.stack([0.5 + 0.1 * np.cos(2 * np.pi * grid.nodes()[0])])
    cfg = MuSolveConfig(tolerance=1e-10)
    with pytest.raises(NonContractionError) as info:
        solve_mu(m, du, _Expanding(), cfg)
    assert abs(info.value.ratio - 1.5) < 0.05
    assert info.value.residual > cfg.tolerance


class _Counting:
    """Delegates to a model and counts the fixed-point evaluations."""

    theta = 1.0

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def grad_p_field(self, p, mu):
        self.calls += 1
        return self.model.grad_p_field(p, mu)


def test_budget_follows_measured_contraction(grid, monkeypatch):
    # beta = 0.9 from alpha = 0 needs more than 200 iterations to 1e-12:
    # the default budget lets it finish, and a budget of 100 stops it as
    # soon as the measured ratio predicts the overrun, not after 100.
    rng = np.random.default_rng(21)
    m = GridMeasure(grid, smooth_density(grid, rng))
    du = np.stack([0.5 + 0.1 * np.cos(2 * np.pi * grid.nodes()[0])])
    model = QuadraticModel(coupling_beta=0.9)
    result = solve_mu_detailed(m, du, model, MuSolveConfig(tolerance=1e-12))
    assert 200 < result.iterations < mu_solver.MAX_ITERATIONS
    assert result.residual <= 1e-12
    counting = _Counting(model)
    monkeypatch.setattr(mu_solver, "MAX_ITERATIONS", 100)
    with pytest.raises(NonContractionError) as info:
        solve_mu(m, du, counting, MuSolveConfig(tolerance=1e-12))
    assert abs(info.value.ratio - 0.9) < 1e-6
    assert counting.calls <= 5


def test_single_ratio_blip_is_not_a_verdict(grid):
    # One update ratio above one (a roundoff blip) does not stop an
    # iteration whose next ratio contracts again.
    class _Blip:
        theta = 1.0

        def __init__(self):
            self.calls = 0

        def grad_p_field(self, p, mu):
            # residual sequence 1, 0.5, 0.6, 0.06, 0.006, ... down to tolerance
            self.calls += 1
            scale = {1: 1.0, 2: 0.5, 3: 0.6}.get(self.calls, 0.6 * 0.1 ** (self.calls - 3))
            return scale * np.ones_like(p) - mu.alpha

    mu = solve_mu_detailed(GridMeasure.uniform(grid), np.zeros((1, 64)), _Blip(),
                           MuSolveConfig(tolerance=1e-9))
    assert mu.residual <= 1e-9
    assert mu.contraction_ratios()[1] > 1.0


def test_moment_certificate_sine_gradient(grid):
    # Uniform m kills the mean, so alpha = -sin(2pi x) and the grid sum of
    # sin^2 is exactly 1/2.
    model = QuadraticModel(coupling_beta=0.5)
    m = GridMeasure.uniform(grid)
    du = np.stack([np.sin(2 * np.pi * grid.nodes()[0])])
    mu = solve_mu(m, du, model, MuSolveConfig(tolerance=1e-12))
    cert = moment_certificate(mu, du, model)
    assert abs(cert.lambda_qt - np.sqrt(0.5)) < 1e-10
    assert abs(cert.lambda_inf - 1.0) < 1e-10
    assert cert.ok
    # on a path every field is the per-slice value, bit for bit
    rng = np.random.default_rng(12)
    density = np.stack([smooth_density(grid, rng) for _ in range(3)])
    du_path = np.stack([du * k for k in (0.5, 1.0, 2.0)])
    path = solve_mu(
        MeasurePath(TimeGrid(1.0, 2), grid, density, np.zeros_like(du_path)),
        du_path, model, MuSolveConfig(tolerance=1e-12),
    )
    whole = moment_certificate(path, du_path, model)
    slices = [moment_certificate(path[j], du_path[j], model) for j in range(3)]
    for name in ("lambda_qt", "lambda_inf", "bound_q", "bound_inf", "du_sup", "du_lq"):
        assert np.array_equal(getattr(whole, name), [getattr(c, name) for c in slices]), name
    assert whole.ok and all(c.ok for c in slices)
    with pytest.raises(GridMismatchError):
        moment_certificate(path, du_path[:2], model)
    du_path[1, 0, 3] = np.nan
    with pytest.raises(InvalidFieldError):
        moment_certificate(path, du_path, model)


def test_moment_certificate_zero_control(grid):
    model = QuadraticModel(coupling_beta=0.5)
    m = GridMeasure.uniform(grid)
    mu = JointControlMeasure(m, np.zeros((1, grid.n)))
    cert = moment_certificate(mu, np.zeros((1, grid.n)), model)
    assert cert.lambda_qt == 0.0
    assert cert.lambda_inf == 0.0
    assert cert.ok


def test_moment_sup_bound_random_instances(grid):
    model = QuadraticModel(coupling_beta=0.7)
    rng = np.random.default_rng(23)
    for _ in range(5):
        m = GridMeasure(grid, smooth_density(grid, rng))
        du = np.stack([rng.uniform(-1, 1) + np.cos(2 * np.pi * grid.nodes()[0])])
        mu = solve_mu(m, du, model, MuSolveConfig(tolerance=1e-11))
        lam = lambda_q(mu, model.q_tilde)
        du_sup = float(np.max(np.abs(du)))
        assert lambda_inf(mu) <= model.C0 * (1.0 + du_sup + lam) + 1e-9
