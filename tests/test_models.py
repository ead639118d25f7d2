"""Model layer: closed forms, conjugacy, theta scaling, the model check."""

import numpy as np
import pytest

from fmfgc.errors import OptimizationError
from fmfgc.measures import GridMeasure, JointControlMeasure, MeasurePath, lambda_q
from fmfgc import models
from fmfgc.models import (
    QuadraticModel,
    ThetaScaledModel,
    _fd_hessian,
    _kernel_sums,
    check_model,
    legendre_transform,
)
from fmfgc.spectral import SpectralGrid, TimeGrid

from helpers import smooth_density


class PlainQuadratic:
    """L = |alpha|^2 / 2, no coupling; conjugate is |p|^2 / 2 at -p."""

    C0, q, q_tilde = 2.0, 2.0, 2.0

    def lagrangian_field(self, alpha, mu):
        return 0.5 * np.sum(alpha**2, axis=-(mu.grid.dim + 1))

    def grad_alpha_field(self, alpha, mu):
        return alpha


class CoshModel:
    """L = sum_i (cosh(alpha_i) - 1); conjugate maximizer -asinh(p)."""

    C0, q, q_tilde = 8.0, 2.0, 2.0

    def lagrangian_field(self, alpha, mu):
        return np.sum(np.cosh(alpha) - 1.0, axis=-(mu.grid.dim + 1))

    def grad_alpha_field(self, alpha, mu):
        return np.sinh(alpha)


def potential(model, m):
    """V(x, m): the Lagrangian at zero control, whose mean control is zero."""
    zero = np.zeros((m.grid.dim,) + m.grid.shape)
    return model.lagrangian_field(zero, JointControlMeasure(m, zero))


def random_mu(grid, rng, alpha_scale=1.5):
    m = GridMeasure(grid, smooth_density(grid, rng))
    alpha = alpha_scale * np.stack(
        [np.sin(2 * np.pi * (grid.nodes()[i] + rng.random())) for i in range(grid.dim)]
    )
    return JointControlMeasure(m, alpha)


def test_quadratic_model_validation():
    with pytest.raises(ValueError):
        QuadraticModel(0.0)
    with pytest.raises(ValueError):
        QuadraticModel(1.0)
    with pytest.raises(ValueError):
        QuadraticModel(0.5, kernel_decay=-1.0)
    model = QuadraticModel(0.3)
    assert model.C0 >= 2.0 / (1.0 - 0.09)
    assert model.q_tilde == pytest.approx(model.q / (model.q - 1.0))


def test_potential_single_mode():
    # The kernel symbol exp(-decay |k|) is positive with unit mean: the
    # potential of 1 + eps cos(2 pi k.x) is 1 + eps exp(-decay |k|) cos(2 pi k.x),
    # Nyquist modes included.
    eps = 0.4
    for dim, modes in ((1, [(1,), (3,), (8,)]), (2, [(1, 0), (2, -3), (8, 5)])):
        g = SpectralGrid(dim, 16, 0.75)
        model = QuadraticModel(0.5, kernel_decay=0.7, dim=dim)
        for k in modes:
            wave = np.cos(2 * np.pi * sum(ki * xi for ki, xi in zip(k, g.nodes())))
            damp = np.exp(-model.kernel_decay * np.linalg.norm(k))
            field = potential(model, GridMeasure(g, 1.0 + eps * wave))
            assert np.max(np.abs(field - (1.0 + eps * damp * wave))) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("decay", [0.7, 1.0, 2.0])
def test_kernel_sums_bound_the_lattice_sums(dim, decay):
    # sum_k khat(k) and sum_k 2 pi |k| khat(k) over Z^d, here over the box
    # |k_i| <= 60, whose outside adds below roundoff, each lie below its
    # bound, and C0 takes both; in d = 1, where |k| = |k|_1, the bounds
    # are the sums themselves
    k = np.arange(-60, 61)
    norm = np.sqrt(sum(kk**2 for kk in np.meshgrid(*[k] * dim, indexing="ij", sparse=True)))
    khat = np.exp(-decay * norm)
    sums = np.array([np.sum(khat), np.sum(2.0 * np.pi * norm * khat)])
    bounds = np.array(_kernel_sums(decay, dim))
    assert np.all(bounds >= sums * (1.0 - 1e-14))
    if dim == 1:
        assert bounds == pytest.approx(sums, rel=1e-13)
    assert QuadraticModel(0.3, kernel_decay=decay, dim=dim).C0 >= 1.0 + np.sum(bounds)


@pytest.mark.parametrize("dim", [1, 2])
def test_conjugacy_round_trip_thousand_probes(dim):
    # Numeric Legendre path must match the closed-form Hamiltonian to 1e-8,
    # through the field forms the solver calls: 5 measures x 4 momentum
    # fields x (64 or 16^2) nodes = 1280 probes.
    rng = np.random.default_rng(7)
    g = SpectralGrid(dim, 64 if dim == 1 else 16, 0.75)
    model = QuadraticModel(0.6, dim=dim)
    worst = 0.0
    for _ in range(5):
        mu = random_mu(g, rng)
        p = 5.0 * rng.uniform(-1, 1, (4, dim) + g.shape)
        closed = model.hamiltonian_at(mu)[0](p)
        value, alpha_star = legendre_transform(model, p, mu)
        worst = max(worst, float(np.max(np.abs(value - closed))))
        # envelope identity: maximizer equals -D_p H
        envelope = np.max(np.abs(alpha_star + model.grad_p_field(p, mu)))
        assert envelope <= 1e-8
    assert worst <= 1e-8


def test_legendre_zero_momentum():
    # p = 0: value -V(x, mu) at every node, maximizer -beta abar.
    rng = np.random.default_rng(11)
    g = SpectralGrid(1, 64, 0.75)
    model = QuadraticModel(0.45)
    mu = random_mu(g, rng)
    value, alpha_star = legendre_transform(model, np.zeros((1, 64)), mu)
    v = potential(model, mu.m)
    abar = mu.mean_control()
    assert np.max(np.abs(value + v)) <= 1e-10
    assert np.max(np.abs(alpha_star + 0.45 * abar[:, None])) <= 1e-10


def test_legendre_plain_quadratic():
    g = SpectralGrid(1, 16, 0.75)
    mu = JointControlMeasure(GridMeasure.uniform(g), np.zeros((1, 16)))
    value, alpha_star = legendre_transform(PlainQuadratic(), np.ones((1, 16)), mu)
    assert np.max(np.abs(value - 0.5)) <= 1e-10
    assert np.max(np.abs(alpha_star + 1.0)) <= 1e-10


def test_legendre_nonquadratic_newton():
    # cosh conjugate: alpha* = -asinh(p), H = p asinh(p) - sqrt(1+p^2) + 1.
    g = SpectralGrid(1, 16, 0.75)
    mu = JointControlMeasure(GridMeasure.uniform(g), np.zeros((1, 16)))
    # a stack of 33 constant momentum fields
    p = np.linspace(-4.0, 4.0, 33)[:, None, None] * np.ones((1, 1, 16))
    value, alpha_star = legendre_transform(CoshModel(), p, mu)
    expected_alpha = -np.arcsinh(p)
    expected_value = p * np.arcsinh(p) - np.sqrt(1.0 + p**2) + 1.0
    assert np.max(np.abs(alpha_star - expected_alpha)) <= 1e-9
    assert np.max(np.abs(value - expected_value[:, 0])) <= 1e-9


def test_legendre_2d_batch():
    g = SpectralGrid(2, 16, 0.75)
    mu = JointControlMeasure(GridMeasure.uniform(g), np.zeros((2, 16, 16)))
    rng = np.random.default_rng(13)
    p = rng.uniform(-3, 3, (2, 16, 16))
    value, alpha_star = legendre_transform(CoshModel(), p, mu)
    assert np.max(np.abs(alpha_star + np.arcsinh(p))) <= 1e-9


def test_legendre_inequality_sampled():
    # H(x,p,mu) >= -p.alpha - L(x,alpha,mu) for arbitrary alpha.
    rng = np.random.default_rng(17)
    g = SpectralGrid(1, 64, 0.75)
    model = QuadraticModel(0.5)
    mu = random_mu(g, rng)
    p = 4.0 * rng.uniform(-1, 1, (1, 64))
    h = model.hamiltonian_at(mu)[0](p)
    for _ in range(10):
        alpha = 5.0 * rng.uniform(-1, 1, (1, 64))
        lower = -np.sum(p * alpha, axis=0) - model.lagrangian_field(alpha, mu)
        assert np.all(h >= lower - 1e-10)


def test_finite_difference_hessian_positive_definite():
    # Strict convexity probes through the finite-difference Hessian that
    # the Newton steps of legendre_transform use.
    rng = np.random.default_rng(19)
    g = SpectralGrid(2, 16, 0.75)
    mu = JointControlMeasure(GridMeasure.uniform(g), np.zeros((2, 16, 16)))
    alpha = rng.uniform(-2, 2, (2, 16, 16))
    hess = _fd_hessian(CoshModel(), alpha, mu)
    assert hess.shape == (16, 16, 2, 2)
    assert np.all(np.linalg.eigvalsh(hess) > 0.0)
    # quadratic example: the identity, up to the difference quotient's roundoff
    hq = _fd_hessian(QuadraticModel(0.5, dim=2), alpha, random_mu(g, rng))
    assert np.max(np.abs(hq - np.eye(2))) <= 1e-8


def test_theta_scale_validation_and_endpoints():
    model = QuadraticModel(0.5)
    with pytest.raises(ValueError):
        ThetaScaledModel(model, -0.1)
    with pytest.raises(ValueError):
        ThetaScaledModel(model, 1.1)
    # theta = 0 is the decoupled problem, solved in closed form by
    # equilibrium.analytic_base; the scaled family covers (0, 1] only
    for theta in (0.0, -0.0):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ThetaScaledModel(model, theta)
    # the solver scales the model it is given, so a scaled one would be
    # scaled twice
    with pytest.raises(ValueError, match="already scaled at theta=0.5"):
        ThetaScaledModel(ThetaScaledModel(model, 0.5), 0.5)
    rng = np.random.default_rng(23)
    g = SpectralGrid(1, 64, 0.75)
    mu = random_mu(g, rng)
    p = rng.uniform(-3, 3, (1, 64))
    # theta = 1: the identity (scaled measure is the same object)
    one = ThetaScaledModel(model, 1.0)
    assert np.array_equal(one.hamiltonian_field(p, mu), model.hamiltonian_at(mu)[0](p))
    assert np.array_equal(one.grad_p_field(p, mu), model.grad_p_field(p, mu))
    # ... whose forms are the scaled expressions at theta = 1, to the bit
    assert one.grad_p_field(p, mu).tobytes() == (1.0 * model.grad_p_field(p, mu)).tobytes()
    assert one.lagrangian_field(mu.alpha, mu).tobytes() == (
        1.0 * model.lagrangian_field(mu.alpha / 1.0, mu)
    ).tobytes()


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_hamiltonian_at_levels_match_slices(theta):
    # The pair fixed on a path gives, level by level, what the field forms
    # give on that slice, and on the whole path what they give on the path.
    rng = np.random.default_rng(37)
    g = SpectralGrid(1, 32, 0.75)
    tg = TimeGrid(1.0, 4)
    density = np.stack([smooth_density(g, rng) for _ in range(5)])
    alpha = rng.uniform(-1, 1, (5, 1, 32))
    path = MeasurePath(tg, g, density, alpha)
    p = rng.uniform(-2, 2, (5, 1, 32))
    scaled = ThetaScaledModel(QuadraticModel(0.3), theta)
    h, grad_p = scaled.hamiltonian_at(path)
    assert np.array_equal(h(p), scaled.hamiltonian_field(p, path))
    assert np.array_equal(grad_p(p), scaled.grad_p_field(p, path))
    for j in range(5):
        assert np.array_equal(h(p[j], j), scaled.hamiltonian_field(p[j], path[j]))
        assert np.array_equal(grad_p(p[j], j), scaled.grad_p_field(p[j], path[j]))


def test_theta_scale_expression_tree():
    # H^theta must be computed literally as theta * H(x, p, scaled mu).
    rng = np.random.default_rng(29)
    g = SpectralGrid(1, 64, 0.75)
    model = QuadraticModel(0.35)
    mu = random_mu(g, rng)
    p = rng.uniform(-2, 2, (1, 64))
    for theta in (0.25, 0.5, 0.75):
        scaled = ThetaScaledModel(model, theta)
        mu_scaled = JointControlMeasure(mu.m, mu.alpha / theta)
        direct = theta * model.hamiltonian_at(mu_scaled)[0](p)
        assert np.array_equal(scaled.hamiltonian_field(p, mu), direct)
        assert np.array_equal(
            scaled.grad_p_field(p, mu), theta * model.grad_p_field(p, mu_scaled)
        )


class MomentH:
    """H = |p|^2 / 2 + Lambda_2(mu), L = |alpha|^2 / 2 - Lambda_2(mu): field
    forms that read the measure through lambda_q, and so through
    control_magnitude(), on a slice and on a path."""

    C0 = q = q_tilde = 2.0

    @staticmethod
    def _moment(mu):
        lam = np.asarray(lambda_q(mu, 2.0))
        return lam.reshape(lam.shape + (1,) * mu.grid.dim)

    def hamiltonian_at(self, mu):
        lam, axis = self._moment(mu), -(mu.grid.dim + 1)

        def hamiltonian(p, j=None):
            return 0.5 * np.sum(p**2, axis=axis) + (lam if j is None else lam[j])

        return hamiltonian, lambda p, j=None: p

    def grad_p_field(self, p, mu):
        return p

    def lagrangian_field(self, alpha, mu):
        return 0.5 * np.sum(alpha**2, axis=-(mu.grid.dim + 1)) - self._moment(mu)


def test_theta_scaled_measure_gives_the_control_moment():
    # At theta < 1 a base model that reads lambda_q of the scaled measure
    # gets the moment of the controls alpha / theta, to the bit, on a slice
    # and on a path.
    rng = np.random.default_rng(41)
    g = SpectralGrid(1, 32, 0.75)
    tg = TimeGrid(1.0, 4)
    density = np.stack([smooth_density(g, rng) for _ in range(5)])
    alpha = rng.uniform(-1, 1, (5, 1, 32))
    path = MeasurePath(tg, g, density, alpha)
    halved = MeasurePath(tg, g, density, alpha / 0.5)
    scaled = ThetaScaledModel(MomentH(), 0.5)
    p = rng.uniform(-2, 2, (5, 1, 32))
    assert lambda_q(scaled.scaled_measure(path), 2.0).tobytes() == lambda_q(halved, 2.0).tobytes()
    h, want = scaled.hamiltonian_at(path)[0], MomentH().hamiltonian_at(halved)[0]
    assert h(p).tobytes() == (0.5 * want(p)).tobytes()
    for j in range(5):
        assert h(p[j], j).tobytes() == (0.5 * want(p[j], j)).tobytes()
        lag = scaled.lagrangian_field(alpha[j], path[j])
        base = MomentH().lagrangian_field(alpha[j] / 0.5, halved[j])
        assert lag.tobytes() == (0.5 * base).tobytes()


def test_theta_half_constant_control():
    # alpha = a everywhere: scaling doubles the mean control inside H.
    g = SpectralGrid(1, 64, 0.75)
    model = QuadraticModel(0.4)
    a = 0.7
    mu = JointControlMeasure(GridMeasure.uniform(g), np.full((1, 64), a))
    p = np.full((1, 64), 1.2)
    h_half = ThetaScaledModel(model, 0.5).hamiltonian_field(p, mu)
    v = potential(model, mu.m)
    expected = 0.5 * (0.5 * 1.2**2 + 0.4 * 1.2 * (2 * a) - v)
    assert np.max(np.abs(h_half - expected)) <= 1e-12


def test_theta_lagrangian_coercivity_probes():
    # L^theta >= theta^{1-qt}|alpha|^qt / C0 - C0 theta - C0 theta^{1-qt} Lambda^qt.
    rng = np.random.default_rng(31)
    g = SpectralGrid(1, 64, 0.75)
    model = QuadraticModel(0.5)
    c0, qt = model.C0, model.q_tilde
    mu = random_mu(g, rng)
    lam = lambda_q(mu, qt)
    alpha = 4.0 * rng.uniform(-1, 1, (1, 64))
    for theta in (0.25, 0.5, 1.0):
        scaled = ThetaScaledModel(model, theta)
        lval = scaled.lagrangian_field(alpha, mu)
        amag = np.abs(alpha[0])
        floor = (
            theta ** (1.0 - qt) * amag**qt / c0
            - c0 * theta
            - c0 * theta ** (1.0 - qt) * lam**qt
        )
        assert np.all(lval >= floor - 1e-10)


def test_growth_check_quadratic_feasible():
    # c0_needed is the smallest constant the growth probes pass: the model
    # declaring it passes them all, and one declaring a hair less does not
    g = SpectralGrid(1, 64, 0.75)
    model = QuadraticModel(0.5)
    report = check_model(model, g)
    assert 0.0 < report.c0_needed <= model.C0
    model.C0 = report.c0_needed
    assert check_model(model, g).growth_violations == 0
    model.C0 = report.c0_needed * (1.0 - 1e-9)
    assert check_model(model, g).growth_violations >= 1


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
def test_growth_check_passes_at_model_constant(beta, dim):
    # criterion 6 asserts this for the benchmark model; C0 is the constant
    # moment_certificate's bounds are built on.  Every other check of the
    # report holds too.
    model = QuadraticModel(beta, dim=dim)
    report = check_model(model, SpectralGrid(dim, {1: 64, 2: 16, 3: 8}[dim], 0.75))
    assert report.growth_violations == 0
    assert report.passed, report


def test_legendre_transform_of_the_scaled_model():
    # L^theta(a) = theta L(a / theta, S mu): its conjugate is theta H(p, S mu),
    # reached at -theta D_p H(p, S mu)
    rng = np.random.default_rng(43)
    g = SpectralGrid(1, 64, 0.75)
    model = QuadraticModel(0.4)
    mu = random_mu(g, rng)
    p = rng.uniform(-3, 3, (2, 1, 64))
    mu_scaled = JointControlMeasure(mu.m, mu.alpha / 0.5)
    value, alpha_star = legendre_transform(ThetaScaledModel(model, 0.5), p, mu)
    assert np.max(np.abs(value - 0.5 * model.hamiltonian_at(mu_scaled)[0](p))) <= 1e-10
    assert np.max(np.abs(alpha_star + 0.5 * model.grad_p_field(p, mu_scaled))) <= 1e-10


class GradPOff(QuadraticModel):
    """grad_p off by beta abar from grad_p_field."""

    def hamiltonian_at(self, mu):
        h, grad_p = super().hamiltonian_at(mu)
        shift = self.coupling_beta * self._broadcast_mean(mu)
        return h, lambda p, j=None: grad_p(p, j) + (shift if j is None else shift[j])


class SliceReadsWholePath(QuadraticModel):
    """D_p H on a slice of levels takes the mean control of the whole path."""

    def hamiltonian_at(self, mu):
        h, grad_p = super().hamiltonian_at(mu)
        whole = self.coupling_beta * np.mean(self._broadcast_mean(mu), axis=0)
        return h, lambda p, j=None: p + whole if isinstance(j, slice) else grad_p(p, j)


class NegativeMode(QuadraticModel):
    """The kernel of the 1-D potential with its k = +-1 modes negated."""

    def _potential(self, grid, density):
        spectrum = np.fft.rfft(density)
        spectrum[..., np.arange(spectrum.shape[-1]) != 1] = 0.0
        mode = np.fft.irfft(spectrum, n=grid.n)
        return super()._potential(grid, density) - 2.0 * np.exp(-self.kernel_decay) * mode


def test_check_model_flags_each_broken_contract(monkeypatch):
    g = SpectralGrid(1, 64, 0.75)
    small = QuadraticModel(0.3)
    small.C0 = 1.5
    grad_p, levels, pairing, growth = (
        check_model(model, g)
        for model in (GradPOff(0.3), SliceReadsWholePath(0.3), NegativeMode(0.3), small)
    )
    assert grad_p.grad_p_defect >= 0.01 and not grad_p.passed
    assert levels.level_mismatches >= 1 and not levels.passed
    assert pairing.pairing_min < 0.0 and not pairing.passed
    assert growth.growth_violations >= 1 and not growth.passed
    # the measure handed to the base model must keep every accessor
    monkeypatch.delattr(models.PushedForward, "control_magnitude")
    report = check_model(QuadraticModel(0.3), g)
    assert report.measure_mismatches == ("control_magnitude",) and not report.passed


def test_coercivity_identity_centered_control():
    # With int alpha dmu = 0: p . D_p H - H = |p|^2/2 + V(x, mu).
    rng = np.random.default_rng(37)
    g = SpectralGrid(1, 64, 0.75)
    model = QuadraticModel(0.5)
    m = GridMeasure(g, smooth_density(g, rng))
    alpha = np.sin(2 * np.pi * g.nodes())  # odd against uniform weights? no:
    # force an exactly centered control by subtracting the mean control.
    mu0 = JointControlMeasure(m, alpha)
    centered = alpha - mu0.mean_control().reshape(1, 1) * np.ones_like(alpha)
    mu = JointControlMeasure(m, centered)
    assert np.max(np.abs(mu.mean_control())) <= 1e-14
    p = rng.uniform(-3, 3, (1, 64))
    lhs = np.sum(p * model.grad_p_field(p, mu), axis=0) - model.hamiltonian_at(mu)[0](p)
    rhs = 0.5 * np.sum(p**2, axis=0) + potential(model, mu.m)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def weighted_line_w1(values1, values2, weights):
    """W1 between pushforwards of a common weighting: quantile form oracle."""
    order1 = np.argsort(values1)
    order2 = np.argsort(values2)
    v1, w1 = values1[order1], weights[order1]
    v2, w2 = values2[order2], weights[order2]
    # merge the two quantile partitions
    c1 = np.concatenate([[0.0], np.cumsum(w1)])
    c2 = np.concatenate([[0.0], np.cumsum(w2)])
    cuts = np.unique(np.concatenate([c1, c2]))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        q1 = v1[min(np.searchsorted(c1[1:], mid, side="right"), len(v1) - 1)]
        q2 = v2[min(np.searchsorted(c2[1:], mid, side="right"), len(v2) - 1)]
        total += (hi - lo) * abs(q1 - q2)
    return total


def test_h1_lipschitz_probe():
    # |D_p H(mu) - D_p H(nu)| <= beta W1(control marginals) + 1e-8 for
    # pairs sharing the state marginal.
    rng = np.random.default_rng(41)
    g = SpectralGrid(1, 64, 0.75)
    beta = 0.55
    model = QuadraticModel(beta)
    m = GridMeasure(g, smooth_density(g, rng))
    p = rng.uniform(-2, 2, (1, 64))
    # constant shift: control marginal moves rigidly, W1 = |shift|
    base = np.sin(2 * np.pi * g.nodes())
    for shift in (0.3, -1.1):
        mu = JointControlMeasure(m, base)
        nu = JointControlMeasure(m, base + shift)
        gap = np.max(np.abs(model.grad_p_field(p, mu) - model.grad_p_field(p, nu)))
        assert gap <= beta * abs(shift) + 1e-8
    # generic pair: oracle W1 of the control pushforwards on the line
    a1 = np.sin(2 * np.pi * g.nodes()[0])
    a2 = 0.5 * np.cos(4 * np.pi * g.nodes()[0]) + 0.2
    mu = JointControlMeasure(m, a1[None])
    nu = JointControlMeasure(m, a2[None])
    w1 = weighted_line_w1(a1, a2, m.node_weights())
    gap = np.max(np.abs(model.grad_p_field(p, mu) - model.grad_p_field(p, nu)))
    assert gap <= beta * w1 + 1e-8


def test_optimization_error_signals():
    # An inconsistent "model" whose gradient never matches its value
    # drives Newton to failure.
    class Broken:
        C0, q, q_tilde = 1.0, 2.0, 2.0

        def lagrangian_field(self, alpha, mu):
            return np.sum(alpha**2, axis=-2)

        def grad_alpha_field(self, alpha, mu):
            return np.full_like(alpha, 7.0)  # constant, never stationary

    g = SpectralGrid(1, 16, 0.75)
    mu = JointControlMeasure(GridMeasure.uniform(g), np.zeros((1, 16)))
    with pytest.raises(OptimizationError):
        legendre_transform(Broken(), np.zeros((1, 16)), mu)
