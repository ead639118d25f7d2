"""Grid and Fourier-multiplier operator tests.

Expected values for single modes come from the closed-form symbols:
(-Delta)^s e^{2 pi i k.x} = (2 pi |k|)^{2s} e^{2 pi i k.x} and
exp(-t (-Delta)^s) damps the same mode by exp(-t (2 pi |k|)^{2s}).
"""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

import fmfgc
from fmfgc.errors import GridMismatchError, InvalidFieldError
from fmfgc.spectral import SpectralGrid, TimeGrid

from helpers import band_limited_field, bessel_norm, periodic_delta


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(3, 64, 0.75)
    with pytest.raises(ValueError):
        SpectralGrid(1, 48, 0.75)  # not a power of two
    with pytest.raises(ValueError):
        SpectralGrid(1, 4, 0.75)  # too small
    for bad_s in (0.5, 1.0, 0.3, 1.2):
        with pytest.raises(ValueError):
            SpectralGrid(1, 64, bad_s)
    g = SpectralGrid(2, 16, 0.6)
    assert g.shape == (16, 16)
    assert g.dx == pytest.approx(1.0 / 16)


def test_field_validation():
    g = SpectralGrid(1, 16, 0.75)
    with pytest.raises(GridMismatchError):
        g.check_scalar(np.zeros(8))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(InvalidFieldError):
        g.frac_laplacian(bad)
    with pytest.raises(GridMismatchError):
        g.check_vector(np.zeros((2, 16)))


def test_frac_laplacian_single_modes():
    # Single modes are exact eigenfunctions: relative error at roundoff.
    n = 64
    for s in (0.6, 0.75, 0.9):
        g = SpectralGrid(1, n, s)
        x = g.nodes()[0]
        for k in (1, 3, 7, 31):
            for f in (np.cos(2 * np.pi * k * x), np.sin(2 * np.pi * k * x)):
                lam = (2 * np.pi * k) ** (2 * s)
                err = np.max(np.abs(g.frac_laplacian(f) - lam * f))
                assert err <= 1e-12 * lam
        # Nyquist mode: symbol uses |k| = n/2.
        f = np.cos(np.pi * n * x)  # equals (-1)^j on the nodes
        lam = (2 * np.pi * (n // 2)) ** (2 * s)
        assert np.max(np.abs(g.frac_laplacian(f) - lam * f)) <= 1e-12 * lam
        # Constants are in the kernel.
        assert np.max(np.abs(g.frac_laplacian(np.ones(n)))) <= 1e-12


def test_frac_laplacian_mixture():
    # cos(2 pi x) + cos(4 pi x) at s = 1/2 maps to 2 pi cos + 4 pi cos.
    g = SpectralGrid(1, 64, 0.75)
    x = g.nodes()[0]
    f = np.cos(2 * np.pi * x) + np.cos(4 * np.pi * x)
    expected = 2 * np.pi * np.cos(2 * np.pi * x) + 4 * np.pi * np.cos(4 * np.pi * x)
    got = g.frac_laplacian(f, s=0.5)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_frac_laplacian_2d_mode():
    g = SpectralGrid(2, 32, 0.8)
    xx, yy = g.nodes()
    f = np.cos(2 * np.pi * (2 * xx + yy))
    lam = (2 * np.pi * np.sqrt(5.0)) ** 1.6
    assert np.max(np.abs(g.frac_laplacian(f) - lam * f)) <= 1e-12 * lam


def test_semigroup_single_mode():
    # exp(-t (2 pi)^{2s}) cos(2 pi x) for t = 0.1, s = 0.75.
    g = SpectralGrid(1, 64, 0.75)
    x = g.nodes()[0]
    f = np.cos(2 * np.pi * x)
    expected = np.exp(-0.1 * (2 * np.pi) ** 1.5) * f
    assert np.max(np.abs(g.semigroup_apply(f, 0.1) - expected)) <= 1e-13


def test_semigroup_group_law_and_identity():
    rng = np.random.default_rng(7)
    g = SpectralGrid(1, 64, 0.6)
    f = rng.standard_normal(64)
    a = g.semigroup_apply(f, 0.3)
    b = g.semigroup_apply(g.semigroup_apply(f, 0.1), 0.2)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(f))
    # t = 0 is the identity up to the FFT round trip.
    assert np.max(np.abs(g.semigroup_apply(f, 0.0) - f)) <= 1e-13
    with pytest.raises(ValueError):
        g.semigroup_apply(f, -0.1)


@pytest.mark.parametrize("dim", [1, 2])
def test_semigroup_over_an_array_of_times(dim):
    rng = np.random.default_rng(11)
    g = SpectralGrid(dim, 32 if dim == 1 else 16, 0.75)
    f = rng.standard_normal(g.shape)
    times = np.array([0.0, 0.01, 0.1, 0.7])
    flow = g.semigroup_apply(f, times)
    assert flow.shape == (4,) + g.shape
    for row, t in zip(flow, times):
        assert row.tobytes() == g.semigroup_apply(f, t).tobytes()
    with pytest.raises(ValueError):
        g.semigroup_apply(f, np.array([0.1, -0.1]))


@pytest.mark.parametrize("dim", [1, 2])
def test_semigroup_gradient_pair(dim):
    rng = np.random.default_rng(13)
    g = SpectralGrid(dim, 32 if dim == 1 else 16, 0.75)
    f = rng.standard_normal(g.shape)
    value, grad = g.semigroup_gradient(f, 0.05)
    assert value.shape == g.shape and grad.shape == (dim,) + g.shape
    assert value.tobytes() == g.semigroup_apply(f, 0.05).tobytes()
    assert np.max(np.abs(grad - g.gradient(value))) <= 1e-13


def test_dropped_grid_is_freed():
    # The heat tables are cached per grid, so the cache keeps no grid alive.
    g = SpectralGrid(2, 32, 0.75)
    g.semigroup_apply(np.ones(g.shape), 0.1)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_semigroup_contraction_and_mean():
    rng = np.random.default_rng(11)
    g = SpectralGrid(2, 32, 0.9)
    for _ in range(20):
        f = rng.standard_normal((32, 32))
        mean0 = f.mean()
        for t in (1e-4, 1e-2, 0.5, 3.0):
            h = g.semigroup_apply(f, t)
            assert np.sqrt(np.sum(h**2)) <= np.sqrt(np.sum(f**2)) * (1 + 1e-14)
            assert np.max(np.abs(h)) <= np.max(np.abs(f)) + 1e-12
            assert abs(h.mean() - mean0) <= 1e-13 * max(1.0, abs(mean0))


def test_semigroup_smoothing_rate():
    # || T(t) f ||_{nu+gamma} <= C t^{-gamma/2s} || f ||_nu with a modest C:
    # per mode the quotient is exp(-lam t) (1+4pi^2|k|^2)^{gamma/2} and
    # maximizing exp(-lam t) t^{gamma/2s} over t gives a uniform constant.
    rng = np.random.default_rng(13)
    g = SpectralGrid(1, 128, 0.75)
    f = rng.standard_normal(128)
    nu, gamma = 0.0, 0.8
    norm0 = bessel_norm(g, f, nu)
    for t in np.geomspace(1e-3, 1.0, 13):
        ratio = bessel_norm(g, g.semigroup_apply(f, t), nu + gamma) * t ** (gamma / (2 * g.s))
        assert ratio <= 10.0 * norm0


def test_gradient_divergence_single_modes():
    g = SpectralGrid(1, 64, 0.75)
    x = g.nodes()[0]
    f = np.sin(2 * np.pi * 3 * x)
    expected = 6 * np.pi * np.cos(2 * np.pi * 3 * x)
    assert np.max(np.abs(g.gradient(f)[0] - expected)) <= 1e-12 * 6 * np.pi
    g2 = SpectralGrid(2, 32, 0.75)
    xx, yy = g2.nodes()
    v = np.stack([np.sin(2 * np.pi * yy), np.cos(2 * np.pi * xx)])
    # div of this shear pair vanishes identically
    assert np.max(np.abs(g2.divergence(v))) <= 1e-12
    # a stack (..., dim, *shape) gives each field's divergence, bit for bit;
    # likewise every operator on a stack of scalar fields (..., *shape)
    rng = np.random.default_rng(19)
    scalar_ops = {
        "frac_laplacian": lambda grid, f: grid.frac_laplacian(f, s=0.6),
        "semigroup_apply": lambda grid, f: grid.semigroup_apply(f, 0.01),
        "gradient": lambda grid, f: grid.gradient(f),
    }
    for grid in (g, g2):
        stack = rng.standard_normal((3, 2, grid.dim) + grid.shape)
        div = grid.divergence(stack)
        assert div.shape == (3, 2) + grid.shape
        for i in range(3):
            for j in range(2):
                assert np.array_equal(div[i, j], grid.divergence(stack[i, j]))
        with pytest.raises(GridMismatchError):
            grid.divergence(stack[..., :-1])
        stack[1, 0].flat[5] = np.nan
        with pytest.raises(InvalidFieldError):
            grid.divergence(stack)
        fields = rng.standard_normal((3, 2) + grid.shape)
        for name, op in scalar_ops.items():
            out = op(grid, fields)
            assert out.shape[:2] == (3, 2), name
            for i in range(3):
                for j in range(2):
                    assert np.array_equal(out[i, j], op(grid, fields[i, j])), name
            with pytest.raises(GridMismatchError):
                op(grid, fields[..., :-1])
            bad = fields.copy()
            bad[2, 1].flat[3] = np.nan
            with pytest.raises(InvalidFieldError):
                op(grid, bad)


def test_gradient_real_output_with_nyquist_energy():
    # Fields with Nyquist content must still produce real gradients.
    g = SpectralGrid(1, 16, 0.75)
    f = np.array([(-1.0) ** j for j in range(16)])
    df = g.gradient(f)
    assert np.all(np.isfinite(df))
    assert np.max(np.abs(df)) <= 1e-12  # Nyquist zeroed by convention


def test_adjointness_gradient_divergence():
    # <grad f, v> = -<f, div v> exactly for band-limited fields.
    rng = np.random.default_rng(17)
    for dim, n in ((1, 64), (2, 32)):
        g = SpectralGrid(dim, n, 0.75)
        f = band_limited_field(g, rng)
        v = np.stack([band_limited_field(g, rng) for _ in range(dim)])
        lhs = g.integrate(f * g.divergence(v))
        rhs = -g.integrate(np.sum(g.gradient(f) * v, axis=0))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_bessel_norm_values():
    g = SpectralGrid(1, 64, 0.75)
    x = g.nodes()[0]
    # || cos(2 pi x) ||_{mu=0} = sqrt(1/2) (discrete Parseval, exact).
    f = np.cos(2 * np.pi * x)
    assert bessel_norm(g, f, 0.0) == pytest.approx(np.sqrt(0.5), abs=1e-13)
    # mu = 1: weight (1 + 4 pi^2) on the two half-amplitude modes.
    expected = np.sqrt((1 + 4 * np.pi**2) * 0.5)
    assert bessel_norm(g, f, 1.0) == pytest.approx(expected, abs=1e-12)
    # discrete L2 agrees with quadrature for a generic field
    rng = np.random.default_rng(23)
    h = rng.standard_normal(64)
    assert bessel_norm(g, h, 0.0) == pytest.approx(np.sqrt(np.sum(h**2) * g.dx), abs=1e-12)


def test_holder_seminorm_against_brute_force():
    rng = np.random.default_rng(29)
    g = SpectralGrid(1, 32, 0.75)
    f = band_limited_field(g, rng)
    beta = 0.3
    # independent brute force over all in-window pairs
    best = 0.0
    for i in range(32):
        for h in range(1, 9):
            j = (i + h) % 32
            best = max(best, abs(f[i] - f[j]) / (h * g.dx) ** beta)
    assert g.holder_seminorm(f, beta) == pytest.approx(best, rel=1e-12)
    # a stack gives one value per field, each equal to its own call
    stack = np.stack([f, 2.0 * f, band_limited_field(g, rng)])
    per_field = g.holder_seminorm(stack, beta)
    assert per_field.shape == (3,)
    assert np.array_equal(per_field, [g.holder_seminorm(h, beta) for h in stack])
    with pytest.raises(ValueError):
        g.holder_seminorm(f, 0.0)
    with pytest.raises(ValueError):
        g.holder_seminorm(f, 1.5)


def test_holder_seminorm_2d_linear_scaling():
    # For f = sin(2 pi x), the beta = 1 seminorm approximates the Lipschitz
    # constant 2 pi from below.
    g = SpectralGrid(2, 32, 0.75)
    xx, yy = g.nodes()
    f = np.sin(2 * np.pi * xx)
    val = g.holder_seminorm(f, 1.0)
    assert 0.8 * 2 * np.pi <= val <= 2 * np.pi + 1e-9
    # stacks roll along the grid axes only
    h = np.sin(2 * np.pi * yy)
    stack = np.stack([f, 0.5 * f, h])
    expected = [val, 0.5 * val, g.holder_seminorm(h, 1.0)]
    assert np.array_equal(g.holder_seminorm(stack, 1.0), expected)


def test_time_grid():
    tg = TimeGrid(1.0, 200)
    assert tg.dt == pytest.approx(0.005)
    assert len(tg.times()) == 201
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_periodic_delta():
    assert periodic_delta(np.array(0.1), np.array(0.9)) == pytest.approx(0.2)
    assert periodic_delta(np.array(0.25), np.array(0.75)) == pytest.approx(0.5)


def test_fourier_code_lives_in_spectral():
    # Every Fourier multiplier goes through SpectralGrid: no other module
    # calls numpy's FFT or reads the grid's wavenumber table.
    package = Path(fmfgc.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        if path.name != "spectral.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "np.fft" in line or "_ksq" in line
    ]
    assert offenders == []


def test_package_does_not_import_scipy():
    # The runtime needs only numpy; scipy is a test-only dependency.
    package = Path(fmfgc.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if line.lstrip().startswith(("import scipy", "from scipy"))
    ]
    assert offenders == []
