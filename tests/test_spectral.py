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
from hypothesis import given, settings
from hypothesis import strategies as st

import fmfgc
from fmfgc.errors import GridMismatchError, InvalidFieldError
from fmfgc.spectral import DENSE_STEP_MAX_N, SpectralGrid, TimeGrid

from helpers import band_limited_field, bessel_norm, periodic_delta, step_semigroup


def test_grid_validation():
    for bad_dim in (0, 4):
        with pytest.raises(ValueError):
            SpectralGrid(bad_dim, 16, 0.75)
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
    assert SpectralGrid(3, 8, 0.6).nodes().shape == (3, 8, 8, 8)


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
    # cos(2 pi x) + cos(4 pi x) at s = 3/4 maps to
    # (2 pi)^{3/2} cos(2 pi x) + (4 pi)^{3/2} cos(4 pi x).
    g = SpectralGrid(1, 64, 0.75)
    x = g.nodes()[0]
    f = np.cos(2 * np.pi * x) + np.cos(4 * np.pi * x)
    expected = (2 * np.pi) ** 1.5 * np.cos(2 * np.pi * x)
    expected += (4 * np.pi) ** 1.5 * np.cos(4 * np.pi * x)
    got = g.frac_laplacian(f)
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


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(1, 32), (1, DENSE_STEP_MAX_N), (1, 2 * DENSE_STEP_MAX_N), (2, 16)]),
    s=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    t1=st.floats(1e-4, 0.1),
    t2=st.floats(1e-4, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_march_steps_obey_the_group_law(shape, s, t1, t2, seed):
    # Two march steps T(t2) T(t1) are T(t1 + t2): through the dense kernel
    # (1-D, at most DENSE_STEP_MAX_N nodes) and through the transform pair
    # (larger 1-D grids, every 2-D grid).  Each operator rounds relative to
    # the field it is applied to, so the tolerance is too.
    dim, n = shape
    g = SpectralGrid(dim, n, s)
    f = np.random.default_rng(seed).standard_normal(g.shape)
    once_t1, twice = np.empty((2,) + g.shape)
    g.semigroup_value(f, g.value_step(t1), once_t1)
    g.semigroup_value(once_t1, g.value_step(t2), twice)
    once = g.semigroup_apply(f, t1 + t2)
    assert np.max(np.abs(twice - once)) <= 1e-14 * np.max(np.abs(f))


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


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1e-3])
def test_step_operators_reject_bad_times(bad):
    # the heat table and both step operators, on the dense 1-D kernel and
    # on a table grid; the operator a grid keeps survives the refusal
    for g in (SpectralGrid(1, 32, 0.75), SpectralGrid(2, 16, 0.75)):
        kept = g.gradient_step(0.1)
        for build in (g.heat_table, g.gradient_step, g.value_step):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                build(bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            g.heat_table(np.array([0.1, bad]))
        assert g.gradient_step(0.1) is kept


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_semigroup_rejects_non_finite_times(bad):
    # exp(-0 * inf) is nan, so an infinite time would wipe out every node
    # through the mean mode; nan passes any `t < 0` test
    g = SpectralGrid(1, 32, 0.75)
    f = np.random.default_rng(3).standard_normal(g.shape)
    for t in (bad, np.float64(bad), np.array(bad), np.array([0.1, bad])):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            g.semigroup_apply(f, t)


@pytest.mark.parametrize("dim", [1, 2])
def test_semigroup_gradient_pair(dim):
    rng = np.random.default_rng(13)
    g = SpectralGrid(dim, 32 if dim == 1 else 16, 0.75)
    f = rng.standard_normal(g.shape)
    out = np.empty((1 + dim,) + g.shape)
    g.semigroup_gradient(f, g.gradient_step(0.05), out)
    value, grad = out[0], out[1:]
    # in d = 1 the value is the product with the real kernel, in d = 2 the
    # transform pair of semigroup_apply
    assert value.tobytes() == step_semigroup(g, f, 0.05).tobytes()
    assert np.max(np.abs(grad - g.gradient(value))) <= 1e-13


def test_dropped_grid_is_freed():
    # A grid keeps no reference to itself through its tables.
    g = SpectralGrid(2, 32, 0.75)
    g.semigroup_apply(np.ones(g.shape), 0.1)
    g.value_step(0.1), g.gradient_step(0.1)
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
        "frac_laplacian": lambda grid, f: grid.frac_laplacian(f),
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


def test_time_grid():
    tg = TimeGrid(1.0, 200)
    assert tg.dt == pytest.approx(0.005)
    assert len(tg.times()) == 201
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_time_grid_rejects_a_non_finite_horizon(bad):
    # an infinite horizon would give dt = inf and times() = [nan, inf, ...]
    with pytest.raises(ValueError, match="finite and positive"):
        TimeGrid(bad, 10)


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


def extended_heat_pair(g, f, dt):
    """(T(dt) f, D T(dt) f) on a 1-D grid from the grid's own heat table,
    transformed in long double: a reference whose rounding sits far below
    that of either double-precision path."""
    k = np.fft.rfftfreq(g.n, d=1.0 / g.n).astype(np.longdouble)
    deriv = 2 * np.arccos(np.longdouble(-1)) * np.where(k == g.n // 2, 0, k)
    spec = g.heat_table(dt).astype(np.longdouble) * np.fft.rfft(f.astype(np.longdouble))
    return np.fft.irfft(spec, n=g.n), np.fft.irfft(1j * deriv * spec, n=g.n)


@pytest.mark.parametrize("n", [32, 128, 256])
@pytest.mark.parametrize("s", [0.55, 0.95])
def test_small_1d_steps_are_the_real_kernel(n, s):
    # Up to DENSE_STEP_MAX_N nodes a 1-D step is one product with the real
    # kernel of the heat multiplier.  Its value is semigroup_apply's to
    # rounding.  Its gradient is checked against long double transforms:
    # the transform path's own gradient rounds worse, to 5e-14 of the
    # gradient's size on these draws (the heat table damps the gradient
    # far below the field), so it is no reference at 1e-14.
    wide = np.finfo(np.longdouble).eps < np.finfo(float).eps
    if not wide or np.fft.rfft(np.ones(8, dtype=np.longdouble)).dtype != np.clongdouble:
        pytest.skip("no long double wider than double, or no long double transforms")
    assert n <= DENSE_STEP_MAX_N
    rng = np.random.default_rng(17)
    g = SpectralGrid(1, n, s)
    f = rng.standard_normal(n)
    for dt in (1e-3, 5e-3, 0.05):
        kernel, stacked = g.value_step(dt), g.gradient_step(dt)
        assert kernel.shape == (n, n) and stacked.shape == (2 * n, n)
        exact = g.semigroup_apply(f, dt)
        scale = np.max(np.abs(exact))
        value, grad = pair = np.empty((2, n))
        g.semigroup_value(f, kernel, value)
        assert np.max(np.abs(value - exact)) <= 1e-14 * scale
        g.semigroup_gradient(f, stacked, pair)
        assert np.max(np.abs(value - exact)) <= 1e-14 * scale
        fine_value, fine_grad = extended_heat_pair(g, f, dt)
        assert np.max(np.abs(value - fine_value)) <= 1e-14 * scale
        grad_scale = np.max(np.abs(fine_grad))
        assert np.max(np.abs(grad - fine_grad)) <= 1e-14 * grad_scale
        # T(dt) preserves the mean, so each column, the image of a unit
        # field, sums to 1
        assert np.max(np.abs(kernel.sum(axis=0) - 1.0)) <= 1e-14
        assert np.max(np.abs(stacked[:n].sum(axis=0) - 1.0)) <= 1e-14


@pytest.mark.parametrize("dim, n", [(1, 2 * DENSE_STEP_MAX_N), (2, 16), (2, 64)])
def test_large_and_2d_steps_keep_the_transform(dim, n):
    rng = np.random.default_rng(19)
    g = SpectralGrid(dim, n, 0.75)
    f = rng.standard_normal(g.shape)
    dt = 5e-3
    # one operator, the heat table, serves both kinds of step
    assert g.value_step(dt) is g.gradient_step(dt)
    assert np.array_equal(g.value_step(dt), g.heat_table(dt))
    exact = g.semigroup_apply(f, dt)
    value = np.empty(g.shape)
    g.semigroup_value(f, g.value_step(dt), value)
    assert value.tobytes() == exact.tobytes()
    out = np.empty((1 + dim,) + g.shape)
    g.semigroup_gradient(f, g.gradient_step(dt), out)
    value, grad = out[0], out[1:]
    assert value.tobytes() == exact.tobytes()
    assert np.max(np.abs(grad - g.gradient(exact))) <= 1e-13 * np.max(np.abs(grad))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("s", [0.55, 0.75, 0.95])
def test_value_step_is_the_value_rows_of_the_gradient_step(n, s):
    # On a 1-D grid of at most DENSE_STEP_MAX_N nodes the value step is
    # the first n rows of the stacked kernel [T; D T], a strided view: the
    # bits of the value kernel built on its own, and a product through it
    # gives the bytes of a product through that kernel.
    assert n <= DENSE_STEP_MAX_N
    g = SpectralGrid(1, n, s)
    rng = np.random.default_rng(23)
    through_view, through_kernel = np.empty((2, n))
    for dt in (1e-4, 1e-3, 5e-3, 0.05):
        step = g.value_step(dt)
        kernel = g._kernel(g.heat_table(dt)[np.newaxis])
        assert np.shares_memory(step, g.gradient_step(dt))
        assert step.tobytes() == kernel.tobytes()
        for _ in range(20):
            f = rng.standard_normal(n)
            g.semigroup_value(f, step, through_view)
            np.matmul(kernel, f, out=through_kernel)
            assert through_view.tobytes() == through_kernel.tobytes()


def test_step_operators_are_built_once_per_time_step(monkeypatch):
    # The grid keeps the one step operator it built last: an HJB march and
    # two forward marches of one time step build one stacked kernel, a new
    # time step builds it again, and what the grid hands out cannot be
    # written to.
    from fmfgc.fokker_planck import initial_density, solve_forward
    from fmfgc.hjb import solve_backward
    from fmfgc.measures import MeasurePath
    from fmfgc.models import QuadraticModel

    built = []
    kernel = SpectralGrid._kernel

    def counted(self, mults):
        built.append(len(mults))
        return kernel(self, mults)

    monkeypatch.setattr(SpectralGrid, "_kernel", counted)
    g = SpectralGrid(1, 32, 0.75)
    m0 = initial_density(g)
    for n_steps in (10, 10, 20):
        tg = TimeGrid(horizon=0.1, n_steps=n_steps)
        density = np.broadcast_to(m0.values, (n_steps + 1,) + g.shape)
        path = MeasurePath(tg, g, density, np.zeros((n_steps + 1, 1) + g.shape))
        u = solve_backward(QuadraticModel(0.3), path, 0.1 * np.cos(2 * np.pi * g.nodes()[0]))
        for _ in range(2):
            solve_forward(u.drift, m0, tg)
    # one stacked [T; D T] kernel per time step, whose rows serve the value
    assert built == [2, 2]
    for dt in (0.01, 0.005):
        for step in (g.value_step(dt), g.gradient_step(dt)):
            assert not step.flags.writeable
            with pytest.raises(ValueError):
                step[0, 0] = 0.0
    assert g.gradient_step(0.005) is g.gradient_step(0.005)
    # on a grid that steps by transforms the operator is the heat table, kept too
    plane = SpectralGrid(2, 16, 0.75)
    table = plane.value_step(0.01)
    assert table is plane.value_step(0.01) and not table.flags.writeable
    assert np.array_equal(table, plane.heat_table(0.01))
    assert plane.value_step(0.02) is not table


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(1, 512), (2, 64), (2, 16)]),
    extra=st.integers(min_value=0, max_value=80),
    flow=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_blocked_semigroup_apply_is_the_whole_stack_transform(shape, extra, flow, seed):
    # A stack, or one field over an array of times, is transformed a block
    # of levels at a time (32 levels at n = 512, 4 in d = 2 at n = 64, 64
    # at n = 16); every row has the bytes of the one-call transform of the
    # whole stack, for level counts on and across block edges.
    dim, n = shape
    g = SpectralGrid(dim, n, 0.75)
    per_block = next(g.level_blocks(10**6)).stop
    levels = 1 + extra % (3 * per_block)
    rng = np.random.default_rng(seed)
    s = 0.5 if seed % 2 else None
    if flow:
        f = rng.standard_normal(g.shape)
        t = np.sort(rng.uniform(0.0, 0.2, levels))
    else:
        f = rng.standard_normal((levels,) + g.shape)
        t = float(rng.uniform(0.0, 0.2))
    whole = g._multiply(f, g.heat_table(t, s))
    blocked = g.semigroup_apply(f, t, s)
    assert blocked.shape == whole.shape
    assert blocked.tobytes() == whole.tobytes()
    # a stack of vector fields blocks over its first axis too
    v = rng.standard_normal((levels, dim) + g.shape)
    assert g.semigroup_apply(v, 0.05).tobytes() == g._multiply(v, g.heat_table(0.05)).tobytes()


@pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 8)])
def test_transform_pair_has_the_bytes_of_numpys_rfftn(dim, n):
    # The pair runs the axes in the order rfftn and irfftn do, so it has
    # their bytes on one field and on a stack, and the inverse writes
    # them into the buffer it is given.
    g = SpectralGrid(dim, n, 0.75)
    axes = tuple(range(-dim, 0))
    f = np.random.default_rng(29).standard_normal((3,) + g.shape)
    spec = np.fft.rfftn(f, axes=axes)
    assert g._forward(f).tobytes() == spec.tobytes()
    assert g._forward(f[1]).tobytes() == spec[1].tobytes()
    out = np.empty_like(f)
    assert g._inverse(spec, out) is out
    assert out.tobytes() == np.fft.irfftn(spec, s=g.shape, axes=axes).tobytes()


@pytest.mark.parametrize("dim, n", [(1, 2 * DENSE_STEP_MAX_N), (2, 16), (2, 64), (3, 16)])
def test_transform_steps_have_the_bytes_of_numpys_transform_pair(dim, n):
    # Off the dense 1-D kernel, a step is numpy's one-call real transform
    # pair of the field times the step's heat table, and of the gradient
    # pair, to the byte.
    rng = np.random.default_rng(23)
    g = SpectralGrid(dim, n, 0.75)
    f = rng.standard_normal(g.shape)
    if dim == 1:
        forward, inverse = np.fft.rfft, lambda z: np.fft.irfft(z, n=n)
    elif dim == 2:
        forward, inverse = np.fft.rfft2, lambda z: np.fft.irfft2(z, s=g.shape)
    else:
        forward, inverse = np.fft.rfftn, lambda z: np.fft.irfftn(z, s=g.shape, axes=(-3, -2, -1))
    step = g.gradient_step(5e-3)
    spec = step * forward(f)
    value, pair = np.empty(g.shape), np.empty((1 + dim,) + g.shape)
    g.semigroup_value(f, g.value_step(5e-3), value)
    g.semigroup_gradient(f, step, pair)
    assert value.tobytes() == inverse(spec).tobytes()
    assert pair.tobytes() == inverse(np.concatenate([spec[None], g._deriv * spec])).tobytes()
