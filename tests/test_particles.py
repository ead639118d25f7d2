"""Particle sampler, SDE stepper, deposition, and the path-regularity check."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp

from fmfgc import particles
from fmfgc.equilibrium import solve_equilibrium
from fmfgc.errors import InvalidFieldError
from fmfgc.fokker_planck import initial_density
from fmfgc.measures import GridMeasure, wasserstein_1d
from fmfgc.models import QuadraticModel
from fmfgc.particles import (
    HolderReport,
    ParticlePath,
    empirical_measure,
    holder_wasserstein_check,
    sample_positions,
    sample_stable_increment,
    simulate_sde,
)
from fmfgc.spectral import SpectralGrid, TimeGrid

from helpers import periodic_delta


def vonmises_setup(n=64, s=0.75):
    grid = SpectralGrid(dim=1, n=n, s=s)
    return grid, initial_density(grid, "vonmises")


def test_increment_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_stable_increment(0.4, 0.1, 1, rng, size=1)
    with pytest.raises(ValueError):
        sample_stable_increment(1.0, 0.1, 1, rng, size=1)
    with pytest.raises(ValueError):
        sample_stable_increment(0.75, 0.0, 1, rng, size=1)
    with pytest.raises(ValueError):
        sample_stable_increment(0.75, 0.1, 0, rng, size=1)
    with pytest.raises(ValueError):
        sample_stable_increment(0.75, 0.1, 1, rng, size=0)


def test_increment_shapes():
    rng = np.random.default_rng(1)
    batch = sample_stable_increment(0.6, 0.1, 3, rng, size=7)
    assert batch.shape == (7, 3)
    assert np.all(np.isfinite(batch))


def test_characteristic_function_matches_semigroup_multiplier():
    # E[cos(2 pi k J)] must equal the heat multiplier exp(-dt (2 pi k)^(2s)):
    # this single statistic ties the CMS scaling to the spectral convention.
    s, dt, count = 0.75, 0.05, 10**6
    rng = np.random.default_rng(7)
    jumps = sample_stable_increment(s, dt, 1, rng, size=count)[:, 0]
    tol = 4.0 / math.sqrt(count)
    for k in (1, 2, 3):
        target = math.exp(-dt * (2.0 * math.pi * k) ** (2.0 * s))
        observed = float(np.mean(np.cos(2.0 * math.pi * k * jumps)))
        assert abs(observed - target) <= tol


def test_increment_finite_near_s_one():
    # At s = 0.99 the textbook CMS intermediates overflow: the subordinator's
    # a^(1/(1-s)) has exponent 100, and the 1-D jump's cos(V)^(-1/(2s)) is
    # unbounded near u = 0; the increments must stay finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        jumps = sample_stable_increment(0.99, 0.005, 1, np.random.default_rng(0), size=10**5)
    assert np.all(np.isfinite(jumps))


#: The unit roundoff: the relative error of one rounded float64 operation.
UNIT = 2.0**-53

#: The relative error of numpy's float64 tan, log and exp: 4 ulp, the bound
#: of the SIMD (SVML) versions it runs on AVX-512, each ulp at most 2 UNIT.
LIBM = 8.0 * UNIT


def _cms_line_power_form(u, w, s, dt):
    """The symmetric 2s-stable CMS jump in its textbook power form, in
    30-digit mpmath, at the angle _cms_line takes, V = pi (u - 1/2 + 2^-54)."""
    with mpmath.workdps(30):
        alpha = 2 * mpmath.mpf(s)
        shift = mpmath.mpf(0.5) - mpmath.mpf(2) ** -54
        scale = mpmath.mpf(dt) ** (1 / alpha)
        jumps = []
        for ui, wi in zip(u.tolist(), w.tolist()):
            v = mpmath.pi * (ui - shift)
            jumps.append(float(
                scale * mpmath.sin(alpha * v) * mpmath.cos(v) ** (-1 / alpha)
                * (wi / mpmath.cos((alpha - 1) * v)) ** ((alpha - 1) / alpha)
            ))
    return np.array(jumps)


def _cms_line_error_bound(s, dt, w):
    """First-order bound on _cms_line's relative error, from its operations.

    Each tangent's argument is an exact number times a rounded constant, so
    it errs by 3 UNIT (2 for cos V, as pi / 2 is pi scaled exactly).  A sine
    or cosine then errs by that error times its condition number
    |y f'(y) / f(y)|, plus the tangent's error times the half-angle
    formula's gain |d log f / d log t|, plus the formula's own roundings:
    - sin(alpha |V|), y < s pi: condition max(1, s pi |cot s pi|), gain
      |cos y| <= 1, 3 roundings;
    - cos V = sin(pi q), y <= pi / 2: condition and gain at most 1,
      3 roundings;
    - cos(beta V), y < beta pi / 2: condition y tan y, gain sin y tan y
      <= tan y, 4 roundings, and the rounding of t^2 weighs
      t^2 / (1 - t^2) <= sec(y) / 2 in 1 - t^2.
    The three ratios add 1 and 2 UNIT to the two logs.  A log turns its
    argument's relative error into the same absolute error; the logs, the
    two scalings, the constant and the two sums add at most LIBM + 4 UNIT
    times the magnitude of each term of the exponent, and exp adds LIBM.
    The result rounded to float64 adds one UNIT.
    """
    alpha, beta = 2.0 * s, 2.0 * s - 1.0
    y_a, y_b = s * math.pi, beta * math.pi / 2.0
    tan_b, sec_b = math.tan(y_b), 1.0 / math.cos(y_b)
    sin_a = 3.0 * UNIT * max(1.0, abs(y_a / math.tan(y_a))) + LIBM + 3.0 * UNIT
    cos_v = 2.0 * UNIT + LIBM + 3.0 * UNIT
    cos_b = 3.0 * UNIT * y_b * tan_b + LIBM * tan_b + UNIT * (sec_b / 2.0 + 4.0)
    # |log(sin(alpha |V|) / cos V)| <= big, as both sines lie in
    # [sin(pi 2^-54), 1]; |log(w sin(alpha |V|) / (2 cos(beta V)))| adds
    # |log w| and log(2 sec(beta pi / 2)) to it.
    big = -math.log(math.sin(math.pi * 2.0**-54))
    terms = (
        big
        + beta * (np.abs(np.log(w)) + big + math.log(2.0 * sec_b))
        + abs(math.log(dt))
        + beta * math.log(2.0)
    ) / alpha
    return (
        sin_a + (cos_v + UNIT) / alpha + beta * (cos_b + 2.0 * UNIT) / alpha
        + (LIBM + 4.0 * UNIT) * terms + LIBM + UNIT
    )


@pytest.mark.parametrize("s", [0.51, 0.6, 0.75, 0.9, 0.99])
def test_line_transform_matches_mpmath_power_form(s):
    # Both ends of [0, 1), where cos V is smallest and the jump largest,
    # the centre, where it is smallest, and 2 * 10^4 random draws for each
    # order: 10^5 in all, as mpmath takes about 0.1 ms a jump.
    dt, count = 0.005, 20_000
    rng = np.random.default_rng(round(100 * s))
    u = np.concatenate([[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], rng.random(count)])
    w = rng.standard_exponential(u.size)
    got = np.empty(u.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        particles._cms_line(u.copy(), w.copy(), got, s, dt, np.empty((3, u.size)))
    want = _cms_line_power_form(u, w, s, dt)
    assert np.all(np.isfinite(got))
    assert np.all(np.isfinite(want)) and np.all(want != 0.0)
    assert np.all(np.abs(got - want) <= _cms_line_error_bound(s, dt, w) * np.abs(want))


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
def test_line_and_subordinated_jumps_share_the_1d_law(s):
    # The first coordinate of an isotropic 2-D jump has
    # E[exp(i xi J_1)] = exp(-dt |xi|^(2s)), the 1-D law: the direct
    # transform and the subordinated Gaussian must agree.  A two-sample
    # Kolmogorov-Smirnov test at level 1e-3, on 2 * 10^5 draws each, passes;
    # it rejects the same draws once one side is 10 % wider.
    dt, count, level = 0.05, 200_000, 1e-3
    line = sample_stable_increment(s, dt, 1, np.random.default_rng(31), size=count)[:, 0]
    plane = sample_stable_increment(s, dt, 2, np.random.default_rng(32), size=count)[:, 0]
    assert ks_2samp(line, plane).pvalue > level
    assert ks_2samp(line, 1.1 * plane).pvalue < level


def test_characteristic_function_2d_matches_semigroup_multiplier():
    # The d = 2 subordinated jump against exp(-dt (2 pi |k|)^(2s)), on and
    # off the axes: nothing else ties the retained path to the multiplier.
    s, dt, count = 0.75, 0.05, 10**6
    jumps = sample_stable_increment(s, dt, 2, np.random.default_rng(7), size=count)
    tol = 4.0 / math.sqrt(count)
    for k in ((1, 0), (1, 1), (2, 1)):
        target = math.exp(-dt * (2.0 * math.pi * math.hypot(*k)) ** (2.0 * s))
        observed = float(np.mean(np.cos(2.0 * math.pi * (jumps @ np.array(k)))))
        assert abs(observed - target) <= tol


def _cms_power_form(u, w, z, s, dt):
    """The Chambers-Mallows-Stuck scaling in power form, the log form's oracle."""
    u = math.pi * (1.0 - u)
    a = np.sin(s * u) ** s * np.sin((1.0 - s) * u) ** (1.0 - s) / np.sin(u)
    scale = a ** (1.0 / s) / w ** ((1.0 - s) / s) * dt ** (1.0 / s)
    return z * np.sqrt(2.0 * scale)[:, None]


@pytest.mark.parametrize("s", [0.51, 0.6, 0.75, 0.9, 0.99])
def test_log_form_transform_matches_power_form(s):
    rng = np.random.default_rng(21)
    count = 10**5
    u, w, z = rng.random(count), rng.standard_exponential(count), rng.standard_normal((count, 2))
    # the ends of [0, 1): v = pi, where tan(v / 2) is taken at float pi/2,
    # and the smallest v, where every sine is its own argument
    u[:2] = 0.0, np.nextafter(1.0, 0.0)
    want = _cms_power_form(u, w, z, s, 0.01)
    got = z.copy()
    particles._cms_block(u.copy(), w.copy(), got, s, 0.01, np.empty((3, count)))
    assert np.all(np.isfinite(want))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("u", [0.0, 0.5])
@pytest.mark.parametrize("s", [0.51, 0.75, 0.99])
def test_cms_kernels_read_a_zero_exponential_draw_as_the_floor(s, u):
    # numpy's ziggurat returns an exponential draw of exactly 0 with
    # probability about 2^-53.  Both kernels read it as EXPONENTIAL_FLOOR:
    # the jump is finite, the kernels warn of nothing, and a draw of 1
    # beside it is untouched.
    dt = 0.005

    def line(w):
        out = np.empty(2)
        particles._cms_line(np.full(2, u), np.array(w), out, s, dt, np.empty((3, 2)))
        return out

    def block(w):
        z = np.ones((2, 2))
        particles._cms_block(np.full(2, u), np.array(w), z, s, dt, np.empty((3, 2)))
        return z

    for kernel in (line, block):
        got = kernel([0.0, 1.0])
        assert np.all(np.isfinite(got))
        assert got.tobytes() == kernel([particles.EXPONENTIAL_FLOOR, 1.0]).tobytes()
        assert got[1].tobytes() == kernel([1.0, 1.0])[1].tobytes()
    # the floor scales the jump exactly as the draw does: the 1-D jump as
    # w^(beta/alpha), the 2-D factor sqrt(2 S) as w^((1 - 1/s) / 2)
    ratio = line([0.0, 1.0])
    assert ratio[0] / ratio[1] == pytest.approx(2.0 ** (-64 * (2 * s - 1) / (2 * s)), rel=1e-12)
    ratio = block([0.0, 1.0])[:, 0]
    assert ratio[0] / ratio[1] == pytest.approx(2.0 ** (32 * (1 / s - 1)), rel=1e-12)


def test_increment_median_scaling():
    # |J| shrinks like dt^(1/2s); the log-log slope of the sample median
    # over two decades pins the subordinator's dt scaling.
    s = 0.75
    dts = np.logspace(-3, -1, 5)
    medians = [
        float(
            np.median(
                np.abs(
                    sample_stable_increment(s, dt, 1, np.random.default_rng(11), size=200_000)[:, 0]
                )
            )
        )
        for dt in dts
    ]
    slope = float(np.polyfit(np.log(dts), np.log(medians), 1)[0])
    assert abs(slope - 1.0 / (2.0 * s)) < 0.05


def test_increment_symmetry():
    count = 10**6
    jumps = sample_stable_increment(0.75, 0.05, 2, np.random.default_rng(3), size=count)
    mean = np.abs(jumps.mean(axis=0))
    bound = 5.0 * jumps.std(axis=0) / math.sqrt(count)
    assert np.all(mean <= bound)


def test_initial_sampling_matches_density_1d():
    grid, m0 = vonmises_setup()
    pts = sample_positions(m0, 10**5, np.random.default_rng(5))
    assert pts.shape == (10**5, 1)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    w1 = wasserstein_1d(empirical_measure(pts, grid), m0)
    assert w1 <= 2.0 / math.sqrt(10**5) + 2.0 * grid.dx


def test_initial_sampling_centres_cells_on_nodes_1d():
    # m_i is the density at node x_i, so node i's cell mass is drawn around
    # x_i: the first Fourier mode of the draws has the phase of the grid
    # density's (cells [x_i, x_i + dx) shifted it by half a cell)
    grid, m0 = vonmises_setup(n=32)
    pts = sample_positions(m0, 10**6, np.random.default_rng(8))[:, 0]
    x = grid.nodes()[0]
    want = np.angle(np.sum(m0.values * np.exp(-2j * np.pi * x)))
    got = np.angle(np.mean(np.exp(-2j * np.pi * pts)))
    assert abs(got - want) / (2.0 * np.pi) < 0.1 * grid.dx


def test_initial_sampling_rejection_2d():
    grid = SpectralGrid(dim=2, n=32, s=0.75)
    m0 = initial_density(grid, "vonmises")
    count = 5 * 10**4
    pts = sample_positions(m0, count, np.random.default_rng(2))
    assert pts.shape == (count, 2)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    emp = empirical_measure(pts, grid)
    line = SpectralGrid(dim=1, n=32, s=0.75)
    bound = 2.0 / math.sqrt(count) + 2.0 * grid.dx
    for axis in (0, 1):
        other = 1 - axis
        got = GridMeasure.normalized(line, emp.values.sum(axis=other) * grid.dx)
        want = GridMeasure.normalized(line, m0.values.sum(axis=other) * grid.dx)
        assert wasserstein_1d(got, want) <= bound


def test_uniform_ensemble_stays_uniform():
    grid = SpectralGrid(dim=1, n=64, s=0.75)
    uniform = GridMeasure.uniform(grid)
    tg = TimeGrid(horizon=0.5, n_steps=50)
    path = simulate_sde(None, uniform, 10**4, tg, seed=9)
    w1 = wasserstein_1d(empirical_measure(path.terminal(), grid), uniform)
    assert w1 <= 2.0 / math.sqrt(10**4) + 2.0 * grid.dx


def test_constant_drift_translates_exactly():
    grid, m0 = vonmises_setup()
    tg = TimeGrid(horizon=0.5, n_steps=50)
    b = np.full((51, 1, grid.n), 0.3)
    path = simulate_sde(b, m0, 2000, tg, seed=1, jumps=False)
    shifted = (path.positions[0] + 0.3 * 0.5) % 1.0
    assert periodic_delta(path.positions[-1], shifted).max() < 1e-12


def test_positions_wrapped_at_every_stored_level():
    grid, m0 = vonmises_setup(n=32)
    tg = TimeGrid(horizon=1.0, n_steps=40)
    b = np.full((41, 1, grid.n), 3.0)
    path = simulate_sde(b, m0, 500, tg, seed=8)
    assert path.positions.min() >= 0.0
    assert path.positions.max() < 1.0


def test_pure_jump_flow_matches_semigroup():
    # Keystone consistency: particles driven only by stable jumps must
    # reproduce the spectral heat flow of the same order.
    grid, m0 = vonmises_setup()
    horizon = 0.3
    tg = TimeGrid(horizon=horizon, n_steps=30)
    count = 10**5
    path = simulate_sde(None, m0, count, tg, seed=42)
    emp = empirical_measure(path.terminal(), grid)
    ref = GridMeasure(grid, grid.semigroup_apply(m0.values, horizon))
    bound = 2.0 / math.sqrt(count) + 2.0 * grid.dx + 0.01
    assert wasserstein_1d(emp, ref) <= bound


def test_drift_path_shape_and_finiteness_checked():
    grid, m0 = vonmises_setup(n=32)
    tg = TimeGrid(horizon=0.1, n_steps=10)
    with pytest.raises(ValueError):
        simulate_sde(np.zeros((10, 1, 32)), m0, 10, tg)
    bad = np.zeros((11, 1, 32))
    bad[3, 0, 5] = np.inf
    # a package error, so `fmfgc simulate` reports it as one
    with pytest.raises(InvalidFieldError, match="non-finite"):
        simulate_sde(bad, m0, 10, tg)


def test_zero_drift_path_matches_none():
    # None skips the drift step; an explicit zero path adds +0.0, which
    # leaves every position in [0, 1) unchanged, so the bits agree.
    grid, m0 = vonmises_setup(n=32)
    tg = TimeGrid(horizon=0.1, n_steps=10)
    zero = np.zeros((11, 1, grid.n))
    for jumps in (True, False):
        want = simulate_sde(zero, m0, 1000, tg, seed=5, jumps=jumps).positions
        got = simulate_sde(None, m0, 1000, tg, seed=5, jumps=jumps).positions
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _hat_weights(x, grid):
    """Explicit multilinear weights of every node for one position: the
    product over axes of max(0, 1 - periodic distance to the node in cells)."""
    weight = np.ones(grid.shape)
    for ax, coord in enumerate(x):
        gap = (coord * grid.n - np.arange(grid.n)) % grid.n
        hat = np.maximum(0.0, 1.0 - np.minimum(gap, grid.n - gap))
        weight = weight * hat.reshape([-1 if a == ax else 1 for a in range(grid.dim)])
    return weight


def interpolate(field, positions, grid):
    """The module's one stencil, interpolating a (ncomp, *shape) field at
    (N, dim) positions into a new (N, ncomp) array."""
    count = len(positions)
    out = np.empty((count, field.shape[0]))
    return particles._Stencil(grid, count).interpolate(field, positions, out)


@pytest.mark.parametrize("dim", [1, 2])
def test_stencil_matches_multilinear_formula_at_edges(dim):
    # 0, exact nodes, mid-cell, the largest float below 1, and 1 itself: for
    # a power-of-two n, x n is exact, so 1 is where x n reaches n and the
    # stencil must wrap onto node 0.
    grid = SpectralGrid(dim=dim, n=16, s=0.75)
    edges = [0.0, 1.0 / 16, 15.0 / 16, 0.53125, np.nextafter(1.0, 0.0), 1.0, 0.3]
    pts = np.array(list(itertools.product(edges, repeat=dim)))
    field = np.random.default_rng(6).normal(size=(dim,) + grid.shape)
    hats = np.stack([_hat_weights(x, grid) for x in pts])
    want = np.einsum("pn,cn->pc", hats.reshape(len(pts), -1), field.reshape(dim, -1))
    got = interpolate(field, pts, grid)
    assert np.max(np.abs(got - want)) <= 1e-14
    emp = empirical_measure(pts, grid)
    mass = hats.sum(axis=0) / (len(pts) * grid.dx**dim)
    assert np.max(np.abs(emp.values - mass)) <= 1e-12 * mass.max()


def test_store_stride():
    grid, m0 = vonmises_setup(n=32)
    tg = TimeGrid(horizon=0.5, n_steps=20)
    path = simulate_sde(None, m0, 50, tg, seed=2, store_stride=5)
    assert path.positions.shape[0] == 5
    assert np.array_equal(path.times, tg.times()[::5])
    with pytest.raises(ValueError):
        simulate_sde(None, m0, 50, tg, store_stride=3)


def test_same_seed_is_bitwise_identical():
    grid, m0 = vonmises_setup(n=32)
    tg = TimeGrid(horizon=0.1, n_steps=10)
    first = simulate_sde(None, m0, 1000, tg, seed=5)
    second = simulate_sde(None, m0, 1000, tg, seed=5)
    other = simulate_sde(None, m0, 1000, tg, seed=6)
    assert np.array_equal(first.positions, second.positions)
    assert not np.array_equal(first.positions, other.positions)


@pytest.mark.parametrize(
    "dim, jumps, store_stride", [(1, True, 1), (1, False, 2), (2, True, 2), (2, False, 1)]
)
def test_worker_count_does_not_change_bits(dim, jumps, store_stride, monkeypatch):
    # Ten blocks of 100 particles, marched on one, two or three workers.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    grid = SpectralGrid(dim=dim, n=16, s=0.7)
    m0 = initial_density(grid, "vonmises")
    tg = TimeGrid(horizon=0.2, n_steps=6)
    b = np.random.default_rng(3).normal(size=(7, dim) + grid.shape)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(particles, "_worker_count", lambda w=workers: w)
        path = simulate_sde(b, m0, 1000, tg, seed=4, jumps=jumps, store_stride=store_stride)
        increments = [
            sample_stable_increment(0.7, 0.01, dim, np.random.default_rng(8), size=size)
            for size in (1, 1000)
        ]
        runs.append([path.positions] + increments)
    for other in runs[1:]:
        for want, got in zip(runs[0], other):
            assert np.array_equal(want.view(np.int64), got.view(np.int64))


def _reference_simulation(b, m0, count, tg, seed, jumps, store_stride, block):
    """The march as a plain loop over steps, then blocks.

    Block k of `block` particles (the last takes the rest) draws its
    increments with the public sample_stable_increment from the k-th child
    stream of the seed; the initial positions come from the seed's own
    generator, and the drift from the module's one interpolation stencil.
    """
    grid = m0.grid
    x = sample_positions(m0, count, np.random.default_rng(seed))
    bounds = list(range(0, count, block)) + [count]
    streams = np.random.SeedSequence(seed).spawn(len(bounds) - 1)
    children = [np.random.default_rng(stream) for stream in streams]
    stored = [x.copy()]
    for j in range(tg.n_steps):
        for child, lo, hi in zip(children, bounds, bounds[1:]):
            xb = x[lo:hi]
            xb += interpolate(b[j], xb, grid) * tg.dt
            if jumps:
                xb += sample_stable_increment(grid.s, tg.dt, grid.dim, child, size=hi - lo)
            xb %= 1.0
            xb[xb >= 1.0] -= 1.0
        if (j + 1) % store_stride == 0:
            stored.append(x.copy())
    return np.stack(stored)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("jumps", [True, False])
@pytest.mark.parametrize("store_stride", [1, 2])
def test_block_streams_match_reference_loop(dim, jumps, store_stride, monkeypatch):
    # 1050 particles in blocks of 100: ten full blocks and one of 50.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    monkeypatch.setattr(particles, "_worker_count", lambda: 2)
    grid = SpectralGrid(dim=dim, n=16, s=0.7)
    m0 = initial_density(grid, "vonmises")
    tg = TimeGrid(horizon=0.2, n_steps=6)
    b = np.random.default_rng(3).normal(size=(7, dim) + grid.shape)
    path = simulate_sde(b, m0, 1050, tg, seed=4, jumps=jumps, store_stride=store_stride)
    want = _reference_simulation(b, m0, 1050, tg, 4, jumps, store_stride, 100)
    assert np.array_equal(path.positions.view(np.int64), want.view(np.int64))


def test_wrap_matches_remainder():
    # Negative, tiny, signed-zero, just-below-one and large inputs: x - floor(x)
    # with the fix-up must be x % 1.0 with the fix-up, bit for bit.
    edge = [-5e-324, 5e-324, -1e-17, 1e-17, -0.0, 0.0, np.nextafter(1.0, 0.0),
            -np.nextafter(1.0, 0.0), 1.0, -1.0, -2.5, 1e300, -1e300, 2.0**53 + 2.0]
    x = np.concatenate([edge, np.random.default_rng(0).standard_cauchy(10**4)])
    want = np.remainder(x, 1.0)
    want[want >= 1.0] -= 1.0
    got = particles._wrap(x.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got.min() >= 0.0 and got.max() < 1.0


def test_empirical_measure_validation_and_terminal():
    grid, m0 = vonmises_setup(n=32)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            empirical_measure(np.array([[0.5], [bad]]), grid)
    with pytest.raises(ValueError):
        empirical_measure(np.zeros((5, 2)), grid)
    with pytest.raises(ValueError):
        empirical_measure(np.zeros((0, 1)), grid)
    path = simulate_sde(None, m0, 10, TimeGrid(horizon=0.1, n_steps=4), seed=3)
    assert path.terminal().shape == (10, 1)
    assert np.array_equal(path.terminal(), path.positions[-1])


def test_empirical_measure_wraps_huge_and_negative_coordinates():
    grid = SpectralGrid(dim=1, n=16, s=0.75)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emp = empirical_measure(np.array([[1e300]]), grid)  # an integer: node 0
    assert emp.values[0] == 16.0
    assert np.all(emp.values[1:] == 0.0)
    pts = np.array([[-0.25]])
    left = empirical_measure(pts, grid)
    assert np.array_equal(left.values, empirical_measure(np.array([[0.75]]), grid).values)
    assert pts[0, 0] == -0.25  # the caller's array is not wrapped in place


def test_empirical_spike_at_node():
    grid = SpectralGrid(dim=1, n=16, s=0.75)
    emp = empirical_measure(np.array([[5.0 / 16.0]]), grid)
    assert emp.values[5] == 16.0
    assert np.all(np.delete(emp.values, 5) == 0.0)
    assert emp.mass == 1.0


def test_empirical_mid_cell_half_mass():
    grid = SpectralGrid(dim=1, n=16, s=0.75)
    emp = empirical_measure(np.array([[5.5 / 16.0]]), grid)
    assert emp.values[5] == 8.0
    assert emp.values[6] == 8.0
    assert np.all(np.delete(emp.values, [5, 6]) == 0.0)


def test_empirical_uniform_concentration():
    grid = SpectralGrid(dim=1, n=64, s=0.75)
    pts = np.random.default_rng(12).random((10**6, 1))
    emp = empirical_measure(pts, grid)
    assert np.abs(emp.values - 1.0).max() <= 5.0 * math.sqrt(64 / 10**6)


def test_empirical_2d_mass_and_validation():
    grid = SpectralGrid(dim=2, n=16, s=0.75)
    pts = np.random.default_rng(4).random((5000, 2))
    emp = empirical_measure(pts, grid)
    assert abs(emp.mass - 1.0) < 1e-13
    assert np.all(emp.values >= 0.0)
    with pytest.raises(ValueError):
        empirical_measure(np.zeros((5, 3)), grid)
    with pytest.raises(ValueError):
        empirical_measure(np.zeros((0, 2)), grid)


def test_holder_pure_jump_exponent_near_half():
    # The vonmises profile relaxes at rate (2 pi)^(2s); a horizon of 0.2
    # spans the crossover where the measured gap scaling sits near the
    # square-root regime of the path estimate.
    grid, m0 = vonmises_setup()
    tg = TimeGrid(horizon=0.2, n_steps=16)
    path = simulate_sde(None, m0, 10**5, tg, seed=0)
    report = holder_wasserstein_check(path, b_sup=0.0)
    assert report.passed
    assert 0.4 <= report.exponent <= 0.6
    assert report.exponent_points == 16
    assert report.fitted_constant > 0.0


def test_holder_frozen_particles_trivially_pass():
    grid, m0 = vonmises_setup()
    tg = TimeGrid(horizon=1.0, n_steps=8)
    path = simulate_sde(None, m0, 5000, tg, seed=4, jumps=False)
    report = holder_wasserstein_check(path, b_sup=0.0)
    assert report.passed
    assert np.all(report.distances == 0.0)
    assert report.fitted_constant == 0.0
    assert math.isnan(report.exponent)
    assert report.exponent_points == 0


def test_holder_drift_dominated_gaps():
    grid, m0 = vonmises_setup()
    tg = TimeGrid(horizon=0.02, n_steps=8)
    b = np.full((9, 1, grid.n), 1.0)
    path = simulate_sde(b, m0, 10**5, tg, seed=3, jumps=False)
    report = holder_wasserstein_check(path, b_sup=1.0)
    assert report.passed
    assert np.all(report.distances <= report.drift_bound * report.gaps + report.noise_floor)
    # pure translation leaves nothing for the square-root term to absorb
    assert report.fitted_constant == 0.0


def test_holder_check_validation():
    grid, m0 = vonmises_setup(n=32)
    short = simulate_sde(None, m0, 100, TimeGrid(horizon=0.1, n_steps=4), seed=0)
    with pytest.raises(ValueError):
        holder_wasserstein_check(short, b_sup=0.0)
    path = simulate_sde(None, m0, 100, TimeGrid(horizon=0.1, n_steps=8), seed=0)
    with pytest.raises(ValueError):
        holder_wasserstein_check(path, b_sup=-1.0)
    warped = ParticlePath(times=path.times**2, positions=path.positions, grid=grid)
    with pytest.raises(ValueError):
        holder_wasserstein_check(warped, b_sup=0.0)


def test_equilibrium_drift_cross_check_reduced():
    # Reduced-size version of the particle/PDE consistency run: simulate
    # the converged optimal drift and compare terminal densities.
    grid, m0 = vonmises_setup()
    tg = TimeGrid(horizon=1.0, n_steps=100)
    model = QuadraticModel(coupling_beta=0.3)
    u_t = 0.15 * np.cos(2.0 * np.pi * grid.nodes()[0])
    sol = solve_equilibrium(model, m0, u_t, tg, theta_target=1.0)
    assert sol.converged
    path = simulate_sde(sol.u_sol.drift, m0, 2 * 10**4, tg, seed=77, store_stride=100)
    emp = empirical_measure(path.terminal(), grid)
    assert wasserstein_1d(emp, sol.m_sol.terminal()) <= 0.05
