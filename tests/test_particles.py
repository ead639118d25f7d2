"""Particle sampler, SDE stepper, deposition, and the path-regularity check."""

import errno
import gc
import itertools
import math
import os
from pathlib import Path
import signal
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
from mpmath import libmp
import numpy as np
import pytest
from scipy.stats import ks_2samp

from fmfgc import particles
from fmfgc.equilibrium import solve_equilibrium
from fmfgc.errors import FmfgcError, InvalidFieldError
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


def _no_jumps(rng, u, w, z, s, dt, work):
    """Stands in for particles._draw_increments: every increment is 0.0,
    so a march moves by its drift alone (x + 0.0 is x for every x the
    march then wraps into [0, 1))."""
    z[...] = 0.0


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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_increment_rejects_a_non_finite_step(bad, dim):
    # dt = inf would give jumps of +-inf
    with pytest.raises(ValueError, match="finite and positive"):
        sample_stable_increment(0.75, bad, dim, np.random.default_rng(0), size=4)


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
    30-digit mpmath, at the angle _cms_line takes, V = pi (u - 1/2 + 2^-54):
    dt^(1/alpha) sin(alpha V) cos(V)^(-1/alpha) (w / cos(beta V))^(beta/alpha),
    beta = alpha - 1, with the two powers as one exponential of their logs.

    Nearly all of the oracle's time is mpmath's per-operation overhead, so
    each jump runs on raw mpmath.libmp values, rounded to nearest at the
    working precision, with the constants made once."""
    with mpmath.workdps(30):
        prec, near = mpmath.mp.prec, libmp.round_nearest
        alpha = 2 * mpmath.mpf(s)
        beta = alpha - 1
        shift = (mpmath.mpf(0.5) - mpmath.mpf(2) ** -54)._mpf_
        scale = (mpmath.mpf(dt) ** (1 / alpha))._mpf_
        inv, ratio = (-1 / alpha)._mpf_, (beta / alpha)._mpf_
        alpha, beta, pi = alpha._mpf_, beta._mpf_, mpmath.pi._mpf_

        def mul(a, b):
            return libmp.mpf_mul(a, b, prec, near)

        jumps = []
        for ui, wi in zip(u.tolist(), w.tolist()):
            v = mul(pi, libmp.mpf_sub(libmp.from_float(ui), shift, prec, near))
            cos_beta = libmp.mpf_cos(mul(beta, v), prec, near)
            power = libmp.mpf_add(
                mul(inv, libmp.mpf_log(libmp.mpf_cos(v, prec, near), prec, near)),
                mul(ratio, libmp.mpf_log(
                    libmp.mpf_div(libmp.from_float(wi), cos_beta, prec, near), prec, near)),
                prec, near,
            )
            jump = mul(mul(scale, libmp.mpf_sin(mul(alpha, v), prec, near)),
                       libmp.mpf_exp(power, prec, near))
            jumps.append(libmp.to_float(jump, rnd=near))
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
    # order: 10^5 in all, as mpmath takes about 0.07 ms a jump.
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


def test_initial_sampling_matches_marginals_2d():
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


@pytest.mark.parametrize("dim", [1, 2])
def test_initial_draw_gives_each_cell_its_mass(dim):
    # Node i's cell, [x_i - dx/2, x_i + dx/2) along every axis, receives the
    # cell mass p_i = m_i dx^d: its count of N draws is binomial(N, p_i),
    # so it lies within 5 standard errors sqrt(N p_i (1 - p_i)) of N p_i.
    grid = SpectralGrid(dim=dim, n=16, s=0.75)
    m0 = initial_density(grid, "vonmises")
    count = 10**6
    pts = sample_positions(m0, count, np.random.default_rng(21 + dim))
    nodes = np.floor(pts / grid.dx + 0.5).astype(np.intp) % grid.n
    got = np.bincount(np.ravel_multi_index(tuple(nodes.T), grid.shape), minlength=grid.n**dim)
    p = (m0.values * grid.dx**dim).ravel()
    p = p / p.sum()
    assert np.all(np.abs(got - count * p) <= 5.0 * np.sqrt(count * p * (1.0 - p)))


def test_uniform_ensemble_stays_uniform():
    grid = SpectralGrid(dim=1, n=64, s=0.75)
    uniform = GridMeasure.uniform(grid)
    tg = TimeGrid(horizon=0.5, n_steps=50)
    path = simulate_sde(None, uniform, 10**4, tg, seed=9)
    w1 = wasserstein_1d(empirical_measure(path.terminal(), grid), uniform)
    assert w1 <= 2.0 / math.sqrt(10**4) + 2.0 * grid.dx


def test_constant_drift_translates_exactly(monkeypatch):
    monkeypatch.setattr(particles, "_draw_increments", _no_jumps)
    grid, m0 = vonmises_setup()
    tg = TimeGrid(horizon=0.5, n_steps=50)
    b = np.full((51, 1, grid.n), 0.3)
    path = simulate_sde(b, m0, 2000, tg, seed=1)
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


def test_zero_drift_path_matches_none(monkeypatch):
    # None skips the drift step; an explicit zero path adds +0.0, which
    # leaves every position in [0, 1) unchanged, so the bits agree, with
    # the jumps drawn and with them zeroed.
    grid, m0 = vonmises_setup(n=32)
    tg = TimeGrid(horizon=0.1, n_steps=10)
    zero = np.zeros((11, 1, grid.n))
    for jumps in (True, False):
        with monkeypatch.context() as draws:
            if not jumps:
                draws.setattr(particles, "_draw_increments", _no_jumps)
            want = simulate_sde(zero, m0, 1000, tg, seed=5).positions
            got = simulate_sde(None, m0, 1000, tg, seed=5).positions
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


def _counting_forks(monkeypatch) -> list:
    """Wrap os.fork so each call in this process appends the caller's pid."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(particles.os, "fork", counted)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "dim, jumps, store_stride", [(1, True, 1), (1, False, 2), (2, True, 2), (2, False, 1)]
)
def test_worker_count_does_not_change_bits(dim, jumps, store_stride, monkeypatch):
    # Ten blocks of 100 particles, marched by one, two or three processes:
    # the caller and one forked child per further share.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    forks = _counting_forks(monkeypatch)
    grid = SpectralGrid(dim=dim, n=16, s=0.7)
    m0 = initial_density(grid, "vonmises")
    tg = TimeGrid(horizon=0.2, n_steps=6)
    b = np.random.default_rng(3).normal(size=(7, dim) + grid.shape)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(particles, "_worker_count", lambda w=workers: w)
        forks.clear()
        with monkeypatch.context() as draws:
            if not jumps:
                draws.setattr(particles, "_draw_increments", _no_jumps)
            path = simulate_sde(b, m0, 1000, tg, seed=4, store_stride=store_stride)
        assert len(forks) == workers - 1 and path.workers == workers
        increments = [
            sample_stable_increment(0.7, 0.01, dim, np.random.default_rng(8), size=size)
            for size in (1, 1000)
        ]
        runs.append([path.positions] + increments)
    for other in runs[1:]:
        for want, got in zip(runs[0], other):
            assert np.array_equal(want.view(np.int64), got.view(np.int64))


@pytest.mark.parametrize("workers, blocks, sizes", [
    (2, 7, [3, 4]), (3, 7, [2, 2, 3]), (8, 3, [1, 1, 1]),
])
def test_shares_are_contiguous_and_every_child_is_reaped(workers, blocks, sizes, monkeypatch):
    # Block k goes to share j when j n / w <= k < (j + 1) n / w; the caller
    # marches the first share, and a worker count above the block count
    # is cut to one block per process.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    monkeypatch.setattr(particles, "_worker_count", lambda: workers)
    forks = _counting_forks(monkeypatch)
    marched = []
    real = particles._march_shares

    def spy(march, shares):
        marched.extend([lo for lo, _, _ in share] for share in shares)
        real(march, shares)

    monkeypatch.setattr(particles, "_march_shares", spy)
    grid, m0 = vonmises_setup(n=16)
    path = simulate_sde(None, m0, 100 * blocks - 50, TimeGrid(horizon=0.1, n_steps=4), seed=3)
    assert [len(share) for share in marched] == sizes
    assert sum(marched, []) == list(range(0, 100 * blocks, 100))
    assert path.workers == len(sizes) and len(forks) == len(sizes) - 1
    assert set(forks) == {os.getpid()}
    _assert_no_child_left()


@pytest.mark.parametrize("failure", ["raise", "kill"])
@pytest.mark.parametrize("workers", [2, 3])
def test_a_failed_child_raises_and_is_reaped(workers, failure, monkeypatch, capfd):
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    monkeypatch.setattr(particles, "_worker_count", lambda: workers)
    caller, draw = os.getpid(), particles._draw_increments

    def failing(*args):
        if os.getpid() != caller:
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("kernel failed in a child")
        draw(*args)

    monkeypatch.setattr(particles, "_draw_increments", failing)
    grid, m0 = vonmises_setup(n=16)
    with pytest.raises(FmfgcError) as caught:
        simulate_sde(None, m0, 600, TimeGrid(horizon=0.1, n_steps=4), seed=3)
    _assert_no_child_left()
    # shares are numbered from 0, the caller's, which did not fail
    message = str(caught.value)
    assert "share 0 of" not in message
    outcome = f"killed by signal {int(signal.SIGKILL)}" if failure == "kill" else "exited 1"
    for k in range(1, workers):
        assert f"share {k} of {workers} (particles {k * 600 // workers // 100 * 100}-" in message
    assert message.count(outcome) == workers - 1
    if failure == "raise":
        err = capfd.readouterr().err
        assert err.count("RuntimeError: kernel failed in a child") == workers - 1


def test_a_failed_caller_share_raises_and_reaps_every_child(monkeypatch):
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    monkeypatch.setattr(particles, "_worker_count", lambda: 3)
    caller, draw = os.getpid(), particles._draw_increments

    def failing(*args):
        if os.getpid() == caller:
            raise RuntimeError("kernel failed in the caller")
        draw(*args)

    monkeypatch.setattr(particles, "_draw_increments", failing)
    grid, m0 = vonmises_setup(n=16)
    with pytest.raises(FmfgcError, match=r"share 0 of 3 \(particles 0-200\) raised") as caught:
        simulate_sde(None, m0, 600, TimeGrid(horizon=0.1, n_steps=4), seed=3)
    _assert_no_child_left()
    assert "share 1" not in str(caught.value) and "share 2" not in str(caught.value)
    assert isinstance(caught.value.__cause__, RuntimeError)


def test_an_interrupt_in_the_caller_share_is_not_a_failed_share(monkeypatch):
    # Ctrl-C during the caller's share reaches the caller as itself, not as
    # a march failure, once the child has been joined.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    monkeypatch.setattr(particles, "_worker_count", lambda: 2)
    caller, draw = os.getpid(), particles._draw_increments

    def interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        draw(*args)

    monkeypatch.setattr(particles, "_draw_increments", interrupted)
    grid, m0 = vonmises_setup(n=16)
    with pytest.raises(KeyboardInterrupt):
        simulate_sde(None, m0, 600, TimeGrid(horizon=0.1, n_steps=4), seed=3)
    _assert_no_child_left()


def test_a_child_reaped_elsewhere_is_a_failure(monkeypatch):
    # With SIGCHLD ignored the kernel reaps the children itself, so the
    # march cannot know that their shares were stored.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    monkeypatch.setattr(particles, "_worker_count", lambda: 2)
    grid, m0 = vonmises_setup(n=16)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with pytest.raises(FmfgcError, match=r"share 1 of 2 \(particles 300-600\) left no exit"):
            simulate_sde(None, m0, 600, TimeGrid(horizon=0.1, n_steps=4), seed=3)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    _assert_no_child_left()


def test_a_fork_that_raises_joins_the_child_already_started(monkeypatch):
    # The second of two forks fails, as when the process table is full: the
    # error reaches the caller, and the first child is joined before it does.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    monkeypatch.setattr(particles, "_worker_count", lambda: 3)
    calls, fork = [], os.fork

    def flaky():
        calls.append(os.getpid())
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(particles.os, "fork", flaky)
    grid, m0 = vonmises_setup(n=16)
    with pytest.raises(BlockingIOError, match="fork refused"):
        simulate_sde(None, m0, 600, TimeGrid(horizon=0.1, n_steps=4), seed=3)
    _assert_no_child_left()


def test_text_the_caller_buffered_is_written_once(tmp_path):
    # stdout on a pipe is block-buffered (PYTHONUNBUFFERED unset), so
    # "marker" is still in the caller's buffer when it forks; a child that
    # inherited the buffer unflushed would write it again as it exits.
    script = (
        "from fmfgc import particles\n"
        "from fmfgc.fokker_planck import initial_density\n"
        "from fmfgc.spectral import SpectralGrid, TimeGrid\n"
        "particles.MIN_BLOCK = 100\n"
        "particles._worker_count = lambda: 2\n"
        "m0 = initial_density(SpectralGrid(dim=1, n=16, s=0.75), 'vonmises')\n"
        "print('marker', end='')\n"
        "path = particles.simulate_sde(None, m0, 600, TimeGrid(horizon=0.1, n_steps=4))\n"
        "assert path.workers == 2\n"
    )
    src = str(Path(particles.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "marker"


def test_one_worker_marches_in_the_caller(monkeypatch):
    # No fork at one worker, nor where os.fork is missing.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    forks = _counting_forks(monkeypatch)
    grid, m0 = vonmises_setup(n=16)
    tg = TimeGrid(horizon=0.1, n_steps=4)
    monkeypatch.setattr(particles, "_worker_count", lambda: 1)
    want = simulate_sde(None, m0, 600, tg, seed=3)
    monkeypatch.setattr(particles, "_worker_count", lambda: 2)
    monkeypatch.delattr(particles.os, "fork")
    got = simulate_sde(None, m0, 600, tg, seed=3)
    assert forks == [] and want.workers == got.workers == 1
    assert np.array_equal(want.positions.view(np.int64), got.positions.view(np.int64))


def test_one_worker_failure_names_share_0_of_1(monkeypatch):
    # One worker marches through the same share runner: a failure is the
    # FmfgcError that names the caller's share, chained to its cause.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    monkeypatch.setattr(particles, "_worker_count", lambda: 1)
    forks = _counting_forks(monkeypatch)

    def failing(*args):
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(particles, "_draw_increments", failing)
    grid, m0 = vonmises_setup(n=16)
    with pytest.raises(FmfgcError, match=r"share 0 of 1 \(particles 0-250\) raised") as caught:
        simulate_sde(None, m0, 250, TimeGrid(horizon=0.1, n_steps=4), seed=3)
    assert forks == []
    assert isinstance(caught.value.__cause__, RuntimeError)


@pytest.mark.parametrize("count", [0, -3])
def test_simulate_rejects_a_count_below_one(count):
    grid, m0 = vonmises_setup(n=16)
    with pytest.raises(ValueError, match=f"n_particles must be at least 1, got {count}"):
        simulate_sde(None, m0, count, TimeGrid(horizon=0.1, n_steps=4))


def _reference_simulation(b, m0, count, tg, seed, store_stride, block):
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
    # 1050 particles in blocks of 100: ten full blocks and one of 50.  With
    # the jumps zeroed, the march and the reference both draw zeros.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    if not jumps:
        monkeypatch.setattr(particles, "_draw_increments", _no_jumps)
    monkeypatch.setattr(particles, "_worker_count", lambda: 2)
    grid = SpectralGrid(dim=dim, n=16, s=0.7)
    m0 = initial_density(grid, "vonmises")
    tg = TimeGrid(horizon=0.2, n_steps=6)
    b = np.random.default_rng(3).normal(size=(7, dim) + grid.shape)
    path = simulate_sde(b, m0, 1050, tg, seed=4, store_stride=store_stride)
    want = _reference_simulation(b, m0, 1050, tg, 4, store_stride, 100)
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


def _whole_array_deposit(pts, grid):
    """The deposit in one pass: each coordinate wrapped by remainder, the
    hat weights of every cell corner, and one bincount over all corners,
    corner after corner, then the normalisation."""
    x = np.remainder(pts, 1.0)
    x[x >= 1.0] -= 1.0
    lo = np.floor(x * grid.n).astype(np.intp)
    frac = x * grid.n - lo
    index, weight = [], []
    for corner in itertools.product((0, 1), repeat=grid.dim):
        idx, w = np.zeros(len(x), dtype=np.intp), np.ones(len(x))
        for ax, c in enumerate(corner):
            idx = idx * grid.n + (lo[:, ax] + c) % grid.n
            w = w * (frac[:, ax] if c else 1.0 - frac[:, ax])
        index.append(idx)
        weight.append(w)
    sums = np.bincount(np.concatenate(index), np.concatenate(weight), minlength=grid.n**grid.dim)
    return GridMeasure.normalized(grid, sums.reshape(grid.shape) / (len(x) * grid.dx**grid.dim))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("count", [1, 99, 100, 301])
@pytest.mark.parametrize("kind", ["unit", "wild"])
def test_deposit_across_block_edges_matches_whole_array_bincount(dim, count, kind, monkeypatch):
    # Blocks of 100: one short block, one just short of full, one full, and
    # three full blocks and one of a single particle.  A node's raw value is
    # a sum of at most M = 2^d N nonnegative terms; in any order it is
    # within gamma_M = M u / (1 - M u) of the exact sum, relatively, so the
    # blocked and the whole-array sums differ by at most 2 gamma_M.  Each
    # side then divides by N dx^d (u), sums its K = n^d values for the mass
    # in the same order (the masses differ by 2 gamma_M + 2 u + 2 gamma_K)
    # and divides by it (u): in all under (4 M + 2 K + 8) u, relatively.
    # A node no position reaches is 0 on both sides.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    grid = SpectralGrid(dim=dim, n=16, s=0.75)
    rng = np.random.default_rng(count + 10 * dim)
    if kind == "unit":
        pts = rng.random((count, dim))
    else:
        pts = rng.uniform(-1e6, 1e6, (count, dim))
        pts.flat[::7] = rng.choice([1e300, -1e300, -0.25, 2.0**60 + 0.5], size=pts.flat[::7].size)
    before = pts.copy()
    got = empirical_measure(pts, grid).values
    want = _whole_array_deposit(pts, grid).values
    u = 2.0**-53
    terms, nodes = 2**dim * count, grid.n**dim
    assert np.all(np.abs(got - want) <= (4 * terms + 2 * nodes + 8) * u * want)
    assert np.array_equal(pts, before)  # wrapped in a copy, never in place


def _traced_peak(call) -> int:
    """Bytes traced at the peak of call() above those held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim", [1, 2])
def test_deposit_peak_holds_block_arrays_only(dim, monkeypatch):
    # In arrays of one MIN_BLOCK of floats or indices (8 bytes each), a
    # deposit holds its stencil (2d per-axis nodes, 2d per-axis weights,
    # 2^d corner indices and 2^d corner weights, no corner arrays in d = 1,
    # where the corners are the per-axis buffers, and one sample), d for
    # the wrapped copy of a block, and at most 1 1/8 d more at once: floor(x)
    # while a block wraps, then its mask (d/8) and the entries it picks, or
    # numpy's buffer as it casts floor(x n) to indices.  Of n^d floats it
    # holds the sums, a block's bincount and the three the normalisation
    # makes.  One block more covers the interpreter's own objects.  None of
    # this grows with N.
    block = 4096
    monkeypatch.setattr(particles, "MIN_BLOCK", block)
    grid = SpectralGrid(dim=dim, n=16, s=0.75)
    corners = 2**dim if dim > 1 else 0
    blocks = 4 * dim + 2 * corners + 1 + dim + 1.125 * dim + 1
    bound = 8 * (blocks * block + 5 * grid.n**dim)
    empirical_measure(np.full((1, dim), 0.5), grid)  # numpy's first-call caches
    rng = np.random.default_rng(7)
    peaks = {}
    for count in (3 * block + 1, 30 * block + 7):
        for low, high in ((0.0, 1.0), (-2.0, 3.0)):
            pts = rng.uniform(low, high, (count, dim))
            peaks[count, low] = _traced_peak(lambda: empirical_measure(pts, grid))
    assert max(peaks.values()) <= bound, (peaks, bound)
    for low in (0.0, -2.0):
        assert peaks[30 * block + 7, low] <= 1.01 * peaks[3 * block + 1, low]


def test_initial_draw_peak_holds_the_result_and_block_arrays_only(monkeypatch):
    # Beyond its (N, d) result and four arrays of n^d floats (the cell
    # masses, raw and normalised, their sums and the CDF, one float more),
    # the sampler holds at most, in arrays of one MIN_BLOCK of floats or
    # indices: a block's cell indices, in d = 2 split into their first-
    # and last-axis parts (2 d - 1), and as the block wraps, floor(x) (d)
    # and the mask x >= 1 (d/8); 2 d - 1 + 1 1/8 d at the widest.  One
    # block more covers numpy's cast buffer as it adds the indices in, and
    # one the interpreter's own objects.
    block = 4096
    monkeypatch.setattr(particles, "MIN_BLOCK", block)
    for dim in (1, 2):
        grid = SpectralGrid(dim=dim, n=16, s=0.75)
        m0 = initial_density(grid, "vonmises")
        sample_positions(m0, 1, np.random.default_rng(0))  # numpy's first-call caches
        peaks = {}
        for count in (3 * block + 1, 30 * block + 7):
            rng = np.random.default_rng(count)
            peaks[count] = _traced_peak(lambda: sample_positions(m0, count, rng)) - 8 * dim * count
        blocks = 2 * dim - 1 + 1.125 * dim + 2
        assert max(peaks.values()) <= 8 * (blocks * block + 4 * grid.n**dim + 1), (dim, peaks)
        assert peaks[30 * block + 7] <= 1.01 * peaks[3 * block + 1], (dim, peaks)


def _one_shot_draw(m0, count, rng):
    """The initial draw in one pass: all count x d uniforms at once.  The
    last uniform of each position picks a cell of the flattened grid by
    the CDF of the cell masses, and its place within that cell's mass sets
    the offset along the last axis; in d = 2 the first sets the offset
    along the first axis."""
    grid = m0.grid
    cell_mass = m0.values.ravel() * grid.dx**grid.dim
    cum = np.cumsum(cell_mass)
    cell_mass = cell_mass / cum[-1]
    cum = cum / cum[-1]
    draws = rng.random((count, grid.dim))
    idx = np.searchsorted(cum, draws[:, -1], side="right")
    idx = np.minimum(idx, cum.size - 1)
    prev = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    width = cell_mass[idx]
    frac = np.where(width > 0.0, (draws[:, -1] - prev) / np.where(width > 0, width, 1.0), 0.5)
    offsets = [draws[:, 0], frac][-grid.dim :]
    nodes = np.unravel_index(idx, grid.shape)
    want = np.stack([(i + f - 0.5) * grid.dx for i, f in zip(nodes, offsets)], axis=1)
    want %= 1.0
    want[want >= 1.0] -= 1.0
    return want


@pytest.mark.parametrize("count", [1, 99, 100, 301])
def test_initial_draw_in_blocks_matches_one_shot_formula(count, monkeypatch):
    # Blocks of 100; the reference draws all count x d uniforms at once.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    for dim, n in ((1, 32), (2, 16)):
        grid = SpectralGrid(dim=dim, n=n, s=0.75)
        m0 = initial_density(grid, "vonmises")
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = sample_positions(m0, count, got_rng)
        want = _one_shot_draw(m0, count, want_rng)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), dim
        assert got_rng.random() == want_rng.random()  # the same draws were taken


def test_forked_positions_outlive_the_march(monkeypatch):
    # A forked run's positions view the shared mapping its shares stored
    # into: they must stay whole once the call returns and the collector
    # runs, and a later forked run must not write into them.
    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    grid, m0 = vonmises_setup(n=16)
    tg = TimeGrid(horizon=0.1, n_steps=4)
    monkeypatch.setattr(particles, "_worker_count", lambda: 1)
    want = simulate_sde(None, m0, 1000, tg, seed=3).positions
    monkeypatch.setattr(particles, "_worker_count", lambda: 3)
    positions = simulate_sde(None, m0, 1000, tg, seed=3).positions
    gc.collect()
    assert np.array_equal(positions.view(np.int64), want.view(np.int64))
    other = simulate_sde(None, m0, 1000, tg, seed=4)
    assert other.workers == 3
    del other
    gc.collect()
    assert np.array_equal(positions.view(np.int64), want.view(np.int64))


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


def test_holder_frozen_particles_trivially_pass(monkeypatch):
    monkeypatch.setattr(particles, "_draw_increments", _no_jumps)
    grid, m0 = vonmises_setup()
    tg = TimeGrid(horizon=1.0, n_steps=8)
    path = simulate_sde(None, m0, 5000, tg, seed=4)
    report = holder_wasserstein_check(path, b_sup=0.0)
    assert report.passed
    assert np.all(report.distances == 0.0)
    assert report.fitted_constant == 0.0
    assert math.isnan(report.exponent)
    assert report.exponent_points == 0


def test_holder_drift_dominated_gaps(monkeypatch):
    monkeypatch.setattr(particles, "_draw_increments", _no_jumps)
    grid, m0 = vonmises_setup()
    tg = TimeGrid(horizon=0.02, n_steps=8)
    b = np.full((9, 1, grid.n), 1.0)
    path = simulate_sde(b, m0, 10**5, tg, seed=3)
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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_holder_check_rejects_a_non_finite_drift_bound(bad):
    # b_sup = inf would make the bound infinite, so the check would pass;
    # nan would fail it with a nan fitted constant
    _, m0 = vonmises_setup(n=32)
    path = simulate_sde(None, m0, 100, TimeGrid(horizon=0.1, n_steps=8), seed=0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        holder_wasserstein_check(path, b_sup=bad)


def test_equilibrium_drift_cross_check_reduced():
    # Reduced-size version of the particle/PDE consistency run: simulate
    # the converged optimal drift and compare terminal densities.
    grid, m0 = vonmises_setup()
    tg = TimeGrid(horizon=1.0, n_steps=100)
    model = QuadraticModel(coupling_beta=0.3)
    u_t = 0.15 * np.cos(2.0 * np.pi * grid.nodes()[0])
    sol = solve_equilibrium(model, m0, u_t, tg, theta_target=1.0)
    assert sol.converged
    # the solution's drift is a view: the particle march takes the whole path
    path = simulate_sde(sol.u_sol.drift[:], m0, 2 * 10**4, tg, seed=77, store_stride=100)
    emp = empirical_measure(path.terminal(), grid)
    assert wasserstein_1d(emp, sol.m_sol.terminal()) <= 0.05
