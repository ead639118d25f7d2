"""Measure containers, moments, and transport distances.

The 1-D Wasserstein oracle is an explicit linear program over couplings
solved with scipy's HiGHS backend, independent of the cumulative-offset
formula under test.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from fmfgc.errors import (
    DegenerateMeasureError,
    GridMismatchError,
    InvalidMeasureError,
    MassMismatchError,
)
from fmfgc.measures import (
    GridMeasure,
    JointControlMeasure,
    MeasurePath,
    coordinate_marginals,
    lambda_inf,
    lambda_q,
    monotonicity_pairing,
    wasserstein_1d,
)
from fmfgc.models import QuadraticModel, ThetaScaledModel
from fmfgc.spectral import SpectralGrid, TimeGrid

from helpers import periodic_delta, smooth_density


def ot_linprog(w1, w2, cost):
    """Exact discrete OT cost by linear programming (oracle)."""
    n1, n2 = len(w1), len(w2)
    a_eq = []
    for i in range(n1):
        row = np.zeros((n1, n2))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(n2):
        row = np.zeros((n1, n2))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
    res = linprog(
        cost.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.concatenate([w1, w2]),
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return res.fun


def torus_cost(n, r):
    x = np.arange(n) / n
    d = np.abs(x[:, None] - x[None, :])
    d = np.minimum(d, 1.0 - d)
    return d**r


def test_grid_measure_validation():
    g = SpectralGrid(1, 32, 0.75)
    with pytest.raises(InvalidMeasureError):
        GridMeasure(g, -np.ones(32))
    with pytest.raises(InvalidMeasureError):
        GridMeasure(g, 2.0 * np.ones(32))  # mass 2
    with pytest.raises(GridMismatchError):
        GridMeasure(g, np.ones(16))
    m = GridMeasure.uniform(g)
    assert m.mass == pytest.approx(1.0, abs=1e-14)
    raw = np.ones(32)
    raw[3] = -1e-14  # tiny negative noise is clipped by the normalizing constructor
    m2 = GridMeasure.normalized(g, raw)
    assert m2.values[3] == 0.0
    assert m2.mass == pytest.approx(1.0, abs=1e-14)


def test_joint_measure_validation():
    g = SpectralGrid(1, 32, 0.75)
    m = GridMeasure.uniform(g)
    with pytest.raises(GridMismatchError):
        JointControlMeasure(m, np.zeros((2, 32)))
    bad = np.full((1, 32), np.nan)
    with pytest.raises(InvalidMeasureError):
        JointControlMeasure(m, bad)
    # non-finite control off the support is tolerated
    w = np.zeros(32)
    w[:16] = 2.0
    m_half = GridMeasure(g, w)
    alpha = np.zeros((1, 32))
    alpha[0, 20] = np.inf
    JointControlMeasure(m_half, alpha)


def test_measure_path_shape_checks():
    g = SpectralGrid(1, 16, 0.75)
    tg = TimeGrid(1.0, 3)
    with pytest.raises(GridMismatchError):
        MeasurePath(tg, g, np.ones((2, 16)), np.zeros((2, 1, 16)))
    with pytest.raises(GridMismatchError):
        MeasurePath(tg, g, np.ones((4, 16)), np.zeros((4, 16)))
    path = MeasurePath(tg, g, np.ones((4, 16)), np.zeros((4, 1, 16)))
    assert len(path) == 4
    sl = path[2]
    assert isinstance(sl, JointControlMeasure)
    assert sl.grid is g and sl.m.mass == pytest.approx(1.0)
    assert not sl.alpha.flags.writeable and not sl.density.flags.writeable
    assert path.mean_control().shape == (4, 1)
    # solver-built stacks: shared, read-only, not checked
    density, alpha = np.ones((4, 16)), np.zeros((4, 1, 16))
    view = MeasurePath.view(tg, g, density, alpha)
    assert np.shares_memory(view.density, density) and np.shares_memory(view.alpha, alpha)
    assert not view.density.flags.writeable and not view.alpha.flags.writeable
    assert view.time_grid is tg and np.array_equal(view.mean_control(), path.mean_control())
    nan = view.with_alpha_view(np.full_like(alpha, np.nan))
    assert np.isnan(nan.alpha).all() and nan.density is view.density


@pytest.mark.parametrize("dim", [1, 2])
def test_mean_control_is_the_control_integral(dim):
    # The batched contraction against int alpha_c dm, slice by slice, for
    # one slice and for every slice of a path.
    rng = np.random.default_rng(61 + dim)
    g = SpectralGrid(dim, 32 if dim == 1 else 16, 0.75)
    tg = TimeGrid(1.0, 6)
    raw = rng.uniform(0.1, 2.0, (7,) + g.shape)
    density = raw / g.integrate(raw).reshape((7,) + (1,) * dim)
    alpha = rng.uniform(-1.5, 1.5, (7, dim) + g.shape)
    path = MeasurePath(tg, g, density, alpha)
    explicit = np.array(
        [[g.integrate(alpha[j, c] * density[j]) for c in range(dim)] for j in range(7)]
    )
    assert path.mean_control().shape == (7, dim)
    assert np.max(np.abs(path.mean_control() - explicit)) <= 1e-15
    one = JointControlMeasure(GridMeasure(g, density[3]), alpha[3])
    assert one.mean_control().shape == (dim,)
    assert np.max(np.abs(one.mean_control() - explicit[3])) <= 1e-15


def _one_bad_slice(g, n_slices, j, edit):
    rng = np.random.default_rng(41)
    density = np.stack([smooth_density(g, rng) for _ in range(n_slices)])
    alpha = rng.uniform(-1.0, 1.0, (n_slices, g.dim) + g.shape)
    edit(density[j], alpha[j])
    return density, alpha


@pytest.mark.parametrize("dim", [1, 2])
def test_measure_path_rejects_one_bad_slice(dim):
    # The stack check applies the per-slice rules of GridMeasure and
    # JointControlMeasure to every slice, so one bad slice is enough.
    g = SpectralGrid(dim, 16, 0.75)
    tg = TimeGrid(1.0, 4)

    def negative(m, a):
        m.flat[3] = -1e-3

    def mass_off(m, a):
        m *= 1.0 + 1e-6

    def control_nan_on_support(m, a):
        a.flat[5] = np.nan

    for edit, message in (
        (negative, "negative"),
        (mass_off, "mass .*slice 3"),
        (control_nan_on_support, "non-finite on the support"),
    ):
        density, alpha = _one_bad_slice(g, 5, 3, edit)
        with pytest.raises(InvalidMeasureError, match=message):
            MeasurePath(tg, g, density, alpha)

    def control_inf_off_support(m, a):
        m.flat[7] = 0.0
        m /= np.sum(m) * g.dx**dim
        a[(0,) + np.unravel_index(7, g.shape)] = np.inf

    density, alpha = _one_bad_slice(g, 5, 3, control_inf_off_support)
    path = MeasurePath(tg, g, density, alpha)
    # the same rules as one slice at a time
    for j in range(5):
        JointControlMeasure(GridMeasure(g, density[j]), alpha[j])
    assert np.isinf(path.alpha).sum() == 1
    with pytest.raises(InvalidMeasureError):
        MeasurePath(tg, g, density, np.full_like(alpha, np.nan))


def test_lambda_moments():
    g = SpectralGrid(1, 64, 0.75)
    x = g.nodes()[0]
    m = GridMeasure.uniform(g)
    # |alpha| = |sin(2 pi x)|: Lambda_2 = sqrt(1/2) exactly on the grid.
    mu = JointControlMeasure(m, np.sin(2 * np.pi * x)[None, :])
    assert lambda_q(mu, 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert lambda_inf(mu) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        lambda_q(mu, 0.5)
    # constant control: every moment equals its magnitude
    mu_c = JointControlMeasure(m, np.full((1, 64), -3.0))
    assert lambda_q(mu_c, 2.0) == pytest.approx(3.0, abs=1e-12)
    assert lambda_q(mu_c, 5.0) == pytest.approx(3.0, abs=1e-12)
    # a path gives one value per slice, bit for bit the slice values
    rng = np.random.default_rng(8)
    density = np.stack([smooth_density(g, rng) for _ in range(4)] + [np.ones(64)])
    path = MeasurePath(TimeGrid(1.0, 4), g, density, rng.standard_normal((5, 1, 64)))
    for moment, args in ((lambda_q, (2.0,)), (lambda_q, (3.0,)), (lambda_inf, ())):
        values = moment(path, *args)
        assert values.shape == (5,)
        assert np.array_equal(values, [moment(path[j], *args) for j in range(5)])
    # an unchecked view may hold an all-zero slice, which has no support
    density[4] = 0.0
    empty = MeasurePath.view(path.time_grid, g, density, path.alpha)
    assert all(lambda_inf(empty[j]) > 0.0 for j in range(4))
    with pytest.raises(DegenerateMeasureError):
        lambda_inf(empty[4])
    with pytest.raises(DegenerateMeasureError):
        lambda_inf(empty)


def test_wasserstein_1d_point_masses():
    # Two spikes at distance 1/4: W_1 = 1/4 (mass 1 moved a quarter turn).
    g = SpectralGrid(1, 64, 0.75)
    w1 = np.zeros(64)
    w2 = np.zeros(64)
    w1[8] = 64.0
    w2[24] = 64.0
    m1, m2 = GridMeasure(g, w1), GridMeasure(g, w2)
    assert wasserstein_1d(m1, m2) == pytest.approx(0.25, abs=1e-9)
    # wrap-around: spikes at nodes 3/64 and 60/64 are 7/64 apart going
    # through zero, against 57/64 the long way.
    w3 = np.zeros(64)
    w4 = np.zeros(64)
    w3[3] = 64.0
    w4[60] = 64.0
    d = periodic_delta(np.array(3 / 64), np.array(60 / 64))
    assert float(d) == pytest.approx(7 / 64)
    assert wasserstein_1d(GridMeasure(g, w3), GridMeasure(g, w4)) == pytest.approx(
        float(d), abs=1e-9
    )


def test_wasserstein_1d_shifted_uniform_blocks():
    g = SpectralGrid(1, 64, 0.75)
    # Quarter-width block shifted by its own width: no overlap, every
    # particle moves exactly 1/4.
    v1 = np.zeros(64)
    v2 = np.zeros(64)
    v1[:16] = 4.0
    v2[16:32] = 4.0
    m1, m2 = GridMeasure(g, v1), GridMeasure(g, v2)
    got = wasserstein_1d(m1, m2)
    assert got == pytest.approx(0.25, abs=1e-9)
    lp = ot_linprog(m1.node_weights(), m2.node_weights(), torus_cost(64, 1.0))
    assert got == pytest.approx(lp, abs=1e-7)
    # Half-width block shifted by 1/4: the overlap stays put and the rest
    # splits between the two ends of the target, some of it through zero.
    # The optimal cost is 3/16, strictly below the naive 1/4 shift.
    w1 = np.zeros(64)
    w2 = np.zeros(64)
    w1[:32] = 2.0
    w2[16:48] = 2.0
    n1, n2 = GridMeasure(g, w1), GridMeasure(g, w2)
    got = wasserstein_1d(n1, n2)
    assert got == pytest.approx(0.1875, abs=1e-9)
    lp = ot_linprog(n1.node_weights(), n2.node_weights(), torus_cost(64, 1.0))
    assert got == pytest.approx(lp, abs=1e-7)


def test_wasserstein_1d_against_linprog():
    rng = np.random.default_rng(5)
    g = SpectralGrid(1, 32, 0.75)
    pairs = []
    for _ in range(4):
        m1 = GridMeasure(g, smooth_density(g, rng))
        m2 = GridMeasure(g, smooth_density(g, rng))
        exact = wasserstein_1d(m1, m2)
        lp = ot_linprog(m1.node_weights(), m2.node_weights(), torus_cost(32, 1.0))
        assert exact == pytest.approx(lp, abs=1e-7)
        pairs.append((m1.values, m2.values, exact))
    # stacks give one value per slice, bit for bit the slice values
    s1, s2, per_slice = (np.stack(part) for part in zip(*pairs))
    stacked = wasserstein_1d(GridMeasure.view(g, s1), GridMeasure.view(g, s2))
    assert stacked.shape == (4,) and np.array_equal(stacked, per_slice)


def test_wasserstein_1d_triangle_and_duality():
    rng = np.random.default_rng(9)
    g = SpectralGrid(1, 64, 0.75)
    ms = [GridMeasure(g, smooth_density(g, rng)) for _ in range(3)]
    d01 = wasserstein_1d(ms[0], ms[1])
    d12 = wasserstein_1d(ms[1], ms[2])
    d02 = wasserstein_1d(ms[0], ms[2])
    assert d02 <= d01 + d12 + 1e-8
    # Kantorovich duality spot check with a 1-Lipschitz test function.
    x = g.nodes()[0]
    phi = np.sin(2 * np.pi * x) / (2 * np.pi)
    gap = ms[0].expectation(phi) - ms[1].expectation(phi)
    assert gap <= d01 + 1e-8


def test_wasserstein_1d_errors():
    g = SpectralGrid(1, 32, 0.75)
    g2 = SpectralGrid(1, 64, 0.75)
    m = GridMeasure.uniform(g)
    with pytest.raises(GridMismatchError):
        wasserstein_1d(m, GridMeasure.uniform(g2))


def test_coordinate_marginals():
    rng = np.random.default_rng(4)
    line = SpectralGrid(1, 32, 0.75)
    m = GridMeasure(line, smooth_density(line, rng))
    assert coordinate_marginals(m) is m
    # A product density has its normalized factors as marginals, stacked
    # on a new leading axis on the line grid.
    f, g = smooth_density(line, rng), smooth_density(line, rng)
    plane = SpectralGrid(2, 32, 0.75)
    margs = coordinate_marginals(GridMeasure(plane, np.outer(f, g)))
    assert margs.grid is plane.line and margs.values.shape == (2, 32)
    assert not margs.values.flags.writeable
    np.testing.assert_allclose(margs.mass, 1.0, atol=1e-12)
    np.testing.assert_allclose(margs.values, np.stack([f, g]), rtol=1e-12)
    # A stack of densities keeps its stack axis after the marginal axis.
    stack = np.stack([np.outer(f, g), np.outer(g, f), np.outer(f, f)])
    stacked = coordinate_marginals(GridMeasure.view(plane, stack))
    assert stacked.values.shape == (2, 3, 32)
    np.testing.assert_allclose(stacked.values[:, 1], np.stack([g, f]), rtol=1e-12)
    # The W1 figure in d = 2 is one wasserstein_1d call on the stacked
    # marginals: each of its rows is the call on that marginal alone, and
    # its max is the max of the per-marginal calls, to the bit.
    other = GridMeasure.view(plane, np.stack([np.outer(g, g), np.outer(f, g), np.outer(g, f)]))
    w1 = wasserstein_1d(stacked, coordinate_marginals(other))
    assert w1.shape == (2, 3)
    per_marginal = []
    for axis in range(2):
        alone = wasserstein_1d(*(
            GridMeasure.view(line, np.sum(d.values, axis=-1 - axis) * plane.dx)
            for d in (GridMeasure.view(plane, stack), other)
        ))
        assert alone.tobytes() == w1[axis].tobytes()
        per_marginal.append(float(np.max(alone)))
    assert float(np.max(w1)) == max(per_marginal)


def test_monotonicity_pairing_nonnegative_and_spectral_identity():
    rng = np.random.default_rng(41)
    g = SpectralGrid(1, 64, 0.75)
    model = QuadraticModel(0.5, kernel_decay=1.0, dim=1)
    for _ in range(20):
        m1 = GridMeasure(g, smooth_density(g, rng))
        m2 = GridMeasure(g, smooth_density(g, rng))
        a1 = rng.uniform(-2, 2) * np.sin(2 * np.pi * (g.nodes() + rng.random()))
        a2 = rng.uniform(-2, 2) * np.cos(2 * np.pi * (g.nodes() + rng.random()))
        mu1 = JointControlMeasure(m1, a1)
        mu2 = JointControlMeasure(m2, a2)
        pairing = monotonicity_pairing(model, mu1, mu2)
        assert pairing >= -1e-12
        # independent spectral evaluation of the same pairing
        beta = model.coupling_beta
        abar_gap = mu1.mean_control() - mu2.mean_control()
        khat = np.exp(-model.kernel_decay * np.abs(np.fft.fftfreq(g.n, d=1.0 / g.n)))
        dm_hat = np.fft.fftn(m1.values - m2.values) / g.n
        expected = beta * np.sum(abar_gap**2) + float(
            np.sum(khat * np.abs(dm_hat) ** 2)
        )
        assert pairing == pytest.approx(expected, abs=1e-10)
    # symmetric arguments pair to zero
    m = GridMeasure(g, smooth_density(g, rng))
    mu = JointControlMeasure(m, np.zeros((1, 64)))
    assert abs(monotonicity_pairing(model, mu, mu)) <= 1e-14
    # two paths pair slice by slice
    tg = TimeGrid(horizon=1.0, n_steps=3)
    paths = [
        MeasurePath(
            tg, g, np.stack([smooth_density(g, rng) for _ in range(4)]),
            rng.uniform(-2, 2, (4, 1, 64)),
        )
        for _ in range(2)
    ]
    per_slice = [monotonicity_pairing(model, paths[0][j], paths[1][j]) for j in range(4)]
    assert np.array_equal(monotonicity_pairing(model, *paths), per_slice)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_monotonicity_pairing_is_the_four_call_form_bitwise(theta, dim):
    # Stacking the two controls reads each measure once; the pairing is
    # what four separate Lagrangian evaluations give, to the bit.
    rng = np.random.default_rng(43)
    g = SpectralGrid(dim, 32 if dim == 1 else 16, 0.75)
    model = ThetaScaledModel(QuadraticModel(0.3, dim=dim), theta)

    def four_calls(mu1, mu2):
        gap1 = model.lagrangian_field(mu1.alpha, mu1) - model.lagrangian_field(mu1.alpha, mu2)
        gap2 = model.lagrangian_field(mu2.alpha, mu1) - model.lagrangian_field(mu2.alpha, mu2)
        return g.integrate(gap1 * mu1.density) - g.integrate(gap2 * mu2.density)

    tg = TimeGrid(horizon=1.0, n_steps=3)
    paths = [
        MeasurePath(
            tg, g, np.stack([smooth_density(g, rng) for _ in range(4)]),
            rng.uniform(-2, 2, (4, dim) + g.shape),
        )
        for _ in range(2)
    ]
    pairing = monotonicity_pairing(model, *paths)
    assert pairing.shape == (4,)
    assert pairing.tobytes() == four_calls(*paths).tobytes()
    for j in range(4):
        one = monotonicity_pairing(model, paths[0][j], paths[1][j])
        assert isinstance(one, float)
        assert repr(one) == repr(four_calls(paths[0][j], paths[1][j]))


@pytest.mark.parametrize("dim", [1, 2])
def test_monotonicity_pairing_across_level_blocks_is_the_whole_path_form_bitwise(dim):
    # The path form runs a block of levels at a time (64 levels at n = 256
    # in d = 1, 4 at n = 64 in d = 2); over paths that span at least three
    # blocks it is the stacked form on the whole path at once, to the bit.
    rng = np.random.default_rng(71)
    g = SpectralGrid(dim, 256 if dim == 1 else 64, 0.75)
    model = ThetaScaledModel(QuadraticModel(0.3, dim=dim), 0.5)
    tg = TimeGrid(horizon=1.0, n_steps=140 if dim == 1 else 13)
    levels = tg.n_steps + 1
    assert len(list(g.level_blocks(levels))) >= 3
    mu1, mu2 = (
        MeasurePath(
            tg, g, np.stack([smooth_density(g, rng) for _ in range(levels)]),
            rng.uniform(-2, 2, (levels, dim) + g.shape),
        )
        for _ in range(2)
    )
    controls = np.stack([mu1.alpha, mu2.alpha])
    gap1, gap2 = model.lagrangian_field(controls, mu1) - model.lagrangian_field(controls, mu2)
    whole = g.integrate(gap1 * mu1.density) - g.integrate(gap2 * mu2.density)
    pairing = monotonicity_pairing(model, mu1, mu2)
    assert pairing.shape == (levels,)
    assert pairing.tobytes() == whole.tobytes()


def test_mass_mismatch_detection():
    g = SpectralGrid(1, 32, 0.75)
    m1 = GridMeasure.uniform(g)
    # GridMeasure enforces unit mass, so exercise the check directly
    # through a measure built at the tolerance edge.
    v = np.ones(32) * (1.0 + 5e-11)
    m2 = GridMeasure(g, v)
    assert wasserstein_1d(m1, m2) < 1e-8  # inside the 1e-8 gate
    with pytest.raises(MassMismatchError):
        # bypass the constructor gate to present a genuinely unbalanced pair
        m_bad = GridMeasure.uniform(g)
        m_bad.values = np.ones(32) * 1.001
        wasserstein_1d(m1, m_bad)
    # stacks are checked slice by slice, even when the total masses agree
    stack = np.ones((3, 32))
    assert np.all(wasserstein_1d(GridMeasure.view(g, stack), GridMeasure.view(g, stack)) == 0.0)
    stack[1] *= 1.001
    stack[2] *= 0.999
    with pytest.raises(MassMismatchError):
        wasserstein_1d(GridMeasure.view(g, np.ones((3, 32))), GridMeasure.view(g, stack))
