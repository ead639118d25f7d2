"""Exact symmetries of the continuous problem, which the discrete d = 2
and d = 3 solves keep to roundoff: data that do not depend on the last
coordinate give the solve one dimension down, and permuting the axes of
the data permutes the solve."""

import numpy as np
import pytest

from fmfgc.equilibrium import LoopConfig, solve_equilibrium
from fmfgc.fokker_planck import duality_residual, initial_density
from fmfgc.measures import GridMeasure
from fmfgc.models import QuadraticModel
from fmfgc.spectral import SpectralGrid, TimeGrid


def _sup(f) -> float:
    return float(np.max(np.abs(f)))


def _rounding(sol, n: int) -> float:
    """How far roundoff may move a solve's outputs, relative to their sup
    norms.  A march step applies transforms over n nodes per axis, each
    output a sum of n terms, which rounds by at most about n eps relative
    to the sup of its input; the n_t steps of a march add those errors,
    and each sweep passes them on through a contraction, so the errors of
    the sweeps add too."""
    return sol.sweeps * sol.time_grid.n_steps * n * np.finfo(float).eps


def _gap_scale(sol) -> float:
    """A bound on the terms of the duality gap: the two boundary pairings
    and the time integral of (Du . D_p H - H) m, m a unit mass."""
    u = sol.u_sol
    return 2.0 * _sup(u.u) + sol.time_grid.horizon * (
        _sup(u.hamiltonian) + _sup(u.du) * _sup(sol.mu_path.alpha)
    )


def _assert_close(got, want, tol, name):
    assert _sup(got - want) <= tol * _sup(want), (name, _sup(got - want), tol * _sup(want))


def _terminal(x):
    return 0.15 * np.cos(2 * np.pi * x) + 0.05 * np.sin(4 * np.pi * x)


@pytest.mark.parametrize("preset", ["vonmises", "twobump"])
@pytest.mark.parametrize("s", [0.55, 0.95])
@pytest.mark.parametrize("n", [16, 32])
def test_data_constant_along_x2_give_the_one_dimensional_solve(n, s, preset):
    # The 1-D density repeated along x2 and u_T(x1) lift the 1-D problem:
    # every wave vector of the data lies on the k1 axis, where the 2-D
    # symbols are the 1-D ones, so the 2-D solve takes the same sweeps to
    # the 1-D u, m and alpha_1, and d_2 u and alpha_2 are exactly zero.
    tg = TimeGrid(horizon=1.0, n_steps=100)
    line, plane = SpectralGrid(dim=1, n=n, s=s), SpectralGrid(dim=2, n=n, s=s)
    m0 = initial_density(line, preset)
    lifted = GridMeasure(plane, np.repeat(m0.values[:, None], n, axis=1))
    one = solve_equilibrium(QuadraticModel(coupling_beta=0.3), m0, _terminal(line.nodes()[0]), tg)
    two = solve_equilibrium(
        QuadraticModel(coupling_beta=0.3, dim=2), lifted, _terminal(plane.nodes()[0]), tg
    )
    assert one.converged and two.converged
    assert two.sweeps == one.sweeps
    assert not np.any(two.u_sol.du[:, 1]) and not np.any(two.mu_path.alpha[:, 1])
    tol = _rounding(one, n)
    _assert_close(two.u_sol.u, one.u_sol.u[..., None], tol, "u")
    _assert_close(two.m_sol.m, one.m_sol.m[..., None], tol, "m")
    _assert_close(two.mu_path.alpha[:, 0], one.mu_path.alpha[:, 0, :, None], tol, "alpha_1")
    gaps = [duality_residual(sol.u_sol, sol.m_sol) for sol in (one, two)]
    assert abs(gaps[1] - gaps[0]) <= tol * _gap_scale(one)


@pytest.mark.parametrize("s", [0.55, 0.95])
def test_swapping_the_axes_of_the_data_swaps_the_solve(s):
    # A case with no symmetry between the axes, on a horizon short enough
    # that both components of the mean control stay away from zero: the
    # solve of the transposed data is the transposed solve, with the
    # components of Du and alpha reversed, in the same sweeps.
    grid = SpectralGrid(dim=2, n=32, s=s)
    tg = TimeGrid(horizon=0.1, n_steps=100)
    x, y = grid.nodes()
    bump = 1.5 * np.cos(2 * np.pi * (x - 0.3)) + 0.8 * np.cos(2 * np.pi * (y - 0.6))
    m0 = GridMeasure.normalized(grid, np.exp(bump + 0.5 * np.sin(2 * np.pi * (x + 2 * y))))
    u_t = (
        0.1 * np.sin(2 * np.pi * (x - 0.1))
        + 0.05 * np.cos(2 * np.pi * (x + 2 * y))
        + 0.04 * np.sin(2 * np.pi * (y - 0.35))
    )
    model = QuadraticModel(coupling_beta=0.3, dim=2)
    sol = solve_equilibrium(model, m0, u_t, tg)
    swapped = solve_equilibrium(model, GridMeasure(grid, m0.values.T), u_t.T, tg)
    assert sol.converged and swapped.converged
    assert swapped.sweeps == sol.sweeps
    assert np.min(np.max(np.abs(sol.mu_path.mean_control()), axis=0)) > 1e-4

    def transposed(f):
        return np.swapaxes(f, -1, -2)

    tol = _rounding(sol, grid.n)
    _assert_close(swapped.u_sol.u, transposed(sol.u_sol.u), tol, "u")
    _assert_close(swapped.m_sol.m, transposed(sol.m_sol.m), tol, "m")
    _assert_close(swapped.u_sol.du, transposed(sol.u_sol.du[:, ::-1]), tol, "Du")
    _assert_close(swapped.mu_path.alpha, transposed(sol.mu_path.alpha[:, ::-1]), tol, "alpha")
    gaps = [duality_residual(run.u_sol, run.m_sol) for run in (sol, swapped)]
    assert abs(gaps[1] - gaps[0]) <= tol * _gap_scale(sol)


def _lifted(f):
    """f repeated along a new last axis of its own length."""
    return np.repeat(f[..., None], f.shape[-1], axis=-1)


def test_data_constant_along_x3_give_the_two_dimensional_solve():
    # Lifting one dimension further: every wave vector of the data lies in
    # the k3 = 0 plane, where the 3-D symbols are the 2-D ones, so the 3-D
    # solve takes the same sweeps to the 2-D u, m and (alpha_1, alpha_2),
    # with d_3 u and alpha_3 exactly zero.  Each sweep's density change is
    # the same total variation times sqrt(3)/2 instead of sqrt(2)/2.
    tg = TimeGrid(horizon=0.1, n_steps=50)
    plane, space = SpectralGrid(dim=2, n=16, s=0.75), SpectralGrid(dim=3, n=16, s=0.75)
    x, y = plane.nodes()
    m0 = GridMeasure.normalized(
        plane, np.exp(0.8 * np.cos(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * (x + 2 * y)))
    )
    u_t = 0.15 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y) + 0.05 * np.sin(4 * np.pi * y)
    cfg = LoopConfig(tolerance=1e-10)
    two = solve_equilibrium(QuadraticModel(coupling_beta=0.3, dim=2), m0, u_t, tg, cfg=cfg)
    three = solve_equilibrium(
        QuadraticModel(coupling_beta=0.3, dim=3),
        GridMeasure(space, _lifted(m0.values)),
        _lifted(u_t),
        tg,
        cfg=cfg,
    )
    assert two.converged and three.converged
    assert three.sweeps == two.sweeps
    assert not np.any(three.u_sol.du[:, 2]) and not np.any(three.mu_path.alpha[:, 2])
    tol = 1e-13
    assert _sup(three.u_sol.u - _lifted(two.u_sol.u)) <= tol
    assert _sup(three.m_sol.m - _lifted(two.m_sol.m)) <= tol
    assert _sup(three.mu_path.alpha[:, :2] - _lifted(two.mu_path.alpha)) <= tol
    for low, high in zip(two.history, three.history):
        assert abs(high.m_change - np.sqrt(1.5) * low.m_change) <= tol
    gaps = [duality_residual(sol.u_sol, sol.m_sol) for sol in (two, three)]
    assert abs(gaps[1] - gaps[0]) <= 1e-6 * abs(gaps[0])


def test_permuting_the_three_axes_of_the_data_permutes_the_solve():
    # A 3-D case with no symmetry between its axes, whose mean control has
    # three nonzero components: the data read along the cyclic
    # permutation (x1, x2, x3) -> (x2, x3, x1) solve to the permuted solve,
    # Du's and alpha's components permuted with the axes, in the same
    # sweeps.
    grid = SpectralGrid(dim=3, n=16, s=0.75)
    tg = TimeGrid(horizon=0.1, n_steps=50)
    x, y, z = grid.nodes()
    bump = (
        1.5 * np.cos(2 * np.pi * (x - 0.3))
        + 0.8 * np.cos(2 * np.pi * (y - 0.6))
        + 0.4 * np.cos(2 * np.pi * (z - 0.15))
    )
    m0 = GridMeasure.normalized(grid, np.exp(bump + 0.5 * np.sin(2 * np.pi * (x + 2 * y + 3 * z))))
    u_t = (
        0.1 * np.sin(2 * np.pi * (x - 0.1))
        + 0.05 * np.cos(2 * np.pi * (x + 2 * y))
        + 0.04 * np.sin(2 * np.pi * (y - 0.1))
        + 0.03 * np.sin(2 * np.pi * (z - 0.35))
    )
    perm = (1, 2, 0)

    def permuted(f, components=False):
        lead = f.ndim - 3
        if components:
            f = f[:, list(perm)]
        return np.transpose(f, tuple(range(lead)) + tuple(lead + axis for axis in perm))

    model = QuadraticModel(coupling_beta=0.3, dim=3)
    sol = solve_equilibrium(model, m0, u_t, tg)
    moved = solve_equilibrium(model, GridMeasure(grid, permuted(m0.values)), permuted(u_t), tg)
    assert sol.converged and moved.converged
    assert moved.sweeps == sol.sweeps
    assert np.min(np.max(np.abs(sol.mu_path.mean_control()), axis=0)) > 1e-4

    tol = _rounding(sol, grid.n)
    _assert_close(moved.u_sol.u, permuted(sol.u_sol.u), tol, "u")
    _assert_close(moved.m_sol.m, permuted(sol.m_sol.m), tol, "m")
    _assert_close(moved.u_sol.du, permuted(sol.u_sol.du, components=True), tol, "Du")
    _assert_close(moved.mu_path.alpha, permuted(sol.mu_path.alpha, components=True), tol, "alpha")
    gaps = [duality_residual(run.u_sol, run.m_sol) for run in (sol, moved)]
    assert abs(gaps[1] - gaps[0]) <= tol * _gap_scale(sol)
