"""The solver against a manufactured equilibrium: the first-order
analysis of both marches predicts the orders the true errors show."""

import numpy as np
import pytest

from fmfgc.equilibrium import LoopConfig, solve_equilibrium

from helpers import manufactured_equilibrium


def true_errors(n, n_steps, s, dim=1):
    """The sup error of u(0) and the sup error of m over every level, of a
    solve held to a loop tolerance far below both."""
    grid, tg, model, m0, u_terminal, u, m = manufactured_equilibrium(n, n_steps, s, dim)
    sol = solve_equilibrium(model, m0, u_terminal, tg, cfg=LoopConfig(tolerance=1e-9))
    assert sol.converged
    return np.max(np.abs(sol.u_sol.u[0] - u[0])), np.max(np.abs(sol.m_sol.m - m))


@pytest.mark.parametrize("s", [0.55, 0.75, 0.95])
def test_value_error_is_first_order_in_time(s):
    # n = 64 resolves the two modes of u, so the time error leads
    coarse, fine = (true_errors(64, n_steps, s)[0] for n_steps in (200, 400))
    assert 0.8 <= np.log2(coarse / fine) <= 1.2


@pytest.mark.parametrize("s", [0.55, 0.75, 0.95])
def test_density_error_is_first_order_in_space(s):
    # the donor-cell flux is first order in space; 3200 steps keep the
    # time error below it
    coarse, fine = (true_errors(n, 3200, s)[1] for n in (32, 64))
    assert 0.8 <= np.log2(coarse / fine) <= 1.2


@pytest.mark.parametrize("s", [0.55, 0.75, 0.95])
def test_solve_converges_as_space_and_time_refine_together(s):
    # doubling n and n_t at once halves both errors; the pair (32, 200) is
    # pre-asymptotic for m at s = 0.95, so the study starts at (64, 400)
    coarse, fine = (np.array(true_errors(n, 400 * n // 64, s)) for n in (64, 128))
    orders = np.log2(coarse / fine)
    assert np.all((0.8 <= orders) & (orders <= 1.2)), orders


def test_value_error_is_first_order_in_time_off_the_axes():
    # In d = 2 the game's modes sit on the wave vectors (1, 1) and (2, 2),
    # where |k| is not |k1| + |k2|, so a symbol built axis by axis breaks
    # the order, which lifting a 1-D field cannot show
    coarse, fine = (true_errors(32, n_steps, 0.75, dim=2)[0] for n_steps in (100, 200))
    assert 0.8 <= np.log2(coarse / fine) <= 1.2
