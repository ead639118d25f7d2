"""The solver against a manufactured equilibrium in d = 1: the first-order
analysis of both marches predicts the orders the true errors show."""

import numpy as np
import pytest

from fmfgc.equilibrium import LoopConfig, solve_equilibrium

from helpers import manufactured_equilibrium


def true_errors(n, n_steps, s):
    """The sup error of u(0) and the sup error of m over every level, of a
    solve held to a loop tolerance far below both."""
    grid, tg, model, m0, u_terminal, u, m = manufactured_equilibrium(n, n_steps, s)
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
