"""Backward value-function solver.

Exponential Euler in time: the fractional diffusion is applied through the
exact spectral semigroup, the Hamiltonian is explicit and evaluated at the
later time level.  One step reads

    u(t) = T(dt) (u_next - dt * H(x, Du_next, mu_next))

which is first order in time and unconditionally stable in the diffusion
part; the explicit transport term carries the usual advective restriction
|D_p H| dt <= dx.

A march fixes the measure path once: ``model.hamiltonian_at(mu_path)``
computes the measure-only parts of H for every level in one batched call,
and each level then evaluates H at its momentum, checks the result finite,
and takes one forward and one batched inverse real transform for the new
value and its gradient (``SpectralGrid.semigroup_gradient``).  The
advective restriction is checked once per march, on the whole gradient
path, and reported at the first violating level in march order, ahead of
any non-finite level below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, CflError, GridMismatchError
from .measures import JointControlMeasure, MeasurePath
from .models import coerce_theta
from .spectral import SpectralGrid, TimeGrid


@dataclass
class HjbDiagnostics:
    sup_u: float
    sup_du: float
    semiconcavity: float
    holder_du: float
    holder_exponent: float


@dataclass
class HjbSolution:
    time_grid: TimeGrid
    grid: SpectralGrid
    theta: float
    u: np.ndarray  # (n_steps + 1, *grid.shape)
    du: np.ndarray  # (n_steps + 1, dim, *grid.shape)
    diagnostics: HjbDiagnostics | None = None


def one_field(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    f = grid.check_scalar(f)
    if f.shape != grid.shape:
        raise GridMismatchError(f"a value field has shape {grid.shape}, got {f.shape}")
    return f


def _level(
    grid: SpectralGrid, u_next: np.ndarray, h: np.ndarray, dt: float, time_index: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """One backward level: the new value and its gradient from the later
    value and its Hamiltonian field h; the level's one finiteness check."""
    # T is linear, so T(dt) u - dt T(dt) H is one semigroup application.
    w = u_next - dt * h
    if not np.isfinite(w).all():
        raise BlowUpError(
            "Hamiltonian step produced a non-finite value"
            + ("" if time_index is None else f" at time level {time_index}"),
            time_index=time_index,
        )
    return grid.semigroup_gradient(w, dt)


def hjb_step(
    u_next: np.ndarray,
    mu_next: JointControlMeasure,
    model,
    dt: float,
    du_next: np.ndarray | None = None,
    time_index: int | None = None,
) -> np.ndarray:
    """One backward step; model must provide hamiltonian_at."""
    if not dt > 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    grid = mu_next.grid
    u_next = one_field(grid, u_next)
    if du_next is None:
        du_next = grid.gradient(u_next)
    h = model.hamiltonian_at(mu_next)(du_next)
    return _level(grid, u_next, h, dt, time_index)[0]


def _check_cfl(scaled, du: np.ndarray, mu_path: MeasurePath, lowest: int) -> None:
    """The advective restriction at levels lowest..n of the gradient path,
    where a level j means the step from j to j - 1.  The first violation in
    march order (the highest level) reports the step count that would
    satisfy it."""
    tg, dx = mu_path.time_grid, mu_path.grid.dx
    speed = np.max(np.abs(scaled.grad_p_field(du, mu_path)).reshape(len(du), -1), axis=1)
    (bad,) = np.nonzero(speed[lowest:] * tg.dt > dx * (1.0 + 1e-12))
    if bad.size:
        top = float(speed[lowest + bad[-1]])
        required = int(np.ceil(top * tg.horizon / dx))
        raise CflError(
            f"advective speed {top:.3g} violates |D_p H| dt <= dx; "
            f"need at least n_t = {required} time steps",
            required_steps=required,
        )


def solve_backward(
    model,
    mu_path: MeasurePath,
    u_terminal: np.ndarray,
    theta: float | None = None,
) -> HjbSolution:
    """March u from the terminal condition theta * u_terminal down to t = 0.

    mu_path supplies the joint measure at every time node; the advective
    speed is checked against dx at every level and a violation reports the
    number of time steps that would satisfy the restriction.
    """
    scaled = coerce_theta(model, theta)
    grid = mu_path.grid
    tg = mu_path.time_grid
    dt = tg.dt
    u_terminal = one_field(grid, u_terminal)

    n = tg.n_steps
    u = np.empty((n + 1,) + grid.shape)
    # zeros: the guard reads the whole path, also below a level that blew up
    du = np.zeros((n + 1, grid.dim) + grid.shape)
    u[n] = scaled.theta * u_terminal
    du[n] = grid.gradient(u[n])
    hamiltonian = scaled.hamiltonian_at(mu_path)
    try:
        for j in range(n - 1, -1, -1):
            u[j], du[j] = _level(grid, u[j + 1], hamiltonian(du[j + 1], j + 1), dt, j)
    except BlowUpError as err:
        # the levels the march passed keep their order ahead of the blow-up
        _check_cfl(scaled, du, mu_path, err.time_index + 1)
        raise
    _check_cfl(scaled, du, mu_path, 1)
    return HjbSolution(time_grid=tg, grid=grid, theta=scaled.theta, u=u, du=du)


def centered_curvature(f: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Per-axis centered second difference over dx^2 of a field or a stack,
    shape (..., dim, *shape)."""
    f = grid.check_scalar(f)
    return np.stack(
        [
            (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / grid.dx**2
            for axis in range(f.ndim - grid.dim, f.ndim)
        ],
        axis=-(grid.dim + 1),
    )


HOLDER_EXPONENT = 0.3


def hjb_diagnostics(sol: HjbSolution) -> HjbDiagnostics:
    """Sup norms, the one-scale semiconcavity statistic, and a sampled
    Hoelder seminorm of the gradient; cached on the solution."""
    if sol.diagnostics is not None:
        return sol.diagnostics
    grid = sol.grid
    sup_u = float(np.max(np.abs(sol.u)))
    sup_du = float(np.max(np.abs(sol.du)))
    semiconcavity = float(np.max(centered_curvature(sol.u, grid)))
    stride = max(1, sol.time_grid.n_steps // 8)
    holder = float(np.max(grid.holder_seminorm(sol.du[::stride], HOLDER_EXPONENT)))
    sol.diagnostics = HjbDiagnostics(
        sup_u=sup_u,
        sup_du=sup_du,
        semiconcavity=semiconcavity,
        holder_du=holder,
        holder_exponent=HOLDER_EXPONENT,
    )
    return sol.diagnostics
