"""Backward value-function solver.

Exponential Euler in time: the fractional diffusion is applied through the
exact spectral semigroup, the Hamiltonian is explicit and evaluated at the
later time level.  One step reads

    u(t) = T(dt) (u_next - dt * H(x, Du_next, mu_next))

which is first order in time and unconditionally stable in the diffusion
part; the explicit transport term carries the usual advective restriction,
sum_i |D_{p_i} H| dt <= dx at every node.

A march fixes the measure path once: ``model.hamiltonian_at(mu_path)``
computes the measure-only parts of H and D_p H for every level in one
batched call, and the march builds the operator of its step once
(``SpectralGrid.gradient_step``).  Each level then evaluates H at its
momentum, checks the result finite, and applies that operator for the new
value and its gradient together (``SpectralGrid.semigroup_gradient``):
one product with the stacked real kernel [T(dt); D T(dt)] on a 1-D grid
of at most ``DENSE_STEP_MAX_N`` nodes, else one forward and one batched
inverse real transform.  D_p H is evaluated once per march, on the
whole gradient path, and negated into the drift in place where the
model's array allows (``feedback_drift``); the advective restriction is
checked on it by the rule the forward march shares
(``fokker_planck.check_cfl``), at the largest speed over the levels the
march stepped from, so a violation is reported ahead of any non-finite
level below it.  The
solution keeps H and the drift -D_p H at every level, so a sweep's
forward march and duality pairing read them instead of evaluating the
model again.  The march starts from the terminal value it is given: a
caller that scales the problem by theta scales that value too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, GridMismatchError
from .fokker_planck import check_cfl
from .measures import MeasurePath
from .spectral import SpectralGrid, TimeGrid


@dataclass
class HjbDiagnostics:
    sup_u: float
    sup_du: float
    semiconcavity: float


@dataclass
class HjbSolution:
    """The value path and its gradient; ``hamiltonian`` is H(x, Du, mu) and
    ``drift`` the feedback drift -D_p H(x, Du, mu) on every level, for the
    measure path mu the value is paired with.  Both are None on a solution
    built by hand and on an equilibrium state between sweeps."""

    time_grid: TimeGrid
    grid: SpectralGrid
    u: np.ndarray  # (n_steps + 1, *grid.shape)
    du: np.ndarray  # (n_steps + 1, dim, *grid.shape)
    hamiltonian: np.ndarray | None = field(default=None, repr=False)  # like u
    drift: np.ndarray | None = field(default=None, repr=False)  # like du


def one_field(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    f = grid.check_scalar(f)
    if f.shape != grid.shape:
        raise GridMismatchError(f"a value field has shape {grid.shape}, got {f.shape}")
    return f


def feedback_drift(grad_p, du: np.ndarray) -> np.ndarray:
    """The drift -D_p H on a gradient path du, from the grad_p of a model's
    hamiltonian_at.  The negation is written over grad_p's array when that
    array is writable, owns its memory and shares none with du, so most
    models' drift costs one vector path, not two."""
    drift = np.asarray(grad_p(du))
    if drift.flags.writeable and drift.base is None and not np.may_share_memory(drift, du):
        return np.negative(drift, out=drift)
    return -drift


def _level(
    grid: SpectralGrid,
    u_next: np.ndarray,
    h: np.ndarray,
    dt: float,
    heat: np.ndarray,
    time_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One backward level: the new value and its gradient from the later
    value and its Hamiltonian field h, with heat the gradient_step of dt;
    the level's one finiteness check."""
    # T is linear, so T(dt) u - dt T(dt) H is one semigroup application.
    w = u_next - dt * h
    if not np.isfinite(w).all():
        raise BlowUpError(
            f"Hamiltonian step produced a non-finite value at time level {time_index}",
            time_index=time_index,
        )
    return grid.semigroup_gradient(w, heat)


def solve_backward(model, mu_path: MeasurePath, u_terminal: np.ndarray) -> HjbSolution:
    """March u from the terminal value u_terminal down to t = 0.

    mu_path supplies the joint measure at every time node; the advective
    speed is checked against dx at every level stepped from, and a
    violation reports the number of time steps that would satisfy the
    restriction at the largest speed.  The solution carries H and the
    drift -D_p H at (Du, mu_path) on every level.
    """
    grid = mu_path.grid
    tg = mu_path.time_grid
    dt = tg.dt
    u_terminal = one_field(grid, u_terminal)

    n = tg.n_steps
    u = np.empty((n + 1,) + grid.shape)
    # zeros: the guard reads the whole path, also below a level that blew up
    du = np.zeros((n + 1, grid.dim) + grid.shape)
    h = np.empty_like(u)
    u[n] = u_terminal
    du[n] = grid.gradient(u[n])
    hamiltonian, grad_p = model.hamiltonian_at(mu_path)
    heat = grid.gradient_step(dt)
    try:
        for j in range(n - 1, -1, -1):
            h[j + 1] = hamiltonian(du[j + 1], j + 1)
            u[j], du[j] = _level(grid, u[j + 1], h[j + 1], dt, heat, j)
    except BlowUpError as err:
        # the levels the march passed keep their order ahead of the blow-up;
        # a gradient that overflowed on the way there is part of the blow-up.
        # Level j of the path is the step from j to j - 1.
        passed = grad_p(du)[err.time_index + 1:]
        check_cfl(np.where(np.isfinite(passed), passed, 0.0), tg, grid)
        raise
    drift = feedback_drift(grad_p, du)
    check_cfl(drift[1:], tg, grid)
    h[0] = hamiltonian(du[0], 0)
    return HjbSolution(time_grid=tg, grid=grid, u=u, du=du, hamiltonian=h, drift=drift)


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


def hjb_diagnostics(sol: HjbSolution) -> HjbDiagnostics:
    """Sup norms of the value and its gradient, and the one-scale
    semiconcavity statistic."""
    sup_u = float(np.max(np.abs(sol.u)))
    sup_du = float(np.max(np.abs(sol.du)))
    semiconcavity = float(np.max(centered_curvature(sol.u, sol.grid)))
    return HjbDiagnostics(sup_u=sup_u, sup_du=sup_du, semiconcavity=semiconcavity)
