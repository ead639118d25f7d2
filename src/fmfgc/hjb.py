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
batched call, and the march takes the operator of its step once
(``SpectralGrid.gradient_step``, the one operator the grid keeps for the
next march of the same dt).  The levels run top down, a block of levels
at a time, in buffers the march allocates once; each level, written in
the loop of ``_march_block``, evaluates H at its momentum, forms
w = u_next - dt H and applies that operator for the new value and its
gradient together
(``SpectralGrid.semigroup_gradient``: one product with the stacked real
kernel [T(dt); D T(dt)] on a 1-D grid of at most ``DENSE_STEP_MAX_N``
nodes, else one forward and one batched inverse real transform).  One
finiteness check per block names the highest level that blew up.  D_p H
is evaluated once per march, on the whole gradient path, and negated into
the drift in place where the model's array allows (``feedback_drift``);
the advective restriction is checked on it by the rule the forward march
shares (``fokker_planck.check_cfl``), at the largest speed over the
levels the march stepped from, so a violation is reported ahead of any
non-finite level below it.  The solution keeps H and the drift -D_p H at
every level, so a sweep's forward march and duality pairing read them
instead of evaluating the model again.  The march starts from the
terminal value it is given: a caller that scales the problem by theta
scales that value too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, GridMismatchError
from .fokker_planck import check_cfl
from .measures import MeasurePath
from .spectral import SpectralGrid, TimeGrid


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


def _blown_up(w: np.ndarray, start: int) -> int | None:
    """The highest level of a block whose w has a non-finite entry, w
    holding the block's levels from start up, or None."""
    finite = np.isfinite(w.reshape(len(w), -1)).all(axis=1)
    return None if finite.all() else start + int(np.flatnonzero(~finite)[-1])


def _march_block(grid, hamiltonian, dt, heat, block, u, du, h, w, stacked) -> None:
    """Step the levels of one block, top down, into u and du.

    Each level writes its Hamiltonian field into h, its w = u_next - dt H
    into its row of w and its value and gradient, the gradient_step heat
    applied to w, into its row of stacked, whose row past the block holds
    the level it starts from; T is linear, so T(dt) u - dt T(dt) H is one
    semigroup application.  The levels run under np.errstate, so the
    ones past a blow-up raise no warning, and one check over the rows of w
    then reports the highest level with a non-finite w, the first the
    march met: the levels above it are written into u and du, the rows at
    and below it keep their zeros, and a BlowUpError names it."""
    count = block.stop - block.start
    stacked[count, 0] = u[block.stop]
    stacked[count, 1:] = du[block.stop]
    low = count  # the lowest row of w written
    # level j + 1 down to level j, for j from the top of the block down
    steps = zip(
        range(count - 1, -1, -1),
        stacked[count:0:-1],
        h[block.stop : block.start : -1],
        w[count - 1 :: -1],
        stacked[count - 1 :: -1],
    )
    try:
        with np.errstate(all="ignore"):
            for k, later, h_later, w_k, out in steps:
                h_later[...] = hamiltonian(later[1:], block.start + k + 1)
                np.multiply(h_later, dt, out=w_k)
                np.subtract(later[0], w_k, out=w_k)
                grid.semigroup_gradient(w_k, heat, out)
                low = k
    except Exception:
        # a model may fail on the non-finite momentum past a blow-up
        if _blown_up(w[low:count], block.start + low) is None:
            raise
    failed = _blown_up(w[low:count], block.start + low)
    top = block.start if failed is None else failed + 1
    u[top : block.stop] = stacked[top - block.start : count, 0]
    du[top : block.stop] = stacked[top - block.start : count, 1:]
    if failed is not None:
        raise BlowUpError(
            f"Hamiltonian step produced a non-finite value at time level {failed}",
            time_index=failed,
        )


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
    blocks = list(grid.level_blocks(n))
    # the first block is the longest
    w = np.empty((blocks[0].stop,) + grid.shape)
    stacked = np.empty((blocks[0].stop + 1, 1 + grid.dim) + grid.shape)
    try:
        for block in reversed(blocks):
            _march_block(grid, hamiltonian, dt, heat, block, u, du, h, w, stacked)
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
