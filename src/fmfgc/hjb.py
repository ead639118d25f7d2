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
finiteness check per block names the highest level that blew up.

The solution keeps H at every level, which the march writes anyway, and
the ``grad_p`` of ``hamiltonian_at`` (the quadratic model's closes over
the mean control, not over the potential): its ``drift`` is a
``FeedbackDrift``, a read-only view that evaluates -D_p H on the levels
it is indexed with, so no drift path is held.  The advective restriction
is checked on it a block of levels at a time, by the rule the forward
march shares (``fokker_planck.check_cfl``), at the largest speed over the
levels the march stepped from, so a violation is reported ahead of any
non-finite level below it.  A sweep's forward march and duality pairing
read the same view a block at a time, so the measure path is read once
per march.  The march starts from the terminal value it is given: a
caller that scales the problem by theta scales that value too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, GridMismatchError
from .fokker_planck import check_cfl
from .measures import MeasurePath
from .spectral import SpectralGrid, TimeGrid


class FeedbackDrift:
    """The feedback drift -D_p H(x, Du, mu) of a gradient path, evaluated
    on the levels it is indexed with: ``drift[j]`` is level j and
    ``drift[block]``, a slice of levels, those levels, each a new array with
    the bits a whole-path evaluation gives them.  It holds the ``grad_p``
    of a model's ``hamiltonian_at`` and the gradient path, and no path of
    its own, so readers take it a block of levels at a time; ``drift[:]``
    builds the whole path.  It cannot be written."""

    def __init__(self, grad_p, du: np.ndarray):
        self._grad_p, self._du = grad_p, du

    @property
    def shape(self) -> tuple[int, ...]:
        return self._du.shape

    def __len__(self) -> int:
        return len(self._du)

    def __getitem__(self, levels: int | slice) -> np.ndarray:
        if not isinstance(levels, (int, np.integer, slice)):
            raise TypeError(f"a drift is indexed by a level or a slice of levels, got {levels!r}")
        du = self._du[levels]
        drift = np.asarray(self._grad_p(du, levels))
        # negated in place when grad_p handed out an array of its own
        if drift.flags.writeable and drift.base is None and not np.may_share_memory(drift, du):
            return np.negative(drift, out=drift)
        return -drift


@dataclass
class HjbSolution:
    """The value path and its gradient; ``hamiltonian`` is H(x, Du, mu) on
    every level and ``grad_p`` the D_p H of the model's ``hamiltonian_at``
    at the measure path mu the value is paired with, which ``drift``
    evaluates on the gradient; both are None on a solution built by hand.
    ``change`` is the largest change of the value, over the nodes and
    levels, from what the march wrote over (zeros when it was given no
    paths), or None on a solution built by hand; a stage's solution keeps
    its last sweep's."""

    time_grid: TimeGrid
    grid: SpectralGrid
    u: np.ndarray  # (n_steps + 1, *grid.shape)
    du: np.ndarray  # (n_steps + 1, dim, *grid.shape)
    hamiltonian: np.ndarray | None = field(default=None, repr=False)  # like u
    grad_p: object = field(default=None, repr=False)  # grad_p(p, j) of hamiltonian_at
    change: float | None = None

    @property
    def drift(self) -> FeedbackDrift | None:
        """The feedback drift -D_p H(x, Du, mu), a read-only view shaped
        like du, or None without grad_p."""
        return None if self.grad_p is None else FeedbackDrift(self.grad_p, self.du)


def one_field(grid: SpectralGrid, f: np.ndarray) -> np.ndarray:
    f = grid.check_scalar(f)
    if f.shape != grid.shape:
        raise GridMismatchError(f"a value field has shape {grid.shape}, got {f.shape}")
    return f


def _level_blocks(grid: SpectralGrid, first: int, stop: int) -> list[slice]:
    """The level_blocks of the levels first..stop - 1."""
    return [slice(first + b.start, first + b.stop) for b in grid.level_blocks(stop - first)]


def _blown_up(w: np.ndarray, start: int) -> int | None:
    """The highest level of a block whose w has a non-finite entry, w
    holding the block's levels from start up, or None."""
    finite = np.isfinite(w.reshape(len(w), -1)).all(axis=1)
    return None if finite.all() else start + int(np.flatnonzero(~finite)[-1])


def _march_block(grid, hamiltonian, dt, heat, block, u, du, h, w, stacked) -> float:
    """Step the levels of one block, top down, into u and du; returns the
    largest change of the value over the levels it writes.

    Each level writes its Hamiltonian field into h, its w = u_next - dt H
    into its row of w and its value and gradient, the gradient_step heat
    applied to w, into its row of stacked, whose row past the block holds
    the level it starts from; T is linear, so T(dt) u - dt T(dt) H is one
    semigroup application.  The levels run under np.errstate, so the
    ones past a blow-up raise no warning, and one check over the rows of w
    then reports the highest level with a non-finite w, the first the
    march met: the levels above it are written into u and du, the rows at
    and below it keep what they held, and a BlowUpError names it."""
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
    new = stacked[top - block.start : count]
    change = np.max(np.abs(new[:, 0] - u[top : block.stop]), initial=0.0)
    u[top : block.stop] = new[:, 0]
    du[top : block.stop] = new[:, 1:]
    if failed is not None:
        raise BlowUpError(
            f"Hamiltonian step produced a non-finite value at time level {failed}",
            time_index=failed,
        )
    return change


def solve_backward(model, mu_path: MeasurePath, u_terminal: np.ndarray, out=None) -> HjbSolution:
    """March u from the terminal value u_terminal down to t = 0.

    mu_path supplies the joint measure at every time node; the advective
    speed is checked against dx at every level stepped from, and a
    violation reports the number of time steps that would satisfy the
    restriction at the largest speed.  The solution carries H at
    (Du, mu_path) on every level, the grad_p its drift -D_p H is
    evaluated with and the value's change from what its paths held.  It
    writes over the u, du and hamiltonian of ``out`` when given, each
    level's change taken just before the level is written, and into
    zero paths of its own otherwise; a march that raises leaves them
    half-written.
    """
    grid = mu_path.grid
    tg = mu_path.time_grid
    dt = tg.dt
    u_terminal = one_field(grid, u_terminal)

    n = tg.n_steps
    if out is None:
        u = np.zeros((n + 1,) + grid.shape)
        out = HjbSolution(tg, grid, u, np.zeros((n + 1, grid.dim) + grid.shape), np.empty_like(u))
    u, du, h = out.u, out.du, out.hamiltonian
    changes = [np.max(np.abs(u_terminal - u[n]))]
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
            changes.append(_march_block(grid, hamiltonian, dt, heat, block, u, du, h, w, stacked))
    except BlowUpError as err:
        # the levels the march passed keep their order ahead of the blow-up;
        # a gradient that overflowed on the way there is part of the blow-up.
        # Level j of the path is the step from j to j - 1.
        passed = (grad_p(du[b], b) for b in _level_blocks(grid, err.time_index + 1, n + 1))
        check_cfl((np.where(np.isfinite(p), p, 0.0) for p in passed), tg, grid)
        raise
    # |-D_p H| = |D_p H|: the guard reads grad_p without the negation
    check_cfl((grad_p(du[b], b) for b in _level_blocks(grid, 1, n + 1)), tg, grid)
    h[0] = hamiltonian(du[0], 0)
    return HjbSolution(tg, grid, u, du, h, grad_p, float(np.max(changes)))


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
