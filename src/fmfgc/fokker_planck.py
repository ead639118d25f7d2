"""Forward density solver.

Splitting per step: conservative donor-cell advection for div(b m), then
the exact spectral semigroup for the fractional diffusion.  Advection in
flux form telescopes to exact discrete mass conservation; the semigroup
preserves the mean by construction but can ring slightly negative on sharp
data, which is clipped and renormalized under a hard mass-drift guard.

A march takes the operator of its step once (``SpectralGrid.value_step``,
a view of the one operator the grid keeps for the next march of the same
dt) and splits the face velocities of its drift path into their positive
and negative parts one block of levels at a time
(``SpectralGrid.level_blocks``), into two buffers the march allocates
once, so the parts of one block are live at once, never those of the
whole path or of two blocks.  Each step, written in the block
loop of ``solve_forward``, works in buffers the march allocates once: the
donor-cell shift (``_advect``), the semigroup (on a 1-D grid of at most
``DENSE_STEP_MAX_N`` nodes one product with the real kernel of T(dt),
else one transform pair), the clip and the normalization written into the
path.  After each block, one
row sum and one row minimum give the guards of all its steps
(``_check_steps``), and the first failure raises.  With zero drift
the solution is the exact fractional heat flow, built by ``heat_flow``
from one transform of m0 and the heat multipliers of each block of time
nodes in turn.

The comparison bound comes from the same face velocities, with no
transform.  The donor-cell coefficients of a step sum to 1 - dt div_h f
at each node, div_h f the face difference of the face velocities f.  The
neighbour coefficients are nonnegative, so wherever a node's own
coefficient is too, its new value is at most (1 + dt K) sup m_j, with
K = max(-div_h f)^+ over the slices that step; hence sup m_j <= sup m0
prod (1 + dt K_i) <= sup m0 e^{K t_j}.  The guard bounds the summed
speed, sum_i |b_i| dt <= dx at each node, since a node loses mass through
the faces of every axis at once.  In d = 1 it reads |b| dt <= dx, and
there it covers the other case: a node whose own coefficient is negative
loses mass through both faces, receives none and goes nonpositive.  The
semigroup, the clip and the renormalization leave the sup alone up to
the semigroup's discrete ringing and roundoff.

The march reads its drift path only a block of levels at a time, as
``b_path[block]``, so an array and a value solution's ``FeedbackDrift``
view, which evaluates -D_p H on the levels it is indexed with, take the
same code path.  Before the first step it checks the shape, then every
level finite (the check ``checked_drift_path`` makes on the particle
march's whole path) and the CFL rule over the levels 0..n-1 that the
steps read, so a non-finite level is reported ahead of a violation.
The duality pairing also reads its paths a block of levels at a time.
Every level's arithmetic is the one the whole path would get, so the
results do not depend on the block size, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CflError, ConservationError, InvalidFieldError
from .measures import GridMeasure, _read_only_view
from .spectral import SpectralGrid, TimeGrid

STEP_MASS_TOL = 1e-12
CLIP_MASS_TOL = 1e-10


@dataclass
class FpSolution:
    """A density path with the per-step traces of its march; the traces
    that are reductions of the path itself are derived on demand."""

    time_grid: TimeGrid
    grid: SpectralGrid
    m: np.ndarray = field(repr=False)  # (n_steps + 1, *grid.shape), read-only
    preclip_min_trace: np.ndarray = field(repr=False)
    advect_drift_trace: np.ndarray = field(repr=False)
    drift_div_neg: float
    #: the largest ``change`` the march took over its blocks, if given one
    change: float | None = None

    def __post_init__(self):
        # a read-only view, so a march can write the path it was given again
        self.m = _read_only_view(self.m)

    @property
    def mass_trace(self) -> np.ndarray:
        return self.grid.integrate(self.m)

    @property
    def min_trace(self) -> np.ndarray:
        return np.min(self.m.reshape(len(self.m), -1), axis=1)

    @property
    def sup_trace(self) -> np.ndarray:
        return np.max(self.m.reshape(len(self.m), -1), axis=1)

    @property
    def sup_bound(self) -> float:
        """The comparison bound sup m0 e^{K T}, K = drift_div_neg."""
        growth = np.exp(self.drift_div_neg * self.time_grid.horizon)
        return float(np.max(self.m[0])) * float(growth)

    def __getitem__(self, j: int) -> GridMeasure:
        return GridMeasure.view(self.grid, self.m[j])

    def terminal(self) -> GridMeasure:
        return self[-1]


def check_cfl(drift_blocks, time_grid: TimeGrid, grid: SpectralGrid) -> None:
    """The advective restriction sum_i |b_i| dt <= dx at every node of
    ``drift_blocks``, an iterable of stacks of finite drift fields
    (..., dim, *grid.shape): the levels a march steps from, a block at a
    time (an array of levels is taken a level at a time).  The summed speed
    is what keeps a donor-cell node's own coefficient nonnegative; in d = 1
    it is |b|.  A violation reports the step count that satisfies it at
    the largest summed speed.  Both marches hand it their blocks: the
    forward march levels 0..n-1 of its drift path, the backward march
    -D_p H at levels 1..n."""
    speed = 0.0
    for drift in drift_blocks:
        if grid.dim == 1:
            # |b| is largest at max b or at -min b: no block-sized temporary
            speed = max(speed, float(np.max(drift)), -float(np.min(drift)))
            continue
        levels = drift.reshape((-1, grid.dim) + grid.shape)
        summed = np.abs(levels[:, 0])
        for axis in range(1, grid.dim):
            summed += np.abs(levels[:, axis])
        speed = max(speed, float(np.max(summed)))
    if speed * time_grid.dt > grid.dx * (1.0 + 1e-12):
        required = int(np.ceil(speed * time_grid.horizon / grid.dx))
        raise CflError(
            f"advective speed {speed:.3g} violates sum_i |b_i| dt <= dx; need at "
            f"least n_t = {required} time steps",
            required_steps=required,
        )


def _face_slices(axis: int, dim: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Index tuples of a field or a stack along one grid axis of dim: every
    node but the last, every node but the first, the first and the last."""
    rest = (slice(None),) * (dim - 1 - axis)
    return tuple(
        (Ellipsis, part) + rest
        for part in (slice(None, -1), slice(1, None), slice(None, 1), slice(-1, None))
    )


def _face_parts(
    b: np.ndarray, grid: SpectralGrid, pos: np.ndarray, neg: np.ndarray
) -> np.ndarray:
    """The positive and negative parts of the face-averaged velocity, per
    axis, for one drift field or a path, written into pos and neg, shaped
    like b; returns per field the compression K = max(-div_h f)^+ of the
    face velocities f.

    Face i of an axis sits between nodes i and i + 1, and the wrap-around
    face is its own slice, so nothing is rolled; the buffers are the
    caller's (fresh pages are costly to touch), with the negative part's
    holding -dx div_h f until it is filled."""
    comp = -(grid.dim + 1)
    inflow = np.moveaxis(neg, comp, 0)[0]
    for axis, (f, v) in enumerate(zip(np.moveaxis(pos, comp, 0), np.moveaxis(b, comp, 0))):
        head, tail, first, last = _face_slices(axis, grid.dim)
        np.add(v[head], v[tail], out=f[head])
        np.add(v[last], v[first], out=f[last])
        f *= 0.5
        if axis == 0:  # node i gains face i - 1 and loses face i
            np.subtract(f[head], f[tail], out=inflow[tail])
            np.subtract(f[last], f[first], out=inflow[first])
        else:
            inflow -= f
            inflow[tail] += f[head]
            inflow[first] += f[last]
    rows = inflow.reshape(inflow.shape[: inflow.ndim - grid.dim] + (-1,))
    compression = np.maximum(np.max(rows, axis=-1) / grid.dx, 0.0)
    np.minimum(pos, 0.0, out=neg)
    np.maximum(pos, 0.0, out=pos)
    return compression


def _sweep_scratch(grid: SpectralGrid) -> tuple:
    """What _advect works in, made once per march: two field-shaped
    buffers, flux and shifted, and per axis the index tuples of
    _face_slices."""
    flux, shifted = np.empty((2,) + grid.shape)
    return flux, shifted, [_face_slices(axis, grid.dim) for axis in range(grid.dim)]


def _advect(values, pos, neg, rate, scratch, out) -> None:
    """One explicit donor-cell sweep, flux form, from the face velocity
    parts, at rate = dt / dx, written into out; it works in the
    _sweep_scratch of the grid and makes no new array."""
    flux, shifted, faces = scratch
    source = values
    for p, q, (head, tail, first, last) in zip(pos, neg, faces):
        np.multiply(p, values, out=flux)
        # q_i values_{i+1}, the node across face i
        np.multiply(q[head], values[tail], out=shifted[head])
        np.multiply(q[last], values[first], out=shifted[last])
        flux += shifted
        # flux_i - flux_{i-1}, the net outflow of node i
        np.subtract(flux[tail], flux[head], out=shifted[tail])
        np.subtract(flux[first], flux[last], out=shifted[first])
        shifted *= rate
        np.subtract(source, shifted, out=out)
        source = out


def _check_steps(
    advected: np.ndarray, diffused: np.ndarray, mass_in: float, cell: float
) -> tuple[np.ndarray, np.ndarray]:
    """The advection mass drifts and the pre-clip minima of a block of
    steps, from their advected and pre-clip diffused densities, stacked.

    One row sum and one row minimum serve every step.  The guards read
    them step by step, in the order a step is checked in: a non-finite sum
    is a non-finite field, a sum off the mass the step started from is a
    mass drift (mass_in for the block's first step, m0's on the march's
    first step and the 1 every step normalizes to after it), and a negative
    minimum sends the step's clipped mass to its guard.  The first failure
    raises."""
    count = len(advected)
    mass = advected.reshape(count, -1).sum(axis=1) * cell
    drift = np.abs(mass - 1.0)
    drift[0] = abs(mass[0] - mass_in)
    diffused = diffused.reshape(count, -1)
    preclip = diffused.min(axis=1)
    # a NaN fails both comparisons
    if drift.max() <= STEP_MASS_TOL and preclip.min() >= 0.0:
        return drift, preclip
    clipped = preclip < 0.0
    removed = np.zeros(count)
    if clipped.any():
        rows = diffused[clipped]
        removed[clipped] = (np.maximum(rows, 0.0) - rows).sum(axis=1) * cell
    failed = ~np.isfinite(mass) | (drift > STEP_MASS_TOL) | (removed > CLIP_MASS_TOL)
    if failed.any():
        k = int(np.argmax(failed))
        if not math.isfinite(mass[k]):
            raise InvalidFieldError("scalar field contains non-finite values")
        if drift[k] > STEP_MASS_TOL:
            raise ConservationError(
                f"advection stage drifted mass to {float(mass[k])!r} (tolerance {STEP_MASS_TOL})"
            )
        raise ConservationError(
            f"positivity clip removed {removed[k]:.3e} mass (tolerance {CLIP_MASS_TOL})"
        )
    return drift, preclip


def heat_flow(m0: GridMeasure, time_grid: TimeGrid) -> FpSolution:
    """The zero-drift solution: m(t_j) = T(t_j) m0, the exact fractional heat
    flow, from one transform of m0 and the heat multipliers of each block
    of time nodes (``SpectralGrid.semigroup_apply``).

    Nothing is clipped; the traces come from the stack, so the pre-clip
    minimum is the minimum and the advection drift is zero.  The flow is
    not checked here: callers that need a density path check it (a
    MeasurePath does)."""
    m = m0.grid.semigroup_apply(m0.values, time_grid.times())
    m[0] = m0.values  # T(0) is the identity; the transform pair is not, to the bit
    preclip = np.min(m.reshape(len(m), -1), axis=1)
    return FpSolution(time_grid, m0.grid, m, preclip, np.zeros(len(m)), 0.0)


def _check_drift_shape(shape, time_grid: TimeGrid, grid: SpectralGrid) -> None:
    expected = (time_grid.n_steps + 1, grid.dim) + grid.shape
    if tuple(shape) != expected:
        raise ValueError(f"drift path shape {tuple(shape)}, expected {expected}")


def _finite_drift(b) -> np.ndarray:
    """b, drift fields, as a float array once every value is checked finite."""
    b = np.asarray(b, dtype=float)
    # a NaN or an infinity reaches the extremes
    if not (np.isfinite(np.max(b)) and np.isfinite(np.min(b))):
        raise InvalidFieldError("drift path contains non-finite values")
    return b


def checked_drift_path(b_path, time_grid: TimeGrid, grid: SpectralGrid) -> np.ndarray:
    """b_path as a float array, once it is checked to have the shape
    (n_steps + 1, dim, *grid.shape) and only finite values; the drift path
    that the particle march steps through."""
    b_path = np.asarray(b_path, dtype=float)
    _check_drift_shape(b_path.shape, time_grid, grid)
    return _finite_drift(b_path)


def solve_forward(
    b_path, m0: GridMeasure, time_grid: TimeGrid, out: np.ndarray | None = None, change=None
) -> FpSolution:
    """March m0 forward through the drift path b(t^j), into ``out`` when
    given, a density path it writes over (half-written if the march
    raises), and into a path of its own otherwise.

    b_path has shape (n_steps + 1, dim, *grid.shape): an array, or a view
    such as a value solution's ``drift`` that evaluates the levels it is
    indexed with; it is read only as ``b_path[block]``, a block of levels
    at a time, and gives the same bytes either way.  The step from t^j uses
    b at t^j.  Before the first step, every level is checked finite, then
    the CFL rule is checked over the levels 0..n-1 that step.  Traces and
    the comparison bound sup m <= sup m0 e^{KT} are recorded for
    diagnostics, with K = max(-div_h f)^+ over the face velocities f of the
    n slices that step (see the module docstring).  With ``change``, the
    march copies each block's levels aside before it writes them and takes
    ``change(grid, old, new)``, a float, on the old and the new levels;
    the solution keeps the largest.
    """
    grid = m0.grid
    n = time_grid.n_steps
    _check_drift_shape(np.shape(b_path), time_grid, grid)
    blocks = list(grid.level_blocks(n))
    # every level is checked finite ahead of the CFL rule, because a NaN
    # speed passes its comparison; level n is checked but steps nowhere
    _finite_drift(b_path[n:])
    check_cfl((_finite_drift(b_path[block]) for block in blocks), time_grid, grid)

    m = np.empty((n + 1,) + grid.shape) if out is None else out
    dt = time_grid.dt
    heat, rate = grid.value_step(dt), dt / grid.dx
    scratch, cell = _sweep_scratch(grid), grid.dx**grid.dim
    # the first block is the longest
    advected, diffused, old = np.empty((3, blocks[0].stop) + grid.shape)
    parts = np.empty((2, blocks[0].stop, grid.dim) + grid.shape)
    m[0] = m0.values
    preclip = np.empty(n + 1)
    preclip[0] = float(np.min(m0.values))
    advect_drift = np.zeros(n + 1)
    mass = m0.mass  # each later step starts at the unit mass the last one left
    compression = 0.0
    largest = None if change is None else 0.0
    for block in blocks:
        count = block.stop - block.start
        new = m[block.start + 1 : block.stop + 1]
        if change is not None:
            old[:count] = new
        pos, neg = parts[:, :count]
        b = np.asarray(b_path[block], dtype=float)
        block_compression = _face_parts(b, grid, pos, neg)
        compression = max(compression, float(np.max(block_compression)))
        # each step writes its advected density, its semigroup before the
        # clip and the clipped density normalized to unit mass; the clip
        # leaves a positive field's bits alone.  A step past a failing one
        # may overflow; the check below reports the failure, and the steps
        # past it are dropped
        with np.errstate(all="ignore"):
            for values, pos_k, neg_k, advected_k, diffused_k, out_k in zip(
                m[block.start : block.stop], pos, neg, advected, diffused, new
            ):
                _advect(values, pos_k, neg_k, rate, scratch, advected_k)
                grid.semigroup_value(advected_k, heat, diffused_k)
                np.maximum(diffused_k, 0.0, out=out_k)
                out_k /= out_k.sum() * cell
            drift, block_preclip = _check_steps(
                advected[:count], diffused[:count], mass, cell
            )
        advect_drift[block.start + 1 : block.stop + 1] = drift
        preclip[block.start + 1 : block.stop + 1] = block_preclip
        mass = 1.0
        if change is not None:
            largest = max(largest, change(grid, old[:count], new))
    return FpSolution(time_grid, grid, m, preclip, advect_drift, compression, largest)


DENSITY_PRESETS = ("uniform", "vonmises", "twobump")


def initial_density(grid: SpectralGrid, preset: str = "vonmises") -> GridMeasure:
    """Built-in starting densities: a von Mises style bump, the uniform
    density, and an asymmetric two-bump mixture."""
    nodes = grid.nodes()
    if preset == "uniform":
        return GridMeasure.uniform(grid)
    if preset == "vonmises":
        raw = np.exp(sum(np.cos(2 * np.pi * x) - 1.0 for x in nodes))
        return GridMeasure.normalized(grid, raw)
    if preset == "twobump":
        profile = 0.65 * np.exp(2.0 * (np.cos(2 * np.pi * (nodes[0] - 0.3)) - 1.0))
        profile += 0.35 * np.exp(2.0 * (np.cos(2 * np.pi * (nodes[0] - 0.75)) - 1.0))
        for x in nodes[1:]:
            profile = profile * np.exp(np.cos(2 * np.pi * x) - 1.0)
        return GridMeasure.normalized(grid, profile)
    raise ValueError(f"density must be one of {DENSITY_PRESETS}, got {preset!r}")


def duality_residual(u_sol, m_sol: FpSolution) -> float:
    """Cross-pairing defect between the two solved equations.

    |int u(0) m0 - int u(T) m(T) - int_0^T int (Du . D_p H - H) m dx dt|
    with u(T) = theta u_T as stored; trapezoidal in time.  Zero for the
    exact continuum pair, so its size measures joint discretization error.
    H and D_p H = -drift are the ones u_sol carries, at the measure path it
    is paired with: its march's, or a stage's closing controls.  Every
    path, the drift view too, is read a block of levels at a time.
    """
    grid = m_sol.grid
    if u_sol.grid is not grid:
        raise ValueError("duality pairing needs all parts on one grid")
    tg = m_sol.time_grid
    if u_sol.time_grid != tg:
        raise ValueError("duality pairing needs a common time grid")
    if u_sol.hamiltonian is None or u_sol.drift is None:
        raise ValueError("duality pairing needs H and the drift on the value solution")
    running = np.empty(tg.n_steps + 1)
    drift = u_sol.drift
    for block in grid.level_blocks(len(running)):
        # Du . D_p H - H, with D_p H = -drift
        integrand = -np.sum(u_sol.du[block] * drift[block], axis=1)
        integrand -= u_sol.hamiltonian[block]
        running[block] = grid.integrate(integrand * m_sol.m[block])
    time_integral = float(tg.dt * (running.sum() - 0.5 * (running[0] + running[-1])))
    boundary = m_sol[0].expectation(u_sol.u[0]) - m_sol[-1].expectation(u_sol.u[-1])
    return abs(boundary - time_integral)
