"""Forward density solver.

Splitting per step: conservative donor-cell advection for div(b m), then
the exact spectral semigroup for the fractional diffusion.  Advection in
flux form telescopes to exact discrete mass conservation; the semigroup
preserves the mean by construction but can ring slightly negative on sharp
data, which is clipped and renormalized under a hard mass-drift guard.

A march splits the face velocities of the whole drift path into their
positive and negative parts once; each step then shifts only the density,
and keeps its mass guard, its clip guard and one finiteness check (the
semigroup's, on the advected density).  With zero drift the solution is
the exact fractional heat flow, built by ``heat_flow`` from one transform
of m0 over the stack of heat multipliers at every time node.

The comparison bound comes from the same face velocities, with no
transform.  The donor-cell coefficients of a step sum to 1 - dt div_h f
at each node, div_h f the face difference of the face velocities f.  The
neighbour coefficients are nonnegative, so wherever a node's own
coefficient is too, its new value is at most (1 + dt K) sup m_j, with
K = max(-div_h f)^+ over the slices that step; hence sup m_j <= sup m0
prod (1 + dt K_i) <= sup m0 e^{K t_j}.  In d = 1 the guard |b| dt <= dx
covers the other case: a node whose own coefficient is negative loses
mass through both faces, receives none and goes nonpositive.  The
semigroup, the clip and the renormalization leave the sup alone up to
the semigroup's discrete ringing and roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CflError, ConservationError, InvalidFieldError
from .measures import GridMeasure
from .spectral import SpectralGrid, TimeGrid

STEP_MASS_TOL = 1e-12
CLIP_MASS_TOL = 1e-10


@dataclass
class FpSolution:
    time_grid: TimeGrid
    grid: SpectralGrid
    m: np.ndarray = field(repr=False)  # (n_steps + 1, *grid.shape), read-only
    mass_trace: np.ndarray = field(repr=False)
    min_trace: np.ndarray = field(repr=False)
    preclip_min_trace: np.ndarray = field(repr=False)
    advect_drift_trace: np.ndarray = field(repr=False)
    sup_trace: np.ndarray = field(repr=False)
    sup_bound: float
    drift_div_neg: float

    def __getitem__(self, j: int) -> GridMeasure:
        return GridMeasure.view(self.grid, self.m[j])

    def terminal(self) -> GridMeasure:
        return self[-1]


def check_cfl(speed: float, time_grid: TimeGrid, dx: float) -> None:
    """The advective restriction |b| dt <= dx at ``speed``, the largest
    drift speed over the levels a march checks; a violation reports the
    step count that satisfies it at that speed.  Both marches call it: the
    forward march on its whole drift path, the backward march on -D_p H at
    the levels it steps from."""
    if speed * time_grid.dt > dx * (1.0 + 1e-12):
        required = int(np.ceil(speed * time_grid.horizon / dx))
        raise CflError(
            f"advective speed {speed:.3g} violates |b| dt <= dx; need at least "
            f"n_t = {required} time steps",
            required_steps=required,
        )


def _face_parts(
    b: np.ndarray, grid: SpectralGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive and negative parts of the face-averaged velocity, per axis,
    for one drift field or a path, shaped like b, and per field the
    compression K = max(-div_h f)^+ of the face velocities f.

    Face i of an axis sits between nodes i and i + 1, and the wrap-around
    face is its own slice, so nothing is rolled; the two outputs are the
    only new arrays (fresh pages are costly to touch), with the negative
    part's buffer holding -dx div_h f until it is filled."""
    comp = -(grid.dim + 1)
    pos, neg = np.empty_like(b), np.empty_like(b)
    inflow = np.moveaxis(neg, comp, 0)[0]
    for axis, (f, v) in enumerate(zip(np.moveaxis(pos, comp, 0), np.moveaxis(b, comp, 0))):
        head, tail, first, last = (
            (Ellipsis, part) + (slice(None),) * (grid.dim - 1 - axis)
            for part in (slice(None, -1), slice(1, None), slice(None, 1), slice(-1, None))
        )
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
    return np.maximum(pos, 0.0, out=pos), neg, compression


def _roll(a: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """np.roll(a, shift, axis) for |shift| < n, as one concatenate: the same
    array at a third of np.roll's call cost on one grid field."""
    head = (slice(None),) * (axis % a.ndim)
    return np.concatenate(
        (a[head + (slice(-shift, None),)], a[head + (slice(None, -shift),)]), axis=axis
    )


def _advect(
    values: np.ndarray, pos: np.ndarray, neg: np.ndarray, dt: float, grid: SpectralGrid
) -> np.ndarray:
    """One explicit donor-cell sweep, flux form, from the face velocity parts."""
    dx = grid.dx
    out = values.copy()
    for axis in range(grid.dim):
        flux = pos[axis] * values + neg[axis] * _roll(values, -1, axis)
        out -= dt / dx * (flux - _roll(flux, 1, axis))
    return out


def _step(
    values: np.ndarray, pos: np.ndarray, neg: np.ndarray, dt: float, grid: SpectralGrid
) -> tuple[np.ndarray, float, float]:
    """One step on arrays: the new density, its pre-clip minimum and the
    advection mass drift.  The caller has checked values, the drift behind
    the face parts pos and neg, dt and the advective restriction
    |b| dt <= dx."""
    advected = _advect(values, pos, neg, dt, grid)
    mass = grid.integrate(advected)
    if abs(mass - 1.0) > STEP_MASS_TOL:
        raise ConservationError(
            f"advection stage drifted mass to {mass!r} (tolerance {STEP_MASS_TOL})"
        )
    diffused = grid.semigroup_apply(advected, dt)
    preclip = float(diffused.min())
    clipped = np.maximum(diffused, 0.0)
    if preclip < 0.0:
        removed = grid.integrate(clipped - diffused)
        if removed > CLIP_MASS_TOL:
            raise ConservationError(
                f"positivity clip removed {removed:.3e} mass (tolerance {CLIP_MASS_TOL})"
            )
    total = grid.integrate(clipped)
    return clipped / total, preclip, abs(mass - 1.0)


def _solution(
    m: np.ndarray,
    m0: GridMeasure,
    time_grid: TimeGrid,
    preclip: np.ndarray,
    advect_drift: np.ndarray,
    div_neg: float,
) -> FpSolution:
    """Package a density path and its per-step traces."""
    grid = m0.grid
    m.setflags(write=False)
    rows = m.reshape(len(m), -1)
    return FpSolution(
        time_grid=time_grid,
        grid=grid,
        m=m,
        mass_trace=grid.integrate(m),
        min_trace=np.min(rows, axis=1),
        preclip_min_trace=preclip,
        advect_drift_trace=advect_drift,
        sup_trace=np.max(rows, axis=1),
        sup_bound=float(np.max(m0.values)) * float(np.exp(div_neg * time_grid.horizon)),
        drift_div_neg=div_neg,
    )


def heat_flow(m0: GridMeasure, time_grid: TimeGrid) -> FpSolution:
    """The zero-drift solution: m(t_j) = T(t_j) m0, the exact fractional heat
    flow, from one transform of m0 over the stack of heat multipliers.

    Nothing is clipped; the traces come from the stack, so the pre-clip
    minimum is the minimum and the advection drift is zero.  The flow is
    not checked here: callers that need a density path check it (a
    MeasurePath does)."""
    m = m0.grid.semigroup_apply(m0.values, time_grid.times())
    m[0] = m0.values  # T(0) is the identity; the transform pair is not, to the bit
    rows = m.reshape(len(m), -1)
    return _solution(m, m0, time_grid, np.min(rows, axis=1), np.zeros(len(m)), 0.0)


def solve_forward(
    b_path: np.ndarray, m0: GridMeasure, time_grid: TimeGrid
) -> FpSolution:
    """March m0 forward through the drift path b(t^j).

    b_path has shape (n_steps + 1, dim, *grid.shape); the step from t^j
    uses b at t^j.  Traces and the comparison bound sup m <= sup m0 e^{KT}
    are recorded for diagnostics, with K = max(-div_h f)^+ over the face
    velocities f of the n slices that step (see the module docstring).
    """
    grid = m0.grid
    n = time_grid.n_steps
    b_path = np.asarray(b_path, dtype=float)
    expected = (n + 1, grid.dim) + grid.shape
    if b_path.shape != expected:
        raise ValueError(f"drift path shape {b_path.shape}, expected {expected}")
    # a NaN or an infinity reaches the extremes, so they check finiteness too
    high, low = float(np.max(b_path)), float(np.min(b_path))
    if not (np.isfinite(high) and np.isfinite(low)):
        raise InvalidFieldError("drift path contains non-finite values")
    check_cfl(max(high, -low), time_grid, grid.dx)

    dt = time_grid.dt
    m = np.empty((n + 1,) + grid.shape)
    m[0] = m0.values
    preclip = np.empty(n + 1)
    preclip[0] = float(np.min(m0.values))
    advect_drift = np.zeros(n + 1)
    pos, neg, compression = _face_parts(b_path[:n], grid)
    for j in range(n):
        m[j + 1], preclip[j + 1], advect_drift[j + 1] = _step(m[j], pos[j], neg[j], dt, grid)
    return _solution(m, m0, time_grid, preclip, advect_drift, float(np.max(compression)))


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
    is paired with: the march's own, or a packaged equilibrium's.
    """
    grid = m_sol.grid
    if u_sol.grid is not grid:
        raise ValueError("duality pairing needs all parts on one grid")
    tg = m_sol.time_grid
    if u_sol.time_grid != tg:
        raise ValueError("duality pairing needs a common time grid")
    if u_sol.hamiltonian is None or u_sol.drift is None:
        raise ValueError("duality pairing needs H and the drift on the value solution")
    # Du . D_p H - H, with D_p H = -drift
    integrand = -np.sum(u_sol.du * u_sol.drift, axis=1)
    integrand -= u_sol.hamiltonian
    running = grid.integrate(integrand * m_sol.m)
    time_integral = float(tg.dt * (running.sum() - 0.5 * (running[0] + running[-1])))
    boundary = m_sol[0].expectation(u_sol.u[0]) - m_sol[-1].expectation(u_sol.u[-1])
    return abs(boundary - time_integral)
