"""Particle-level simulation of the controlled jump diffusion on the torus.

Agents follow dX = b(X, t) dt + dJ where J is the isotropic 2s-stable
process whose generator is the same fractional Laplacian the spectral
modules exponentiate.  Increments come from the Chambers-Mallows-Stuck
transform of one uniform and one exponential draw per particle and step.
In d = 1 it gives the symmetric 2s-stable jump directly; in d >= 2 it
gives a one-sided s-stable time change S and the jump is the
subordinated Gaussian J = sqrt(2 S) Z, as the direct formula has no
isotropic form there.  Both reproduce the torus symbol exactly.  The
ensemble cross-validates the density pipeline: depositing particles and
comparing against the PDE solution is the end-to-end consistency check,
and the time-indexed path feeds the Hoelder-in-time Wasserstein
certificate.

The particles never interact, so the ensemble is cut into fixed blocks of
MIN_BLOCK particles, a partition that depends only on the particle count.
Each block draws from its own child stream, spawned from the run's seed,
and one pool task marches it through the whole horizon in buffers it
allocates once, so positions are the same bits at any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .fokker_planck import checked_drift_path
from .measures import GridMeasure, coordinate_marginals, wasserstein_1d
from .spectral import SpectralGrid, TimeGrid

#: Everything below twice the Monte-Carlo floor is treated as noise when
#: fitting the jump-regime scaling exponent.
NOISE_FLOOR_SCALE = 2.0

#: The Hoelder check's factor on the fitted square-root term.
HOLDER_SLACK = 2.0

#: Particles per block: the unit of work and of random streams in the march.
#: An ensemble of one block runs on the calling thread.
MIN_BLOCK = 16384

#: The least exponential draw the Chambers-Mallows-Stuck kernels read: a
#: smaller one, in practice an exact 0, which numpy's ziggurat returns with
#: probability about 2^-53, is read as 2^-64, so the jump is finite and no
#: log or ratio meets a zero.  P(W < 2^-64) is 5.4e-20, so the law moves by
#: less than that in total variation.
EXPONENTIAL_FLOOR = 2.0**-64


def _worker_count() -> int:
    """Usable CPUs, capped by the OMP_NUM_THREADS hint that --threads sets."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    hint = os.environ.get("OMP_NUM_THREADS", "")
    return max(1, min(cpus, int(hint))) if hint.isdigit() else cpus


@functools.lru_cache(maxsize=1)
def _pool(workers: int) -> ThreadPoolExecutor:
    # One pool at a time; a new worker count drops the old pool, whose idle
    # threads exit once it is collected.
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="fmfgc-particles")


@dataclass(frozen=True)
class ParticlePath:
    """Time-indexed ensemble produced by the SDE stepper.

    positions has shape (stored_steps + 1, N, dim); times holds the matching
    physical times.  The grid is the one the drift lived on, kept around so
    deposition and the path certificate use the same resolution.
    """

    times: np.ndarray
    positions: np.ndarray
    grid: SpectralGrid

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    def terminal(self) -> np.ndarray:
        """The (N, dim) positions at the last stored time."""
        return self.positions[-1]


def sample_stable_increment(
    s: float,
    dt: float,
    dim: int,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Increments of the isotropic 2s-stable process over a step of length dt.

    Each has E[exp(i xi . J)] = exp(-dt |xi|^(2s)), which at xi = 2 pi k is
    exactly the semigroup multiplier of the spectral grid.  Every increment
    takes one uniform and one exponential draw from rng, and in d >= 2 also
    d Gaussians.  d = 1 transforms the two draws into the symmetric
    2s-stable jump (_cms_line); d >= 2 subordinates the Gaussians,
    J = sqrt(2 S) Z with S one-sided s-stable scaled so
    E[exp(-lam S)] = exp(-dt lam^s), so that
    E[exp(i xi . J)] = E[exp(-S |xi|^2)] (_cms_block).  Returns shape
    (size, dim).
    """
    if not 0.5 < s < 1.0:
        raise ValueError(f"stable order requires s in (1/2, 1), got {s}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    z = np.empty((size, dim))
    u, w, *work = np.empty((5, size))
    _draw_increments(rng, u, w, z, s, dt, work)
    return z


def _draw_increments(rng, u, w, z, s: float, dt: float, work) -> None:
    """One step's increments into z (count, dim), drawn from rng in the
    buffers u, w (count,) and work (3, count), which the call overwrites."""
    rng.random(out=u)
    rng.standard_exponential(out=w)
    if z.shape[1] == 1:
        _cms_line(u, w, z[:, 0], s, dt, work)
    else:
        rng.standard_normal(out=z)
        _cms_block(u, w, z, s, dt, work)


def _cms_line(u, w, out, s: float, dt: float, work) -> None:
    """Chambers-Mallows-Stuck: the symmetric 2s-stable jump into out (count,).

    u holds uniform [0, 1) draws and w standard exponential ones, read no
    lower than EXPONENTIAL_FLOOR; both are overwritten, as is the
    (3, count) scratch buffer work, so a call makes no new array.  The
    jump scales as w^(beta/alpha), so at w = 0, where the textbook jump is
    +-0, it is 2^(-64 beta/alpha) times the jump at w = 1.  With
    alpha = 2s, beta = alpha - 1 and the angle
    V = pi (u - 1/2 + 2^-54), the textbook jump
    J = dt^(1/alpha) sin(alpha V) cos(V)^(-1/alpha) (w / cos(beta V))^(beta/alpha)
    has E[exp(i xi J)] = exp(-dt |xi|^alpha).  Shifting u by half its 2^-53
    spacing makes the grid of V symmetric about 0 and keeps it off +-pi/2,
    where cos V = 0, so u = 0 gives a finite jump without rejection.  As
    1/alpha + beta/alpha = 1, log|J| regroups into two logs of ratios,
    log(sin(alpha |V|) / cos V) / alpha
    + beta log(w sin(alpha |V|) / cos(beta V)) / alpha + log(dt) / alpha,
    and J takes the sign of V.  Each sine and cosine comes from the tangent
    of its half angle, as in _cms_block.  cos V is taken as sin(pi q) with
    q = 1/2 - |V| / pi exact, so it keeps its relative precision as V nears
    +-pi/2, where the jump is largest.
    """
    a, b, scratch = work
    np.maximum(w, EXPONENTIAL_FLOOR, out=w)
    beta = 2.0 * s - 1.0
    # u - 1/2 + 2^-54 and q = 1/2 - |u - 1/2 + 2^-54| are exact in float
    u -= 0.5 - 2.0**-54
    np.abs(u, out=a)
    np.subtract(0.5, a, out=b)
    b *= 0.5 * math.pi
    _half_sine(np.tan(b, out=b), scratch)
    # cos(beta V) = (1 - t^2) / (1 + t^2), t = tan(beta |V| / 2) < tan(pi/4)
    np.multiply(a, beta * 0.5 * math.pi, out=out)
    np.tan(out, out=out)
    np.multiply(out, out, out=scratch)
    np.subtract(1.0, scratch, out=out)
    scratch += 1.0
    out /= scratch
    a *= s * math.pi
    _half_sine(np.tan(a, out=a), scratch)
    w *= a
    w /= out
    a /= b
    np.log(a, out=a)
    a *= 1.0 / (2.0 * s)
    np.log(w, out=w)
    w *= beta / (2.0 * s)
    a += w
    # w holds w sin(alpha |V|) / (2 cos(beta V)), whence beta log 2; the
    # halves in a / b cancel
    a += (math.log(dt) + beta * math.log(2.0)) / (2.0 * s)
    np.copysign(np.exp(a, out=a), u, out=out)


def _cms_block(u, w, z, s: float, dt: float, work) -> None:
    """Chambers-Mallows-Stuck: scales z (count, dim) in place by sqrt(2 S).

    u holds uniform [0, 1) draws and w standard exponential ones, read no
    lower than EXPONENTIAL_FLOOR; both are overwritten, as is the
    (3, count) scratch buffer work, so a call makes no new array.  S
    scales as w^(1 - 1/s), without bound as w -> 0, so at w = 0 the factor
    sqrt(2 S) is 2^(32 (1/s - 1)) times its value at w = 1, finite.  With
    the angle v = pi (1 - u), the textbook scaling
    log(2 S) = log sin(s v) + (1/s - 1) log(sin((1 - s) v) / w)
    - log(sin v) / s + log(2 dt^(1/s)) is regrouped into two logs of ratios,
    log(2 S) = log(sin((1 - s) v) / (w sin v)) / s
    + log(w sin(s v) / sin((1 - s) v)) + log(2 dt^(1/s)),
    so no power of a small base can overflow near s = 1, as the textbook
    a^(1/(1-s)) does.  Each sine comes from the tangent of its half angle,
    sin x = 2 t / (1 + t^2) with t = tan(x / 2), because numpy (2.4, on
    AVX-512) vectorises float64 tan but evaluates sin element by element;
    the factors 2 cancel within each ratio.
    """
    a, b, scratch = work
    np.maximum(w, EXPONENTIAL_FLOOR, out=w)
    # v / 2 in (0, pi/2]: the left endpoint would make sin(s v)/sin(v) a 0/0,
    # while float pi/2 falls short of the pole, tan(pi/2) = 1.6e16, so the
    # ratios stay finite and positive without rejection.
    np.subtract(1.0, u, out=u)
    u *= 0.5 * math.pi
    np.multiply(u, 1.0 - s, out=a)
    _half_sine(np.tan(a, out=a), scratch)
    np.multiply(u, s, out=b)
    _half_sine(np.tan(b, out=b), scratch)
    b *= w
    b /= a
    _half_sine(np.tan(u, out=u), scratch)
    u *= w
    a /= u
    np.log(a, out=a)
    a *= 0.5 / s
    np.log(b, out=b)
    b *= 0.5
    a += b
    a += 0.5 * (math.log(2.0) + math.log(dt) / s)
    z *= np.exp(a, out=a)[:, None]


def _half_sine(t: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """sin(x) / 2 = t / (1 + t^2) from t = tan(x / 2), in place.

    t lies in (0, 1.7e16] for x / 2 in (0, pi/2], so t^2 stays finite."""
    np.multiply(t, t, out=scratch)
    scratch += 1.0
    t /= scratch
    return t


def _wrap(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Reduce x into [0, 1) in place; bit for bit x %= 1.0.  scratch, if
    given, is a buffer shaped like x that takes floor(x)."""
    x -= np.floor(x, out=scratch)
    # r - floor(r) rounds up to 1.0 for r just below zero; keep [0, 1) half-open.
    x[x >= 1.0] -= 1.0
    return x


class _Stencil:
    """Cloud-in-cell stencil for `count` positions on a grid, in buffers it owns.

    A march keeps one per block, so its steps make no new arrays: a block's
    arrays are 128 KiB (16,384 floats), glibc's default mmap threshold, and
    at that size fresh arrays on every step cost more in page faults than
    the stencil's arithmetic.
    """

    def __init__(self, grid: SpectralGrid, count: int):
        self.grid = grid
        dim, n_corners = grid.dim, 2**grid.dim
        self._nodes = np.empty((2, count, dim), dtype=np.intp)
        self._axis_weights = np.empty((2, count, dim))
        self._index = np.empty((n_corners, count), dtype=np.intp)
        self._weight = np.empty((n_corners, count))
        self._sample = np.empty(count)

    def corners(self, positions: np.ndarray) -> list:
        """(index, weight) for each cell corner, as views of the buffers.

        index is the (N,) flat C-order node number of the corner and weight
        its (N,) multilinear weight, for each position; corners come in
        itertools.product((0, 1), repeat=dim) order.  Per axis there is one
        floor and one fraction, and as n is a power of two, & (n - 1) wraps
        a node index onto the torus (floor(x n) = n included)."""
        n = self.grid.n
        (lo, hi), (w_lo, frac) = self._nodes, self._axis_weights
        np.multiply(positions, n, out=frac)
        np.floor(frac, out=lo, casting="unsafe")
        frac -= lo
        np.subtract(1.0, frac, out=w_lo)
        lo &= n - 1
        np.add(lo, 1, out=hi)
        hi &= n - 1
        out = []
        for k, corner in enumerate(itertools.product((0, 1), repeat=self.grid.dim)):
            index, weight = self._nodes[corner[0], :, 0], self._axis_weights[corner[0], :, 0]
            for ax in range(1, self.grid.dim):
                index = np.multiply(index, n, out=self._index[k])
                index += self._nodes[corner[ax], :, ax]
                weight = np.multiply(weight, self._axis_weights[corner[ax], :, ax], out=self._weight[k])
            out.append((index, weight))
        return out

    def interpolate(self, field: np.ndarray, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Multilinear periodic interpolation of a (ncomp, *shape) field into
        out (N, ncomp), gathered from the flattened field."""
        corners = self.corners(positions)
        sample = self._sample
        for c, values in enumerate(field.reshape(field.shape[0], -1)):
            (index, weight), *rest = corners
            # the indices are in range by construction; mode "raise" would
            # gather through a temporary before filling out
            np.multiply(weight, values.take(index, out=sample, mode="clip"), out=out[:, c])
            for index, weight in rest:
                values.take(index, out=sample, mode="clip")
                sample *= weight
                out[:, c] += sample
        return out


def sample_positions(m0: GridMeasure, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count positions from a grid density.

    d = 1 inverts the CDF of the cell masses, each spread uniformly over
    the cell [x_i - dx/2, x_i + dx/2) centred on node x_i, where m_i is the
    density's value; d = 2 rejects uniform candidates against the bilinear
    interpolant (nodal max is a valid envelope for a convex combination of
    nodal values).
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    grid = m0.grid
    if grid.dim == 1:
        cell_mass = m0.values * grid.dx
        cum = np.cumsum(cell_mass)
        cell_mass = cell_mass / cum[-1]
        cum = cum / cum[-1]
        draws = rng.random(count)
        idx = np.searchsorted(cum, draws, side="right")
        idx = np.minimum(idx, grid.n - 1)
        prev = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        width = cell_mass[idx]
        frac = np.where(width > 0.0, (draws - prev) / np.where(width > 0, width, 1.0), 0.5)
        return _wrap(((idx + frac - 0.5) * grid.dx).reshape(-1, 1))
    envelope = float(m0.values.max())
    density = m0.values[None]
    out = np.empty((count, grid.dim))
    filled = 0
    while filled < count:
        batch = 2 * (count - filled) + 16
        candidates = rng.random((batch, grid.dim))
        stencil = _Stencil(grid, batch)
        local = stencil.interpolate(density, candidates, np.empty((batch, 1)))[:, 0]
        keep = candidates[rng.random(batch) * envelope <= local]
        take = keep[: count - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    return out


def simulate_sde(
    b_path: np.ndarray | None,
    m0: GridMeasure,
    n_particles: int,
    time_grid: TimeGrid,
    seed: int = 0,
    jumps: bool = True,
    store_stride: int = 1,
) -> ParticlePath:
    """Euler-Maruyama with exact stable jumps: X += b(X, t) dt + J, wrapped.

    b_path is the nodal drift at every time level, shape
    (n_steps + 1, dim, *grid.shape); None means zero drift, and the march
    skips the drift step.  Initial positions are drawn from m0 by
    default_rng(seed).  store_stride keeps every k-th level (it must divide
    n_steps) to bound memory on long runs.

    The ensemble is cut into blocks of MIN_BLOCK particles (the last one
    takes the rest).  Block k draws its increments from the k-th child of
    SeedSequence(seed).spawn(n_blocks), step after step exactly as
    sample_stable_increment(s, dt, dim, default_rng(child), size=block)
    would: one uniform and one exponential per particle and step, and in
    d >= 2 also d Gaussians.  Each block marches through the whole horizon
    in one pool task, so the result does not depend on the worker count.
    """
    grid = m0.grid
    n_steps = time_grid.n_steps
    if store_stride < 1 or n_steps % store_stride != 0:
        raise ValueError(
            f"store_stride must divide n_steps, got {store_stride} for {n_steps}"
        )
    if b_path is not None:
        b_path = checked_drift_path(b_path, time_grid, grid)
    positions = np.empty((n_steps // store_stride + 1, n_particles, grid.dim))
    positions[0] = sample_positions(m0, n_particles, np.random.default_rng(seed))
    dt = time_grid.dt

    def march(lo: int, hi: int, stream: np.random.SeedSequence) -> None:
        # The block owns its positions and draw buffers; it draws as
        # sample_stable_increment does, through the same _draw_increments.
        rng = np.random.default_rng(stream)
        x = positions[0, lo:hi].copy()
        u, w, *work = np.empty((5, hi - lo))
        z = np.empty(x.shape)  # the drift step, then the jump, then floor(x)
        stencil = _Stencil(grid, hi - lo)
        for j in range(n_steps):
            if b_path is not None:
                stencil.interpolate(b_path[j], x, z)
                z *= dt
                x += z
            if jumps:
                _draw_increments(rng, u, w, z, grid.s, dt, work)
                x += z
            _wrap(x, z)
            if (j + 1) % store_stride == 0:
                positions[(j + 1) // store_stride, lo:hi] = x

    bounds = list(range(0, n_particles, MIN_BLOCK)) + [n_particles]
    blocks = list(zip(bounds, bounds[1:], np.random.SeedSequence(seed).spawn(len(bounds) - 1)))
    workers = _worker_count()
    if workers < 2 or len(blocks) < 2:
        for block in blocks:
            march(*block)
    else:
        futures = [_pool(workers).submit(march, *block) for block in blocks]
        wait(futures)  # no block may still write when an error propagates
        for future in futures:
            future.result()
    times = time_grid.times()[::store_stride]
    return ParticlePath(times=times, positions=positions, grid=grid)


def empirical_measure(positions: np.ndarray, grid: SpectralGrid) -> GridMeasure:
    """Cloud-in-cell deposition of (N, dim) positions onto the grid, unit mass.

    Coordinates outside [0, 1) wrap onto the torus."""
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ValueError(f"positions must be (N, {grid.dim}), got {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("need at least one particle")
    if not np.all(np.isfinite(pts)):
        raise ValueError("positions contain non-finite entries")
    # the stencil wraps node indices, which a huge coordinate overflows
    if pts.min() < 0.0 or pts.max() >= 1.0:
        pts = _wrap(pts.copy())
    corners = _Stencil(grid, pts.shape[0]).corners(pts)
    index, weight = (np.concatenate(part) for part in zip(*corners))
    # bincount adds in input order, corner after corner, so the sums are
    # those of an in-order scatter-add
    weights = np.bincount(index, weight, minlength=grid.n**grid.dim).reshape(grid.shape)
    return GridMeasure.normalized(grid, weights / (pts.shape[0] * grid.dx**grid.dim))


@dataclass(frozen=True)
class HolderReport:
    """Outcome of the path-regularity certificate.

    distances[k-1] is the worst W1 over all stored pairs separated by k
    strides; the bound checked is b_sup*gap + slack*C*sqrt(gap) + floor
    with C fitted (slack-free) on the coarsest half of the gaps.  exponent
    is the log-log slope over the jump-dominated gaps, nan when fewer than
    three of them rise above the fit threshold.
    """

    gaps: np.ndarray
    distances: np.ndarray
    noise_floor: float
    drift_bound: float
    fitted_constant: float
    slack: float
    exponent: float
    exponent_points: int
    passed: bool


def holder_wasserstein_check(path: ParticlePath, b_sup: float) -> HolderReport:
    """Measure W1 regularity in time of the empirical flow.

    Checks W1(m(t0), m(t1)) <= b_sup |t1 - t0| + HOLDER_SLACK * C
    sqrt(|t1 - t0|) + floor at every stored gap whose distance exceeds the
    Monte-Carlo noise floor 2/sqrt(N), with C fitted on the coarsest half
    of the gaps so the fine half genuinely tests the square-root scaling.
    """
    if b_sup < 0.0:
        raise ValueError(f"b_sup must be nonnegative, got {b_sup}")
    n_gaps = len(path.times) - 1
    if n_gaps + 1 < 8:
        raise ValueError(f"need at least 8 time samples, got {n_gaps + 1}")
    spacings = np.diff(path.times)
    stride = float(spacings[0])
    if np.max(np.abs(spacings - stride)) > 1e-12 * path.times[-1]:
        raise ValueError("stored times must be uniformly spaced")
    snapshots = np.stack(
        [empirical_measure(path.positions[j], path.grid).values for j in range(n_gaps + 1)]
    )
    gaps = stride * np.arange(1, n_gaps + 1)
    marginals = coordinate_marginals(GridMeasure.view(path.grid, snapshots))

    def gap_w1(k: int) -> float:
        """Worst W1 over the stored pairs k strides apart, in one call: the
        snapshots' axis is the second to last, after any marginal axis."""
        return float(np.max(wasserstein_1d(
            GridMeasure.view(marginals.grid, marginals.values[..., :-k, :]),
            GridMeasure.view(marginals.grid, marginals.values[..., k:, :]),
        )))

    distances = np.array([gap_w1(k) for k in range(1, n_gaps + 1)])
    floor = 2.0 / math.sqrt(path.n_particles)
    coarse = gaps >= gaps[n_gaps // 2]
    fitted = max(
        float(np.max((distances[coarse] - b_sup * gaps[coarse] - floor) / np.sqrt(gaps[coarse]))),
        0.0,
    )
    bound = b_sup * gaps + HOLDER_SLACK * fitted * np.sqrt(gaps) + floor
    active = distances > floor
    passed = bool(np.all(distances[active] <= bound[active] * (1.0 + 1e-12)))
    regime = (distances >= NOISE_FLOOR_SCALE * floor) & (b_sup * gaps <= 0.5 * distances)
    points = int(regime.sum())
    if points >= 3:
        exponent = float(np.polyfit(np.log(gaps[regime]), np.log(distances[regime]), 1)[0])
    else:
        exponent = float("nan")
    return HolderReport(
        gaps=gaps,
        distances=distances,
        noise_floor=floor,
        drift_bound=float(b_sup),
        fitted_constant=fitted,
        slack=HOLDER_SLACK,
        exponent=exponent,
        exponent_points=points,
        passed=passed,
    )
