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

The particles never interact, so the ensemble is cut into fixed blocks
of MIN_BLOCK particles, a partition that depends only on the particle
count.  Each block draws from its own child stream, spawned from the
run's seed, and is marched through the whole horizon in buffers
allocated once, so positions are the same bits at any worker count.
The blocks are split into as many contiguous shares as there are
workers: the caller marches the first, and one child process from
multiprocessing's fork context marches each other share, so one worker
forks nothing.  Every share stores its levels in one shared anonymous
mapping, which the returned positions view, so the positions are held
once and nothing is copied out once the children are joined.  Threads
would hand the GIL to each other between numpy calls; processes do not
share one.  The drift path and the mapping, initial positions included,
reach the children by fork inheritance, so nothing is pickled, and a
child runs only numpy ufuncs and its own Generator on buffers it
allocates after the fork, never BLAS.  Forking is POSIX-only: without
os.fork one worker marches every block.  Python 3.12 and later warn
(DeprecationWarning) when os.fork, which the fork context calls, runs
while another thread exists, such as numpy's BLAS thread pool.

Deposition and the initial draw work MIN_BLOCK positions at a time, so
neither makes a temporary that grows with the ensemble.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .errors import FmfgcError
from .fokker_planck import checked_drift_path
from .measures import GridMeasure, coordinate_marginals, wasserstein_1d
from .spectral import SpectralGrid, TimeGrid

#: Everything below twice the Monte-Carlo floor is treated as noise when
#: fitting the jump-regime scaling exponent.
NOISE_FLOOR_SCALE = 2.0

#: The Hoelder check's factor on the fitted square-root term.
HOLDER_SLACK = 2.0

#: Particles per block: the unit of work and of random streams in the march.
#: An ensemble of one block is marched by the caller alone.
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


def _march_shares(march, shares: list) -> None:
    """Run march(lo, hi, stream) on every block of one or more shares.

    The caller marches shares[0]; each later share, if any, is marched by
    a child process of its own from multiprocessing's fork context, which
    flushes the caller's stdout and stderr before it forks and prints a
    child's traceback to stderr.  Every child that started is joined
    before this returns or raises.  An exception in the caller's share, a
    child that exits non-zero, one killed by a signal and one reaped
    elsewhere, whose exit status is lost, each raise one FmfgcError that
    names every failed share, chained to the caller's exception.
    """
    # imported here, so that `import fmfgc` does not pay its 10 ms
    import multiprocessing

    def name(k: int) -> str:
        return f"share {k} of {len(shares)} (particles {shares[k][0][0]}-{shares[k][-1][1]})"

    def run(share: list) -> None:
        for block in share:
            march(*block)

    fork = multiprocessing.get_context("fork")
    children, failed, cause = [], [], None
    try:
        for share in shares[1:]:
            child = fork.Process(target=run, args=(share,))
            child.start()
            children.append(child)
        try:
            run(shares[0])
        except Exception as exc:
            failed.append(f"{name(0)} raised {exc!r}")
            cause = exc
    finally:
        for k, child in enumerate(children, start=1):
            child.join()
            code = child.exitcode
            if code is None:
                failed.append(f"{name(k)} left no exit status")
            elif code > 0:
                failed.append(f"{name(k)} exited {code}")
            elif code < 0:
                failed.append(f"{name(k)} was killed by signal {-code}")
    if failed:
        raise FmfgcError("particle march failed: " + "; ".join(failed)) from cause


@dataclass(frozen=True)
class ParticlePath:
    """Time-indexed ensemble produced by the SDE stepper.

    positions has shape (stored_steps + 1, N, dim); times holds the matching
    physical times.  The grid is the one the drift lived on, kept around so
    deposition and the path certificate use the same resolution.  workers
    is the number of processes that marched the ensemble.
    """

    times: np.ndarray
    positions: np.ndarray
    grid: SpectralGrid
    workers: int = 1

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
    E[exp(i xi . J)] = E[exp(-S |xi|^2)] (_cms_block).  dt must be finite
    and positive.  Returns shape (size, dim).
    """
    if not 0.5 < s < 1.0:
        raise ValueError(f"stable order requires s in (1/2, 1), got {s}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
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
    """Cloud-in-cell stencil for up to `count` positions on a grid, in
    buffers it owns.  Its corners come in one form, the (2^d, N) stacks of
    corners(), which the drift gather (interpolate) and the deposit
    (empirical_measure) both read.

    A march keeps one per block, so its steps make no new arrays: a block's
    arrays are 128 KiB (16,384 floats), glibc's default mmap threshold, and
    at that size fresh arrays on every step cost more in page faults than
    the stencil's arithmetic.  A deposit keeps one per call and runs it
    over one block of positions after another, the last one shorter: each
    buffer is flat, and a shorter block works in its head.
    """

    def __init__(self, grid: SpectralGrid, count: int):
        self.grid = grid
        dim = grid.dim
        # in d = 1 the corners are views of the per-axis buffers
        n_corners = 2**dim if dim > 1 else 0
        self._nodes = np.empty(2 * count * dim, dtype=np.intp)
        self._axis_weights = np.empty(2 * count * dim)
        self._index = np.empty(n_corners * count, dtype=np.intp)
        self._weight = np.empty(n_corners * count)
        self._sample = np.empty(count)

    def corners(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(index, weight), each (2^d, N): row k is the corner that
        itertools.product((0, 1), repeat=dim) gives k-th, index its flat
        C-order node number and weight its multilinear weight, for each
        position.  Both are views of the buffers: of the per-axis ones in
        d = 1, of the corner ones otherwise.  Per axis there is one floor
        and one fraction, and as n is a power of two, & (n - 1) wraps a
        node index onto the torus (floor(x n) = n included)."""
        n, dim = self.grid.n, self.grid.dim
        count = positions.shape[0]
        nodes = self._nodes[: 2 * count * dim].reshape(2, count, dim)
        axis_weights = self._axis_weights[: 2 * count * dim].reshape(2, count, dim)
        (lo, hi), (w_lo, frac) = nodes, axis_weights
        np.multiply(positions, n, out=frac)
        np.floor(frac, out=lo, casting="unsafe")
        frac -= lo
        np.subtract(1.0, frac, out=w_lo)
        lo &= n - 1
        np.add(lo, 1, out=hi)
        hi &= n - 1
        if dim == 1:
            return nodes[..., 0], axis_weights[..., 0]
        indices = self._index[: 2**dim * count].reshape(-1, count)
        weights = self._weight[: 2**dim * count].reshape(-1, count)
        for k, corner in enumerate(itertools.product((0, 1), repeat=dim)):
            index, weight = nodes[corner[0], :, 0], axis_weights[corner[0], :, 0]
            for ax in range(1, dim):
                index = np.multiply(index, n, out=indices[k])
                index += nodes[corner[ax], :, ax]
                weight = np.multiply(weight, axis_weights[corner[ax], :, ax], out=weights[k])
        return indices, weights

    def interpolate(self, field: np.ndarray, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Multilinear periodic interpolation of a (ncomp, *shape) field into
        out (N, ncomp), gathered from the flattened field corner by corner."""
        index, weight = self.corners(positions)
        sample = self._sample[: positions.shape[0]]
        for c, values in enumerate(field.reshape(field.shape[0], -1)):
            # the indices are in range by construction; mode "raise" would
            # gather through a temporary before filling out
            np.multiply(weight[0], values.take(index[0], out=sample, mode="clip"), out=out[:, c])
            for corner_index, corner_weight in zip(index[1:], weight[1:]):
                values.take(corner_index, out=sample, mode="clip")
                sample *= corner_weight
                out[:, c] += sample
        return out


def sample_positions(m0: GridMeasure, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count positions from a grid density.

    Node i's cell, [x_i - dx/2, x_i + dx/2) along every axis, receives the
    cell mass m_i dx^d, spread uniformly over the cell, where m_i is the
    density's value at the node.  The draw inverts the CDF of the cell
    masses over the flattened (C-order) grid, MIN_BLOCK positions at a
    time: a block's B x dim uniforms are drawn straight into the result,
    the last uniform of each position picks its cell, and its place within
    that cell's mass sets the offset along the last axis; in d = 2 the
    first uniform sets the offset along the first axis.  The generator's
    uniform stream does not depend on how its draws are chunked, so
    neither do the positions.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    grid = m0.grid
    mass = (m0.values * grid.dx**grid.dim).ravel()
    cum = np.cumsum(mass)
    mass = mass / cum[-1]
    # below[i] is the mass of the cells before cell i and below[-1] = 1
    # exactly, so a uniform u in [0, 1) picks the cell with
    # below[cell] <= u < below[cell + 1], whose mass is positive
    below = np.concatenate(([0.0], cum / cum[-1]))
    out = np.empty((count, grid.dim))
    for lo in range(0, count, MIN_BLOCK):
        block = out[lo : lo + MIN_BLOCK]
        rng.random(out=block)
        last = block[:, -1]
        cell = np.searchsorted(below[1:], last, side="right")
        last -= below[cell]
        last /= mass[cell]
        if grid.dim == 2:
            first, cell = divmod(cell, grid.n)
            block[:, 0] += first
        last += cell
        block -= 0.5
        block *= grid.dx
        _wrap(block)
    return out


def simulate_sde(
    b_path: np.ndarray | None,
    m0: GridMeasure,
    n_particles: int,
    time_grid: TimeGrid,
    seed: int = 0,
    store_stride: int = 1,
) -> ParticlePath:
    """Euler-Maruyama with exact stable jumps: X += b(X, t) dt + J, wrapped.

    b_path is the nodal drift at every time level, shape
    (n_steps + 1, dim, *grid.shape); None means zero drift, and the march
    skips the drift step.  Every step draws and adds the jumps.  Initial
    positions are drawn from m0 by default_rng(seed).  store_stride keeps
    every k-th level (it must divide n_steps) to bound memory on long runs.

    The ensemble is cut into blocks of MIN_BLOCK particles (the last one
    takes the rest).  Block k draws its increments from the k-th child of
    SeedSequence(seed).spawn(n_blocks), step after step exactly as
    sample_stable_increment(s, dt, dim, default_rng(child), size=block)
    would: one uniform and one exponential per particle and step, and in
    d >= 2 also d Gaussians.  Each block marches through the whole horizon
    in one process, so the result does not depend on the worker count.

    The worker count is that of _worker_count, at most the block count, and
    1 without os.fork.  With w workers, block k goes to share j when
    cuts[j] <= k < cuts[j + 1], cuts[j] = j n_blocks // w; the caller
    marches share 0 and a child of the fork context each other share, so
    one worker forks nothing.  The returned positions are a view of one
    shared anonymous mapping, into which every share stores its levels, so
    nothing is copied out once the children are joined; a failed share
    raises FmfgcError (see _march_shares).
    """
    if n_particles < 1:
        raise ValueError(f"n_particles must be at least 1, got {n_particles}")
    grid = m0.grid
    n_steps = time_grid.n_steps
    if store_stride < 1 or n_steps % store_stride != 0:
        raise ValueError(
            f"store_stride must divide n_steps, got {store_stride} for {n_steps}"
        )
    if b_path is not None:
        b_path = checked_drift_path(b_path, time_grid, grid)
    bounds = list(range(0, n_particles, MIN_BLOCK)) + [n_particles]
    blocks = list(zip(bounds, bounds[1:], np.random.SeedSequence(seed).spawn(len(bounds) - 1)))
    workers = min(_worker_count(), len(blocks)) if hasattr(os, "fork") else 1
    cuts = [k * len(blocks) // workers for k in range(workers + 1)]
    shares = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    shape = (n_steps // store_stride + 1, n_particles, grid.dim)
    # every share, the caller's too, stores its levels in one shared
    # anonymous mapping, which positions views and keeps alive
    mapping = mmap.mmap(-1, math.prod(shape) * np.dtype(float).itemsize)
    positions = np.frombuffer(mapping, dtype=float).reshape(shape)
    positions[0] = sample_positions(m0, n_particles, np.random.default_rng(seed))
    dt = time_grid.dt

    def march(lo: int, hi: int, stream: np.random.SeedSequence) -> None:
        # The block owns its positions and draw buffers; it draws as
        # sample_stable_increment does, through the same _draw_increments.
        rng = np.random.default_rng(stream)
        stored = positions[:, lo:hi]
        x = stored[0].copy()
        u, w, *work = np.empty((5, hi - lo))
        z = np.empty(x.shape)  # the drift step, then the jump, then floor(x)
        stencil = _Stencil(grid, hi - lo)
        for j in range(n_steps):
            if b_path is not None:
                stencil.interpolate(b_path[j], x, z)
                z *= dt
                x += z
            _draw_increments(rng, u, w, z, grid.s, dt, work)
            x += z
            _wrap(x, z)
            if (j + 1) % store_stride == 0:
                stored[(j + 1) // store_stride] = x

    _march_shares(march, shares)
    times = time_grid.times()[::store_stride]
    return ParticlePath(times=times, positions=positions, grid=grid, workers=workers)


def empirical_measure(positions: np.ndarray, grid: SpectralGrid) -> GridMeasure:
    """Cloud-in-cell deposition of (N, dim) positions onto the grid, unit mass.

    Coordinates outside [0, 1) wrap onto the torus.  The positions are
    checked, wrapped and deposited MIN_BLOCK at a time through one
    stencil, so no temporary grows with N."""
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ValueError(f"positions must be (N, {grid.dim}), got {pts.shape}")
    count = pts.shape[0]
    if count < 1:
        raise ValueError("need at least one particle")
    block = min(count, MIN_BLOCK)
    stencil, wrapped = _Stencil(grid, block), np.empty((block, grid.dim))
    sums = np.zeros(grid.n**grid.dim)
    for lo in range(0, count, block):
        chunk = pts[lo : lo + block]
        least, most = chunk.min(), chunk.max()  # nan if any entry is
        if not (math.isfinite(least) and math.isfinite(most)):
            raise ValueError("positions contain non-finite entries")
        # the stencil wraps node indices, which a huge coordinate overflows
        if least < 0.0 or most >= 1.0:
            head = wrapped[: chunk.shape[0]]
            np.copyto(head, chunk)
            chunk = _wrap(head)
        index, weight = stencil.corners(chunk)
        # bincount adds in input order, corner after corner; the blocks'
        # sums add up in block order, so a node's total differs from a
        # whole-array bincount's by summation roundoff only
        sums += np.bincount(index.ravel(), weight.ravel(), minlength=sums.size)
    return GridMeasure.normalized(grid, sums.reshape(grid.shape) / (count * grid.dx**grid.dim))


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
    b_sup, the drift's sup norm, must be finite and nonnegative.
    """
    if not 0.0 <= b_sup < math.inf:
        raise ValueError(f"b_sup must be finite and nonnegative, got {b_sup}")
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
