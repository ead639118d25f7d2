"""Probability measures on the grid and transport distances between them.

Two measure types appear throughout: plain densities on the spatial grid,
and joint state-control measures stored in graph form (a density together
with the control field on its support).  Distances: exact Wasserstein on
the circle via the cumulative-distribution offset formula, and an
entropy-debiased Sinkhorn solver for everything else.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from .errors import (
    ConvergenceError,
    DegenerateMeasureError,
    GridMismatchError,
    InvalidMeasureError,
    MassMismatchError,
)
from .spectral import SpectralGrid, TimeGrid, periodic_delta

MASS_TOL = 1e-10
CLIP_FLOOR = 1e-15


def _checked_density(grid: SpectralGrid, values, lead: tuple[int, ...]) -> np.ndarray:
    """Read-only copy of values, shape lead + grid.shape, once every slice
    is checked finite, nonnegative and of unit mass."""
    values = np.asarray(values, dtype=float)
    if values.shape != lead + grid.shape:
        raise GridMismatchError(
            f"density shape {values.shape} does not match {lead + grid.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise InvalidMeasureError("density contains non-finite values")
    if np.any(values < 0.0):
        raise InvalidMeasureError(
            f"density has negative entries (min {values.min():.3e})"
        )
    mass = np.sum(values.reshape(lead + (-1,)), axis=-1) * grid.dx**grid.dim
    off = np.abs(mass - 1.0) > MASS_TOL
    if np.any(off):
        where = f"{mass[off].flat[0]} (slice {np.argmax(off)})"
        raise InvalidMeasureError(f"total mass {where} deviates from 1 beyond {MASS_TOL}")
    values = values.copy()
    values.setflags(write=False)
    return values


def _checked_control(grid: SpectralGrid, density: np.ndarray, alpha) -> np.ndarray:
    """Read-only copy of alpha, shape (*lead, dim, *grid.shape) for a density
    of shape (*lead, *grid.shape), once it is checked finite on the support."""
    alpha = np.asarray(alpha, dtype=float)
    expected = density.shape[: density.ndim - grid.dim] + (grid.dim,) + grid.shape
    if alpha.shape != expected:
        raise GridMismatchError(
            f"control field shape {alpha.shape} does not match {expected}"
        )
    if not np.all(np.all(np.isfinite(alpha), axis=-(grid.dim + 1)) | (density <= 0.0)):
        raise InvalidMeasureError("control field is non-finite on the support")
    alpha = alpha.copy()
    alpha.setflags(write=False)
    return alpha


class GridMeasure:
    """Nonnegative density on a spectral grid with unit total mass."""

    def __init__(self, grid: SpectralGrid, values: np.ndarray):
        self.values = _checked_density(grid, values, ())
        self.grid = grid

    @classmethod
    def uniform(cls, grid: SpectralGrid) -> "GridMeasure":
        return cls(grid, np.ones(grid.shape))

    @classmethod
    def normalized(cls, grid: SpectralGrid, raw: np.ndarray) -> "GridMeasure":
        """Clip tiny negative noise, then rescale to unit mass."""
        raw = np.asarray(raw, dtype=float)
        clipped = np.clip(raw, 0.0, None)
        mass = np.sum(clipped) * grid.dx**grid.dim
        if mass <= 0.0:
            raise InvalidMeasureError("cannot normalize a density with no positive part")
        return cls(grid, clipped / mass)

    @classmethod
    def view(cls, grid: SpectralGrid, row: np.ndarray) -> "GridMeasure":
        """Read-only view of a row of a checked (or solver-built) stack; not checked again."""
        m = object.__new__(cls)
        m.grid, m.values = grid, np.asarray(row).view()
        m.values.setflags(write=False)
        return m

    @property
    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.dx**self.grid.dim)

    def node_weights(self) -> np.ndarray:
        """Probability weight carried by each node."""
        return self.values * self.grid.dx**self.grid.dim

    def expectation(self, f: np.ndarray) -> float:
        return float(np.sum(f * self.values) * self.grid.dx**self.grid.dim)


class _JointFields:
    """What a model's field forms read of a joint measure, one slice or a
    path: grid, density, alpha, mean_control() and with_alpha()."""

    def mean_control(self) -> np.ndarray:
        """int alpha dmu, shape (dim,) per slice."""
        grid = self.grid
        w = np.expand_dims(self.density * grid.dx**grid.dim, -(grid.dim + 1))
        return np.sum((self.alpha * w).reshape(self.alpha.shape[: -grid.dim] + (-1,)), axis=-1)

    def with_alpha(self, alpha: np.ndarray):
        """The same density with another control; only the control is checked."""
        joint = copy.copy(self)
        joint.alpha = _checked_control(self.grid, self.density, alpha)
        return joint


class JointControlMeasure(_JointFields):
    """Joint state-control measure in graph form (density, control field).

    Represents (id, alpha)#m: the state marginal is ``m`` and the control
    at node x is alpha(x).  The control must be finite wherever the density
    is positive; elsewhere it is unconstrained but stored as given.
    """

    def __init__(self, m: GridMeasure, alpha: np.ndarray):
        self.alpha = _checked_control(m.grid, m.values, alpha)
        self.grid, self.density = m.grid, m.values

    @property
    def m(self) -> GridMeasure:
        return GridMeasure.view(self.grid, self.density)

    def control_magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.alpha**2, axis=0))


class MeasurePath(_JointFields):
    """Joint measures at every time node as stacks: ``density`` (n_steps + 1,
    *grid.shape) and ``alpha`` (n_steps + 1, dim, *grid.shape), checked once
    with the per-slice rules of GridMeasure and JointControlMeasure."""

    def __init__(
        self, time_grid: TimeGrid, grid: SpectralGrid, density: np.ndarray, alpha: np.ndarray
    ):
        self.time_grid = time_grid
        self.grid = grid
        self.density = _checked_density(grid, density, (time_grid.n_steps + 1,))
        self.alpha = _checked_control(grid, self.density, alpha)

    def __len__(self) -> int:
        return self.density.shape[0]

    def __getitem__(self, j: int) -> JointControlMeasure:
        return JointControlMeasure(GridMeasure.view(self.grid, self.density[j]), self.alpha[j])


# -- moments ---------------------------------------------------------------


def lambda_q(mu: JointControlMeasure, q_tilde: float) -> float:
    """Control moment ( int |alpha|^{q_tilde} dmu )^{1/q_tilde}."""
    if q_tilde < 1.0:
        raise ValueError(f"moment exponent must be >= 1, got {q_tilde}")
    mag = mu.control_magnitude()
    return float(mu.m.expectation(mag**q_tilde) ** (1.0 / q_tilde))


def lambda_inf(mu: JointControlMeasure, support_threshold: float = 0.0) -> float:
    """Largest control magnitude on the thresholded support of the density."""
    mask = mu.m.values > support_threshold
    if not np.any(mask):
        raise DegenerateMeasureError(
            f"no nodes with density above threshold {support_threshold}"
        )
    return float(np.max(mu.control_magnitude()[mask]))


# -- exact transport on the circle ----------------------------------------


def coordinate_marginals(m: GridMeasure) -> list[GridMeasure]:
    """The one-dimensional marginals of m, one per axis; [m] itself in d = 1.

    The max of exact W1 over these is the W1 figure used in d = 2; it is
    a lower bound on the true W1 there."""
    grid = m.grid
    if grid.dim == 1:
        return [m]
    line = SpectralGrid(dim=1, n=grid.n, s=grid.s)
    return [
        GridMeasure(line, np.sum(m.values, axis=1 - axis) * grid.dx)
        for axis in range(2)
    ]


def wasserstein_1d(m1: GridMeasure, m2: GridMeasure, r: float = 1.0) -> float:
    """Exact W_r between densities on the 1-D torus.

    Uses the circle formula W_r^r = min_c int_0^1 |F1 - F2 - c|^r dx with
    F the cumulative distributions; for r = 1 the optimal offset is the
    median of F1 - F2.
    """
    if m1.grid.dim != 1 or m2.grid.dim != 1:
        raise GridMismatchError("exact transport requires one-dimensional grids")
    if m1.grid.shape != m2.grid.shape:
        raise GridMismatchError("measures live on different grids")
    if r < 1.0:
        raise ValueError(f"transport exponent must be >= 1, got {r}")
    w1 = m1.node_weights()
    w2 = m2.node_weights()
    if abs(w1.sum() - w2.sum()) > 1e-8:
        raise MassMismatchError(
            f"mass mismatch {abs(w1.sum() - w2.sum()):.3e} exceeds 1e-8"
        )
    diff = np.cumsum(w1 - w2)
    if r == 1.0:
        c = float(np.median(diff))
        return float(np.sum(np.abs(diff - c)) * m1.grid.dx)

    def cost(c: float) -> float:
        return float(np.sum(np.abs(diff - c) ** r))

    res = minimize_scalar(
        cost, bounds=(float(diff.min()), float(diff.max())), method="bounded",
        options={"xatol": 1e-13},
    )
    return float((res.fun * m1.grid.dx) ** (1.0 / r))


# -- entropic transport ----------------------------------------------------


def _sinkhorn_log(
    a: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    eps: float,
    max_iterations: int,
    marginal_tol: float,
) -> float:
    """Log-domain Sinkhorn; returns the transport cost <pi, C>.

    Converged when the L1 defect of the row marginal drops below
    ``marginal_tol``; raises otherwise with the defect attached.
    Symmetric problems (equal weights, symmetric cost) take the averaged
    update f <- (f + T f)/2: the plain alternating iteration oscillates
    there and stalls orders of magnitude above the tolerance.
    """
    log_a = np.log(a)
    log_b = np.log(b)
    symmetric = (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(cost, cost.T)
    )
    f = np.zeros_like(a)
    g = np.zeros_like(b)
    residual = np.inf
    for it in range(1, max_iterations + 1):
        if symmetric:
            upd = -eps * logsumexp((f[None, :] - cost) / eps + log_a[None, :], axis=1)
            f = 0.5 * (f + upd)
            g = f
        else:
            f = -eps * logsumexp((g[None, :] - cost) / eps + log_b[None, :], axis=1)
            g = -eps * logsumexp((f[:, None] - cost) / eps + log_a[:, None], axis=0)
        if it % 5 == 0 or it == max_iterations:
            log_pi = (f[:, None] + g[None, :] - cost) / eps + log_a[:, None] + log_b[None, :]
            row = np.exp(logsumexp(log_pi, axis=1))
            residual = float(np.sum(np.abs(row - a)))
            if residual < marginal_tol:
                pi = np.exp(log_pi)
                return float(np.sum(pi * cost))
    raise ConvergenceError(
        f"Sinkhorn did not reach marginal defect {marginal_tol} in "
        f"{max_iterations} iterations (residual {residual:.3e})",
        residual=residual,
    )


def _support_weights(m: GridMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Node weights with sub-threshold mass removed, plus support indices."""
    w = m.node_weights().ravel()
    w = np.where(w < CLIP_FLOOR, 0.0, w)
    total = w.sum()
    if total <= 0.0:
        raise DegenerateMeasureError("measure has no mass above the clip floor")
    w = w / total
    idx = np.nonzero(w)[0]
    return w[idx], idx


def _node_coordinates(grid: SpectralGrid) -> np.ndarray:
    return grid.nodes().reshape(grid.dim, -1).T  # (n^d, dim)


def wasserstein_sinkhorn(
    m1: GridMeasure,
    m2: GridMeasure,
    r: float = 1.0,
    eps: float | None = None,
    max_iterations: int = 10_000,
    marginal_tol: float = 1e-9,
) -> float:
    """Debiased entropic W_r estimate between grid densities.

    The Sinkhorn divergence S = OT(a,b) - (OT(a,a) + OT(b,b))/2 removes
    the leading entropic bias; the result is clipped at zero before the
    1/r root.  Default regularization is 1e-2 times diameter^r.
    """
    if m1.grid.shape != m2.grid.shape or m1.grid.dim != m2.grid.dim:
        raise GridMismatchError("measures live on different grids")
    if r < 1.0:
        raise ValueError(f"transport exponent must be >= 1, got {r}")
    grid = m1.grid
    if eps is None:
        eps = 1e-2 * (np.sqrt(grid.dim) / 2.0) ** r

    a, ia = _support_weights(m1)
    b, ib = _support_weights(m2)
    xs = _node_coordinates(grid)
    x1, x2 = xs[ia], xs[ib]

    def ground(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        delta = periodic_delta(u[:, None, :], v[None, :, :])
        return np.sqrt(np.sum(delta**2, axis=2)) ** r

    ot_ab = _sinkhorn_log(a, b, ground(x1, x2), eps, max_iterations, marginal_tol)
    ot_aa = _sinkhorn_log(a, a, ground(x1, x1), eps, max_iterations, marginal_tol)
    ot_bb = _sinkhorn_log(b, b, ground(x2, x2), eps, max_iterations, marginal_tol)
    val = max(ot_ab - 0.5 * (ot_aa + ot_bb), 0.0)
    return float(val ** (1.0 / r))


def joint_wasserstein(
    mu1: JointControlMeasure,
    mu2: JointControlMeasure,
    r: float = 1.0,
    eps: float | None = None,
    max_iterations: int = 10_000,
    marginal_tol: float = 1e-9,
) -> float:
    """Debiased entropic W_r between joint state-control measures.

    Ground cost dist_torus(x, y)^r + |alpha1(x) - alpha2(y)|^r on the
    product of the supports.
    """
    if mu1.grid.shape != mu2.grid.shape or mu1.grid.dim != mu2.grid.dim:
        raise GridMismatchError("measures live on different grids")
    if r < 1.0:
        raise ValueError(f"transport exponent must be >= 1, got {r}")
    grid = mu1.grid

    a, ia = _support_weights(mu1.m)
    b, ib = _support_weights(mu2.m)
    xs = _node_coordinates(grid)
    al1 = mu1.alpha.reshape(grid.dim, -1).T[ia]
    al2 = mu2.alpha.reshape(grid.dim, -1).T[ib]
    x1, x2 = xs[ia], xs[ib]

    if eps is None:
        spread = float(np.max(np.linalg.norm(al1, axis=1), initial=0.0)
                       + np.max(np.linalg.norm(al2, axis=1), initial=0.0))
        eps = 1e-2 * (np.sqrt(grid.dim) / 2.0 + spread) ** r

    def joint_cost(u, cu, v, cv):
        delta = periodic_delta(u[:, None, :], v[None, :, :])
        dx = np.sqrt(np.sum(delta**2, axis=2))
        da = np.sqrt(np.sum((cu[:, None, :] - cv[None, :, :]) ** 2, axis=2))
        return dx**r + da**r

    ot_ab = _sinkhorn_log(a, b, joint_cost(x1, al1, x2, al2), eps, max_iterations, marginal_tol)
    ot_aa = _sinkhorn_log(a, a, joint_cost(x1, al1, x1, al1), eps, max_iterations, marginal_tol)
    ot_bb = _sinkhorn_log(b, b, joint_cost(x2, al2, x2, al2), eps, max_iterations, marginal_tol)
    val = max(ot_ab - 0.5 * (ot_aa + ot_bb), 0.0)
    return float(val ** (1.0 / r))


# -- structural pairing ----------------------------------------------------


def monotonicity_pairing(model, mu1: JointControlMeasure, mu2: JointControlMeasure) -> float:
    """Lasry-Lions pairing int (L(x,a,mu1) - L(x,a,mu2)) d(mu1 - mu2).

    Evaluated on the grid as
    sum_x [L(x,alpha1,mu1) - L(x,alpha1,mu2)] m1 dx^d
    - sum_x [L(x,alpha2,mu1) - L(x,alpha2,mu2)] m2 dx^d.
    Nonnegative for monotone running costs.
    """
    if mu1.grid is not mu2.grid:
        raise GridMismatchError("pairing requires measures on the same grid object")
    w1 = mu1.m.node_weights()
    w2 = mu2.m.node_weights()
    l1_at1 = model.lagrangian_field(mu1.alpha, mu1)
    l1_at2 = model.lagrangian_field(mu1.alpha, mu2)
    l2_at1 = model.lagrangian_field(mu2.alpha, mu1)
    l2_at2 = model.lagrangian_field(mu2.alpha, mu2)
    return float(np.sum((l1_at1 - l1_at2) * w1) - np.sum((l2_at1 - l2_at2) * w2))
