"""Probability measures on the grid and the transport distance between them.

Two measure types appear throughout: plain densities on the spatial grid,
and joint state-control measures stored in graph form (a density together
with the control field on its support).  A MeasurePath holds a whole path
as stacks with time as the leading axis.  The constructors check what
callers pass in; what the solver derives from checked data (the slices of
a path, the rows of a density stack, the coordinate marginals) comes back
as read-only views that are not checked again; a view's stacks may be
broadcasts, such as the zero controls of the analytic base.  The moments
and W1 take one slice or a stack and return a float or one value per
slice.  The distance is exact W1 on the circle via the
cumulative-distribution offset formula; in d = 2 it is taken on the
coordinate marginals, stacked so that one call covers both.  The path
form of the monotonicity pairing runs over blocks of levels
(``SpectralGrid.level_blocks``), so its stacked controls and L fields
never span the whole path; each level's value is the one a whole-path
pass gives, to the bit.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import (
    DegenerateMeasureError,
    GridMismatchError,
    InvalidMeasureError,
    MassMismatchError,
)
from .spectral import SpectralGrid, TimeGrid

MASS_TOL = 1e-10


def _read_only_view(values) -> np.ndarray:
    view = np.asarray(values).view()
    view.setflags(write=False)
    return view


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
    mass = np.asarray(grid.integrate(values))
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


def checked_density_path(time_grid: TimeGrid, grid: SpectralGrid, density) -> np.ndarray:
    """Read-only copy of a density path, shape (n_steps + 1, *grid.shape),
    once every slice is checked as a GridMeasure's values are."""
    return _checked_density(grid, density, (time_grid.n_steps + 1,))


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
        mass = grid.integrate(clipped)
        if mass <= 0.0:
            raise InvalidMeasureError("cannot normalize a density with no positive part")
        return cls(grid, clipped / mass)

    @classmethod
    def view(cls, grid: SpectralGrid, values: np.ndarray) -> "GridMeasure":
        """Read-only view of a checked (or solver-built) density or stack of
        densities, such as one row of a path or the whole path; not checked again."""
        m = object.__new__(cls)
        m.grid, m.values = grid, _read_only_view(values)
        return m

    @property
    def mass(self) -> float:
        return self.grid.integrate(self.values)

    def node_weights(self) -> np.ndarray:
        """Probability weight carried by each node."""
        return self.values * self.grid.dx**self.grid.dim

    def expectation(self, f: np.ndarray) -> float:
        return self.grid.integrate(f * self.values)


class _JointFields:
    """What the moments and a model's field forms read of a joint measure,
    one slice or a path: grid, density, alpha, control_magnitude() and
    mean_control(); with_alpha_view() swaps in a control the solver built."""

    def control_magnitude(self) -> np.ndarray:
        """|alpha| at every node, per slice."""
        return np.sqrt(np.sum(self.alpha**2, axis=-(self.grid.dim + 1)))

    def mean_control(self) -> np.ndarray:
        """int alpha dmu, shape (dim,) per slice: one batched contraction of
        the controls with the density over the nodes.  einsum contracts
        without BLAS, so the sum order cannot depend on a BLAS thread count."""
        grid = self.grid
        lead = self.density.shape[: self.density.ndim - grid.dim]
        alpha = self.alpha.reshape(lead + (grid.dim, -1))
        density = self.density.reshape(lead + (-1,))
        return np.einsum("...cn,...n->...c", alpha, density) * grid.dx**grid.dim

    def with_alpha_view(self, alpha: np.ndarray):
        """The same density with a solver-built control, such as a fixed-point
        iterate, as a read-only view; not checked again."""
        joint = copy.copy(self)
        joint.alpha = _read_only_view(alpha)
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


class MeasurePath(_JointFields):
    """Joint measures at every time node as stacks: ``density`` (n_steps + 1,
    *grid.shape) and ``alpha`` (n_steps + 1, dim, *grid.shape), checked once
    with the per-slice rules of GridMeasure and JointControlMeasure."""

    def __init__(
        self, time_grid: TimeGrid, grid: SpectralGrid, density: np.ndarray, alpha: np.ndarray
    ):
        self.time_grid = time_grid
        self.grid = grid
        self.density = checked_density_path(time_grid, grid, density)
        self.alpha = _checked_control(grid, self.density, alpha)

    @classmethod
    def view(
        cls, time_grid: TimeGrid, grid: SpectralGrid, density: np.ndarray, alpha: np.ndarray
    ) -> "MeasurePath":
        """Read-only view of solver-built stacks, such as a march's density
        path paired with the last sweep's controls; not checked again."""
        path = object.__new__(cls)
        path.time_grid, path.grid = time_grid, grid
        path.density, path.alpha = _read_only_view(density), _read_only_view(alpha)
        return path

    def levels(self, block: slice) -> "MeasurePath":
        """Read-only view of the levels in ``block``, a slice of time levels,
        for work that runs a block of levels at a time; it keeps the whole
        path's time grid.  Not checked again."""
        return MeasurePath.view(
            self.time_grid, self.grid, self.density[block], self.alpha[block]
        )

    def __len__(self) -> int:
        return self.density.shape[0]

    def __getitem__(self, j: int) -> JointControlMeasure:
        """Read-only view of slice j; not checked again."""
        mu = object.__new__(JointControlMeasure)
        mu.grid, mu.density, mu.alpha = self.grid, self.density[j], self.alpha[j]
        return mu


# -- moments ---------------------------------------------------------------


def lambda_q(mu: JointControlMeasure | MeasurePath, q_tilde: float):
    """Control moment ( int |alpha|^{q_tilde} dmu )^{1/q_tilde}: a float for
    one slice, one value per slice for a path."""
    if q_tilde < 1.0:
        raise ValueError(f"moment exponent must be >= 1, got {q_tilde}")
    moment = mu.grid.integrate(mu.control_magnitude() ** q_tilde * mu.density)
    return moment ** (1.0 / q_tilde)


def lambda_inf(mu: JointControlMeasure | MeasurePath):
    """Largest control magnitude on the support of the density, where it is
    positive, per slice.  A checked slice has mass 1 and so a support; an
    unchecked view may hold an all-zero slice, which raises."""
    axes = tuple(range(-mu.grid.dim, 0))
    mask = mu.density > 0.0
    if not np.all(np.any(mask, axis=axes)):
        raise DegenerateMeasureError("a slice has no node with positive density")
    return np.max(np.where(mask, mu.control_magnitude(), -np.inf), axis=axes)


# -- exact transport on the circle ----------------------------------------


def coordinate_marginals(m: GridMeasure) -> GridMeasure:
    """The one-dimensional marginals of m, stacked on a new leading axis,
    one row per coordinate axis, as a view on the grid's line grid; m
    itself in d = 1.

    m holds one density or a stack.  The W1 figure of two measures is the
    max of one ``wasserstein_1d`` call on their marginals: exact W1 in
    d = 1, and in d = 2 the max over the two coordinate marginals, a lower
    bound on the true W1."""
    grid = m.grid
    if grid.dim == 1:
        return m
    return GridMeasure.view(
        grid.line, np.stack([np.sum(m.values, axis=-1 - axis) for axis in range(2)]) * grid.dx
    )


def wasserstein_1d(m1: GridMeasure, m2: GridMeasure):
    """Exact W1 between densities on the 1-D torus, along the last axis.

    Uses the circle formula W1 = min_c int_0^1 |F1 - F2 - c| dx with F the
    cumulative distributions; the optimal offset is the median of F1 - F2.
    Returns a float for one pair of densities and one value per slice for
    stacks; the masses must agree slice by slice.
    """
    if m1.grid.dim != 1 or m2.grid.dim != 1:
        raise GridMismatchError("exact transport requires one-dimensional grids")
    if m1.grid.shape != m2.grid.shape:
        raise GridMismatchError("measures live on different grids")
    w1 = m1.node_weights()
    w2 = m2.node_weights()
    gap = np.abs(w1.sum(axis=-1) - w2.sum(axis=-1))
    if np.any(gap > 1e-8):
        raise MassMismatchError(f"mass mismatch {np.max(gap):.3e} exceeds 1e-8")
    diff = np.cumsum(w1 - w2, axis=-1)
    c = np.median(diff, axis=-1, keepdims=True)
    w = np.sum(np.abs(diff - c), axis=-1) * m1.grid.dx
    return float(w) if w.ndim == 0 else w


# -- structural pairing ----------------------------------------------------


def monotonicity_pairing(model, mu1, mu2):
    """Lasry-Lions pairing int (L(x,a,mu1) - L(x,a,mu2)) d(mu1 - mu2).

    mu1 and mu2 are two JointControlMeasure slices or two MeasurePaths,
    paired slice by slice.  Evaluated on the grid as
    int [L(x,alpha1,mu1) - L(x,alpha1,mu2)] m1 dx
    - int [L(x,alpha2,mu1) - L(x,alpha2,mu2)] m2 dx:
    a float for two slices, one value per slice for two paths.
    Nonnegative for monotone running costs.  Each measure is read once
    (for paths, once per block of levels): L is evaluated at mu1 and at mu2
    on the two controls stacked.
    """
    if mu1.grid is not mu2.grid:
        raise GridMismatchError("pairing requires measures on the same grid object")
    if isinstance(mu1, MeasurePath):
        blocks = mu1.grid.level_blocks(len(mu1))
        return np.concatenate(
            [_pairing(model, mu1.levels(b), mu2.levels(b)) for b in blocks]
        )
    return _pairing(model, mu1, mu2)


def _pairing(model, mu1, mu2):
    """monotonicity_pairing of two slices, or of two paths in one pass."""
    controls = np.stack([mu1.alpha, mu2.alpha])
    gap1, gap2 = model.lagrangian_field(controls, mu1) - model.lagrangian_field(controls, mu2)
    return mu1.grid.integrate(gap1 * mu1.density) - mu1.grid.integrate(gap2 * mu2.density)
