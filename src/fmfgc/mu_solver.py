"""Fixed point for the joint state-control measure.

Given the state density m and the value gradient Du at one time, the
equilibrium control solves alpha = -D_p H(x, Du(x), mu) with mu the joint
measure (m, alpha) itself.  A Picard iteration from alpha = 0
contracts whenever the Hamiltonian's measure dependence is (its modulus
for the quadratic model is exactly the coupling strength).  The slices of
a path are independent, so a MeasurePath is solved in one stacked loop
that runs a block of levels at a time (``SpectralGrid.level_blocks``):
each block's defect goes into one buffer that every block and iteration
reuse, and the block's unconverged slices step at once, in the one
control path the solve steps in, the caller's or its own, so no
iteration makes a path-sized temporary.  The moment certificate reads a
path a block of levels at a time too.  Every model is iterated: the
zero control of the decoupled theta = 0 problem is part of
``equilibrium.analytic_base``, which needs no solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InvalidFieldError, NonContractionError
from .measures import GridMeasure, JointControlMeasure, MeasurePath, lambda_inf, lambda_q


#: The most iterations a control fixed point may take, or be predicted to
#: need, before it gives up.
MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class MuSolveConfig:
    """The control fixed point's settings: a slice stops once its defect's
    sup norm is at most tolerance.  Every solve of the package runs at
    equilibrium.LoopConfig.mu_config."""

    tolerance: float

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass
class MuSolveResult:
    mu: JointControlMeasure
    iterations: int
    residual: float
    update_norms: tuple[float, ...] = field(repr=False)

    def contraction_ratios(self) -> np.ndarray:
        """Successive update-norm ratios (early entries are the clean ones;
        near convergence the differences cancel to roundoff)."""
        u = np.asarray(self.update_norms)
        if len(u) < 2:
            return np.empty(0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return u[1:] / u[:-1]


def solve_mu_detailed(
    m: GridMeasure | JointControlMeasure | MeasurePath,
    du: np.ndarray,
    model,
    config: MuSolveConfig,
    out: np.ndarray | None = None,
) -> MuSolveResult:
    """Fixed-point solve returning the measure plus convergence data, to
    config's tolerance.

    m is one slice or a MeasurePath.  A GridMeasure slice starts from the
    zero control; a JointControlMeasure or a MeasurePath starts from its
    own controls.  The controls step in ``out`` when given, else in a
    control array of the solve's own, set to the starting controls first
    (nothing to copy when ``out`` holds them), so m's are written only
    when they are ``out``.  A slice stops once it meets the tolerance, so
    each ends where its own solve would; ``iterations`` is the largest
    per-slice count.  A slice's defect reads its own level only, so a
    block of levels steps as soon as its defect is known, and an
    iteration that meets the tolerance steps no slice.
    NonContractionError is raised once the measured update ratio stops
    shrinking the update, or predicts more than MAX_ITERATIONS iterations
    to the tolerance."""
    grid = m.grid
    mu = m
    if isinstance(m, GridMeasure):
        mu = JointControlMeasure(m, np.zeros((grid.dim,) + grid.shape))
    du = np.asarray(du, dtype=float)
    if du.shape != mu.alpha.shape:
        raise GridMismatchError(f"gradient shape {du.shape} does not match {mu.alpha.shape}")
    # a NaN or an infinity reaches the extremes
    if not all(np.isfinite(f(a)) for a in (du, mu.alpha) for f in (np.max, np.min)):
        raise InvalidFieldError("gradient or starting control contains non-finite values")

    # (levels, rows of the defect buffer) per block; one slice is one block
    if isinstance(mu, MeasurePath):
        blocks = [(b, slice(b.stop - b.start)) for b in grid.level_blocks(len(mu))]
    else:
        blocks = [(Ellipsis, Ellipsis)]
    lead = du.shape[: du.ndim - grid.dim - 1]
    per_slice = np.empty(lead)
    defect, magnitude = np.empty((2,) + du[blocks[0][0]].shape)
    # the controls the solve steps in, starting from m's
    alpha = np.empty(mu.alpha.shape) if out is None else out
    alpha[...] = mu.alpha
    mu = mu.with_alpha_view(alpha)
    updates: list[float] = []
    for it in range(MAX_ITERATIONS):
        for levels, rows in blocks:
            part = mu if levels is Ellipsis else mu.levels(levels)
            step = defect[rows]
            np.add(part.alpha, model.grad_p_field(du[levels], part), out=step)
            size = np.abs(step, out=magnitude[rows])
            worst = np.max(size.reshape(size.shape[: size.ndim - grid.dim - 1] + (-1,)), axis=-1)
            per_slice[levels] = worst
            active = worst > config.tolerance
            if np.any(active):
                where = active.reshape(active.shape + (1,) * (grid.dim + 1))
                np.subtract(alpha[levels], step, out=alpha[levels], where=where)
        residual = float(np.max(per_slice))
        if residual <= config.tolerance:
            return MuSolveResult(
                mu=mu, iterations=it, residual=residual, update_norms=tuple(updates)
            )
        updates.append(residual)
        if _predicted_iterations(updates, config.tolerance) > MAX_ITERATIONS:
            break

    ratio = updates[-1] / updates[-2] if len(updates) > 1 else float("nan")
    raise NonContractionError(
        f"control fixed point cannot reach tolerance {config.tolerance} within "
        f"{MAX_ITERATIONS} iterations (update ratio {ratio:.3f} after "
        f"{len(updates)})",
        ratio=ratio,
        residual=updates[-1],
    )


def _predicted_iterations(updates: list[float], tolerance: float) -> float:
    """Iterations to tolerance at the better of the last two update ratios, so
    one ratio at or above one (a roundoff blip) is not yet a verdict."""
    if len(updates) < 3:
        return len(updates)
    rate = min(updates[-1] / updates[-2], updates[-2] / updates[-3])
    if not rate < 1.0:
        return math.inf
    return len(updates) + math.log(tolerance / updates[-1]) / math.log(rate)


def solve_mu(
    m: GridMeasure | JointControlMeasure | MeasurePath,
    du: np.ndarray,
    model,
    config: MuSolveConfig,
    out: np.ndarray | None = None,
) -> JointControlMeasure | MeasurePath:
    """The fixed-point measure itself; see solve_mu_detailed for metrics."""
    return solve_mu_detailed(m, du, model, config, out).mu


@dataclass
class MomentCertificate:
    """Moment values against the structural bounds they must respect.

    ``bound_q`` is 4 C0^2 + qt^{q-1} (2 C0)^q / q * ||Du||_{L^q(m)}^q for
    Lambda_qt^qt, ``bound_inf`` is C0 (1 + ||Du||_inf + Lambda_qt) for
    Lambda_inf; report-only, callers decide how to act.  For a path every
    field holds one value per slice, and the checks hold when every slice
    passes.
    """

    lambda_qt: float
    lambda_inf: float
    bound_q: float
    bound_inf: float
    du_sup: float
    du_lq: float

    @property
    def q_ok(self) -> bool:
        return bool(np.all(self.lambda_qt ** self._qt <= self.bound_q * (1.0 + 1e-12)))

    @property
    def inf_ok(self) -> bool:
        return bool(np.all(self.lambda_inf <= self.bound_inf * (1.0 + 1e-12)))

    @property
    def ok(self) -> bool:
        return self.q_ok and self.inf_ok

    _qt: float = 2.0


def moment_certificate(
    mu: JointControlMeasure | MeasurePath, du: np.ndarray, model
) -> MomentCertificate:
    """Evaluate the moment bounds of a solved joint measure, per slice of a
    path; a path is read a block of levels at a time, each field the
    concatenation of its blocks' values."""
    du = np.asarray(du, dtype=float)
    if du.shape != mu.alpha.shape:
        raise GridMismatchError(f"gradient shape {du.shape} does not match {mu.alpha.shape}")
    if not isinstance(mu, MeasurePath):
        return MomentCertificate(*_moments(mu, du, model), _qt=model.q_tilde)
    parts = [_moments(mu.levels(b), du[b], model) for b in mu.grid.level_blocks(len(mu))]
    return MomentCertificate(*map(np.concatenate, zip(*parts)), _qt=model.q_tilde)


def _moments(mu: JointControlMeasure | MeasurePath, du: np.ndarray, model) -> tuple:
    """The MomentCertificate fields of one slice or of a block of levels, in
    order, for a gradient of the controls' shape."""
    grid = mu.grid
    du = grid.check_vector(du)
    q, qt, c0 = model.q, model.q_tilde, model.C0
    du_mag = np.sqrt(np.sum(du**2, axis=-(grid.dim + 1)))
    du_sup = np.max(du_mag, axis=tuple(range(-grid.dim, 0)))
    du_lq = grid.integrate(du_mag**q * mu.density) ** (1.0 / q)
    lam_qt = lambda_q(mu, qt)
    lam_inf = lambda_inf(mu)
    bound_q = 4.0 * c0**2 + qt ** (q - 1.0) * (2.0 * c0) ** q / q * du_lq**q
    bound_inf = c0 * (1.0 + du_sup + lam_qt)
    return lam_qt, lam_inf, bound_q, bound_inf, du_sup, du_lq
