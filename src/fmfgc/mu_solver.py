"""Per-time-slice fixed point for the joint state-control measure.

Given the state density m and the value gradient Du at one time, the
equilibrium control solves alpha = -D_p H(x, Du(x), mu) with mu the joint
measure (m, alpha) itself.  A Picard iteration from alpha = 0
contracts whenever the Hamiltonian's measure dependence is (its modulus
for the quadratic model is exactly the coupling strength).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonContractionError
from .measures import GridMeasure, JointControlMeasure, lambda_inf, lambda_q


@dataclass(frozen=True)
class MuSolveConfig:
    tolerance: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


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
    m: GridMeasure,
    du: np.ndarray,
    model,
    config: MuSolveConfig | None = None,
    initial_alpha: np.ndarray | None = None,
) -> MuSolveResult:
    """Fixed-point solve returning the measure plus convergence data."""
    config = config or MuSolveConfig()
    grid = m.grid
    du = grid.check_vector(du)

    if getattr(model, "theta", 1.0) == 0.0:
        # Trivial scaling limit: zero control, no iteration.
        mu = JointControlMeasure(m, np.zeros_like(du))
        return MuSolveResult(mu=mu, iterations=0, residual=0.0, update_norms=())

    if initial_alpha is None:
        alpha = np.zeros_like(du)
    else:
        alpha = grid.check_vector(initial_alpha).astype(float, copy=True)
    updates: list[float] = []
    residual = np.inf
    for it in range(config.max_iterations):
        mu = JointControlMeasure(m, alpha)
        defect = alpha + model.grad_p_field(du, mu)
        residual = float(np.max(np.abs(defect)))
        if residual <= config.tolerance:
            return MuSolveResult(
                mu=mu, iterations=it, residual=residual, update_norms=tuple(updates)
            )
        alpha = alpha - defect
        updates.append(float(np.max(np.abs(defect))))

    ratios = [b / a for a, b in zip(updates, updates[1:]) if a > 0.0]
    ratio = float(ratios[-1]) if ratios else float("nan")
    raise NonContractionError(
        f"control fixed point not below tolerance {config.tolerance} after "
        f"{config.max_iterations} iterations (last update ratio {ratio:.3f})",
        ratio=ratio,
        residual=residual,
    )


def solve_mu(
    m: GridMeasure,
    du: np.ndarray,
    model,
    config: MuSolveConfig | None = None,
    initial_alpha: np.ndarray | None = None,
) -> JointControlMeasure:
    """The fixed-point measure itself; see solve_mu_detailed for metrics."""
    return solve_mu_detailed(m, du, model, config, initial_alpha).mu


@dataclass
class MomentCertificate:
    """Moment values against the structural bounds they must respect.

    ``bound_q`` is 4 C0^2 + qt^{q-1} (2 C0)^q / q * ||Du||_{L^q(m)}^q for
    Lambda_qt^qt, ``bound_inf`` is C0 (1 + ||Du||_inf + Lambda_qt) for
    Lambda_inf; report-only, callers decide how to act.
    """

    lambda_qt: float
    lambda_inf: float
    bound_q: float
    bound_inf: float
    du_sup: float
    du_lq: float

    @property
    def q_ok(self) -> bool:
        return self.lambda_qt ** self._qt <= self.bound_q * (1.0 + 1e-12)

    @property
    def inf_ok(self) -> bool:
        return self.lambda_inf <= self.bound_inf * (1.0 + 1e-12)

    @property
    def ok(self) -> bool:
        return self.q_ok and self.inf_ok

    _qt: float = 2.0


def moment_certificate(
    mu: JointControlMeasure, du: np.ndarray, model
) -> MomentCertificate:
    """Evaluate the slice moment bounds for a solved joint measure."""
    grid = mu.grid
    du = grid.check_vector(du)
    q, qt, c0 = model.q, model.q_tilde, model.C0
    du_mag = np.sqrt(np.sum(du**2, axis=0))
    du_sup = float(np.max(du_mag))
    du_lq = float(mu.m.expectation(du_mag**q) ** (1.0 / q))
    lam_qt = lambda_q(mu, qt)
    lam_inf = lambda_inf(mu)
    bound_q = 4.0 * c0**2 + qt ** (q - 1.0) * (2.0 * c0) ** q / q * du_lq**q
    bound_inf = c0 * (1.0 + du_sup + lam_qt)
    return MomentCertificate(
        lambda_qt=lam_qt,
        lambda_inf=lam_inf,
        bound_q=bound_q,
        bound_inf=bound_inf,
        du_sup=du_sup,
        du_lq=du_lq,
        _qt=qt,
    )
