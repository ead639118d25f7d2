"""Running costs, Hamiltonians, and the interpolation scaling between them.

A model exposes two evaluation surfaces: probe form, where states,
controls and momenta are loose arrays of shape (dim, P), and field form,
where they are fields on a spectral grid.  Solvers use the field form;
verification probes (convex conjugacy, growth constants) use probe form.
A field form takes one time slice (mu a JointControlMeasure) or a whole
path (mu a MeasurePath, a leading time axis on p); the component axis is
-(dim + 1), and mu is read through grid, density, alpha, mean_control().

The concrete model is quadratic: running cost
|alpha + beta int gamma dmu|^2 / 2 + V(x, mu) with V a positive-definite
convolution against the state marginal.  Its Hamiltonian and optimal
control are closed-form, which the generic Legendre path is tested
against.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import OptimizationError
from .measures import GridMeasure, JointControlMeasure, lambda_q
from .spectral import SpectralGrid


def _as_probes(arr: np.ndarray, dim: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(dim, -1) if dim > 1 else arr.reshape(1, -1)
    if arr.shape[0] != dim:
        raise ValueError(f"probe array must have leading dimension {dim}")
    return arr


class LagrangianModel:
    """Base class: subclasses provide the running cost and its derivatives.

    Attributes ``C0`` (structure constant), ``q`` (momentum growth) and
    ``q_tilde`` (conjugate exponent, q/(q-1)) describe the growth class.
    """

    C0: float
    q: float
    q_tilde: float

    def lagrangian(self, x, alpha, mu) -> np.ndarray:
        raise NotImplementedError

    def grad_alpha(self, x, alpha, mu) -> np.ndarray:
        raise NotImplementedError

    def hessian_alpha(self, x, alpha, mu) -> np.ndarray:
        """Control Hessian, shape (dim, dim, P); finite differences by default."""
        dim, npts = alpha.shape
        h = 1e-6 * (1.0 + np.abs(alpha))
        hess = np.empty((dim, dim, npts))
        for i in range(dim):
            da = np.zeros_like(alpha)
            da[i] = h[i]
            gp = self.grad_alpha(x, alpha + da, mu)
            gm = self.grad_alpha(x, alpha - da, mu)
            hess[:, i, :] = (gp - gm) / (2.0 * h[i])
        return 0.5 * (hess + np.swapaxes(hess, 0, 1))

    def hamiltonian(self, x, p, mu) -> np.ndarray:
        val, _ = legendre_transform(self, x, p, mu)
        return val

    def grad_p(self, x, p, mu) -> np.ndarray:
        # Envelope identity: D_p H = -alpha^* at the conjugacy optimum.
        _, alpha_star = legendre_transform(self, x, p, mu)
        return -alpha_star


def _geometric_tail(rho: float) -> float:
    # sum_{j >= 1} rho^j
    return rho / (1.0 - rho)


def _kernel_sums(decay: float, dim: int) -> tuple[float, float]:
    """Upper bounds for sum_k khat(k) and sum_k 2 pi |k| khat(k) over Z^d."""
    if dim == 1:
        rho = np.exp(-decay)
        s0 = 1.0 + 2.0 * _geometric_tail(rho)
        s1 = 4.0 * np.pi * rho / (1.0 - rho) ** 2
    else:
        # |k| >= (|k1| + |k2|) / sqrt(2) lets both sums factorize.
        rho = np.exp(-decay / np.sqrt(2.0))
        line = 1.0 + 2.0 * _geometric_tail(rho)
        s0 = line**2
        s1 = 4.0 * np.pi * (2.0 * rho / (1.0 - rho) ** 2) * line
    return float(s0), float(s1)


class QuadraticModel(LagrangianModel):
    """Quadratic running cost with mean-control and convolution coupling.

    L(x, a, mu) = |a + beta int gamma dmu|^2 / 2 + (kernel * m)(x), with
    kernel coefficients khat(k) = exp(-decay |k|) > 0, so the cost is
    Lasry-Lions monotone.  That symbol is the Poisson kernel: the potential
    V(x, mu) = (kernel * m)(x) is the fractional heat semigroup at s = 1/2
    and time decay / (2 pi) applied to m, one transform for a slice or a
    whole density path.  Closed forms:

        H(x, p, mu)  = |p|^2 / 2 + beta p . abar - V(x, mu)
        D_p H        = p + beta abar
        alpha^*      = -(p + beta abar)

    with abar the mean control of mu.
    """

    def __init__(self, coupling_beta: float, kernel_decay: float = 1.0, dim: int = 1):
        if not 0.0 < coupling_beta < 1.0:
            raise ValueError(f"coupling_beta must lie in (0, 1), got {coupling_beta}")
        if not kernel_decay > 0.0:
            raise ValueError(f"kernel_decay must be positive, got {kernel_decay}")
        self.coupling_beta = float(coupling_beta)
        self.kernel_decay = float(kernel_decay)
        self.dim = int(dim)
        self.q = 2.0
        self.q_tilde = 2.0
        with np.errstate(divide="ignore"):
            s0, s1 = _kernel_sums(self.kernel_decay, self.dim)
        if not np.isfinite(s1):
            raise ValueError(f"kernel_decay too small for finite kernel sums, got {kernel_decay}")
        self.potential_sup = s0
        self.potential_lip = s1
        # One constant serving coercivity, boundedness and x-regularity.
        self.C0 = max(2.0 / (1.0 - coupling_beta**2), 1.0 + s0 + s1)

    # -- coupling ingredients -------------------------------------------

    def potential_field(self, m: GridMeasure) -> np.ndarray:
        """(kernel * m) on the nodes, exact in the discrete spectrum."""
        return self._potential(m.grid, m.values)

    def _potential(self, grid: SpectralGrid, density: np.ndarray) -> np.ndarray:
        """potential_field of one density or of a stack over leading axes:
        the symbol exp(-decay |k|) is the s = 1/2 (Poisson) semigroup at
        time decay / (2 pi)."""
        return grid.semigroup_apply(density, self.kernel_decay / (2.0 * np.pi), s=0.5)

    def potential_at(self, m: GridMeasure, x: np.ndarray) -> np.ndarray:
        """(kernel * m)(x) at arbitrary probe points, shape (P,): the
        trigonometric interpolant of potential_field(m)."""
        return m.grid.interpolate(self.potential_field(m), _as_probes(x, m.grid.dim))

    # -- probe forms -----------------------------------------------------

    def lagrangian(self, x, alpha, mu):
        abar = mu.mean_control()
        x = _as_probes(x, self.dim)
        alpha = _as_probes(alpha, self.dim)
        shifted = alpha + self.coupling_beta * abar[:, None]
        return 0.5 * np.sum(shifted**2, axis=0) + self.potential_at(mu.m, x)

    def grad_alpha(self, x, alpha, mu):
        abar = mu.mean_control()
        alpha = _as_probes(alpha, self.dim)
        return alpha + self.coupling_beta * abar[:, None]

    def hessian_alpha(self, x, alpha, mu):
        dim, npts = alpha.shape
        return np.broadcast_to(np.eye(dim)[:, :, None], (dim, dim, npts)).copy()

    def hamiltonian(self, x, p, mu):
        abar = mu.mean_control()
        x = _as_probes(x, self.dim)
        p = _as_probes(p, self.dim)
        return (
            0.5 * np.sum(p**2, axis=0)
            + self.coupling_beta * np.sum(p * abar[:, None], axis=0)
            - self.potential_at(mu.m, x)
        )

    def grad_p(self, x, p, mu):
        abar = mu.mean_control()
        p = _as_probes(p, self.dim)
        return p + self.coupling_beta * abar[:, None]

    # -- field forms -----------------------------------------------------

    def _broadcast_mean(self, mu) -> np.ndarray:
        """Mean control shaped to broadcast against (..., dim, *grid.shape)."""
        abar = mu.mean_control()
        return abar.reshape(abar.shape + (1,) * mu.grid.dim)

    def lagrangian_field(self, alpha, mu):
        shifted = alpha + self._broadcast_mean(mu) * self.coupling_beta
        return (
            0.5 * np.sum(shifted**2, axis=-(mu.grid.dim + 1))
            + self._potential(mu.grid, mu.density)
        )

    def hamiltonian_field(self, p, mu):
        axis = -(mu.grid.dim + 1)
        return (
            0.5 * np.sum(p**2, axis=axis)
            + self.coupling_beta * np.sum(p * self._broadcast_mean(mu), axis=axis)
            - self._potential(mu.grid, mu.density)
        )

    def grad_p_field(self, p, mu):
        return p + self.coupling_beta * self._broadcast_mean(mu)


class ThetaScaledModel:
    """Interpolation family between the trivial model and a base model.

    At parameter theta the running cost is theta L(x, alpha/theta, Smu)
    where S pushes the control marginal forward by 1/theta; the
    Hamiltonian is theta H(x, p, Smu).  At theta = 0 the Hamiltonian and
    its momentum gradient vanish identically (no limits are taken).  Only
    the field forms exist: they are the surface the solver calls.
    """

    def __init__(self, base: LagrangianModel, theta: float):
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"scaling parameter must lie in [0, 1], got {theta}")
        self.base = base
        self.theta = float(theta)
        self.C0 = base.C0
        self.q = base.q
        self.q_tilde = base.q_tilde

    def scaled_measure(self, mu):
        """mu with its control pushed forward by 1/theta; mu is one slice or a path.

        Not checked again: a control finite on the support stays finite
        there when divided by theta in (0, 1]."""
        if self.theta == 1.0:
            return mu
        scaled = copy.copy(mu)
        scaled.alpha = mu.alpha / self.theta
        scaled.alpha.setflags(write=False)
        return scaled

    # -- field forms -----------------------------------------------------

    def hamiltonian_field(self, p, mu):
        if self.theta == 0.0:
            return np.zeros(mu.density.shape)
        return self.theta * self.base.hamiltonian_field(p, self.scaled_measure(mu))

    def grad_p_field(self, p, mu):
        if self.theta == 0.0:
            return np.zeros_like(np.asarray(p, dtype=float))
        return self.theta * self.base.grad_p_field(p, self.scaled_measure(mu))

    def lagrangian_field(self, alpha, mu):
        if self.theta == 0.0:
            mag = np.sum(np.asarray(alpha, dtype=float) ** 2, axis=-(mu.grid.dim + 1))
            return np.where(mag == 0.0, 0.0, np.inf)
        return self.theta * self.base.lagrangian_field(
            np.asarray(alpha, dtype=float) / self.theta, self.scaled_measure(mu)
        )


def coerce_theta(model, theta: float | None) -> ThetaScaledModel:
    """Accept a base model plus theta, or a model that is already scaled."""
    if isinstance(model, ThetaScaledModel):
        if theta is not None and theta != model.theta:
            raise ValueError(
                f"model is already scaled at theta={model.theta}, got theta={theta}"
            )
        return model
    return ThetaScaledModel(model, 1.0 if theta is None else theta)


# -- convex conjugacy ------------------------------------------------------


def _solve_newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Per-point solve of hess @ delta = grad for dim in {1, 2}."""
    dim = grad.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        if dim == 1:
            return grad / hess[0, 0]
        a, b = hess[0, 0], hess[0, 1]
        c, d = hess[1, 0], hess[1, 1]
        det = a * d - b * c
        out = np.empty_like(grad)
        out[0] = (d * grad[0] - b * grad[1]) / det
        out[1] = (-c * grad[0] + a * grad[1]) / det
        return out


def legendre_transform(
    model: LagrangianModel,
    x: np.ndarray,
    p: np.ndarray,
    mu: JointControlMeasure,
    tol: float = 1e-10,
    max_newton: int = 100,
    max_halvings: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """H(x, p, mu) = sup_a { -p.a - L(x, a, mu) } and its maximizer.

    Damped Newton from a = 0 on the strictly concave objective; stops when
    the stationarity defect |p + D_a L| falls below ``tol`` at every
    point.  Points that resist Newton fall back to coordinatewise
    golden-section search on a box whose radius is the structural control
    bound C0 (1 + |p|^{q-1} + Lambda_qtilde(mu)).
    """
    dim = getattr(model, "dim", None) or mu.grid.dim
    x = _as_probes(x, dim)
    p = _as_probes(p, dim)
    alpha = np.zeros_like(p)

    def objective(a):
        return -np.sum(p * a, axis=0) - model.lagrangian(x, a, mu)

    value = objective(alpha)
    for _ in range(max_newton):
        grad = -(p + model.grad_alpha(x, alpha, mu))
        defect = np.sqrt(np.sum(grad**2, axis=0))
        active = defect >= tol
        if not np.any(active):
            break
        hess = model.hessian_alpha(x, alpha, mu)
        delta = _solve_newton_direction(hess, grad)
        # singular Hessians leave the point to the fallback pass
        delta = np.where(np.isfinite(delta), delta, 0.0)
        lam = np.where(active, 1.0, 0.0)
        for _ in range(max_halvings):
            trial = alpha + lam * delta
            tval = objective(trial)
            bad = active & (tval < value - 1e-14 * (1.0 + np.abs(value)))
            if not np.any(bad):
                break
            lam[bad] *= 0.5
        alpha = alpha + lam * delta
        value = objective(alpha)

    grad = -(p + model.grad_alpha(x, alpha, mu))
    defect = np.sqrt(np.sum(grad**2, axis=0))
    stuck = np.nonzero(defect >= tol)[0]
    if stuck.size:
        radius = model.C0 * (
            1.0 + np.sum(p**2, axis=0) ** ((model.q - 1.0) / 2.0)
            + lambda_q(mu, model.q_tilde)
        )
        for j in stuck:
            alpha[:, j] = _golden_fallback(model, x[:, j], p[:, j], mu, radius[j], tol)
        value = objective(alpha)
        grad = -(p + model.grad_alpha(x, alpha, mu))
        defect = np.sqrt(np.sum(grad**2, axis=0))
        if np.any(defect >= tol):
            raise OptimizationError(
                f"conjugacy optimizer left {int(np.sum(defect >= tol))} points above "
                f"tolerance {tol}",
                residual=float(defect.max()),
            )
    return value, alpha


def _golden_fallback(model, xj, pj, mu, radius, tol, sweeps=40):
    dim = xj.shape[0]
    a = np.zeros(dim)
    for _ in range(sweeps):
        moved = 0.0
        for i in range(dim):
            def neg_obj(t):
                trial = a.copy()
                trial[i] = t
                return float(
                    np.sum(pj * trial) + model.lagrangian(
                        xj[:, None], trial[:, None], mu
                    )[0]
                )
            res = minimize_scalar(
                neg_obj, bounds=(-radius, radius), method="bounded",
                options={"xatol": 1e-13},
            )
            moved = max(moved, abs(res.x - a[i]))
            a[i] = res.x
        if moved < 1e-13:
            break
    return a


# -- growth diagnostics ----------------------------------------------------


@dataclass
class GrowthReport:
    """Smallest structure constant compatible with the sampled probes.

    ``c0_tilde`` is the max of the three per-inequality requirements; a
    probe violates a candidate constant C when its requirement exceeds C.
    """

    c0_tilde: float
    gradient_bound: float
    value_bound: float
    coercivity_bound: float
    n_samples: int
    requirements: np.ndarray = field(repr=False)

    def violations(self, c0: float) -> int:
        return int(np.sum(self.requirements > c0))


def growth_check(
    model,
    grid: SpectralGrid,
    n_samples: int = 1000,
    seed: int = 0,
    p_scale: float = 5.0,
    alpha_scale: float = 2.0,
    n_measures: int = 6,
) -> GrowthReport:
    """Sample the growth inequalities and report the needed constant.

    Checks |D_p H| <= C (1 + |p|^{q-1} + Lambda), |H| <= C (1 + |p|^q +
    Lambda^qt) and the coercivity p . D_p H - H >= |p|^q / C - C (1 +
    Lambda^qt), and returns the smallest C making every sampled probe
    pass.  Violations of a caller-chosen constant are counted, not
    raised.
    """
    rng = np.random.default_rng(seed)
    dim = grid.dim
    q, qt = model.q, model.q_tilde
    per_measure = max(1, n_samples // n_measures)
    reqs = []
    grad_req = val_req = coer_req = 0.0
    count = 0
    for _ in range(n_measures):
        raw = np.exp(
            sum(
                rng.uniform(-1, 1) * np.cos(2 * np.pi * (k * grid.nodes()[ax] + rng.random()))
                for k in (1, 2)
                for ax in range(dim)
            )
        )
        m = GridMeasure.normalized(grid, raw)
        alpha = alpha_scale * np.stack(
            [
                np.cos(2 * np.pi * (grid.nodes()[ax % dim] + rng.random()))
                * rng.uniform(-1, 1)
                for ax in range(dim)
            ]
        )
        mu = JointControlMeasure(m, alpha)
        lam = lambda_q(mu, qt)

        x = rng.random((dim, per_measure))
        p = p_scale * rng.standard_normal((dim, per_measure))
        p *= np.exp(rng.uniform(-2.0, 1.0, per_measure))  # vary magnitudes

        h = np.asarray(model.hamiltonian(x, p, mu))
        dp = np.asarray(model.grad_p(x, p, mu))
        pnorm = np.sqrt(np.sum(p**2, axis=0))
        dpnorm = np.sqrt(np.sum(dp**2, axis=0))

        r1 = dpnorm / (1.0 + pnorm ** (q - 1.0) + lam)
        r2 = np.abs(h) / (1.0 + pnorm**q + lam**qt)
        ell = np.sum(p * dp, axis=0) - h
        bb = 1.0 + lam**qt
        cc = pnorm**q
        r3 = (-ell + np.sqrt(ell**2 + 4.0 * bb * cc)) / (2.0 * bb)

        grad_req = max(grad_req, float(r1.max()))
        val_req = max(val_req, float(r2.max()))
        coer_req = max(coer_req, float(r3.max()))
        reqs.append(np.maximum(np.maximum(r1, r2), r3))
        count += per_measure

    return GrowthReport(
        c0_tilde=max(grad_req, val_req, coer_req),
        gradient_bound=grad_req,
        value_bound=val_req,
        coercivity_bound=coer_req,
        n_samples=count,
        requirements=np.concatenate(reqs),
    )
