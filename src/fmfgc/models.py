"""Running costs, Hamiltonians, and the interpolation scaling between them.

A model has one evaluation surface, the field form: controls and momenta
are fields at the nodes of a spectral grid.  A field form takes one time
slice (mu a JointControlMeasure, p one field or a stack of fields over
leading axes) or a whole path (mu a MeasurePath, a leading time axis on
p); the component axis is -(dim + 1), and mu is read through grid,
density, alpha, mean_control().  The solvers call these forms, and the
conjugacy and growth checks below certify the same ones.

The Hamiltonian is written once per model, as ``hamiltonian_at(mu)``: it
reads the measure once (for the quadratic model, the mean control and
the potential, batched over a path) and returns the pair ``(h, grad_p)``,
H and D_p H as functions ``f(p, j=None)`` of the momentum.  For a path,
``f(p, j)`` is the value at level j with p one field, or at the levels
of j, a slice, with p those levels, and ``f(p)`` the whole path; a level
has the same bits whichever way it is taken.  The HJB march fixes the
measure path once and calls ``h`` per level; the value solution keeps
``grad_p``, and its drift evaluates it a block of levels at a time for
the CFL guard, the forward march, the duality pairing and the
exploitability, so ``grad_p`` should not close over the potential.  A
stage's closing control re-solve writes H a block of levels at a time,
and the growth check reads ``hamiltonian_at(mu)[0]``.
``grad_p_field(p, mu)`` reads the mean control only, for the control
fixed point, which never needs the potential.  The march checks its
levels a block at a time, so ``h`` may see the non-finite momentum of a
level past a blow-up; the march drops those levels, and an error ``h``
raises there gives way to the blow-up's.

A model is any object with the three field forms ``hamiltonian_at``,
``grad_p_field`` and ``lagrangian_field`` (and ``grad_alpha_field`` for
the numeric Legendre transform) and the attributes of its growth class:
``C0`` (the structure constant), ``q`` (the momentum growth) and
``q_tilde`` (its conjugate exponent q/(q-1)); there is no base class.

The concrete model is quadratic: running cost
|alpha + beta int gamma dmu|^2 / 2 + V(x, mu) with V a positive-definite
convolution against the state marginal.  Its Hamiltonian and optimal
control are closed-form, which the generic Legendre path is tested
against.  ``ThetaScaledModel`` scales a model by theta in (0, 1]; the
decoupled theta = 0 problem has no model, because its solution is the
closed form that ``equilibrium.analytic_base`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OptimizationError
from .measures import GridMeasure, JointControlMeasure, _JointFields, lambda_q, mean_control
from .spectral import SpectralGrid


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


class QuadraticModel:
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
        # One constant serving coercivity, boundedness and x-regularity.
        self.C0 = max(2.0 / (1.0 - coupling_beta**2), 1.0 + s0 + s1)

    # -- coupling ingredients -------------------------------------------

    def _potential(self, grid: SpectralGrid, density: np.ndarray) -> np.ndarray:
        """V = kernel * m on the nodes, exact in the discrete spectrum, for one
        density or a stack over leading axes: the symbol exp(-decay |k|) is
        the s = 1/2 (Poisson) semigroup at time decay / (2 pi)."""
        return grid.semigroup_apply(density, self.kernel_decay / (2.0 * np.pi), s=0.5)

    # -- field forms -----------------------------------------------------

    def _broadcast_mean(self, mu) -> np.ndarray:
        """Mean control shaped to broadcast against (..., dim, *grid.shape)."""
        abar = mu.mean_control()
        return abar.reshape(abar.shape + (1,) * mu.grid.dim)

    def lagrangian_field(self, alpha, mu):
        return (
            0.5 * np.sum(self.grad_alpha_field(alpha, mu) ** 2, axis=-(mu.grid.dim + 1))
            + self._potential(mu.grid, mu.density)
        )

    def grad_alpha_field(self, alpha, mu):
        return alpha + self.coupling_beta * self._broadcast_mean(mu)

    def hamiltonian_at(self, mu):
        """The pair (H, D_p H) at mu, one slice or a path, as functions of
        the momentum p, and of the level j when p is one level of a path:
        the mean control and the potential are read here, once.  H writes
        the component sums sum_i p_i p_i and sum_i p_i abar_i out in axis
        order, the bits of .sum over the component axis: the .sum form took
        5-7 % more of a solve-1d op, in five runs of 60 pairs in one
        process on 2 shared vCPUs."""
        abar = self._broadcast_mean(mu)
        potential = self._potential(mu.grid, mu.density)
        # component i of a field or a stack (..., dim, *grid.shape)
        dim = mu.grid.dim
        first, *rest = [(Ellipsis, i) + (slice(None),) * dim for i in range(dim)]

        def hamiltonian(p, j=None):
            a, v = (abar, potential) if j is None else (abar[j], potential[j])
            square, dot = p[first] * p[first], p[first] * a[first]
            for i in rest:
                square += p[i] * p[i]
                dot += p[i] * a[i]
            square *= 0.5
            dot *= self.coupling_beta
            dot += square
            dot -= v
            return dot

        def grad_p(p, j=None):
            return p + self.coupling_beta * (abar if j is None else abar[j])

        return hamiltonian, grad_p

    def grad_p_field(self, p, mu):
        return p + self.coupling_beta * self._broadcast_mean(mu)


class PushedForward:
    """A joint measure mu, one slice or a path, with its control pushed
    forward by 1/theta, as a base model reads it: mu's ``grid`` and
    ``density``, the controls alpha / theta, ``control_magnitude()`` and
    ``mean_control()``, the field-form reads of a joint measure (so
    ``lambda_q`` takes it too).  ``mean_control()`` divides the controls by
    theta one block of levels at a time (``SpectralGrid.level_blocks``),
    which gives the bits of the whole path's division; ``alpha`` divides
    the whole path, for a model that reads the controls themselves."""

    def __init__(self, mu, theta: float):
        self.grid, self.density = mu.grid, mu.density
        self._mu, self._theta = mu, theta

    @property
    def alpha(self) -> np.ndarray:
        alpha = self._mu.alpha / self._theta
        alpha.setflags(write=False)
        return alpha

    control_magnitude = _JointFields.control_magnitude

    def mean_control(self) -> np.ndarray:
        grid, density, alpha = self.grid, self.density, self._mu.alpha
        if density.ndim == grid.dim:
            return mean_control(grid, density, alpha / self._theta)
        return np.concatenate([
            mean_control(grid, density[block], alpha[block] / self._theta)
            for block in grid.level_blocks(len(density))
        ])


class ThetaScaledModel:
    """Interpolation family between the decoupled problem and a base model.

    At parameter theta in (0, 1] the running cost is theta L(x, alpha/theta,
    Smu) where S pushes the control marginal forward by 1/theta; the
    Hamiltonian is theta H(x, p, Smu).  At theta = 1 every form is the base
    model's own, with no scaling pass over its fields.  The theta = 0 end
    of the family is the analytic base of ``equilibrium``, not a model.
    ``hamiltonian_field(p, mu)`` is ``hamiltonian_at(mu)[0](p)``: no solver
    calls it, but it is a name a profiler wraps.
    """

    def __init__(self, base, theta: float):
        if not 0.0 < theta <= 1.0:
            raise ValueError(f"scaling parameter must lie in (0, 1], got {theta}")
        if isinstance(base, ThetaScaledModel):
            raise ValueError(f"model is already scaled at theta={base.theta}")
        self.base = base
        self.theta = float(theta)
        self.C0 = base.C0
        self.q = base.q
        self.q_tilde = base.q_tilde

    def scaled_measure(self, mu):
        """mu with its control pushed forward by 1/theta; mu is one slice or a path.

        At theta < 1 it is a ``PushedForward`` view, whose mean control
        divides the controls by theta a block of levels at a time, so no
        control path is copied.  Not checked again: a control finite on the
        support stays finite there when divided by theta in (0, 1]."""
        if self.theta == 1.0:
            return mu
        return PushedForward(mu, self.theta)

    # -- field forms -----------------------------------------------------

    def hamiltonian_at(self, mu):
        if self.theta == 1.0:
            return self.base.hamiltonian_at(mu)
        h, grad_p = self.base.hamiltonian_at(self.scaled_measure(mu))
        return (
            lambda p, j=None: self.theta * h(p, j),
            lambda p, j=None: self.theta * grad_p(p, j),
        )

    def hamiltonian_field(self, p, mu):
        return self.hamiltonian_at(mu)[0](p)

    def grad_p_field(self, p, mu):
        if self.theta == 1.0:
            return self.base.grad_p_field(p, mu)
        return self.theta * self.base.grad_p_field(p, self.scaled_measure(mu))

    def lagrangian_field(self, alpha, mu):
        if self.theta == 1.0:
            return self.base.lagrangian_field(alpha, mu)
        return self.theta * self.base.lagrangian_field(
            np.asarray(alpha, dtype=float) / self.theta, self.scaled_measure(mu)
        )


# -- convex conjugacy ------------------------------------------------------


def _fd_hessian(model, alpha: np.ndarray, mu) -> np.ndarray:
    """Control Hessian by central differences of grad_alpha_field,
    symmetrized; the component axis of alpha becomes the trailing
    (dim, dim) pair, so the shape is (..., *grid.shape, dim, dim)."""
    axis = -(mu.grid.dim + 1)
    step = 1e-6 * (1.0 + np.abs(alpha))
    cols = []
    for i in range(alpha.shape[axis]):
        comp = (..., slice(i, i + 1)) + (slice(None),) * mu.grid.dim
        da = np.zeros_like(alpha)
        da[comp] = step[comp]
        diff = model.grad_alpha_field(alpha + da, mu) - model.grad_alpha_field(alpha - da, mu)
        cols.append(np.moveaxis(diff / (2.0 * step[comp]), axis, -1))
    hess = np.stack(cols, axis=-1)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


#: stationarity tolerance, Newton steps and step halvings per Newton step
#: of the numeric Legendre transform
LEGENDRE_TOL = 1e-10
LEGENDRE_MAX_NEWTON = 100
LEGENDRE_MAX_HALVINGS = 60


def legendre_transform(
    model, p: np.ndarray, mu: JointControlMeasure
) -> tuple[np.ndarray, np.ndarray]:
    """H(x, p, mu) = sup_a { -p.a - L(x, a, mu) } and its maximizer at every node.

    p is a momentum field on mu's grid, or a stack of them over leading
    axes.  Damped Newton from a = 0 on the strictly concave objective,
    with a finite-difference Hessian of grad_alpha_field; stops when the
    stationarity defect |p + D_a L| falls below LEGENDRE_TOL at every
    point and raises OptimizationError if some point is still above it
    after LEGENDRE_MAX_NEWTON steps.
    """
    axis = -(mu.grid.dim + 1)
    p = np.asarray(p, dtype=float)
    alpha = np.zeros_like(p)

    def objective(a):
        return -np.sum(p * a, axis=axis) - model.lagrangian_field(a, mu)

    def ascent(a):
        grad = -(p + model.grad_alpha_field(a, mu))
        return grad, np.sqrt(np.sum(grad**2, axis=axis))

    value = objective(alpha)
    for _ in range(LEGENDRE_MAX_NEWTON):
        grad, defect = ascent(alpha)
        active = defect >= LEGENDRE_TOL
        if not np.any(active):
            break
        hess = _fd_hessian(model, alpha, mu)
        # the pseudo-inverse leaves a point with a singular Hessian in place
        step = np.linalg.pinv(hess) @ np.moveaxis(grad, axis, -1)[..., None]
        delta = np.moveaxis(step[..., 0], -1, axis)
        lam = np.where(active, 1.0, 0.0)
        for _ in range(LEGENDRE_MAX_HALVINGS):
            tval = objective(alpha + np.expand_dims(lam, axis) * delta)
            bad = active & (tval < value - 1e-14 * (1.0 + np.abs(value)))
            if not np.any(bad):
                break
            lam[bad] *= 0.5
        alpha = alpha + np.expand_dims(lam, axis) * delta
        value = objective(alpha)

    _, defect = ascent(alpha)
    if np.any(defect >= LEGENDRE_TOL):
        raise OptimizationError(
            f"conjugacy optimizer left {int(np.sum(defect >= LEGENDRE_TOL))} points above "
            f"tolerance {LEGENDRE_TOL}",
            residual=float(defect.max()),
        )
    return value, alpha


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


def growth_check(model, grid: SpectralGrid) -> GrowthReport:
    """Sample the growth inequalities and report the needed constant.

    Checks |D_p H| <= C (1 + |p|^{q-1} + Lambda), |H| <= C (1 + |p|^q +
    Lambda^qt) and the coercivity p . D_p H - H >= |p|^q / C - C (1 +
    Lambda^qt) on momentum fields at the grid nodes, a stack of them per
    sampled measure, and returns the smallest C making every sampled
    probe pass.  Six measures, with controls of amplitude up to 2, carry
    at least 1000 node probes in all, with momenta of scale 5, drawn from
    default_rng(0).  Violations of a caller-chosen constant are counted,
    not raised.
    """
    rng = np.random.default_rng(0)
    dim = grid.dim
    axis = -(dim + 1)
    q, qt = model.q, model.q_tilde
    n_measures, p_scale, alpha_scale = 6, 5.0, 2.0
    # enough momentum fields per measure to reach 1000 node probes
    depth = -(-(1000 // n_measures) // grid.n**dim)
    reqs = []
    grad_req = val_req = coer_req = 0.0
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

        p = p_scale * rng.standard_normal((depth, dim) + grid.shape)
        p *= np.exp(rng.uniform(-2.0, 1.0, (depth, 1) + grid.shape))  # vary magnitudes

        h = model.hamiltonian_at(mu)[0](p)
        dp = model.grad_p_field(p, mu)
        pnorm = np.sqrt(np.sum(p**2, axis=axis))
        dpnorm = np.sqrt(np.sum(dp**2, axis=axis))

        r1 = dpnorm / (1.0 + pnorm ** (q - 1.0) + lam)
        r2 = np.abs(h) / (1.0 + pnorm**q + lam**qt)
        ell = np.sum(p * dp, axis=axis) - h
        bb = 1.0 + lam**qt
        cc = pnorm**q
        r3 = (-ell + np.sqrt(ell**2 + 4.0 * bb * cc)) / (2.0 * bb)

        grad_req = max(grad_req, float(r1.max()))
        val_req = max(val_req, float(r2.max()))
        coer_req = max(coer_req, float(r3.max()))
        reqs.append(np.maximum(np.maximum(r1, r2), r3).ravel())

    requirements = np.concatenate(reqs)
    return GrowthReport(
        c0_tilde=max(grad_req, val_req, coer_req),
        gradient_bound=grad_req,
        value_bound=val_req,
        coercivity_bound=coer_req,
        n_samples=requirements.size,
        requirements=requirements,
    )
