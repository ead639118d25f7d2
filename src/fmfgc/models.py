"""Running costs, Hamiltonians, and the interpolation scaling between them.

A model is any object, with no base class, that has the growth class
``C0`` (the structure constant), ``q`` (the momentum growth) and
``q_tilde`` (its conjugate exponent q/(q-1)) and four field forms.  A
form takes mu one slice (a JointControlMeasure, p one field or a stack
of fields over leading axes) or a whole path (a MeasurePath, p with a
leading time axis), takes the component axis as -(dim + 1) and reads mu
only through grid, density, alpha, control_magnitude() and
mean_control():

* ``hamiltonian_at(mu)`` reads the measure once and returns the pair
  ``(h, grad_p)``, H and D_p H as functions ``f(p, j=None)`` of the
  momentum, which keep no reference to mu.  On a path ``f(p, j)`` is
  level j (an int, p one field) or the levels j (a slice, p those
  levels), and ``f(p)`` the whole path;
* ``grad_p_field(p, mu)`` is D_p H, for the control fixed point;
* ``lagrangian_field(alpha, mu)`` and ``grad_alpha_field(alpha, mu)``
  are L and D_alpha L.

``check_model(model, grid)`` checks the rest of the contract on random
probes; run it on a new model.

The concrete model is quadratic: running cost
|alpha + beta int gamma dmu|^2 / 2 + V(x, mu) with V a positive-definite
convolution against the state marginal.  Its Hamiltonian and optimal
control are closed-form, which the generic Legendre path is tested
against.  ``ThetaScaledModel`` scales a model by theta in (0, 1]; the
decoupled theta = 0 problem has no model, because its solution is the
closed form that ``equilibrium.analytic_base`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OptimizationError
from .measures import (
    JointControlMeasure,
    MeasurePath,
    _JointFields,
    lambda_q,
    mean_control,
    monotonicity_pairing,
)
from .spectral import SpectralGrid, TimeGrid


def _geometric_tail(rho: float) -> float:
    # sum_{j >= 1} rho^j
    return rho / (1.0 - rho)


def _kernel_sums(decay: float, dim: int) -> tuple[float, float]:
    """Upper bounds for sum_k khat(k) and sum_k 2 pi |k| khat(k) over Z^d:
    |k| >= |k|_1 / sqrt(d), an equality in d = 1, factorizes both by axes."""
    rho = np.exp(-decay / np.sqrt(dim))
    line = 1.0 + 2.0 * _geometric_tail(rho)
    s0 = line**dim
    s1 = 2.0 * dim * np.pi * (2.0 * rho / (1.0 - rho) ** 2) * line ** (dim - 1)
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
        self.C0, self.q, self.q_tilde = base.C0, base.q, base.q_tilde

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

    def grad_alpha_field(self, alpha, mu):
        if self.theta == 1.0:
            return self.base.grad_alpha_field(alpha, mu)
        return self.base.grad_alpha_field(
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
    model, p: np.ndarray, mu: JointControlMeasure | MeasurePath
) -> tuple[np.ndarray, np.ndarray]:
    """H(x, p, mu) = sup_a { -p.a - L(x, a, mu) } and its maximizer at every node.

    mu is one slice or a path, and p momentum fields on it, as a field
    form takes them.  Damped Newton from a = 0 on the strictly concave
    objective, with a finite-difference Hessian of grad_alpha_field; stops
    when the stationarity defect |p + D_a L| falls below LEGENDRE_TOL at
    every point and raises OptimizationError if some point is still above
    it after LEGENDRE_MAX_NEWTON steps.
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


# -- the model contract ----------------------------------------------------


@dataclass(frozen=True)
class _ModelReport:
    """What ``check_model`` measured, the worst of theta = 1 and 0.5.

    ``pairing_min`` is the least Lasry-Lions pairing of the measure pairs;
    ``h_defect`` and ``maximizer_defect`` are the largest |H - value| and
    |D_p H + maximizer| of ``legendre_transform``, H from
    ``hamiltonian_at`` and D_p H from ``grad_p_field``; ``c0_needed`` is
    the smallest structure constant the growth probes need and
    ``growth_violations`` the probes that need more than the model's
    ``C0``; ``level_mismatches`` counts the levels of H or of D_p H whose
    bits depend on how the level is taken; ``grad_p_defect`` is the
    largest |grad_p - grad_p_field|; ``measure_mismatches`` names the
    accessors that the measure handed to the base model at theta = 0.5
    lacks or reads with other bits than a path of the controls divided by
    theta.  ``passed`` holds at the tolerances of acceptance criteria 5
    and 6 (pairing >= -1e-12, both defects <= 1e-8, no violation) with no
    mismatch and grad_p equal to grad_p_field.
    """

    pairing_min: float
    h_defect: float
    maximizer_defect: float
    c0_needed: float
    growth_violations: int
    level_mismatches: int
    grad_p_defect: float
    measure_mismatches: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (
            self.pairing_min >= -1e-12
            and max(self.h_defect, self.maximizer_defect) <= 1e-8
            and self.growth_violations == self.level_mismatches == self.grad_p_defect == 0
            and not self.measure_mismatches
        )


_ACCESSORS = ("grid", "density", "alpha", "control_magnitude", "mean_control")


def _read(mu, name):
    """The grid of a joint measure, or the bits of another accessor."""
    value = getattr(mu, name)
    return value if name == "grid" else np.asarray(value() if callable(value) else value).tobytes()


def check_model(model, grid: SpectralGrid) -> _ModelReport:
    """Check a model against the contract of this module, and against the
    paper's hypotheses, at theta = 1 and through ``ThetaScaledModel`` at
    theta = 0.5, on one probe set drawn from default_rng(0).

    The probes are a path of random joint measures on grid (smooth
    densities, controls of amplitude up to 2), 101 levels or as many more
    as make 1,024 nodes, and one momentum field per level (scale 5,
    magnitudes varied over e^-2 to e).  Neighbouring levels make the
    measure pairs of the pairing.  The growth probes are the inequalities
    |D_p H| <= C (1 + |p|^{q-1} + Lambda), |H| <= C (1 + |p|^q +
    Lambda^qt) and p . D_p H - H >= |p|^q / C - C (1 + Lambda^qt) at every
    node, with Lambda the level's ``lambda_q``.  A level of H and of D_p H
    is taken alone, in blocks of 7 levels and on the whole path.  A failed
    check raises nothing: the report records it.
    """
    rng = np.random.default_rng(0)
    dim, x = grid.dim, grid.nodes()
    levels = max(101, -(-1024 // grid.n**dim))
    lead, comp = (levels,) + (1,) * dim, (levels, dim) + (1,) * dim
    raw = np.exp(sum(rng.uniform(-1, 1, lead) * np.cos(2 * np.pi * (k * x[ax] + rng.random(lead)))
                     for k in (1, 2, 3) for ax in range(dim)))
    density = raw / grid.integrate(raw).reshape(lead)
    alpha = rng.uniform(-1, 1, comp) * (1 + np.cos(2 * np.pi * (x + rng.random(comp))))
    path = MeasurePath(TimeGrid(1.0, levels - 1), grid, density, alpha)
    pairs = path.levels(slice(0, -1)), path.levels(slice(1, None))
    p = 5.0 * rng.standard_normal((levels, dim) + grid.shape)
    p *= np.exp(rng.uniform(-2.0, 1.0, (levels, 1) + grid.shape))  # vary magnitudes

    axis, scaled = -(dim + 1), ThetaScaledModel(model, 0.5)
    pairing, c0_needed, violations, mismatches = np.inf, 0.0, 0, 0
    h_defect = a_defect = gp_defect = 0.0
    for form in (model, scaled):
        pairing = min(pairing, float(np.min(monotonicity_pairing(form, *pairs))))
        h, grad_p = form.hamiltonian_at(path)
        hp, dp = h(p), form.grad_p_field(p, path)
        value, alpha_star = legendre_transform(form, p, path)
        h_defect = max(h_defect, float(np.max(np.abs(value - hp))))
        a_defect = max(a_defect, float(np.max(np.abs(alpha_star + dp))))
        gp_defect = max(gp_defect, float(np.max(np.abs(grad_p(p) - dp))))
        for f in (h, grad_p):
            whole = f(p)
            blocked = np.concatenate([f(p[j : j + 7], slice(j, j + 7)) for j in range(0, levels, 7)])
            mismatches += sum(
                not f(p[j], j).tobytes() == blocked[j].tobytes() == whole[j].tobytes()
                for j in range(levels)
            )
        q, qt = form.q, form.q_tilde
        lam = lambda_q(path, qt).reshape(lead)
        pnorm = np.sqrt(np.sum(p**2, axis=axis))
        ell, bb = np.sum(p * dp, axis=axis) - hp, 1.0 + lam**qt
        need = np.maximum.reduce([
            np.sqrt(np.sum(dp**2, axis=axis)) / (1.0 + pnorm ** (q - 1.0) + lam),
            np.abs(hp) / (1.0 + pnorm**q + lam**qt),
            (-ell + np.sqrt(ell**2 + 4.0 * bb * pnorm**q)) / (2.0 * bb),
        ])
        c0_needed = max(c0_needed, float(need.max()))
        violations += int(np.sum(need > form.C0))

    pushed = scaled.scaled_measure(path)
    divided = MeasurePath.view(path.time_grid, grid, density, alpha / scaled.theta)
    return _ModelReport(
        pairing, h_defect, a_defect, c0_needed, violations, mismatches, gp_defect,
        tuple(
            name for name in _ACCESSORS
            if not hasattr(pushed, name) or _read(pushed, name) != _read(divided, name)
        ),
    )
