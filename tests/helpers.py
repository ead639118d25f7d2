"""Shared helpers for the test suite."""

from __future__ import annotations

import csv

import numpy as np

from fmfgc.measures import GridMeasure
from fmfgc.models import QuadraticModel
from fmfgc.spectral import DENSE_STEP_MAX_N, SpectralGrid, TimeGrid


def band_limited_field(grid, rng, max_mode=None, scale=1.0):
    """Real random field with spectrum supported on |k_axis| <= max_mode."""
    if max_mode is None:
        max_mode = grid.n // 4
    coeff = np.zeros(grid.shape, dtype=complex)
    n = grid.n
    if grid.dim == 1:
        for k in range(1, max_mode + 1):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            coeff[k] = a
            coeff[-k] = np.conj(a)
        coeff[0] = rng.standard_normal()
    else:
        for kx in range(-max_mode, max_mode + 1):
            for ky in range(-max_mode, max_mode + 1):
                if (kx, ky) <= (0, 0):
                    continue
                a = rng.standard_normal() + 1j * rng.standard_normal()
                coeff[kx % n, ky % n] = a
                coeff[(-kx) % n, (-ky) % n] = np.conj(a)
        coeff[0, 0] = rng.standard_normal()
    f = np.fft.ifftn(coeff).real * n**grid.dim
    peak = np.max(np.abs(f))
    return f * (scale / peak) if peak > 0 else f


def step_semigroup(grid, f, dt):
    """T(dt) f from the public operator, as a march step applies it: on a
    1-D grid of at most DENSE_STEP_MAX_N nodes as a product with its real
    kernel S, whose columns semigroup_apply gives on the unit fields;
    elsewhere as semigroup_apply itself."""
    if grid.dim == 1 and grid.n <= DENSE_STEP_MAX_N:
        return grid.semigroup_apply(np.eye(grid.n), dt).T @ f
    return grid.semigroup_apply(f, dt)


def smooth_density(grid, rng, roughness=3):
    """Strictly positive random density with unit mass."""
    f = band_limited_field(grid, rng, max_mode=roughness, scale=1.0)
    raw = np.exp(f - f.max())
    return raw / (np.sum(raw) * grid.dx**grid.dim)


def bessel_norm(grid, f, order):
    """L^2 Bessel potential norm of a field on grid, or one value per slice
    of a stack: ( sum_k (1 + 4 pi^2 |k|^2)^order |fhat(k)|^2 )^{1/2} with
    fhat the integral-normalized DFT coefficients, so order = 0 gives the
    discrete L^2 norm."""
    axes = tuple(range(-grid.dim, 0))
    fhat = np.fft.fftn(f, axes=axes) / grid.n**grid.dim
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    ksq = sum(kk**2 for kk in np.meshgrid(*([k] * grid.dim), indexing="ij"))
    weight = (1.0 + 4.0 * np.pi**2 * ksq) ** order
    return np.sqrt(np.sum(weight * np.abs(fhat) ** 2, axis=axes))


def periodic_delta(x, y):
    """Componentwise periodic distance |x - y| on the unit torus."""
    d = np.abs(x - y) % 1.0
    return np.minimum(d, 1.0 - d)


def read_csv(path):
    """The header and the rows of a CSV file, as strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class ManufacturedModel(QuadraticModel):
    """The quadratic model plus g_j . p + f_j in the level-indexed forms of
    ``hamiltonian_at``, with g (one function for every component) and f
    given on the levels of a time grid.  ``grad_p_field`` stays the
    quadratic model's, so the control fixed point sees no g; the march's
    drift -D_p H does.  g and f do not depend on the measure, so the
    coupling stays monotone."""

    def __init__(self, coupling_beta, g, f, dim):
        super().__init__(coupling_beta, dim=dim)
        self._g, self._f = g[:, None], f

    def hamiltonian_at(self, mu):
        h, grad_p = super().hamiltonian_at(mu)
        axis = -(self.dim + 1)

        def hamiltonian(p, j=None):
            g, f = (self._g, self._f) if j is None else (self._g[j], self._f[j])
            return h(p, j) + np.sum(g * p, axis=axis) + f

        def grad_p_with_g(p, j=None):
            return grad_p(p, j) + (self._g if j is None else self._g[j])

        return hamiltonian, grad_p_with_g


def manufactured_equilibrium(n, n_steps, s, dim):
    """A game in d = 1, 2 or 3 whose equilibrium is known in closed form,
    on the nodes of a grid of n nodes per axis at n_steps levels over
    [0, 1], with data that depend on xi = x + ... (the sum of the
    coordinates) only:

        m = 1 + a cos 2 pi xi + b sin 2 pi xi,   u = c cos 2 pi xi + e sin 4 pi xi,

    a, b, c and e smooth in time, at beta = 0.3 and kernel decay 1.  In
    d >= 2 the modes sit on the wave vectors (1, ..., 1) and (2, ..., 2),
    off the axes, so (-Delta)^s multiplies them by (2 pi sqrt d)^{2s} and
    (4 pi sqrt d)^{2s}.  Every component of the drift B is one function w,
    so div(m B) = d (m w)' in xi, and m w comes from the flux of the
    Fokker-Planck equation, d (m w)' = -(d_t m + (-Delta)^s m); every
    component of the mean control of alpha = -(Du + beta abar) is
    abar = -int u' m dx / (1 + beta); g = -w - u' - beta abar makes
    -D_p H equal B, and f is what the HJB equation
    -d_t u + (-Delta)^s u + H = 0 leaves over, with the potential
    V = 1 + e^{-sqrt d} (a cos 2 pi xi + b sin 2 pi xi).  Returns the grid,
    the time grid, the model, m0, u_T and the exact u and m paths."""
    grid, tg = SpectralGrid(dim=dim, n=n, s=s), TimeGrid(horizon=1.0, n_steps=n_steps)
    beta = 0.3
    xi, t = sum(grid.nodes()), tg.times()[(slice(None),) + (None,) * dim]
    a, da = 0.3 * np.cos(t), -0.3 * np.sin(t)
    b, db = 0.2 + 0.1 * np.sin(t), 0.1 * np.cos(t)
    c, dc = 0.25 * np.cos(0.5 * t), -0.125 * np.sin(0.5 * t)
    e, de = 0.05 + 0.02 * t, 0.02
    k1, k2 = 2.0 * np.pi, 4.0 * np.pi
    # the symbol (2 pi |k|)^{2s} on the wave vectors (1, ..., 1) and (2, ..., 2)
    lam1, lam2 = (k1 * np.sqrt(dim)) ** (2 * s), (k2 * np.sqrt(dim)) ** (2 * s)
    cos1, sin1, cos2, sin2 = np.cos(k1 * xi), np.sin(k1 * xi), np.cos(k2 * xi), np.sin(k2 * xi)
    m = 1.0 + a * cos1 + b * sin1
    u = c * cos1 + e * sin2
    du = -k1 * c * sin1 + k2 * e * cos2  # every component of Du
    drift = ((db + lam1 * b) * cos1 - (da + lam1 * a) * sin1) / (k1 * dim * m)
    abar = np.pi * c * b / (1.0 + beta)
    g = -drift - du - beta * abar
    potential = 1.0 + np.exp(-np.sqrt(dim)) * (a * cos1 + b * sin1)
    h = dim * (0.5 * du * du + beta * du * abar + g * du) - potential
    f = dc * cos1 + de * sin2 - (lam1 * c * cos1 + lam2 * e * sin2) - h
    model = ManufacturedModel(beta, g, f, dim)
    return grid, tg, model, GridMeasure(grid, m[0]), u[-1], u, m
