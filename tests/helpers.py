"""Shared helpers for the test suite."""

from __future__ import annotations

import csv

import numpy as np

from fmfgc.spectral import DENSE_STEP_MAX_N


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
