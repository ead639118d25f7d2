"""Periodic grids and Fourier-multiplier operators on the unit torus.

All fields live on a uniform n^d grid over [0,1)^d with d in {1, 2} and n a
power of two.  Spatial derivatives, the fractional Laplacian and its heat
semigroup are diagonal in the discrete Fourier basis e^{2 pi i k.x} with
integer wavenumbers k in {-n/2, ..., n/2 - 1} per axis, so every operator
here is one real FFT over the trailing grid axes, a multiplier on the half
spectrum, and the inverse real FFT.  Every operator takes one field or a
stack of fields over leading axes (a path, say), transformed in one call.

Conventions that matter:

* the fractional symbol is (2 pi |k|)^{2s}; the Nyquist mode participates
  with |k| = n/2 since the symbol is even in k;
* first-derivative multipliers zero the Nyquist mode so that gradients of
  real fields stay real and the discrete adjointness between gradient and
  divergence is exact;
* no dealiasing is applied anywhere; nonlinear terms are formed pointwise
  on the nodal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, InvalidFieldError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class SpectralGrid:
    """Uniform periodic grid together with cached multiplier tables.

    Parameters
    ----------
    dim:
        Spatial dimension, 1 or 2.
    n:
        Nodes per axis; a power of two, at least 8.
    s:
        Fractional diffusion order, strictly between 1/2 and 1.  Individual
        operator calls may override it where that makes sense.
    """

    def __init__(self, dim: int, n: int, s: float):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if not _is_power_of_two(n) or n < 8:
            raise ValueError(f"n must be a power of two >= 8, got {n}")
        if not 0.5 < s < 1.0:
            raise ValueError(f"s out of range: s ∈ (1/2, 1) required, got {s}")
        self.dim = int(dim)
        self.n = int(n)
        self.s = float(s)
        self.dx = 1.0 / n
        self.shape: tuple[int, ...] = (n,) * dim

        # Multiplier tables live on the real-transform half spectrum: every
        # integer wavenumber on the leading axis, k = 0 .. n/2 on the last.
        full = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers as floats
        half = np.fft.rfftfreq(n, d=1.0 / n)
        waves = np.meshgrid(*([full] * (dim - 1) + [half]), indexing="ij")
        self._ksq = sum(k**2 for k in waves)
        self._ksq.setflags(write=False)
        # Odd multipliers drop the Nyquist mode: for even n the mode has no
        # conjugate partner and an imaginary multiplier would make the
        # output complex.
        self._deriv = np.stack(
            [2.0j * np.pi * np.where(np.abs(k) == n // 2, 0.0, k) for k in waves]
        )
        self._deriv.setflags(write=False)
        # Bounded and per grid, so a dropped grid takes its tables with it.
        self._heat_multiplier = lru_cache(maxsize=128)(self._heat_table)

        axes = np.arange(n) * self.dx
        if dim == 1:
            nodes = axes[np.newaxis, :]
        else:
            xg, yg = np.meshgrid(axes, axes, indexing="ij")
            nodes = np.stack([xg, yg])
        nodes.setflags(write=False)
        self._nodes = nodes
        # the grid of the coordinate marginals
        self.line = self if dim == 1 else SpectralGrid(1, n, s)

    # -- field validation --------------------------------------------------

    def check_scalar(self, f: np.ndarray) -> np.ndarray:
        """A scalar field, or a stack of them over leading axes."""
        f = np.asarray(f, dtype=float)
        if f.shape[max(f.ndim - self.dim, 0):] != self.shape:
            raise GridMismatchError(
                f"scalar field shape {f.shape} does not end in {self.shape}"
            )
        if not np.all(np.isfinite(f)):
            raise InvalidFieldError("scalar field contains non-finite values")
        return f

    def check_vector(self, v: np.ndarray) -> np.ndarray:
        """A vector field, or a stack of them over leading axes."""
        v = np.asarray(v, dtype=float)
        if v.shape[max(v.ndim - self.dim - 1, 0):] != (self.dim,) + self.shape:
            raise GridMismatchError(
                f"vector field shape {v.shape} does not end in {(self.dim,) + self.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidFieldError("vector field contains non-finite values")
        return v

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape (dim, n, ..., n)."""
        return self._nodes

    # -- multipliers -------------------------------------------------------

    def _symbol(self, s: float) -> np.ndarray:
        return (4.0 * np.pi**2 * self._ksq) ** s

    def _heat_table(self, s: float, t: float) -> np.ndarray:
        mult = np.exp(-self._symbol(s) * t)
        mult.setflags(write=False)
        return mult

    def _forward(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfft(f) if self.dim == 1 else np.fft.rfft2(f)

    def _inverse(self, fhat: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            return np.fft.irfft(fhat, n=self.n)
        return np.fft.irfft2(fhat, s=self.shape)

    def _multiply(self, f: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """irfft(mult * rfft(f)) over the trailing grid axes: the one
        transform behind every operator.  f is one field or a stack; mult,
        a half-spectrum table, broadcasts against its transform."""
        return self._inverse(mult * self._forward(f))

    # -- operators ---------------------------------------------------------

    def frac_laplacian(self, f: np.ndarray, s: float | None = None) -> np.ndarray:
        """Apply (-Delta)^s, the Fourier multiplier (2 pi |k|)^{2s}."""
        f = self.check_scalar(f)
        s = self.s if s is None else float(s)
        if not 0.0 < s <= 1.0:
            raise ValueError(f"fractional exponent must lie in (0, 1], got {s}")
        return self._multiply(f, self._symbol(s))

    def semigroup_apply(self, f: np.ndarray, t, s: float | None = None) -> np.ndarray:
        """Apply the fractional heat semigroup exp(-t (-Delta)^s).

        Exact in space: each mode is damped by exp(-t (2 pi |k|)^{2s}).
        The mean (k = 0) is preserved to the last bit.  At s = 1/2 this is
        the Poisson kernel, the convolution with symbol exp(-2 pi t |k|).
        t may also be a numpy array of times, which broadcasts against the
        leading axes of f: one field and an array of times t_j give the flow
        T(t_j) f as a stack, all from one transform of f; row j equals
        semigroup_apply(f, t_j) to the bit.
        """
        f = self.check_scalar(f)
        flow = isinstance(t, np.ndarray) and t.ndim > 0
        if (np.any(t < 0.0) if flow else t < 0.0):
            raise ValueError(f"semigroup time must be nonnegative, got {t}")
        s = self.s if s is None else float(s)
        if not 0.0 < s <= 1.0:
            raise ValueError(f"fractional exponent must lie in (0, 1], got {s}")
        if not flow:
            return self._multiply(f, self._heat_multiplier(s, float(t)))
        times = t.astype(float).reshape(t.shape + (1,) * self.dim)
        return self._multiply(f, np.exp(-self._symbol(s) * times))

    def semigroup_gradient(self, f: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(T(t) f, grad T(t) f) for one field f, at the grid's s, from one
        forward transform and one inverse over the stacked spectra.

        The value is what semigroup_apply(f, t) returns, to the bit; the
        gradient is the derivative multiplier on the value's own spectrum,
        so it matches gradient(semigroup_apply(f, t)) to rounding.  f is
        not checked here: the HJB march calls this once per time level and
        checks each level's input itself.
        """
        spec = self._forward(f)
        both = np.empty((1 + self.dim,) + spec.shape, dtype=spec.dtype)
        np.multiply(self._heat_multiplier(self.s, float(t)), spec, out=both[0])
        np.multiply(self._deriv, both[0], out=both[1:])
        out = self._inverse(both)
        return out[0], out[1:]

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """Spectral gradient, shape (..., dim, *grid.shape)."""
        f = self.check_scalar(f)
        return self._multiply(np.expand_dims(f, -(self.dim + 1)), self._deriv)

    def divergence(self, v: np.ndarray) -> np.ndarray:
        """Spectral divergence of a vector field, or of each field of a stack
        shaped (..., dim, *grid.shape); adjoint of -gradient."""
        v = self.check_vector(v)
        return np.sum(self._multiply(v, self._deriv), axis=-(self.dim + 1))

    def integrate(self, f: np.ndarray):
        """Trapezoidal (here: exact midpoint) integral over the torus: a
        float for one field, one value per slice for a stack."""
        f = np.asarray(f)
        total = np.sum(f.reshape(f.shape[: f.ndim - self.dim] + (-1,)), axis=-1)
        total = total * self.dx**self.dim
        return float(total) if total.ndim == 0 else total

    def holder_seminorm(self, f: np.ndarray, beta: float):
        """Discrete Holder seminorm sup |f(x)-f(y)| / dist(x,y)^beta: a float
        for one field, one value per slice for a stack.

        Brute force over all node pairs whose offset lies within n/4 nodes
        per axis; at that range the periodic per-axis distance is just the
        offset times dx.
        """
        f = self.check_scalar(f)
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"Holder exponent must lie in (0, 1], got {beta}")
        w = self.n // 4
        if self.dim == 1:
            offsets = [((h,), h * self.dx) for h in range(1, w + 1)]
        else:
            # Half-plane of offsets covers every unordered pair once.
            offsets = [
                ((h1, h2), self.dx * np.hypot(h1, h2))
                for h1 in range(0, w + 1)
                for h2 in range(-w, w + 1)
                if h1 > 0 or h2 > 0
            ]
        lead = f.shape[: f.ndim - self.dim]
        axes = tuple(range(-self.dim, 0))
        best = np.zeros(lead)
        for shift, dist in offsets:
            diff = np.abs(f - np.roll(f, shift, axis=axes)).reshape(lead + (-1,))
            best = np.maximum(best, np.max(diff, axis=-1) / dist**beta)
        return float(best) if best.ndim == 0 else best


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into ``n_steps`` steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)
