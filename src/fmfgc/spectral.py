"""Periodic grids and Fourier-multiplier operators on the unit torus.

All fields live on a uniform n^d grid over [0,1)^d with d in {1, 2, 3} and
n a power of two; d stops at 3 because a path's memory grows as n^d.
Spatial derivatives, the fractional Laplacian and its heat semigroup are
diagonal in the discrete Fourier basis e^{2 pi i k.x} with integer
wavenumbers k in {-n/2, ..., n/2 - 1} per axis, so every operator here is
one real FFT over the trailing grid axes, a multiplier on the half
spectrum, and the inverse real FFT, taken axis by axis in the order of
np.fft.rfftn and irfftn, whose bits they have; the last inverse transform
writes into the caller's buffer where there is one.  Every operator takes
one field or a stack of fields over leading axes (a path, say);
``semigroup_apply`` transforms a stack one block of levels at a time into
its output, so no spectrum spans the path.  A march takes its step operator
once (``value_step`` or ``gradient_step``) and hands it to the unchecked
per-step transforms ``semigroup_value`` and ``semigroup_gradient``, which
write into buffers the march allocates once.  On a 1-D grid of at most
``DENSE_STEP_MAX_N`` nodes that operator is the real circulant kernel of
the heat multiplier and its gradient, [T; D T], built by the same transform
applied to the identity, so a step is one matrix-vector product, and the
value step takes the first n rows; on larger 1-D grids and in d >= 2 it is
the heat table, and a step is one transform pair.  The grid keeps the one
operator it built last, read-only, with its time, so the marches of one
time step build it once.  Work over a whole path of time levels that needs
path-sized temporaries runs over the blocks of levels that
``SpectralGrid.level_blocks`` gives, ``BLOCK_NODES`` grid nodes' worth
each, so no temporary spans the path.

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

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidFieldError

#: the largest 1-D grid whose march steps are dense kernel products: at
#: n = 256 the stacked product [T; D T] costs no more than the transform
#: pair it replaces, at n = 512 two to four times as much
DENSE_STEP_MAX_N = 256
#: grid nodes per block of time levels in path-level work: the stacked
#: transforms, the drift and its CFL rule, the forward march's face
#: velocities, the duality pairing and the path form of the monotonicity
#: pairing; 128 KB per scalar field of a block, 4 levels in d = 2 at
#: n = 64, 128 in d = 1 at n = 128
BLOCK_NODES = 16384


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class SpectralGrid:
    """Uniform periodic grid together with its Fourier multiplier tables.

    Parameters
    ----------
    dim:
        Spatial dimension, 1, 2 or 3.
    n:
        Nodes per axis; a power of two, at least 8.
    s:
        Fractional diffusion order, strictly between 1/2 and 1.  Individual
        operator calls may override it where that makes sense.
    """

    def __init__(self, dim: int, n: int, s: float):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        if not _is_power_of_two(n) or n < 8:
            raise ValueError(f"n must be a power of two >= 8, got {n}")
        if not 0.5 < s < 1.0:
            raise ValueError(f"s out of range: s ∈ (1/2, 1) required, got {s}")
        self.dim = int(dim)
        self.n = int(n)
        self.s = float(s)
        self.dx = 1.0 / n
        self.shape: tuple[int, ...] = (n,) * dim
        self._dense_steps = dim == 1 and n <= DENSE_STEP_MAX_N
        # the last step operator built, with its time
        self._operator: tuple[float, np.ndarray] | None = None

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

        self._nodes = np.stack(np.meshgrid(*[np.arange(n) * self.dx] * dim, indexing="ij"))
        self._nodes.setflags(write=False)
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

    def level_blocks(self, n_levels: int) -> Iterator[slice]:
        """Slices of consecutive levels that cover range(n_levels) in order,
        BLOCK_NODES grid nodes' worth each and one level at least."""
        step = max(1, BLOCK_NODES // self.n**self.dim)
        for start in range(0, n_levels, step):
            yield slice(start, min(start + step, n_levels))

    # -- multipliers -------------------------------------------------------

    def _symbol(self, s: float) -> np.ndarray:
        return (4.0 * np.pi**2 * self._ksq) ** s

    def heat_table(self, t, s: float | None = None) -> np.ndarray:
        """The half-spectrum multiplier exp(-t (2 pi |k|)^{2s}) of the heat
        semigroup at time t, at the grid's s unless given.

        t is one time or a numpy array of times; an array gives one table
        per time, shaped t.shape + the half spectrum, so it broadcasts
        against the transform of a stack whose leading axes match t.  A
        march's step operator comes from the table of its step.  Times must
        be finite and nonnegative: inf and nan give nan, a negative time growth."""
        if not np.all((0.0 <= t) & (t < np.inf)):
            raise ValueError(f"semigroup time must be finite and nonnegative, got {t}")
        s = self.s if s is None else float(s)
        if isinstance(t, np.ndarray) and t.ndim > 0:
            t = t.astype(float).reshape(t.shape + (1,) * self.dim)
        else:
            t = float(t)
        return np.exp(-self._symbol(s) * t)

    def _forward(self, f: np.ndarray) -> np.ndarray:
        spec = np.fft.rfft(f)
        for axis in range(-2, -self.dim - 1, -1):
            spec = np.fft.fft(spec, axis=axis)
        return spec

    def _inverse(self, fhat: np.ndarray, out=None) -> np.ndarray:
        for axis in range(-self.dim, -1):
            fhat = np.fft.ifft(fhat, axis=axis)
        return np.fft.irfft(fhat, n=self.n, out=out)

    def _multiply(self, f: np.ndarray, mult: np.ndarray, out=None) -> np.ndarray:
        """irfft(mult * rfft(f)) over the trailing grid axes: the one
        transform behind every operator, written into out if given.  f is
        one field or a stack; mult, a half-spectrum table, broadcasts
        against its transform."""
        return self._inverse(mult * self._forward(f), out)

    # -- operators ---------------------------------------------------------

    def frac_laplacian(self, f: np.ndarray) -> np.ndarray:
        """Apply (-Delta)^s at the grid's s, the Fourier multiplier
        (2 pi |k|)^{2s}."""
        return self._multiply(self.check_scalar(f), self._symbol(self.s))

    def semigroup_apply(self, f: np.ndarray, t, s: float | None = None) -> np.ndarray:
        """Apply the fractional heat semigroup exp(-t (-Delta)^s).

        Exact in space: each mode is damped by exp(-t (2 pi |k|)^{2s}).
        The mean (k = 0) is preserved to the last bit.  At s = 1/2 this is
        the Poisson kernel, the convolution with symbol exp(-2 pi t |k|).
        t must be finite and nonnegative; it may also be a numpy array of
        such times, which broadcasts against the leading axes of f: one
        field and an array of times t_j give the flow T(t_j) f as a stack,
        all from one transform of f; row j equals semigroup_apply(f, t_j)
        to the bit.

        A stack, or an array of times, is transformed one block of levels
        of the first leading axis at a time (``level_blocks``), each into
        its rows of the output, so the spectra and heat tables in flight
        are a block's, never the path's; every row has the bits of the
        whole-stack transform.
        """
        f = self.check_scalar(f)
        flow = isinstance(t, np.ndarray) and t.ndim > 0
        s = self.s if s is None else float(s)
        if not 0.0 < s <= 1.0:
            raise ValueError(f"fractional exponent must lie in (0, 1], got {s}")
        lead = np.broadcast_shapes(f.shape[: f.ndim - self.dim], np.shape(t))
        if not lead:
            return self._multiply(f, self.heat_table(t, s))
        # one field is transformed once, for every time, and one time's
        # table serves every block
        spec = self._forward(f) if f.ndim == self.dim else None
        if spec is None and f.shape[: f.ndim - self.dim] != lead:
            f = np.broadcast_to(f, lead + self.shape)
        table = None if flow else self.heat_table(t, s)
        t = np.broadcast_to(t, lead) if flow else t
        out = np.empty(lead + self.shape)
        for block in self.level_blocks(lead[0]):
            mult = self.heat_table(t[block], s) if flow else table
            if spec is None:
                # a block's own spectrum takes the multiplier in place
                fhat = self._forward(f[block])
                fhat *= mult
            else:
                fhat = mult * spec
            self._inverse(fhat, out[block])
        return out

    def _kernel(self, mults: np.ndarray) -> np.ndarray:
        """The real kernel of a stack of half-spectrum multipliers on a 1-D
        grid: the multipliers applied to the unit fields, shaped
        (len(mults) n, n), so that kernel @ f stacks each multiplier's
        output on f."""
        unit = np.eye(self.n)[:, np.newaxis, :]
        return self._multiply(unit, mults).reshape(self.n, -1).T

    def gradient_step(self, t) -> np.ndarray:
        """The step operator of (T(t), grad T(t)) that semigroup_gradient
        takes: the (1 + d) n x n kernel K = [T(t); D T(t)] on a 1-D grid of
        at most DENSE_STEP_MAX_N nodes, else the heat table of t.  It is
        read-only, and the grid keeps the last one it built, so the marches
        of one time step build it once."""
        t = float(t)
        if self._operator is None or self._operator[0] != t:
            op = self.heat_table(t)
            if self._dense_steps:
                op = self._kernel(np.concatenate([op[np.newaxis], op * self._deriv]))
            op.setflags(write=False)
            self._operator = (t, op)
        return self._operator[1]

    def value_step(self, t) -> np.ndarray:
        """The step operator of T(t) that semigroup_value takes: the first n
        rows of gradient_step(t) on a 1-D grid of at most DENSE_STEP_MAX_N
        nodes, a strided view of the n x n kernel S, else the same heat
        table."""
        step = self.gradient_step(t)
        return step[: self.n] if self._dense_steps else step

    def semigroup_value(self, f: np.ndarray, step: np.ndarray, out: np.ndarray) -> None:
        """T(t) f for one field f and the value_step of t, written into out.
        On a 1-D grid of at most DENSE_STEP_MAX_N nodes this is one product
        with the kernel, semigroup_apply(f, t) to rounding; elsewhere it is
        one transform pair, semigroup_apply(f, t) to the bit.

        Neither f nor the operator is checked here: the forward march calls
        this once per step, with the operator it built, and checks its
        steps' outputs itself."""
        if self._dense_steps:
            np.matmul(step, f, out=out)
        else:
            self._multiply(f, step, out)

    def semigroup_gradient(self, f: np.ndarray, step: np.ndarray, out: np.ndarray) -> None:
        """(T(t) f, grad T(t) f) for one field f and the gradient_step of t,
        written into out, a C-contiguous (1 + dim, *shape) array: the value
        into out[0] and the gradient into out[1:].

        On a 1-D grid of at most DENSE_STEP_MAX_N nodes this is one product
        with the stacked kernel.
        Elsewhere it is one forward transform and one inverse over the
        stacked spectra: the value is what semigroup_apply(f, t) returns,
        to the bit, and the gradient the derivative multiplier on the
        value's own spectrum.  Either way the pair matches
        (semigroup_apply(f, t), gradient of it) to rounding.  f is not
        checked here: the HJB march calls this once per time level, with
        the operator it built, and checks its levels' inputs itself.
        """
        if self._dense_steps:
            np.matmul(step, f, out=out.reshape(-1))
        else:
            spec = self._forward(f)
            both = np.empty((1 + self.dim,) + spec.shape, dtype=spec.dtype)
            np.multiply(step, spec, out=both[0])
            np.multiply(self._deriv, both[0], out=both[1:])
            self._inverse(both, out)

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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T], T finite and positive, into ``n_steps``
    steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)
