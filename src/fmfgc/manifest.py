"""Run configuration: parsing, validation, and the resolved manifest.

Configs are sectioned INI-style text, read and echoed through one field
table.  Parsing is strict: unknown sections or keys are errors, duplicates
are errors, and every range violation names the offending key; each range
is checked by the object it guards.  Every key is a setting of the run:
what the model derives from them (its structure constant C0, its growth
q) is no key.  A parsed manifest is fully resolved (all defaults filled
in) and serializes back to text losslessly, so the copy echoed into an
output directory reproduces the run byte for byte.
"""

from __future__ import annotations

import configparser
import io
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .equilibrium import LoopConfig
from .errors import ConfigError
from .fokker_planck import DENSITY_PRESETS, initial_density  # noqa: F401 (re-exported)
from .measures import GridMeasure
from .models import QuadraticModel
from .spectral import SpectralGrid, TimeGrid


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


_KIND = {int: "an integer", float: "a number", _floats: "comma-separated numbers"}


def _parse(name: str, parse: Callable[[str], object], raw: str):
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(f"{name} must be {_KIND[parse]}, got {raw!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {raw!r}")
    return value


def _echo(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


class ConfigKey(NamedTuple):
    section: str
    key: str
    field: str
    parse: Callable[[str], object]
    default: str


#: Every config key, in echo order; the text defaults are the benchmark scenario.
FIELDS = (
    ConfigKey("scenario", "name", "name", str, "benchmark"),
    ConfigKey("scenario", "outdir", "outdir", str, "runs/benchmark"),
    ConfigKey("scenario", "seed", "seed", int, "1234"),
    ConfigKey("grid", "dim", "dim", int, "1"),
    ConfigKey("grid", "n", "n", int, "128"),
    ConfigKey("grid", "n_t", "n_t", int, "200"),
    ConfigKey("grid", "s", "s", float, "0.75"),
    ConfigKey("grid", "horizon", "horizon", float, "1.0"),
    ConfigKey("model", "coupling_beta", "coupling_beta", float, "0.3"),
    ConfigKey("model", "kernel_decay", "kernel_decay", float, "1.0"),
    ConfigKey("initial", "density", "density", str, "vonmises"),
    ConfigKey("initial", "terminal_amplitude", "terminal_amplitude", float, "0.15"),
    ConfigKey("particles", "count", "particle_count", int, "100000"),
    ConfigKey("particles", "store_stride", "store_stride", int, "0"),
    ConfigKey("loop", "tolerance", "tolerance", float, "1e-6"),
    ConfigKey("loop", "max_sweeps", "max_sweeps", int, "80"),
    ConfigKey("loop", "theta", "theta", float, "1.0"),
    ConfigKey("loop", "theta_schedule", "theta_schedule", _floats, "0.0, 0.25, 0.5, 0.75, 1.0"),
)

#: Constructor parameter -> config key, to name the key in a builder's error.
_KEY_OF = {f.field: f"{f.section}.{f.key}" for f in FIELDS} | {"n_steps": "grid.n_t"}


@dataclass(frozen=True)
class RunManifest:
    """Fully resolved run description; every field validated on creation."""

    name: str
    outdir: str
    seed: int
    dim: int
    n: int
    n_t: int
    s: float
    horizon: float
    coupling_beta: float
    kernel_decay: float
    density: str
    terminal_amplitude: float
    particle_count: int
    store_stride: int
    tolerance: float
    max_sweeps: int
    theta: float
    theta_schedule: tuple[float, ...]

    # -- builders -------------------------------------------------------

    def spatial_grid(self) -> SpectralGrid:
        return SpectralGrid(dim=self.dim, n=self.n, s=self.s)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(horizon=self.horizon, n_steps=self.n_t)

    def model(self) -> QuadraticModel:
        return QuadraticModel(
            coupling_beta=self.coupling_beta,
            kernel_decay=self.kernel_decay,
            dim=self.dim,
        )

    def initial_measure(self, grid: SpectralGrid | None = None) -> GridMeasure:
        return initial_density(grid or self.spatial_grid(), self.density)

    def terminal_condition(self, grid: SpectralGrid | None = None) -> np.ndarray:
        """Terminal value: amplitude times a product of one-period cosines."""
        grid = grid or self.spatial_grid()
        nodes = grid.nodes()
        out = np.full(grid.shape, self.terminal_amplitude)
        for axis in range(grid.dim):
            out = out * np.cos(2.0 * np.pi * nodes[axis])
        return out

    def loop_config(self) -> LoopConfig:
        return LoopConfig(
            tolerance=self.tolerance,
            max_sweeps=self.max_sweeps,
            theta_schedule=self.theta_schedule,
        )

    def resolved_stride(self) -> int:
        """Auto store stride: coarsest divisor of n_t keeping >= 8 gaps."""
        if self.store_stride > 0:
            return self.store_stride
        for stride in range(self.n_t // 8, 0, -1):
            if self.n_t % stride == 0:
                return stride
        return 1

    def with_overrides(
        self,
        outdir: str | None = None,
        seed: int | None = None,
        theta: float | None = None,
    ) -> "RunManifest":
        updated = replace(
            self,
            outdir=self.outdir if outdir is None else outdir,
            seed=self.seed if seed is None else seed,
            theta=self.theta if theta is None else theta,
        )
        _check_overridable(updated)
        return updated

    # -- serialization --------------------------------------------------

    def to_text(self) -> str:
        sections: dict[str, dict[str, str]] = {}
        for f in FIELDS:
            sections.setdefault(f.section, {})[f.key] = _echo(getattr(self, f.field))
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(sections)
        out = io.StringIO()
        parser.write(out)
        return out.getvalue()


def _check_overridable(mf: RunManifest) -> None:
    """The checks of the fields ``with_overrides`` may change, which no built object guards."""
    if not mf.outdir:
        raise ConfigError("scenario.outdir must be nonempty")
    if not 0 <= mf.seed < 2**64:
        raise ConfigError(f"scenario.seed must fit in u64, got {mf.seed}")
    if not 0.0 <= mf.theta <= 1.0:
        raise ConfigError(f"loop.theta must lie in [0, 1], got {mf.theta}")


def _validate(mf: RunManifest) -> None:
    """Build the objects that guard the ranges, then check the rest."""
    try:
        grid = mf.spatial_grid()
        mf.time_grid()
        mf.model()
        mf.loop_config()
        mf.initial_measure(grid)
    except ValueError as exc:
        parameter, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{_KEY_OF.get(parameter, parameter)} {rest}") from None

    if not mf.name:
        raise ConfigError("scenario.name must be nonempty")
    _check_overridable(mf)
    if abs(mf.terminal_amplitude) > 100.0:
        raise ConfigError(
            f"initial.terminal_amplitude out of range [-100, 100], "
            f"got {mf.terminal_amplitude}"
        )
    if mf.particle_count < 1:
        raise ConfigError(f"particles.count must be at least 1, got {mf.particle_count}")
    if mf.store_stride < 0 or (
        mf.store_stride > 0 and mf.n_t % mf.store_stride != 0
    ):
        raise ConfigError(
            f"particles.store_stride must be 0 (auto) or a divisor of grid.n_t, "
            f"got {mf.store_stride}"
        )


def parse_config(text: str) -> RunManifest:
    """Parse and fully validate a config; returns the resolved manifest."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    known = {(f.section, f.key) for f in FIELDS}
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if (section, key) not in known:
                raise ConfigError(f"unknown key {section}.{key}")

    mf = RunManifest(**{
        f.field: _parse(f"{f.section}.{f.key}", f.parse,
                        parser.get(f.section, f.key, fallback=f.default))
        for f in FIELDS
    })
    _validate(mf)
    return mf


def default_manifest() -> RunManifest:
    """The documented benchmark scenario."""
    return parse_config("[scenario]\nname = benchmark\n")
