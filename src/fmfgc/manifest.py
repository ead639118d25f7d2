"""Run configuration: parsing, validation, and the resolved manifest.

Configs are sectioned INI-style text.  Each field of ``RunManifest``
declares its config key (section, key, parser, text default), and configs
are read and echoed through the table of those keys.  Parsing is strict:
unknown sections or keys are errors, duplicates are errors, and every
range violation names the offending key; each range is checked by the
object it guards.  Every key is a setting of the run:
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
from dataclasses import dataclass, field, fields
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


def _key(section: str, key: str, parse: Callable[[str], object], default: str):
    """A manifest field read from config key section.key by parse, with the
    text default used when the config leaves the key out."""
    return field(metadata={"section": section, "key": key, "parse": parse, "default": default})


@dataclass(frozen=True)
class RunManifest:
    """Fully resolved run description; every field validated on creation.

    Each field is one config key, in echo order; the text defaults are the
    benchmark scenario."""

    name: str = _key("scenario", "name", str, "benchmark")
    outdir: str = _key("scenario", "outdir", str, "runs/benchmark")
    seed: int = _key("scenario", "seed", int, "1234")
    dim: int = _key("grid", "dim", int, "1")
    n: int = _key("grid", "n", int, "128")
    n_t: int = _key("grid", "n_t", int, "200")
    s: float = _key("grid", "s", float, "0.75")
    horizon: float = _key("grid", "horizon", float, "1.0")
    coupling_beta: float = _key("model", "coupling_beta", float, "0.3")
    kernel_decay: float = _key("model", "kernel_decay", float, "1.0")
    density: str = _key("initial", "density", str, "vonmises")
    terminal_amplitude: float = _key("initial", "terminal_amplitude", float, "0.15")
    particle_count: int = _key("particles", "count", int, "100000")
    store_stride: int = _key("particles", "store_stride", int, "0")
    tolerance: float = _key("loop", "tolerance", float, "1e-6")
    max_sweeps: int = _key("loop", "max_sweeps", int, "80")
    theta: float = _key("loop", "theta", float, "1.0")
    theta_schedule: tuple[float, ...] = _key(
        "loop", "theta_schedule", _floats, "0.0, 0.25, 0.5, 0.75, 1.0"
    )

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

    def initial_measure(self, grid: SpectralGrid) -> GridMeasure:
        return initial_density(grid, self.density)

    def terminal_condition(self, grid: SpectralGrid) -> np.ndarray:
        """Terminal value: amplitude times a product of one-period cosines."""
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


class ConfigKey(NamedTuple):
    section: str
    key: str
    field: str
    parse: Callable[[str], object]
    default: str


#: Every config key, in echo order, as the manifest's fields declare them.
FIELDS = tuple(ConfigKey(field=f.name, **f.metadata) for f in fields(RunManifest))

#: Constructor parameter -> config key, to name the key in a builder's error.
_KEY_OF = {f.field: f"{f.section}.{f.key}" for f in FIELDS} | {"n_steps": "grid.n_t"}


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
    if not mf.outdir:
        raise ConfigError("scenario.outdir must be nonempty")
    if not 0 <= mf.seed < 2**64:
        raise ConfigError(f"scenario.seed must fit in u64, got {mf.seed}")
    if not 0.0 <= mf.theta <= 1.0:
        raise ConfigError(f"loop.theta must lie in [0, 1], got {mf.theta}")
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


def parse_config(text: str, **overrides) -> RunManifest:
    """Parse and fully validate a config; returns the resolved manifest.

    overrides replace fields by name, as a command's flags do; None leaves
    the config's value."""
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
    } | {name: value for name, value in overrides.items() if value is not None})
    _validate(mf)
    return mf


def default_manifest() -> RunManifest:
    """The documented benchmark scenario."""
    return parse_config("[scenario]\nname = benchmark\n")
