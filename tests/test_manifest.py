"""Config parsing, validation messages, and lossless manifest echo."""

import configparser
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmfgc.errors import ConfigError
from fmfgc.manifest import DENSITY_PRESETS, FIELDS, default_manifest, parse_config
from fmfgc.models import QuadraticModel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_config_fills_documented_defaults():
    mf = parse_config("[scenario]\nname = smoke\n")
    assert mf.name == "smoke"
    assert mf.outdir == "runs/benchmark"
    assert mf.seed == 1234
    assert (mf.dim, mf.n, mf.n_t) == (1, 128, 200)
    assert (mf.s, mf.horizon) == (0.75, 1.0)
    assert (mf.coupling_beta, mf.kernel_decay) == (0.3, 1.0)
    assert mf.density == "vonmises"
    assert mf.terminal_amplitude == 0.15
    assert (mf.particle_count, mf.store_stride) == (100000, 0)
    assert (mf.tolerance, mf.max_sweeps) == (1e-6, 80)
    assert mf.theta == 1.0
    assert mf.theta_schedule == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_default_manifest_is_benchmark():
    assert default_manifest() == parse_config("[scenario]\nname = benchmark\n")


def test_derived_model_constants_resolved():
    # C0 and q are read off the model the manifest builds; neither is echoed
    mf = default_manifest()
    derived = QuadraticModel(coupling_beta=0.3, kernel_decay=1.0, dim=1)
    assert mf.model().C0 == derived.C0
    assert mf.model().q == derived.q == 2.0
    assert "c0" not in mf.to_text()


def test_explicit_matching_constants_accepted():
    # the settings C0 and q derive from, stated explicitly at their defaults,
    # resolve the same constants; naming C0 itself, even at the value the
    # model derives, is an unknown key
    derived = QuadraticModel(coupling_beta=0.3, kernel_decay=1.0, dim=1)
    mf = parse_config("[model]\ncoupling_beta = 0.3\nkernel_decay = 1.0\n")
    assert mf == default_manifest()
    assert (mf.model().C0, mf.model().q) == (derived.C0, derived.q)
    with pytest.raises(ConfigError, match="unknown key model.c0"):
        parse_config(f"[model]\nc0 = {derived.C0!r}\n")


def test_conflicting_c0_rejected():
    with pytest.raises(ConfigError, match="unknown key model.c0"):
        parse_config("[model]\nc0 = 3.14\n")


def test_conflicting_q_rejected():
    with pytest.raises(ConfigError, match="unknown key model.q"):
        parse_config("[model]\nq = 3.0\n")


def test_round_trip_is_lossless():
    text = "\n".join(
        [
            "[scenario]",
            "name = irr",
            "seed = 77",
            "[grid]",
            "n = 64",
            "n_t = 48",
            "s = 0.6180339887498949",
            "horizon = 0.3333333333333333",
            "[model]",
            "coupling_beta = 0.7071067811865476",
            "[loop]",
            "theta = 0.1",
            "theta_schedule = 0.05, 0.1",
        ]
    )
    mf = parse_config(text)
    assert parse_config(mf.to_text()) == mf


def test_default_round_trip():
    mf = default_manifest()
    assert parse_config(mf.to_text()) == mf


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[solver\]"):
        parse_config("[solver]\nn = 64\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key grid.m"):
        parse_config("[grid]\nm = 64\n")


def test_duplicate_key_is_parse_error():
    with pytest.raises(ConfigError, match="config parse error"):
        parse_config("[grid]\nn = 64\nn = 128\n")


@pytest.mark.parametrize("bad_s", ["0.4", "0.5", "1.0"])
def test_exponent_range_names_the_interval(bad_s):
    with pytest.raises(ConfigError, match=r"s ∈ \(1/2, 1\)"):
        parse_config(f"[grid]\ns = {bad_s}\n")


def test_non_power_of_two_grid_rejected():
    with pytest.raises(ConfigError, match="power of two"):
        parse_config("[grid]\nn = 48\n")
    with pytest.raises(ConfigError, match="power of two"):
        parse_config("[grid]\nn = 4\n")


def test_bad_integer_names_key():
    with pytest.raises(ConfigError, match="grid.n must be an integer"):
        parse_config("[grid]\nn = twelve\n")


def test_bad_float_names_key():
    with pytest.raises(ConfigError, match="grid.horizon must be a number"):
        parse_config("[grid]\nhorizon = long\n")
    with pytest.raises(ConfigError, match="grid.horizon must be finite"):
        parse_config("[grid]\nhorizon = inf\n")


@pytest.mark.parametrize("bad_beta", ["0.0", "1.0", "-0.2"])
def test_coupling_strength_strictly_inside_unit_interval(bad_beta):
    with pytest.raises(ConfigError, match="coupling_beta"):
        parse_config(f"[model]\ncoupling_beta = {bad_beta}\n")


def test_density_preset_list_in_message():
    with pytest.raises(ConfigError, match="initial.density"):
        parse_config("[initial]\ndensity = gaussian\n")
    assert "vonmises" in DENSITY_PRESETS


def test_schedule_validation():
    with pytest.raises(ConfigError, match="comma-separated"):
        parse_config("[loop]\ntheta_schedule = a, b\n")
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config("[loop]\ntheta_schedule = 0.5, 0.5\n")
    with pytest.raises(ConfigError, match=r"entries must lie in \[0, 1\]"):
        parse_config("[loop]\ntheta_schedule = 0.5, 1.5\n")
    for schedule in (",", "0.0"):
        with pytest.raises(
            ConfigError, match="loop.theta_schedule must be nonempty and end above 0"
        ):
            parse_config(f"[loop]\ntheta_schedule = {schedule}\n")


def test_theta_accepts_endpoints():
    assert parse_config("[loop]\ntheta = 0.0\n").theta == 0.0
    assert parse_config("[loop]\ntheta = 1.0\n").theta == 1.0
    with pytest.raises(ConfigError, match="loop.theta"):
        parse_config("[loop]\ntheta = 1.1\n")


@pytest.mark.parametrize("key", ["damping", "stall_window"])
def test_removed_loop_keys_are_unknown(key):
    # the outer loop is plain Picard: no damping, no stall window
    with pytest.raises(ConfigError, match=f"unknown key loop.{key}"):
        parse_config(f"[loop]\n{key} = 1.0\n")


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("[scenario]\nseed = -1\n")


def test_store_stride_must_divide_time_steps():
    with pytest.raises(ConfigError, match="store_stride"):
        parse_config("[grid]\nn_t = 200\n[particles]\nstore_stride = 7\n")
    mf = parse_config("[grid]\nn_t = 200\n[particles]\nstore_stride = 50\n")
    assert mf.resolved_stride() == 50


def test_auto_stride_keeps_at_least_eight_gaps():
    assert parse_config("[grid]\nn_t = 200\n").resolved_stride() == 25
    assert parse_config("[grid]\nn_t = 100\n").resolved_stride() == 10
    # prime step counts below 8 gaps fall back to storing every step
    assert parse_config("[grid]\nn_t = 7\n").resolved_stride() == 1


def test_with_overrides_replaces_and_revalidates():
    mf = default_manifest()
    out = mf.with_overrides(outdir="elsewhere", seed=9, theta=0.5)
    assert (out.outdir, out.seed, out.theta) == ("elsewhere", 9, 0.5)
    assert out.n == mf.n
    with pytest.raises(ConfigError, match="loop.theta"):
        mf.with_overrides(theta=2.0)


@pytest.mark.parametrize(
    "override, key",
    [({"theta": 1.5}, "loop.theta"), ({"seed": -1}, "scenario.seed"),
     ({"outdir": ""}, "scenario.outdir")],
)
def test_with_overrides_rejection_names_key(override, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        default_manifest().with_overrides(**override)


def test_terminal_condition_product_form():
    mf = parse_config("[grid]\nn = 16\n[initial]\nterminal_amplitude = 0.5\n")
    grid = mf.spatial_grid()
    x = grid.nodes()[0]
    assert np.allclose(mf.terminal_condition(grid), 0.5 * np.cos(2.0 * np.pi * x))

    mf2 = parse_config(
        "[grid]\ndim = 2\nn = 16\n[initial]\nterminal_amplitude = 0.5\n"
    )
    grid2 = mf2.spatial_grid()
    xs, ys = grid2.nodes()
    expect = 0.5 * np.cos(2.0 * np.pi * xs) * np.cos(2.0 * np.pi * ys)
    assert np.allclose(mf2.terminal_condition(grid2), expect)


def test_initial_measure_is_normalized():
    mf = parse_config("[grid]\nn = 32\n")
    m0 = mf.initial_measure(mf.spatial_grid())
    assert abs(m0.mass - 1.0) < 1e-12


def test_loop_config_passthrough():
    mf = parse_config("[loop]\ntolerance = 1e-5\nmax_sweeps = 7\n")
    cfg = mf.loop_config()
    assert cfg.tolerance == 1e-5
    assert cfg.max_sweeps == 7
    assert cfg.theta_schedule == mf.theta_schedule


def test_kernel_decay_too_small_for_finite_constant():
    # exp(-decay) rounds to one, so the structure constant c0 would be
    # infinite and its echo could not be read back.
    with pytest.raises(ConfigError, match="model.kernel_decay"):
        parse_config("[model]\nkernel_decay = 1e-20\n")


def test_readme_config_matches_schema():
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    parse_config(block)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    keys = {(section, key) for section in parser.sections() for key in parser.options(section)}
    assert keys == {(f.section, f.key) for f in FIELDS if isinstance(f.default, str)}


_WORD = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=16
).filter(lambda t: t == t.strip())
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def config_values(draw):
    """(section, key) -> value text for a valid config, some keys left out."""
    n_t = draw(st.integers(1, 400))
    schedule = draw(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6, unique=True).filter(
            lambda ts: max(ts) > 0.0  # a schedule must end above 0
        )
    )
    values = {
        ("scenario", "name"): draw(_WORD),
        ("scenario", "outdir"): draw(_WORD),
        ("scenario", "seed"): str(draw(st.integers(0, 2**64 - 1))),
        ("grid", "dim"): str(draw(st.sampled_from([1, 2]))),
        ("grid", "n"): str(draw(st.sampled_from([8, 16, 32]))),
        ("grid", "n_t"): str(n_t),
        ("grid", "s"): repr(draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))),
        ("grid", "horizon"): repr(draw(st.floats(0.0, 1e6, exclude_min=True))),
        ("model", "coupling_beta"): repr(draw(_OPEN_UNIT)),
        ("model", "kernel_decay"): repr(draw(st.floats(1e-15, 1e6))),
        ("initial", "density"): draw(st.sampled_from(DENSITY_PRESETS)),
        ("initial", "terminal_amplitude"): repr(draw(st.floats(-100.0, 100.0))),
        ("particles", "count"): str(draw(st.integers(1, 10**9))),
        ("particles", "store_stride"): str(
            draw(st.sampled_from([0] + [k for k in range(1, n_t + 1) if n_t % k == 0]))
        ),
        ("loop", "tolerance"): repr(draw(st.floats(0.0, 1e3, exclude_min=True))),
        ("loop", "max_sweeps"): str(draw(st.integers(1, 10**6))),
        ("loop", "theta"): repr(draw(st.floats(0.0, 1.0))),
        ("loop", "theta_schedule"): ", ".join(repr(t) for t in sorted(schedule)),
    }
    kept = draw(st.sets(st.sampled_from(sorted(values))))
    if ("particles", "store_stride") in kept:  # a divisor of this n_t only
        kept.add(("grid", "n_t"))
    return {k: v for k, v in values.items() if k in kept}


@settings(max_examples=60, deadline=None, database=None)
@given(config_values())
def test_echo_round_trip_property(values):
    sections: dict[str, list[str]] = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())
    mf = parse_config(text)
    echo = mf.to_text()
    again = parse_config(echo)
    assert again == mf
    assert again.to_text() == echo
    # every value the config gave comes back verbatim in the echo
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(echo)
    for (section, key), value in values.items():
        assert parser.get(section, key) == value
