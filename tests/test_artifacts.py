"""Binary field format, CSV traces, and run output emission."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fmfgc.artifacts import (
    DIAGNOSTICS_HEADER,
    MAGIC,
    emit_artifacts,
    emit_simulation,
    emit_theta_table,
    read_field,
    theta_row,
    write_csv,
    write_field,
)
from fmfgc import spectral
from fmfgc.equilibrium import LoopConfig, solve_equilibrium, sweep_theta
from fmfgc.errors import FormatError
from fmfgc.fokker_planck import initial_density
from fmfgc.hjb import centered_curvature
from fmfgc.manifest import parse_config
from fmfgc.measures import lambda_q
from fmfgc.models import QuadraticModel
from fmfgc.particles import holder_wasserstein_check, simulate_sde
from fmfgc.spectral import SpectralGrid, TimeGrid

from helpers import read_csv

TINY_CONFIG = "\n".join(
    [
        "[scenario]",
        "name = tiny",
        "[grid]",
        "n = 16",
        "n_t = 32",
        "[particles]",
        "count = 200",
        "store_stride = 1",
    ]
)


@pytest.fixture(scope="module")
def tiny_solution():
    mf = parse_config(TINY_CONFIG)
    grid = mf.spatial_grid()
    tg = mf.time_grid()
    m0 = mf.initial_measure(grid)
    sol = solve_equilibrium(
        mf.model(), m0, mf.terminal_condition(grid), tg, cfg=mf.loop_config()
    )
    assert sol.converged
    return mf, sol


@pytest.mark.parametrize(
    "shape", [(), (5,), (3, 4), (2, 3, 5)], ids=["scalar", "1d", "2d", "3d"]
)
def test_field_round_trip_bit_identical(tmp_path, shape):
    rng = np.random.default_rng(12)
    arr = rng.standard_normal(shape)
    path = write_field(tmp_path / "f.bin", arr)
    back = read_field(path)
    assert back.shape == arr.shape
    assert back.dtype == np.float64
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))


def test_field_round_trip_awkward_values(tmp_path):
    arr = np.array([0.1, 1.0 / 3.0, -0.0, 5e-324, 1e308, 0.0])
    back = read_field(write_field(tmp_path / "f.bin", arr))
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))


def test_field_layout(tmp_path):
    arr = np.arange(12.0).reshape(3, 4)
    data = write_field(tmp_path / "f.bin", arr).read_bytes()
    assert data[: len(MAGIC)] == MAGIC
    assert len(data) == len(MAGIC) + 4 + 4 * 2 + 8 * 12
    assert np.frombuffer(data, dtype="<u4", count=1, offset=len(MAGIC))[0] == 2


def layout_bytes(arr) -> bytes:
    """The field format spelled out: magic, u32 rank and shape, then the
    float64 values in row-major order, all little-endian."""
    arr = np.asarray(arr, dtype=np.float64)
    header = np.array([arr.ndim] + list(arr.shape), dtype="<u4").tobytes()
    return MAGIC + header + arr.astype("<f8").tobytes(order="C")


@pytest.mark.parametrize(
    "arr",
    [
        np.float64(-2.5),
        np.array(1.0 / 3.0),
        np.arange(12.0).reshape(3, 4).T,
        np.arange(24.0).reshape(2, 3, 4)[:, ::2, 1:],
        np.broadcast_to(np.arange(3.0), (4, 2, 3)),
        (np.arange(6.0) / 7.0).reshape(2, 3).astype(">f8"),
    ],
    ids=["scalar", "rank0", "transposed", "strided", "broadcast", "big-endian"],
)
def test_field_bytes_are_the_layout(tmp_path, arr):
    # the buffer goes to the file as it is; an array that is not C-contiguous
    # or not little-endian is laid out exactly as a contiguous copy would be
    assert write_field(tmp_path / "f.bin", arr).read_bytes() == layout_bytes(arr)


def test_write_field_makes_no_copy_of_a_contiguous_array(tmp_path):
    arr = np.random.default_rng(3).standard_normal((64, 2, 32, 32))  # 1 MiB
    tracemalloc.start()
    try:
        write_field(tmp_path / "f.bin", arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arr.nbytes // 16


@settings(max_examples=60, deadline=None)
@given(
    arr=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
        elements=st.floats(width=64),
    )
)
def test_field_round_trip_any_rank(tmp_path_factory, arr):
    path = write_field(tmp_path_factory.mktemp("field") / "f.bin", arr)
    assert path.read_bytes() == layout_bytes(arr)
    back = read_field(path)
    assert back.shape == arr.shape and back.dtype == np.float64
    assert back.tobytes() == arr.tobytes()


def test_read_rejects_short_header(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(MAGIC[:5])
    with pytest.raises(FormatError, match="expected at least 12 header bytes, found 5"):
        read_field(p)


def test_read_rejects_bad_magic(tmp_path):
    p = write_field(tmp_path / "f.bin", np.zeros(3))
    data = bytearray(p.read_bytes())
    data[0] ^= 0xFF
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="bad magic"):
        read_field(p)


def test_read_rejects_truncated_shape(tmp_path):
    p = write_field(tmp_path / "f.bin", np.zeros((3, 4)))
    p.write_bytes(p.read_bytes()[:14])
    with pytest.raises(FormatError, match="header for rank 2"):
        read_field(p)


def test_read_rejects_truncated_payload(tmp_path):
    p = write_field(tmp_path / "f.bin", np.zeros((4, 4)))
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(
        FormatError, match=r"expected 128 payload bytes for shape \(4, 4\), found 120"
    ):
        read_field(p)


def test_read_rejects_trailing_garbage(tmp_path):
    p = write_field(tmp_path / "f.bin", np.zeros(4))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="expected 32 payload bytes"):
        read_field(p)


def test_csv_round_trip(tmp_path):
    rows = [["0", "1.5"], ["1", "2.5"]]
    p = write_csv(tmp_path / "t.csv", ["idx", "val"], rows)
    header, body = read_csv(p)
    assert header == ["idx", "val"]
    assert body == rows


def test_emit_artifacts_file_set(tmp_path, tiny_solution):
    mf, sol = tiny_solution
    paths = emit_artifacts(sol, mf, tmp_path)
    # iterations.csv is the solve's own stream, not an artifact written here
    assert sorted(paths) == ["alpha", "diagnostics", "m", "manifest", "u"]
    assert not (tmp_path / "iterations.csv").exists()

    u = read_field(paths["u"])
    m = read_field(paths["m"])
    alpha = read_field(paths["alpha"])
    assert u.shape == (mf.n_t + 1, mf.n)
    assert m.shape == (mf.n_t + 1, mf.n)
    assert alpha.shape == (mf.n_t + 1, 1, mf.n)
    # stored density slices are normalized probability densities
    assert np.all(np.abs(np.mean(m, axis=1) - 1.0) < 1e-10)

    assert parse_config(paths["manifest"].read_text()) == mf


def test_emit_artifacts_diagnostics_rows(tmp_path, tiny_solution):
    mf, sol = tiny_solution
    paths = emit_artifacts(sol, mf, tmp_path)
    header, rows = read_csv(paths["diagnostics"])
    assert header == DIAGNOSTICS_HEADER
    assert len(rows) == mf.n_t + 1
    assert [r[0] for r in rows] == [str(j) for j in range(mf.n_t + 1)]
    # mass column round trips through repr at full precision
    assert all(abs(float(r[2]) - 1.0) < 1e-12 for r in rows)


def test_emit_theta_table(tmp_path):
    mf = parse_config(TINY_CONFIG)
    grid = mf.spatial_grid()
    cfg = LoopConfig(theta_schedule=(0.5, 1.0))
    stages = list(sweep_theta(
        mf.model(), mf.initial_measure(grid), mf.terminal_condition(grid),
        mf.time_grid(), cfg=cfg,
    ))
    path = emit_theta_table([theta_row(stage) for stage in stages], tmp_path)
    header, rows = read_csv(path)
    assert header[:2] == ["theta", "u_sup"]
    assert [float(r[0]) for r in rows] == [0.5, 1.0]
    assert all(r[5] == "1" for r in rows)
    assert [r[6] for r in rows] == [str(stage.sweeps) for stage in stages]


def whole_path_row(stage):
    """The theta-table row of a stage from whole-path passes: sup |u| and
    sup |Du| over the path, lambda_q of the whole measure path and the
    largest centered curvature of the whole value path."""
    u, du = stage.u_sol.u, stage.u_sol.du
    return (
        stage.theta,
        float(np.max(np.abs(u))),
        float(np.max(np.abs(du))),
        float(np.max(lambda_q(stage.mu_path, 2.0))),
        float(np.max(centered_curvature(u, stage.grid))),
        stage.converged,
        stage.sweeps,
    )


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("max_sweeps", [80, 3])
def test_theta_rows_match_whole_path_passes(dim, max_sweeps, monkeypatch):
    # each row is read a block of levels at a time; with 7 levels a block,
    # over several blocks and a short last one, it equals the whole-path
    # passes bit for bit, over a full schedule and one stopped at the
    # first unconverged stage
    n, n_t = (32, 50) if dim == 1 else (16, 24)
    grid = SpectralGrid(dim=dim, n=n, s=0.75)
    monkeypatch.setattr(spectral, "BLOCK_NODES", 7 * grid.n**dim)
    tg = TimeGrid(horizon=0.5, n_steps=n_t)
    x = grid.nodes()[0]
    stages = list(sweep_theta(
        QuadraticModel(coupling_beta=0.3, dim=dim), initial_density(grid, "vonmises"),
        0.1 * np.cos(2 * np.pi * x) * (1.0 + 0.5 * np.sin(2 * np.pi * grid.nodes()[-1])),
        tg, cfg=LoopConfig(max_sweeps=max_sweeps),
    ))
    converged = [stage.converged for stage in stages]
    assert converged == ([True] * 5 if max_sweeps == 80 else [True, True, True, False])
    for stage in stages:
        row = theta_row(stage)
        # the CSV writes each value's repr: equal reprs are equal bits
        assert [repr(v) for v in row] == [repr(v) for v in whole_path_row(stage)]
        assert all(type(value) is float for value in row[:5])


def test_emit_simulation_with_report(tmp_path):
    grid = SpectralGrid(dim=1, n=16, s=0.75)
    tg = TimeGrid(horizon=0.2, n_steps=16)
    path_obj = simulate_sde(None, initial_density(grid, "vonmises"), 200, tg, seed=4)
    report = holder_wasserstein_check(path_obj, b_sup=0.0)
    paths = emit_simulation(path_obj, report, tmp_path)
    assert sorted(paths) == ["holder", "holder_summary", "positions", "sample_times"]
    assert read_field(paths["positions"]).shape == path_obj.positions.shape
    header, rows = read_csv(paths["holder"])
    assert header == ["gap", "w1"]
    assert len(rows) == len(report.gaps)
    header, rows = read_csv(paths["holder_summary"])
    assert header[0] == "noise_floor"
    assert len(rows) == 1


def test_emit_simulation_without_report(tmp_path):
    grid = SpectralGrid(dim=1, n=16, s=0.75)
    tg = TimeGrid(horizon=0.1, n_steps=4)
    path_obj = simulate_sde(None, initial_density(grid, "uniform"), 50, tg, seed=1)
    paths = emit_simulation(path_obj, None, tmp_path)
    assert sorted(paths) == ["positions", "sample_times"]
    assert not (tmp_path / "holder.csv").exists()
