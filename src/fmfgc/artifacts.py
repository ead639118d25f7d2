"""Binary field files and CSV traces for run outputs.

One array format for everything: 8-byte magic, u32 little-endian rank and
shape, then the float64 payload in row-major order.  Explicit endianness
keeps artifacts diffable across machines; readers fail loudly on
truncation with the expected and found byte counts.  CSVs are for
human-facing time series and iteration logs only.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import FormatError
from .hjb import centered_curvature
from .measures import lambda_q

MAGIC = b"FMFGC001"
_HEADER_BYTES = len(MAGIC) + 4


def write_field(path: str | Path, array: np.ndarray) -> Path:
    """Write an array in the package binary format."""
    path = Path(path)
    arr = np.asarray(array, dtype="<f8")
    # capture the shape first: ascontiguousarray promotes rank 0 to rank 1
    shape = arr.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([len(shape)], dtype="<u4").tobytes())
        fh.write(np.array(shape, dtype="<u4").tobytes())
        # the float64 buffer goes to the file as it is; only an array that is
        # not C-contiguous (a transpose, a broadcast) is copied first
        np.ascontiguousarray(arr).tofile(fh)
    return path


def read_field(path: str | Path) -> np.ndarray:
    """Read an array written by write_field, verifying structure."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER_BYTES:
        raise FormatError(
            f"{path}: expected at least {_HEADER_BYTES} header bytes, found {len(data)}"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:len(MAGIC)]!r}, expected {MAGIC!r}")
    rank = int(np.frombuffer(data, dtype="<u4", count=1, offset=len(MAGIC))[0])
    shape_end = _HEADER_BYTES + 4 * rank
    if len(data) < shape_end:
        raise FormatError(
            f"{path}: expected {shape_end} bytes of header for rank {rank}, "
            f"found {len(data)}"
        )
    shape = tuple(
        int(v) for v in np.frombuffer(data, dtype="<u4", count=rank, offset=_HEADER_BYTES)
    )
    expected = 8 * int(np.prod(shape, dtype=np.int64))
    found = len(data) - shape_end
    if found != expected:
        raise FormatError(
            f"{path}: expected {expected} payload bytes for shape {shape}, found {found}"
        )
    payload = np.frombuffer(data, dtype="<f8", count=expected // 8, offset=shape_end)
    return payload.astype(np.float64).reshape(shape)


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


DIAGNOSTICS_HEADER = [
    "index",
    "time",
    "mass",
    "density_min",
    "density_sup",
    "advect_mass_drift",
    "u_sup",
    "du_sup",
    "control_sup",
    "lambda2",
]


def _row_sup(path: np.ndarray) -> np.ndarray:
    """sup |f| of every time row of a path or of a block of its rows."""
    return np.max(np.abs(path.reshape(len(path), -1)), axis=1)


def _level_columns(solution) -> list[np.ndarray]:
    """sup |u|, sup |Du|, sup |alpha| and lambda_2 of every time level of a
    solution, a block of levels at a time (``SpectralGrid.level_blocks``).

    The sups of Du and alpha are maxima over components and nodes, so in
    d >= 2 they are the largest |partial_i u| and |alpha_i|, not the largest
    Euclidean norm |Du| that the moment certificate's du_sup takes."""
    u, du, mu_path = solution.u_sol.u, solution.u_sol.du, solution.mu_path
    blocks = [
        (_row_sup(u[b]), _row_sup(du[b]), _row_sup(mu_path.alpha[b]),
         lambda_q(mu_path.levels(b), 2.0))
        for b in solution.grid.level_blocks(len(u))
    ]
    return [np.concatenate(column) for column in zip(*blocks)]


def emit_artifacts(solution, manifest, outdir: str | Path) -> dict[str, Path]:
    """Write a converged (or final) equilibrium state to an output directory.

    Produces u.bin / m.bin / alpha.bin, the per-time diagnostics.csv with
    n_t + 1 rows, and the echoed manifest.  The per-sweep iterations.csv is
    the one the solve streamed (``equilibrium.MetricsWriter``).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tg = solution.time_grid
    times = tg.times()

    paths = {
        "u": write_field(outdir / "u.bin", solution.u_sol.u),
        "m": write_field(outdir / "m.bin", solution.m_sol.m),
        "alpha": write_field(outdir / "alpha.bin", solution.mu_path.alpha),
    }

    fp = solution.m_sol
    columns = (
        times,
        fp.mass_trace,
        fp.min_trace,
        fp.sup_trace,
        fp.advect_drift_trace,
        *_level_columns(solution),
    )
    rows = [
        [j] + [repr(value) for value in row]
        for j, row in enumerate(zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))
    ]
    paths["diagnostics"] = write_csv(outdir / "diagnostics.csv", DIAGNOSTICS_HEADER, rows)

    manifest_path = outdir / "manifest.cfg"
    manifest_path.write_text(manifest.to_text())
    paths["manifest"] = manifest_path
    return paths


def theta_row(stage) -> tuple:
    """A stage's theta-table row: theta, the a priori bounds criterion 9
    compares (sup |u|, sup |Du| and sup lambda_2, the maxima over levels of
    the diagnostics.csv columns, and the semiconcavity, the largest centered
    curvature of u, a block of levels at a time), converged and sweeps."""
    u_sup, du_sup, _, lam = (float(np.max(column)) for column in _level_columns(stage))
    u = stage.u_sol.u
    semiconcavity = float(np.max([
        np.max(centered_curvature(u[b], stage.grid)) for b in stage.grid.level_blocks(len(u))
    ]))
    return (stage.theta, u_sup, du_sup, lam, semiconcavity, stage.converged, stage.sweeps)


def emit_theta_table(rows, outdir: str | Path) -> Path:
    """Scaling table for the homotopy sweep from its ``theta_row`` rows,
    one per stage."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return write_csv(
        outdir / "theta_table.csv",
        ["theta", "u_sup", "du_sup", "lambda2_sup", "semiconcavity", "converged", "sweeps"],
        ([repr(value) for value in row[:5]] + [int(row[5]), row[6]] for row in rows),
    )


def emit_simulation(path_obj, report, outdir: str | Path) -> dict[str, Path]:
    """Particle-run outputs: stored positions, times, and the path report."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "positions": write_field(outdir / "positions.bin", path_obj.positions),
        "sample_times": write_field(outdir / "sample_times.bin", path_obj.times),
    }
    if report is None:
        # too few stored snapshots for a regularity fit; keep the run outputs
        return paths
    rows = [
        [repr(float(g)), repr(float(d))]
        for g, d in zip(report.gaps, report.distances)
    ]
    paths["holder"] = write_csv(outdir / "holder.csv", ["gap", "w1"], rows)
    fit = (report.noise_floor, report.fitted_constant, report.slack, report.exponent)
    paths["holder_summary"] = write_csv(
        outdir / "holder_summary.csv",
        ["noise_floor", "fitted_constant", "slack", "exponent", "passed"],
        [[repr(value) for value in fit] + [int(report.passed)]],
    )
    return paths
