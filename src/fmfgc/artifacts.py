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
from .hjb import hjb_diagnostics
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


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise FormatError(f"{path}: empty CSV")
    return rows[0], rows[1:]


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
    """sup |f| of every time row of a path, in one reduction."""
    return np.max(np.abs(path.reshape(len(path), -1)), axis=1)


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

    alpha = solution.mu_path.alpha
    paths = {
        "u": write_field(outdir / "u.bin", solution.u_sol.u),
        "m": write_field(outdir / "m.bin", solution.m_sol.m),
        "alpha": write_field(outdir / "alpha.bin", alpha),
    }

    fp = solution.m_sol
    columns = (
        times,
        fp.mass_trace,
        fp.min_trace,
        fp.sup_trace,
        fp.advect_drift_trace,
        _row_sup(solution.u_sol.u),
        _row_sup(solution.u_sol.du),
        _row_sup(alpha),
        lambda_q(solution.mu_path, 2.0),
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


def stage_envelope(stage) -> tuple[float, float, float, float]:
    """sup |u|, sup |Du|, sup lambda_2 and the semiconcavity of a stage: the
    a priori bounds the theta table reports and criterion 9 compares."""
    diag = hjb_diagnostics(stage.u_sol)
    lam = float(np.max(lambda_q(stage.mu_path, 2.0)))
    return diag.sup_u, diag.sup_du, lam, diag.semiconcavity


def emit_theta_table(stages, outdir: str | Path) -> Path:
    """Scaling table for the homotopy sweep: one row per stage."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [
        [repr(value) for value in (stage.theta, *stage_envelope(stage))]
        + [int(stage.converged), stage.sweeps]
        for stage in stages
    ]
    return write_csv(
        outdir / "theta_table.csv",
        ["theta", "u_sup", "du_sup", "lambda2_sup", "semiconcavity", "converged", "sweeps"],
        rows,
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
