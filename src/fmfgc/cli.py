"""Command line front end: solve, simulate, validate, sweep-theta.

Every command reads one config file, resolves it to a manifest, and
echoes that manifest into the output directory so the run is
reproducible from its artifacts alone.  Failures exit nonzero with a
JSON summary on stderr; successful runs print a JSON summary on stdout.
A package error's summary is a typed failure record: it also carries the
error's sweep index, time level and required step count where it has
them, and ``solve`` and ``sweep-theta`` write it to ``failure.json`` in
their output directory, where a record of an earlier run is removed when
they start.  Both stream ``iterations.csv`` into the output directory
while they solve, one flushed row per sweep, so a run that fails or is
killed still leaves its per-sweep trace; that stream is the file's only
writer, and ``solve`` at theta = 0 writes its header alone.  The
summaries of ``solve``, ``simulate`` and ``sweep-theta`` carry the wall
time of each phase under ``timings``; ``validate``'s carries the seconds
of each criterion and of the whole suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .artifacts import (
    emit_artifacts,
    emit_simulation,
    emit_theta_table,
    read_field,
    write_csv,
)
from .equilibrium import (
    MetricsWriter,
    analytic_base,
    equilibrium_certificate,
    solve_equilibrium,
    sweep_theta,
)
from .errors import FmfgcError
from .manifest import RunManifest, default_manifest, parse_config
from .measures import GridMeasure, coordinate_marginals, wasserstein_1d
from .particles import empirical_measure, holder_wasserstein_check, simulate_sde
from .validation import AcceptanceContext, run_all

#: where a failed run stops: the attributes a package error may carry
_FAILURE_FIELDS = ("sweep_index", "time_index", "required_steps")


def _apply_thread_hint(threads: int | None) -> None:
    # Caps the particle pool, which reads OMP_NUM_THREADS at call time.  BLAS
    # has sized its pool from the environment the process started with, as
    # numpy is loaded by now; results depend on neither.
    if threads is not None:
        if threads < 1:
            raise FmfgcError(f"--threads must be at least 1, got {threads}")
        os.environ["OMP_NUM_THREADS"] = str(threads)


def _load_manifest(args) -> RunManifest:
    if args.config is not None:
        manifest = parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        manifest = default_manifest()
    return manifest.with_overrides(outdir=args.out, seed=args.seed, theta=args.theta)


def _problem(mf: RunManifest):
    """The time grid, model, initial measure and terminal value of a run."""
    grid = mf.spatial_grid()
    return mf.time_grid(), mf.model(), mf.initial_measure(grid), mf.terminal_condition(grid)


def _summary(payload: dict, ok: bool = True) -> None:
    print(json.dumps(payload), file=sys.stdout if ok else sys.stderr, flush=True)


def _finish(payload: dict, ok: bool) -> int:
    """Print a command's summary and return its exit code: 0 on stdout when
    ok, else 2 on stderr (a run that finished short of its target)."""
    _summary(payload, ok)
    return 0 if ok else 2


def _failure(command: str, exc: Exception) -> dict:
    """The failure record of a command: the error's type and message, and
    where the run stopped, as far as the error says."""
    record = {"command": command, "error": type(exc).__name__, "message": str(exc)}
    for name in _FAILURE_FIELDS:
        if getattr(exc, name, None) is not None:
            record[name] = getattr(exc, name)
    return record


@contextmanager
def _failure_record(command: str, outdir: Path):
    """Remove the failure.json an earlier run left in outdir, and write this
    run's failure record there if a package error ends the block."""
    failure = outdir / "failure.json"
    failure.unlink(missing_ok=True)
    try:
        yield
    except FmfgcError as exc:
        outdir.mkdir(parents=True, exist_ok=True)
        failure.write_text(json.dumps(_failure(command, exc)) + "\n")
        raise


def _iterations_stream(outdir: Path):
    """outdir/iterations.csv, opened for the rows a solve streams per sweep;
    the only writer of that file."""
    outdir.mkdir(parents=True, exist_ok=True)
    return open(outdir / "iterations.csv", "w", newline="")


def _cmd_solve(args) -> int:
    mf = _load_manifest(args)
    outdir = Path(mf.outdir)
    clock = time.perf_counter
    t0 = clock()
    with _failure_record("solve", outdir):
        tg, model, m0, u_t = _problem(mf)
        with _iterations_stream(outdir) as stream:
            if mf.theta == 0.0:
                MetricsWriter(stream)  # the base runs no sweep: a header only
                sol = analytic_base(m0, u_t, tg)
            else:
                sol = solve_equilibrium(
                    model, m0, u_t, tg, theta_target=mf.theta, cfg=mf.loop_config(),
                    metrics_stream=stream,
                )
        t1 = clock()
        emit_artifacts(sol, mf, outdir)
        t2 = clock()
        cert = equilibrium_certificate(sol, model)
        t3 = clock()
    payload = {
        "command": "solve",
        "outdir": mf.outdir,
        "theta": mf.theta,
        "converged": sol.converged,
        "sweeps": sol.sweeps,
        "duality": cert.duality,
        "exploitability": cert.exploitability,
        "timings": {"solve_s": t1 - t0, "certificate_s": t3 - t2, "write_s": t2 - t1},
    }
    return _finish(payload, sol.converged)


def _cmd_simulate(args) -> int:
    mf = _load_manifest(args)
    outdir = Path(mf.outdir)
    grid = mf.spatial_grid()
    tg = mf.time_grid()
    m0 = mf.initial_measure(grid)
    drift = read_field(outdir / "alpha.bin")
    expected = (tg.n_steps + 1, grid.dim) + grid.shape
    if drift.shape != expected:
        raise FmfgcError(
            f"stored control path has shape {drift.shape}, expected {expected}; "
            f"run solve with this config first"
        )
    m_path = read_field(outdir / "m.bin")
    clock = time.perf_counter
    t0 = clock()
    path = simulate_sde(
        drift,
        m0,
        mf.particle_count,
        tg,
        seed=mf.seed,
        store_stride=mf.resolved_stride(),
    )
    t1 = clock()
    emp = empirical_measure(path.terminal(), grid)
    terminal = GridMeasure(grid, m_path[-1])
    w1 = float(np.max(wasserstein_1d(coordinate_marginals(emp), coordinate_marginals(terminal))))
    t2 = clock()
    report = None
    if len(path.times) >= 8:
        report = holder_wasserstein_check(path, b_sup=float(np.max(np.abs(drift))))
    t3 = clock()
    emit_simulation(path, report, outdir)
    (outdir / "manifest.cfg").write_text(mf.to_text())
    t4 = clock()
    exponent = None
    if report is not None and not np.isnan(report.exponent):
        exponent = report.exponent
    payload = {
        "command": "simulate",
        "outdir": mf.outdir,
        "particles": mf.particle_count,
        "w1_terminal": w1,
        "holder_passed": None if report is None else report.passed,
        "holder_exponent": exponent,
        "timings": {
            "simulate_s": t1 - t0,
            "crosscheck_s": t2 - t1,
            "holder_s": t3 - t2,
            "write_s": t4 - t3,
        },
    }
    return _finish(payload, True)


def _cmd_validate(args) -> int:
    ctx = AcceptanceContext()
    t0 = time.perf_counter()
    results = run_all(ctx, stream=sys.stdout)
    total = time.perf_counter() - t0
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(
            outdir / "validation.csv",
            ["index", "name", "passed", "detail", "seconds"],
            [
                [r.index, r.name, int(r.passed), r.detail, f"{r.seconds:.3f}"]
                for r in results
            ],
        )
    failed = [r.index for r in results if not r.passed]
    payload = {
        "command": "validate",
        "total": len(results),
        "failed": failed,
        "timings": {
            "criterion_s": {str(r.index): r.seconds for r in results},
            "total_s": total,
        },
    }
    return _finish(payload, not failed)


def _cmd_sweep_theta(args) -> int:
    mf = _load_manifest(args)
    outdir = Path(mf.outdir)
    clock = time.perf_counter
    with _failure_record("sweep-theta", outdir):
        tg, model, m0, u_t = _problem(mf)
        t0 = clock()
        with _iterations_stream(outdir) as stream:
            stages = sweep_theta(model, m0, u_t, tg, cfg=mf.loop_config(), metrics_stream=stream)
        t1 = clock()
        emit_theta_table(stages, outdir)
        (outdir / "manifest.cfg").write_text(mf.to_text())
        t2 = clock()
        # the last stage is the target game, or the stage the sweep stopped at
        cert = equilibrium_certificate(stages[-1], model)
        t3 = clock()
    all_converged = all(stage.converged for stage in stages)
    payload = {
        "command": "sweep-theta",
        "outdir": mf.outdir,
        "thetas": [stage.theta for stage in stages],
        "converged": all_converged,
        "duality": cert.duality,
        "exploitability": cert.exploitability,
        "timings": {"solve_s": t1 - t0, "certificate_s": t3 - t2, "write_s": t2 - t1},
    }
    return _finish(payload, all_converged)


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "sweep-theta": _cmd_sweep_theta,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmfgc",
        description=(
            "Mean field games of controls under fractional diffusion: "
            "equilibrium solver, particle validation, acceptance suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "solve": "compute the equilibrium triple for a config and write artifacts",
        "simulate": "run the particle validator against stored solve artifacts",
        "validate": "execute the acceptance criteria; nonzero exit on any failure",
        "sweep-theta": "run the homotopy schedule and emit the scaling table",
    }
    for name, help_text in helps.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="config file path")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
        cmd.add_argument("--threads", type=int, default=None, help="thread-pool hint")
        cmd.add_argument("--theta", type=float, default=None, help="target theta override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_hint(args.threads)
        return _COMMANDS[args.command](args)
    except (FmfgcError, OSError) as exc:
        _summary(_failure(args.command, exc), ok=False)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
