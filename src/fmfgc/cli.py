"""Command line front end: solve, simulate, validate, sweep-theta.

``solve``, ``simulate`` and ``sweep-theta`` read one config file, resolve
it to a manifest, and echo that manifest into the output directory so the
run is reproducible from its artifacts alone; ``simulate`` first checks
that the grid, model, initial and loop settings are those of the solve
echoed there.  Each command takes only the flags of the settings it
reads: ``validate`` reads no config.  Failures exit nonzero with a
JSON summary on stderr; successful runs print a JSON summary on stdout.
A package error's summary is a typed failure record: it also carries the
error's sweep index, time level and required step count where it has
them, and ``solve`` and ``sweep-theta`` write it to ``failure.json`` in
their output directory, where a record of an earlier run is removed when
they start.  Both stream ``iterations.csv`` into the output directory
while they solve, one flushed row per sweep, so a run that fails or is
killed still leaves its per-sweep trace; that stream is the file's only
writer, and ``solve`` at theta = 0 writes its header alone.  The
summaries of ``solve`` and ``sweep-theta`` report the whole equilibrium
certificate of the solution they return, and theirs and ``simulate``'s
carry the wall time of each phase under ``timings``; ``validate``'s
carries the seconds of each criterion and of the whole suite.
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
    theta_row,
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
from .manifest import FIELDS, RunManifest, parse_config
from .measures import GridMeasure, coordinate_marginals, wasserstein_1d
from .particles import empirical_measure, holder_wasserstein_check, simulate_sde
from .validation import AcceptanceContext, run_all

#: where a failed run stops: the attributes a package error may carry
_FAILURE_FIELDS = ("sweep_index", "time_index", "required_steps")
#: what a solve's summary reports of the equilibrium certificate
_CERTIFICATE_FIELDS = ("duality", "exploitability", "moments_ok", "monotone_ok", "lambda_sup")


def _apply_thread_hint(threads: int | None) -> None:
    # Caps the processes that march the particles, a count read from
    # OMP_NUM_THREADS at call time.  BLAS has sized its thread pool from the
    # environment the process started with, as numpy is loaded by now;
    # results depend on neither.
    if threads is not None:
        if threads < 1:
            raise FmfgcError(f"--threads must be at least 1, got {threads}")
        os.environ["OMP_NUM_THREADS"] = str(threads)


def _load_manifest(args, **overrides) -> RunManifest:
    """The manifest of the config (the defaults without one), with --out and
    the command's other flags in place of the settings they override."""
    text = "" if args.config is None else Path(args.config).read_text(encoding="utf-8")
    return parse_config(text, outdir=args.out, **overrides)


def _check_solved_with(mf: RunManifest, outdir: Path) -> None:
    """Refuse grid, model, initial or loop settings other than those of the
    solve whose manifest is echoed in outdir."""
    stored = parse_config((outdir / "manifest.cfg").read_text(encoding="utf-8"))
    differ = [
        f"{f.section}.{f.key}" for f in FIELDS
        if f.section in ("grid", "model", "initial", "loop")
        and getattr(mf, f.field) != getattr(stored, f.field)
    ]
    if differ:
        raise FmfgcError(
            f"{', '.join(differ)} differ from the solve stored in {outdir}; "
            f"run solve with this config first"
        )


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
    mf = _load_manifest(args, theta=args.theta)
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
        **{name: getattr(cert, name) for name in _CERTIFICATE_FIELDS},
        "timings": {"solve_s": t1 - t0, "certificate_s": t3 - t2, "write_s": t2 - t1},
    }
    return _finish(payload, sol.converged)


def _cmd_simulate(args) -> int:
    _apply_thread_hint(args.threads)
    mf = _load_manifest(args, seed=args.seed)
    outdir = Path(mf.outdir)
    _check_solved_with(mf, outdir)
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
        "workers": path.workers,
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
    _apply_thread_hint(args.threads)
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
            # each stage becomes its row as it ends; only the last is kept
            rows = []
            stages = sweep_theta(model, m0, u_t, tg, cfg=mf.loop_config(), metrics_stream=stream)
            for stage in stages:
                rows.append(theta_row(stage))
        t1 = clock()
        emit_theta_table(rows, outdir)
        (outdir / "manifest.cfg").write_text(mf.to_text())
        t2 = clock()
        # the last stage is the target game, or the stage the sweep stopped at
        cert = equilibrium_certificate(stage, model)
        t3 = clock()
    # the sweep stops after its first unconverged stage: the last stage
    # converged only if every stage did
    payload = {
        "command": "sweep-theta",
        "outdir": mf.outdir,
        "thetas": [row[0] for row in rows],
        "converged": stage.converged,
        **{name: getattr(cert, name) for name in _CERTIFICATE_FIELDS},
        "timings": {"solve_s": t1 - t0, "certificate_s": t3 - t2, "write_s": t2 - t1},
    }
    return _finish(payload, stage.converged)


_FLAGS = {
    "--config": dict(type=Path, help="config file path"),
    "--out": dict(help="output directory override"),
    "--seed": dict(type=int, help="particle seed override"),
    "--threads": dict(type=int, help="cap on the processes that march the particles"),
    "--theta": dict(type=float, help="target theta override"),
}

#: name -> (command, its flags, help): a command takes the flags of the
#: settings it reads, and no other
_COMMANDS = {
    "solve": (_cmd_solve, "--config --out --theta",
              "compute the equilibrium triple for a config and write artifacts"),
    "simulate": (_cmd_simulate, "--config --out --seed --threads",
                 "run the particle validator against stored solve artifacts"),
    "validate": (_cmd_validate, "--out --threads",
                 "execute the acceptance criteria; nonzero exit on any failure"),
    "sweep-theta": (_cmd_sweep_theta, "--config --out",
                    "run the homotopy schedule and emit the scaling table"),
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
    for name, (_, flags, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (FmfgcError, OSError) as exc:
        _summary(_failure(args.command, exc), ok=False)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
