"""Command line behavior: exit codes, JSON summaries, artifact layout.

Commands run in-process through main(), so these tests cover argument
parsing and command glue without paying subprocess startup per case.
The full acceptance suite has its own test module; here run_all is
stubbed when only the validate command's plumbing is under test.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fmfgc
import fmfgc.cli as cli
import fmfgc.equilibrium as equilibrium
import fmfgc.manifest as manifest
import fmfgc.particles as particles
from fmfgc.artifacts import read_field, write_field
from fmfgc.cli import main
from fmfgc.errors import CflError
from fmfgc.manifest import parse_config
from fmfgc.validation import CriterionResult

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
        "",
    ]
)


@pytest.fixture
def tiny_config(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    return cfg


def summary_of(capsys, stream="out"):
    captured = capsys.readouterr()
    text = captured.out if stream == "out" else captured.err
    return json.loads(text.strip().splitlines()[-1])


def test_solve_writes_artifacts(tiny_config, tmp_path, capsys):
    outdir = tmp_path / "run"
    code = main(["solve", "--config", str(tiny_config), "--out", str(outdir)])
    assert code == 0
    payload = summary_of(capsys)
    assert payload["command"] == "solve"
    assert payload["converged"] is True
    assert payload["duality"] < 1.0
    for name in ("u.bin", "m.bin", "alpha.bin", "diagnostics.csv", "manifest.cfg"):
        assert (outdir / name).exists()
    echoed = parse_config((outdir / "manifest.cfg").read_text())
    assert echoed.outdir == str(outdir)


def test_solve_zero_theta_is_exact(tiny_config, tmp_path, capsys):
    outdir = tmp_path / "base"
    code = main(
        ["solve", "--config", str(tiny_config), "--out", str(outdir), "--theta", "0.0"]
    )
    assert code == 0
    payload = summary_of(capsys)
    assert payload["theta"] == 0.0
    assert payload["converged"] is True
    # the analytic base is certified exactly: no pairing defect, no
    # control off the feedback drift
    assert payload["duality"] == 0.0
    assert payload["exploitability"] == 0.0
    # no coupling: the stored control path is identically zero
    assert np.all(read_field(outdir / "alpha.bin") == 0.0)
    # no sweep runs, so iterations.csv is its header alone, and it replaces
    # the file an earlier run left
    header, rows = read_csv(outdir / "iterations.csv")
    assert header == list(equilibrium.MetricsWriter.FIELDS) and rows == []
    (outdir / "iterations.csv").write_text("stale\n1,2,3\n")
    assert main(
        ["solve", "--config", str(tiny_config), "--out", str(outdir), "--theta", "0.0"]
    ) == 0
    assert read_csv(outdir / "iterations.csv") == (header, [])


def test_seed_override_lands_in_echo(tiny_config, tmp_path, capsys):
    outdir = tmp_path / "run"
    assert main(["solve", "--config", str(tiny_config), "--out", str(outdir)]) == 0
    assert main(
        ["simulate", "--config", str(tiny_config), "--out", str(outdir), "--seed", "9"]
    ) == 0
    assert parse_config((outdir / "manifest.cfg").read_text()).seed == 9


@pytest.mark.parametrize(
    "command, flags",
    [
        ("solve", {"--config", "--out", "--theta"}),
        ("simulate", {"--config", "--out", "--seed", "--threads"}),
        ("sweep-theta", {"--config", "--out"}),
        ("validate", {"--out", "--threads"}),
    ],
)
def test_each_command_takes_the_flags_of_the_settings_it_reads(command, flags, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) == flags | {"--help"}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("solve", "--seed", "9"),
        ("solve", "--threads", "1"),
        ("simulate", "--theta", "0.25"),
        ("sweep-theta", "--seed", "9"),
        ("sweep-theta", "--threads", "1"),
        ("sweep-theta", "--theta", "0.5"),
        ("validate", "--config", "missing.cfg"),
        ("validate", "--seed", "3"),
        ("validate", "--theta", "0.5"),
    ],
)
def test_flag_of_a_setting_the_command_never_reads_exits_two(
    command, flag, value, tmp_path, capsys
):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--out", str(tmp_path), flag, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [1, 2])
def test_simulate_after_solve(dim, tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG.replace("[grid]", f"[grid]\ndim = {dim}"))
    outdir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(outdir)]) == 0
    capsys.readouterr()
    code = main(["simulate", "--config", str(config), "--out", str(outdir)])
    assert code == 0
    payload = summary_of(capsys)
    assert payload["command"] == "simulate"
    assert payload["particles"] == 200
    assert payload["workers"] == 1  # one block
    # 200 particles on 16 cells: W1 noise ~ N^{-1/2}, just sanity-bound it
    assert payload["w1_terminal"] < 0.2
    assert payload["holder_passed"] is True
    assert (outdir / "positions.bin").exists()
    assert (outdir / "holder.csv").exists()
    timings = payload["timings"]
    assert set(timings) == {"simulate_s", "crosscheck_s", "holder_s", "write_s"}
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())


def test_strong_coupling_short_horizon_solves(tmp_path, capsys):
    # coupling_beta = 0.9 contracts slowly: from the zero control the
    # control fixed point needs about 260 iterations to its 1e-12
    # tolerance, so a fixed budget of 200 made this solve exit 1.
    cfg = tmp_path / "strong.cfg"
    cfg.write_text(
        "[grid]\nhorizon = 0.1\n[model]\ncoupling_beta = 0.9\n"
        "[initial]\ndensity = twobump\n"
    )
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 0
    payload = summary_of(capsys)
    assert payload["converged"] is True
    assert payload["exploitability"] <= 1e-10


def test_simulate_without_artifacts_fails(tiny_config, tmp_path, capsys):
    code = main(
        ["simulate", "--config", str(tiny_config), "--out", str(tmp_path / "empty")]
    )
    assert code == 1
    payload = summary_of(capsys, "err")
    assert payload["error"] == "FileNotFoundError"


def test_simulate_rejects_mismatched_grid(tiny_config, tmp_path, capsys):
    outdir = tmp_path / "run"
    assert main(["solve", "--config", str(tiny_config), "--out", str(outdir)]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CONFIG.replace("n = 16", "n = 32"))
    capsys.readouterr()
    code = main(["simulate", "--config", str(other), "--out", str(outdir)])
    assert code == 1
    payload = summary_of(capsys, "err")
    assert "run solve with this config first" in payload["message"]


def test_simulate_rejects_a_config_the_solve_did_not_use(tiny_config, tmp_path, capsys):
    outdir = tmp_path / "run"
    assert main(["solve", "--config", str(tiny_config), "--out", str(outdir)]) == 0
    echo = (outdir / "manifest.cfg").read_text()
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CONFIG + "[model]\ncoupling_beta = 0.8\n[loop]\ntheta = 0.25\n")
    capsys.readouterr()
    assert main(["simulate", "--config", str(other), "--out", str(outdir)]) == 1
    message = summary_of(capsys, "err")["message"]
    assert message.startswith("model.coupling_beta, loop.theta differ from the solve")
    assert "run solve with this config first" in message
    # nothing was simulated, and the echo still describes the solve
    assert (outdir / "manifest.cfg").read_text() == echo
    assert not (outdir / "positions.bin").exists()


def test_simulate_checks_the_stored_control_shape(tiny_config, tmp_path, capsys):
    # the control path is external input: a file that does not fit the
    # manifest's grid is refused even when the echo matches
    outdir = tmp_path / "run"
    assert main(["solve", "--config", str(tiny_config), "--out", str(outdir)]) == 0
    write_field(outdir / "alpha.bin", read_field(outdir / "alpha.bin")[1:])
    capsys.readouterr()
    assert main(["simulate", "--config", str(tiny_config), "--out", str(outdir)]) == 1
    message = summary_of(capsys, "err")["message"]
    assert message.startswith("stored control path has shape (32, 1, 16)")


def test_simulate_rejects_non_finite_control(tiny_config, tmp_path, capsys):
    outdir = tmp_path / "run"
    assert main(["solve", "--config", str(tiny_config), "--out", str(outdir)]) == 0
    alpha = read_field(outdir / "alpha.bin")
    alpha[3, 0, 5] = np.nan
    write_field(outdir / "alpha.bin", alpha)
    capsys.readouterr()
    code = main(["simulate", "--config", str(tiny_config), "--out", str(outdir)])
    assert code == 1
    payload = summary_of(capsys, "err")
    assert payload["command"] == "simulate"
    assert payload["error"] == "InvalidFieldError"
    assert "non-finite" in payload["message"]


def test_sweep_theta_emits_table(tiny_config, tmp_path, capsys):
    outdir = tmp_path / "sweep"
    code = main(["sweep-theta", "--config", str(tiny_config), "--out", str(outdir)])
    assert code == 0
    payload = summary_of(capsys)
    assert payload["thetas"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    header, rows = read_csv(outdir / "theta_table.csv")
    assert header[0] == "theta"
    assert len(rows) == 5


def test_sweep_theta_stops_at_unconverged_stage(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(
        "[scenario]\nname = short\n[grid]\nn = 32\nn_t = 50\nhorizon = 0.5\n"
        "[loop]\nmax_sweeps = 3\n"
    )
    outdir = tmp_path / "sweep"
    code = main(["sweep-theta", "--config", str(cfg), "--out", str(outdir)])
    assert code == 2
    payload = summary_of(capsys, "err")
    assert payload["thetas"] == [0.0, 0.25, 0.5, 0.75]
    assert payload["converged"] is False
    header, rows = read_csv(outdir / "theta_table.csv")
    assert len(rows) == 4
    assert [row[header.index("converged")] for row in rows] == ["1", "1", "1", "0"]


@pytest.mark.parametrize("command", ["solve", "sweep-theta"])
def test_command_validates_manifest_once(command, tiny_config, tmp_path, capsys, monkeypatch):
    calls = []
    validate = manifest._validate
    monkeypatch.setattr(manifest, "_validate", lambda mf: calls.append(mf) or validate(mf))
    code = main([command, "--config", str(tiny_config), "--out", str(tmp_path / "run")])
    assert code == 0
    assert len(calls) == 1


def test_unconverged_solve_exits_two(tmp_path, capsys):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text(
        TINY_CONFIG + "[loop]\ntolerance = 1e-15\nmax_sweeps = 1\n"
    )
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    payload = summary_of(capsys, "err")
    assert payload["converged"] is False


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\ns = 0.3\n")
    code = main(["solve", "--config", str(cfg)])
    assert code == 1
    payload = summary_of(capsys, "err")
    assert payload["error"] == "ConfigError"
    assert "s ∈ (1/2, 1)" in payload["message"]


def test_schedule_ending_at_zero_exits_one(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(TINY_CONFIG + "[loop]\ntheta_schedule = 0.0\n")
    code = main(["sweep-theta", "--config", str(cfg), "--out", str(tmp_path / "sweep")])
    assert code == 1
    payload = summary_of(capsys, "err")
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(
        "loop.theta_schedule must be nonempty and end above 0"
    )


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert summary_of(capsys, "err")["error"] == "FileNotFoundError"


def test_threads_hint_validated(tiny_config, capsys):
    code = main(["simulate", "--config", str(tiny_config), "--threads", "0"])
    assert code == 1
    assert "--threads" in summary_of(capsys, "err")["message"]


def test_threads_hint_sets_env(tiny_config, tmp_path, capsys, monkeypatch):
    # the particle march reads OMP_NUM_THREADS at call time, so --threads
    # caps its processes below the CPUs the process may use
    monkeypatch.setattr(particles.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    args = ["--config", str(tiny_config), "--out", str(tmp_path / "run")]
    assert main(["solve"] + args) == 0
    assert particles._worker_count() == 4
    assert main(["simulate"] + args + ["--threads", "1"]) == 0
    assert particles._worker_count() == 1


def test_simulate_bytes_independent_of_threads(tmp_path, capsys, monkeypatch):
    # Two particle blocks, so --threads 2 marches the second in a forked
    # child (given two usable CPUs) while --threads 1 marches both inline.
    monkeypatch.setattr(particles.os, "sched_getaffinity", lambda pid: {0, 1})
    config = tmp_path / "blocks.cfg"
    count = 2 * particles.MIN_BLOCK
    config.write_text(TINY_CONFIG.replace("count = 200", f"count = {count}"))
    outdir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(outdir)]) == 0
    names = ("positions.bin", "sample_times.bin", "holder.csv", "holder_summary.csv")
    written = {}
    for threads in ("1", "2"):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        args = ["simulate", "--config", str(config), "--out", str(outdir), "--threads", threads]
        assert main(args) == 0
        assert summary_of(capsys)["workers"] == int(threads)
        written[threads] = [(outdir / name).read_bytes() for name in names]
    assert written["1"] == written["2"]


def _fake_results(fail_index=None):
    results = []
    for index, name in ((1, "first"), (2, "second")):
        passed = index != fail_index
        results.append(CriterionResult(index, name, passed, "stub detail", 0.01))
    return results


def test_validate_reports_and_exits_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda ctx, stream: _fake_results())
    code = main(["validate", "--out", str(tmp_path)])
    assert code == 0
    payload = summary_of(capsys)
    payload.pop("timings")
    assert payload == {"command": "validate", "total": 2, "failed": []}
    header, rows = read_csv(tmp_path / "validation.csv")
    assert header == ["index", "name", "passed", "detail", "seconds"]
    assert [r[2] for r in rows] == ["1", "1"]


def test_validate_failure_lists_indices(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda ctx, stream: _fake_results(fail_index=2))
    code = main(["validate"])
    assert code == 2
    assert summary_of(capsys, "err")["failed"] == [2]


@pytest.mark.parametrize("command", ["solve", "sweep-theta"])
def test_solve_summaries_carry_timings(command, tiny_config, tmp_path, capsys):
    assert main([command, "--config", str(tiny_config), "--out", str(tmp_path / "run")]) == 0
    payload = summary_of(capsys)
    timings = payload["timings"]
    assert set(timings) == {"solve_s", "certificate_s", "write_s"}
    assert all(isinstance(v, float) and v > 0.0 for v in timings.values())
    assert payload["duality"] < 1.0
    # the certificate the command computes is reported whole
    assert payload["moments_ok"] is True and payload["monotone_ok"] is True
    assert isinstance(payload["lambda_sup"], float) and payload["lambda_sup"] > 0.0
    assert not (tmp_path / "run" / "failure.json").exists()


def test_failed_solve_leaves_a_typed_failure_record(tmp_path, capsys):
    # n_t = 8 at n = 64 breaks the CFL guard in the first sweep's backward
    # march, which names the step count that passes it
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("[grid]\nn = 64\nn_t = 8\n")
    outdir = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(outdir)]) == 1
    printed = summary_of(capsys, "err")
    record = json.loads((outdir / "failure.json").read_text())
    assert record == printed
    assert record["error"] == "CflError"
    assert record["sweep_index"] == 0
    assert record["required_steps"] > 8
    assert "time_index" not in record
    # the step count it names solves, and the stale record goes
    cfg.write_text(f"[grid]\nn = 64\nn_t = {record['required_steps']}\n")
    assert main(["solve", "--config", str(cfg), "--out", str(outdir)]) == 0
    assert not (outdir / "failure.json").exists()


def test_validate_summary_carries_timings(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda ctx, stream: _fake_results(fail_index=1))
    assert main(["validate"]) == 2
    timings = summary_of(capsys, "err")["timings"]
    assert timings["criterion_s"] == {"1": 0.01, "2": 0.01}
    assert isinstance(timings["total_s"], float) and timings["total_s"] >= 0.0


def test_failed_sweep_theta_leaves_a_typed_failure_record(tmp_path, capsys):
    # a stage's backward march breaks the CFL guard, as in the failed solve
    # above; the sweeps before it are streamed, and a stale record goes
    # when the next run starts
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("[grid]\nn = 64\nn_t = 8\n")
    outdir = tmp_path / "sweep"
    assert main(["sweep-theta", "--config", str(cfg), "--out", str(outdir)]) == 1
    printed = summary_of(capsys, "err")
    record = json.loads((outdir / "failure.json").read_text())
    assert record == printed
    assert record["command"] == "sweep-theta"
    assert record["error"] == "CflError"
    assert record["required_steps"] > 8
    _, rows = read_csv(outdir / "iterations.csv")
    assert record["sweep_index"] == len(rows) > 0
    cfg.write_text("[grid]\nn = 16\nn_t = 32\n")
    assert main(["sweep-theta", "--config", str(cfg), "--out", str(outdir)]) == 0
    assert not (outdir / "failure.json").exists()


@pytest.mark.parametrize("command", ["solve", "sweep-theta"])
def test_iterations_stream_while_solving(command, tiny_config, tmp_path, capsys, monkeypatch):
    # The second sweep raises: the first sweep's row is already on disk,
    # next to the failure record, which names the sweep that raised even
    # when the error comes from outside a march.
    outdir = tmp_path / "run"
    picard = equilibrium.picard_iterate
    calls = []

    def second_sweep_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise CflError("injected", required_steps=99)
        return picard(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "picard_iterate", second_sweep_fails)
    assert main([command, "--config", str(tiny_config), "--out", str(outdir)]) == 1
    header, rows = read_csv(outdir / "iterations.csv")
    assert header == list(equilibrium.MetricsWriter.FIELDS)
    assert len(rows) == 1 and rows[0][0] == "1"
    record = json.loads((outdir / "failure.json").read_text())
    assert record == summary_of(capsys, "err")
    assert (record["error"], record["required_steps"], record["sweep_index"]) == (
        "CflError", 99, 1
    )


def test_streamed_iterations_are_the_emitted_file(tiny_config, tmp_path, capsys, monkeypatch):
    # The stream solve opens is the only writer of iterations.csv: after a
    # successful solve it holds the header and one row per history entry.
    solved = []
    solve = cli.solve_equilibrium

    def keep_solution(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_equilibrium", keep_solution)
    outdir = tmp_path / "run"
    assert main(["solve", "--config", str(tiny_config), "--out", str(outdir)]) == 0
    history = solved[0].history
    assert len(history) == summary_of(capsys)["sweeps"] > 0
    header, rows = read_csv(outdir / "iterations.csv")
    assert header == list(equilibrium.MetricsWriter.FIELDS)
    assert rows == [
        [str(h.sweep)] + [repr(getattr(h, name)) for name in header[1:]] for h in history
    ]


@pytest.mark.parametrize("n, horizon", [(128, 0.1), (256, 0.05)])
def test_solve_bytes_independent_of_blas_threads(n, horizon, tmp_path):
    # The 1-D march steps are BLAS products with kernels of up to 512 x 256
    # entries.  OpenBLAS builds differ in the size above which a product
    # runs over more than one thread; whatever the build does, the
    # artifacts must not change.  Each run is its own process, since BLAS
    # sizes its pool once.
    config = tmp_path / "short.cfg"
    config.write_text(f"[grid]\nn = {n}\nn_t = 20\nhorizon = {horizon}\n")
    src = str(Path(fmfgc.__file__).resolve().parents[1])
    names = ("u.bin", "m.bin", "alpha.bin")
    written = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outdir = tmp_path / f"run-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "fmfgc", "solve", "--config", str(config), "--out", str(outdir)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        written[threads] = [(outdir / name).read_bytes() for name in names]
    assert written["1"] == written["2"]
