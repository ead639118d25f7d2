"""Executable acceptance criteria for the whole pipeline.

Each criterion is a standalone function returning pass/fail plus a detail
string with the measured quantity and its tolerance, so a failure is
diagnosable from the one-line summary alone.  Expensive inputs (the
benchmark equilibrium, its refinement, the homotopy sweep) are cached on
a shared context and reused across criteria.  All randomness is seeded;
reruns are deterministic.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .artifacts import theta_row
from .equilibrium import (
    EquilibriumSolution,
    LoopConfig,
    equilibrium_certificate,
    solve_equilibrium,
    sweep_theta,
)
from .fokker_planck import solve_forward
from .manifest import default_manifest
from .measures import (
    GridMeasure,
    JointControlMeasure,
    monotonicity_pairing,
    wasserstein_1d,
)
from .models import QuadraticModel, growth_check, legendre_transform
from .mu_solver import solve_mu_detailed
from .particles import (
    MIN_BLOCK,
    empirical_measure,
    holder_wasserstein_check,
    sample_stable_increment,
    simulate_sde,
)
from .spectral import SpectralGrid, TimeGrid


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:2d} {self.name}: {self.detail} ({self.seconds:.1f}s)"


class AcceptanceContext:
    """Shared scenario definitions and cached solves."""

    def scenario(self, n: int, n_t: int):
        """The benchmark scenario, default_manifest(), at n nodes and n_t steps."""
        mf = replace(default_manifest(), n=n, n_t=n_t)
        grid = mf.spatial_grid()
        return grid, mf.time_grid(), mf.initial_measure(grid), mf.terminal_condition(grid)

    @cached_property
    def model(self) -> QuadraticModel:
        return default_manifest().model()

    @cached_property
    def continuation(self) -> tuple[list[tuple], EquilibriumSolution]:
        """The theta-table rows of the benchmark continuation, one per
        stage (``artifacts.theta_row``), and its last stage."""
        _, tg, m0, u_t = self.scenario(128, 200)
        rows = []
        for stage in sweep_theta(self.model, m0, u_t, tg):
            rows.append(theta_row(stage))
        return rows, stage

    @property
    def benchmark(self) -> EquilibriumSolution:
        return self.continuation[1]

    @cached_property
    def refined(self) -> EquilibriumSolution:
        _, tg, m0, u_t = self.scenario(256, 400)
        return solve_equilibrium(self.model, m0, u_t, tg, theta_target=1.0)

    @cached_property
    def reduced(self) -> EquilibriumSolution:
        _, tg, m0, u_t = self.scenario(64, 100)
        return solve_equilibrium(self.model, m0, u_t, tg, theta_target=1.0)


def _criterion_spectral_exactness(ctx: AcceptanceContext):
    # Each multiplier is read off by projecting the operator output back
    # onto the input mode (exact discrete orthogonality), so the relative
    # comparison stays meaningful even where the heat factor is small.
    # Sup-norm division would instead measure FFT cross-mode leakage,
    # which is absolute (~1e-16 * field size) and swamps decayed modes.
    worst = 0.0
    for s in (0.6, 0.75, 0.9):
        grid = SpectralGrid(dim=1, n=64, s=s)
        x = grid.nodes()[0]
        lam_max = (2.0 * math.pi * (grid.n // 2)) ** (2.0 * s)
        # two heat times: multipliers near one, and spread down to e^-7
        times = (0.5 / lam_max, 7.0 / lam_max)
        for k in range(grid.n // 2 + 1):
            lam = (2.0 * math.pi * k) ** (2.0 * s)
            mode = np.cos(2.0 * math.pi * k * x)
            norm = float(np.sum(mode * mode))
            scale = max(lam, 1.0)
            lap = grid.frac_laplacian(mode)
            worst = max(worst, abs(float(np.sum(lap * mode)) / norm - lam) / scale)
            for t_heat in times:
                decay = math.exp(-lam * t_heat)
                heat = grid.semigroup_apply(mode, t_heat)
                worst = max(
                    worst, abs(float(np.sum(heat * mode)) / norm - decay) / decay
                )
            # field-level check at the mild time, where leakage is benign
            mild = math.exp(-lam * times[0])
            evolved = grid.semigroup_apply(mode, times[0])
            worst = max(worst, float(np.max(np.abs(evolved - mild * mode))) / mild)
    return worst <= 1e-12, f"max per-mode rel err {worst:.2e} (tol 1e-12)"


def _criterion_semigroup_laws(ctx: AcceptanceContext):
    grid = SpectralGrid(dim=1, n=64, s=0.75)
    rng = np.random.default_rng(101)
    worst_comp = 0.0
    worst_contract = 0.0
    for _ in range(50):
        f = rng.standard_normal(grid.n)
        t1, t2 = rng.uniform(0.01, 0.5, size=2)
        composed = grid.semigroup_apply(grid.semigroup_apply(f, t2), t1)
        direct = grid.semigroup_apply(f, t1 + t2)
        worst_comp = max(worst_comp, float(np.max(np.abs(composed - direct))))
        evolved = grid.semigroup_apply(f, t1)
        l2_before = math.sqrt(float(np.sum(f**2)) * grid.dx)
        l2_after = math.sqrt(float(np.sum(evolved**2)) * grid.dx)
        worst_contract = max(worst_contract, l2_after - l2_before)
        worst_contract = max(
            worst_contract, float(np.max(np.abs(evolved)) - np.max(np.abs(f)))
        )
    ok = worst_comp <= 1e-12 and worst_contract <= 1e-12
    return ok, (
        f"composition defect {worst_comp:.2e}, contraction excess "
        f"{worst_contract:.2e} (tol 1e-12)"
    )


def _criterion_fp_conservation(ctx: AcceptanceContext):
    grid, tg, m0, _ = ctx.scenario(64, 200)
    x = grid.nodes()[0]
    times = tg.times()
    b_path = np.stack(
        [0.3 * np.sin(2.0 * np.pi * x + t)[None] for t in times]
    )
    sol = solve_forward(b_path, m0, tg)
    step_drift = float(np.max(sol.advect_drift_trace))
    total_drift = float(np.sum(sol.advect_drift_trace))
    min_density = float(np.min(sol.min_trace))
    sup_excess = float(np.max(sol.sup_trace)) / (sol.sup_bound * 1.1)
    ok = (
        step_drift <= 1e-12
        and total_drift <= 1e-10
        and min_density >= 0.0
        and sup_excess <= 1.0
    )
    return ok, (
        f"step drift {step_drift:.2e} (tol 1e-12), total {total_drift:.2e} "
        f"(tol 1e-10), min {min_density:.1e}, sup/bound {sup_excess:.3f}"
    )


def _criterion_mu_closed_form(ctx: AcceptanceContext):
    grid = SpectralGrid(dim=1, n=64, s=0.75)
    rng = np.random.default_rng(40)
    raw = 1.0 + 0.4 * np.cos(2.0 * np.pi * grid.nodes()[0]) + 0.05 * rng.standard_normal(grid.n)
    m = GridMeasure.normalized(grid, np.abs(raw))
    du = np.stack([0.6 + 0.3 * np.sin(2.0 * np.pi * grid.nodes()[0])])
    worst_alpha = 0.0
    worst_ratio = 0.0
    for beta in (0.3, 0.7):
        model = QuadraticModel(coupling_beta=beta)
        result = solve_mu_detailed(m, du, model, LoopConfig.mu_config)
        mean_du = m.expectation(du[0])
        abar = -mean_du / (1.0 + beta)
        closed = -du[0] + beta * mean_du / (1.0 + beta)
        worst_alpha = max(
            worst_alpha,
            abs(result.mu.mean_control()[0] - abar),
            float(np.max(np.abs(result.mu.alpha[0] - closed))),
        )
        ratios = result.contraction_ratios()
        worst_ratio = max(worst_ratio, float(np.max(np.abs(ratios[1:5] - beta))))
    ok = worst_alpha <= 1e-10 and worst_ratio <= 1e-8
    return ok, (
        f"closed-form defect {worst_alpha:.2e} (tol 1e-10), contraction "
        f"ratio defect {worst_ratio:.2e} (tol 1e-8)"
    )


def _criterion_monotonicity(ctx: AcceptanceContext):
    grid = SpectralGrid(dim=1, n=64, s=0.75)
    model = ctx.model
    rng = np.random.default_rng(50)
    worst = np.inf
    for _ in range(100):
        pair = []
        for _ in range(2):
            m = GridMeasure.normalized(grid, np.abs(1.0 + 0.5 * rng.standard_normal(grid.n)))
            alpha = np.stack([rng.uniform(-1.0, 1.0) * np.ones(grid.n) + 0.3 * rng.standard_normal(grid.n)])
            pair.append(JointControlMeasure(m, alpha))
        worst = min(worst, monotonicity_pairing(model, pair[0], pair[1]))
    return worst >= -1e-12, f"min pairing {worst:.2e} (tol -1e-12)"


def _criterion_legendre(ctx: AcceptanceContext):
    grid = SpectralGrid(dim=1, n=64, s=0.75)
    model = ctx.model
    rng = np.random.default_rng(60)
    m = GridMeasure.normalized(grid, np.abs(1.0 + 0.4 * rng.standard_normal(grid.n)))
    mu = JointControlMeasure(m, np.stack([0.5 * np.sin(2.0 * np.pi * grid.nodes()[0])]))
    # 16 momentum fields at the 64 nodes: 1024 probes of the field forms
    p = rng.uniform(-2.0, 2.0, size=(16, 1, grid.n))
    value, alpha_star = legendre_transform(model, p, mu)
    closed = model.hamiltonian_at(mu)[0](p)
    best = -model.grad_p_field(p, mu)
    worst_h = float(np.max(np.abs(value - closed)))
    worst_a = float(np.max(np.abs(alpha_star - best)))
    # the growth class that moment_certificate's bounds assume, probed on
    # the same field forms: C0 must leave no sampled inequality violated
    growth = growth_check(model, grid)
    violations = growth.violations(model.C0)
    ok = worst_h <= 1e-8 and worst_a <= 1e-8 and violations == 0
    return ok, (
        f"H defect {worst_h:.2e}, maximizer defect {worst_a:.2e} (tol 1e-8), "
        f"growth c0_tilde {growth.c0_tilde:.2f} against C0 {model.C0:.1f}, "
        f"{violations} violations (tol 0)"
    )


def _criterion_benchmark(ctx: AcceptanceContext):
    sol = ctx.benchmark
    cert = equilibrium_certificate(sol, ctx.model)
    refined_cert = equilibrium_certificate(ctx.refined, ctx.model)
    ratio = cert.duality / refined_cert.duality
    ok = (
        sol.converged
        and cert.duality <= 1e-2
        and ctx.refined.converged
        and ratio >= 1.5
    )
    return ok, (
        f"converged={sol.converged} in {sol.sweeps} sweeps, duality "
        f"{cert.duality:.2e} (tol 1e-2), refinement ratio {ratio:.2f} (min 1.5)"
    )


def _criterion_uniqueness(ctx: AcceptanceContext):
    base = ctx.reduced
    grid, tg, m0, u_t = ctx.scenario(64, 100)
    bump = 0.05 * np.cos(2.0 * np.pi * grid.nodes()[0])
    perturbed_u = base.u_sol.u + bump
    du = grid.gradient(perturbed_u)
    seeded = replace(
        base,
        u_sol=replace(base.u_sol, u=perturbed_u, du=du),
        converged=False,
    )
    cfg = LoopConfig()
    other = solve_equilibrium(
        ctx.model, m0, u_t, tg, theta_target=1.0, cfg=cfg, warm_start=seeded
    )
    tol = 2.0 * cfg.tolerance
    u_gap = float(np.max(np.abs(other.u_sol.u - base.u_sol.u)))
    m_gap = float(np.max(wasserstein_1d(
        GridMeasure.view(grid, other.m_sol.m), GridMeasure.view(grid, base.m_sol.m)
    )))
    ok = other.converged and u_gap <= tol and m_gap <= tol
    return ok, f"u gap {u_gap:.2e}, W1 gap {m_gap:.2e} (tol {tol:.0e})"


def _criterion_theta_envelopes(ctx: AcceptanceContext):
    # sup |u|, sup |Du|, sup lambda_2 and the semiconcavity of each stage
    bounds = {row[0]: np.array(row[1:5]) for row in ctx.continuation[0]}
    ref = bounds[1.0]
    worst = 0.0
    for theta in (0.25, 0.5, 1.0):
        ratios = bounds[theta] / (ref * theta)
        worst = max(worst, float(np.max(ratios)))
    return worst <= 1.5, f"worst statistic / (theta * reference) = {worst:.3f} (max 1.5)"


def _criterion_sampler_consistency(ctx: AcceptanceContext):
    grid, _, m0, _ = ctx.scenario(64, 200)
    count = 10**5
    horizon = 0.3
    tg = TimeGrid(horizon=horizon, n_steps=30)
    path = simulate_sde(None, m0, count, tg, seed=42)
    emp = empirical_measure(path.terminal(), grid)
    ref = GridMeasure(grid, grid.semigroup_apply(m0.values, horizon))
    w1 = wasserstein_1d(emp, ref)
    w1_bound = 2.0 / math.sqrt(count) + 2.0 * grid.dx + 0.01
    dt = 0.05
    draws = sample_stable_increment(0.75, dt, 1, np.random.default_rng(7), size=count)[:, 0]
    char_tol = 4.0 / math.sqrt(count)
    char_err = max(
        abs(
            float(np.mean(np.cos(2.0 * math.pi * k * draws)))
            - math.exp(-dt * (2.0 * math.pi * k) ** 1.5)
        )
        for k in (1, 2, 3)
    )
    ok = w1 <= w1_bound and char_err <= char_tol
    return ok, (
        f"W1 {w1:.2e} (tol {w1_bound:.2e}), char err {char_err:.2e} "
        f"(tol {char_tol:.2e})"
    )


def _criterion_particle_pde_cross_check(ctx: AcceptanceContext):
    sol = ctx.benchmark
    grid, tg, m0, _ = ctx.scenario(128, 200)
    # the solution's drift is a view: the particle march takes the whole path
    path = simulate_sde(sol.u_sol.drift[:], m0, 10**5, tg, seed=77, store_stride=200)
    emp = empirical_measure(path.terminal(), grid)
    w1 = wasserstein_1d(emp, sol.m_sol.terminal())
    return w1 <= 0.05, f"W1(empirical, PDE) {w1:.2e} (tol 5e-2)"


def _criterion_holder_wasserstein(ctx: AcceptanceContext):
    grid, _, m0, _ = ctx.scenario(64, 200)
    tg = TimeGrid(horizon=0.2, n_steps=16)
    path = simulate_sde(None, m0, 10**5, tg, seed=0)
    report = holder_wasserstein_check(path, b_sup=0.0)
    ok = report.passed and 0.4 <= report.exponent <= 0.6
    return ok, (
        f"bound passed={report.passed} (C {report.fitted_constant:.3f}, slack "
        f"{report.slack:.0f}), exponent {report.exponent:.3f} (range [0.4, 0.6])"
    )


_REPRO_CONFIG = """[scenario]
name = repro-check
outdir = {outdir}
seed = 7

[grid]
n = 64
n_t = 100

[particles]
count = {count}
"""

#: Four particle blocks, the last one short, so simulate marches them in
#: forked processes whenever --threads and the CPUs allow two or more.
_REPRO_PARTICLES = 3 * MIN_BLOCK + MIN_BLOCK // 2


def _criterion_reproducibility(ctx: AcceptanceContext):
    digests, workers = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for threads in (1, 2, 8):
            outdir = Path(tmp) / f"run-t{threads}"
            config = Path(tmp) / f"config-t{threads}.cfg"
            config.write_text(_REPRO_CONFIG.format(outdir=outdir, count=_REPRO_PARTICLES))
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            # solve's BLAS threads come from env; simulate also takes the
            # hint that caps the processes marching its particles
            for command, hint in (("solve", []), ("simulate", ["--threads", str(threads)])):
                proc = subprocess.run(
                    [sys.executable, "-m", "fmfgc", command, "--config", str(config), *hint],
                    env=env,
                    capture_output=True,
                    text=True,
                )
                if proc.returncode != 0:
                    return False, (
                        f"{command} exited {proc.returncode} at {threads} threads: "
                        f"{proc.stderr.strip()[-200:]}"
                    )
            workers.append(str(json.loads(proc.stdout)["workers"]))
            digests.append(
                tuple(
                    (outdir / name).read_bytes()
                    for name in ("u.bin", "m.bin", "alpha.bin", "positions.bin", "holder.csv")
                )
            )
    identical = all(d == digests[0] for d in digests[1:])
    marched = f"simulate marched on {'/'.join(workers)} processes"
    return identical, (
        f"solve and simulate artifacts bit-identical at 1/2/8 threads; {marched}"
        if identical
        else f"artifacts differ across thread counts; {marched}"
    )


CRITERIA = (
    (1, "spectral multipliers exact", _criterion_spectral_exactness),
    (2, "semigroup laws", _criterion_semigroup_laws),
    (3, "density transport conservation", _criterion_fp_conservation),
    (4, "control fixed point closed form", _criterion_mu_closed_form),
    (5, "coupling monotonicity", _criterion_monotonicity),
    (6, "legendre conjugacy", _criterion_legendre),
    (7, "equilibrium benchmark", _criterion_benchmark),
    (8, "equilibrium uniqueness", _criterion_uniqueness),
    (9, "linear-in-theta envelopes", _criterion_theta_envelopes),
    (10, "sampler/semigroup consistency", _criterion_sampler_consistency),
    (11, "particle/PDE cross-check", _criterion_particle_pde_cross_check),
    (12, "holder-in-time wasserstein", _criterion_holder_wasserstein),
    (13, "bitwise reproducibility", _criterion_reproducibility),
)


def run_criterion(index: int, ctx: AcceptanceContext) -> CriterionResult:
    for idx, name, fn in CRITERIA:
        if idx == index:
            start = time.perf_counter()
            passed, detail = fn(ctx)
            return CriterionResult(
                index=idx,
                name=name,
                passed=passed,
                detail=detail,
                seconds=time.perf_counter() - start,
            )
    raise ValueError(f"no criterion with index {index}")


def run_all(ctx: AcceptanceContext | None = None, stream=None) -> list[CriterionResult]:
    ctx = ctx or AcceptanceContext()
    results = []
    for idx, _, _ in CRITERIA:
        result = run_criterion(idx, ctx)
        results.append(result)
        if stream is not None:
            print(result.line(), file=stream, flush=True)
    return results
