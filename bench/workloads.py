"""The benchmark's workloads: set-up, one timed operation, output checks.

Every workload goes through the public ``fmfgc`` API and looks each
function up on its module at call time, so the tracer's wrappers see the
calls.  The solver is deterministic; the workload seed drives particle
sampling only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fmfgc import artifacts, equilibrium, manifest, measures, particles

REFERENCE = Path(__file__).with_name("reference.npz")

#: A solve may land anywhere within the loop tolerance of the fixed point;
#: the fingerprint check allows ten times that before calling it drift.
FINGERPRINT_FACTOR = 10.0
DUALITY_LIMIT = 1e-2  # acceptance criterion 7
CROSSCHECK_W1_LIMIT = 5e-2  # acceptance criterion 11

SOLVE_1D = """[grid]
dim = 1
n = 128
n_t = 200
s = 0.75

[model]
coupling_beta = 0.3

[initial]
density = vonmises
terminal_amplitude = 0.15
"""

SOLVE_2D = SOLVE_1D.replace("dim = 1", "dim = 2").replace("n = 128", "n = 64").replace(
    "n_t = 200", "n_t = 100"
)

PARTICLES = SOLVE_1D + """
[particles]
count = 100000
store_stride = 0
"""


def config_text(workload: str, seed: int, outdir: Path) -> str:
    body = {"solve-1d": SOLVE_1D, "solve-2d": SOLVE_2D, "particles-1d": PARTICLES}[workload]
    head = f"[scenario]\nname = {workload}\noutdir = {outdir}\nseed = {seed}\n\n"
    return head + body


@dataclass
class Inputs:
    mf: manifest.RunManifest
    grid: object
    tg: object
    model: object
    m0: measures.GridMeasure
    u_t: np.ndarray
    outdir: Path
    parse_s: float


def build_inputs(text: str) -> Inputs:
    t0 = time.perf_counter()
    mf = manifest.parse_config(text)
    parse_s = time.perf_counter() - t0
    grid = mf.spatial_grid()
    return Inputs(
        mf=mf,
        grid=grid,
        tg=mf.time_grid(),
        model=mf.model(),
        m0=mf.initial_measure(grid),
        u_t=mf.terminal_condition(grid),
        outdir=Path(mf.outdir),
        parse_s=parse_s,
    )


# -- the timed operations ---------------------------------------------------


def solve(inp: Inputs):
    """What ``fmfgc solve`` does after it loads its config."""
    mf = inp.mf
    sol = equilibrium.solve_equilibrium(
        inp.model, inp.m0, inp.u_t, inp.tg, theta_target=mf.theta, cfg=mf.loop_config()
    )
    artifacts.emit_artifacts(sol, mf, inp.outdir)
    cert = equilibrium.equilibrium_certificate(sol, inp.model)
    return sol, cert


def crosscheck(inp: Inputs, seed: int):
    """What ``fmfgc simulate`` does after it loads its config."""
    mf, grid = inp.mf, inp.grid
    drift = artifacts.read_field(inp.outdir / "alpha.bin")
    m_path = artifacts.read_field(inp.outdir / "m.bin")
    path = particles.simulate_sde(
        drift, inp.m0, mf.particle_count, inp.tg, seed=seed, store_stride=mf.resolved_stride()
    )
    emp = particles.empirical_measure(path.terminal(), grid)
    w1 = measures.wasserstein_1d(emp, measures.GridMeasure(grid, m_path[-1]))
    report = particles.holder_wasserstein_check(path, b_sup=float(np.max(np.abs(drift))))
    artifacts.emit_simulation(path, report, inp.outdir)
    (inp.outdir / "manifest.cfg").write_text(mf.to_text())
    return path, w1, report


# -- output checks ----------------------------------------------------------


def load_reference(workload: str) -> dict[str, np.ndarray]:
    key = "solve-2d" if workload == "solve-2d" else "solve-1d"
    with np.load(REFERENCE) as ref:
        return {"u0": ref[f"{key}/u0"], "mT": ref[f"{key}/mT"]}


def check_solve(sol, cert, inp: Inputs, ref: dict[str, np.ndarray]) -> list[str]:
    cfg = inp.mf.loop_config()
    failures = []
    last_of_stage = {h.theta: h for h in sol.history}
    for theta, h in last_of_stage.items():
        if not h.defect <= cfg.tolerance:
            failures.append(f"stage theta={theta} ended unconverged (defect {h.defect:.3e})")
    if not cert.duality <= DUALITY_LIMIT:
        failures.append(f"duality {cert.duality:.3e} > {DUALITY_LIMIT}")
    if not cert.exploitability <= cfg.mu_config.tolerance:
        failures.append(f"exploitability {cert.exploitability:.3e} > {cfg.mu_config.tolerance}")
    if not cert.moments_ok:
        failures.append("moment certificate failed")
    if not cert.monotone_ok:
        failures.append(f"monotonicity pairing {cert.monotonicity_min:.3e} < 0")
    limit = FINGERPRINT_FACTOR * cfg.tolerance
    u_drift = float(np.max(np.abs(sol.u_sol.u[0] - ref["u0"])))
    if not u_drift <= limit:
        failures.append(f"u(t=0) drifted {u_drift:.3e} from the reference (limit {limit:.1e})")
    cell = inp.grid.dx**inp.grid.dim
    m_drift = 0.5 * float(np.sum(np.abs(sol.m_sol.terminal().values - ref["mT"]))) * cell
    if not m_drift <= limit:
        failures.append(f"m(t=T) drifted {m_drift:.3e} in total variation (limit {limit:.1e})")
    return failures


def check_crosscheck(path, w1: float, report) -> list[str]:
    failures = []
    if not np.all(np.isfinite(path.positions)):
        failures.append("non-finite particle position")
    if not w1 <= CROSSCHECK_W1_LIMIT:
        failures.append(f"W1(empirical, PDE) {w1:.3e} > {CROSSCHECK_W1_LIMIT}")
    if report is None or not report.passed:
        failures.append("Holder-in-time check failed")
    return failures


class SolveWorkload:
    """solve-1d and solve-2d: one certified solve per repeat."""

    def __init__(self, name: str, seed: int, outdir: Path):
        self.text = config_text(name, seed, outdir)
        self.ref = load_reference(name)
        self.sweeps = 0
        self.duality = float("nan")

    def setup(self) -> list[list[str]]:
        """One set-up round: parse the config, build grid, model and initial
        data.  Returns the failures of each checked operation it ran."""
        self.inp = build_inputs(self.text)
        return []

    def op(self):
        return solve(self.inp)

    def check(self, result) -> list[str]:
        return self.check_solution(result)

    def check_solution(self, result) -> list[str]:
        sol, cert = result
        self.sweeps, self.duality = sol.sweeps, cert.duality
        return check_solve(sol, cert, self.inp, self.ref)


class ParticlesWorkload(SolveWorkload):
    """particles-1d: one cross-check per repeat against artifacts of a set-up solve."""

    def __init__(self, name: str, seed: int, outdir: Path):
        super().__init__(name, seed, outdir)
        self._ops = 0

    def setup(self) -> list[list[str]]:
        self.inp = build_inputs(self.text)
        return [self.check_solution(solve(self.inp))]

    def op(self):
        # Each repeat samples its own particles; the sequence follows the seed.
        self._ops += 1
        seed = int(np.random.SeedSequence([self.inp.mf.seed, self._ops]).generate_state(1)[0])
        return crosscheck(self.inp, seed)

    def check(self, result) -> list[str]:
        return check_crosscheck(*result)


WORKLOADS = {
    "solve-1d": SolveWorkload,
    "solve-2d": SolveWorkload,
    "particles-1d": ParticlesWorkload,
}
