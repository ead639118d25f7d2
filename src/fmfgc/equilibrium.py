"""Outer equilibrium iteration.

Plain Picard sweeps couple the three building blocks: the control fixed
point on the whole path, the backward value solve, and the forward
density solve.  A sweep is a map on the value gradient and the density,
(Du, m) -> (Du', m'), as in the existence proof: it re-solves the
controls from those two (the last ones only start their fixed point),
with no averaging.  Paths are stacked arrays with time as the leading
axis.  A solve runs one stage at the target scaling theta in (0, 1],
started from the exact zero-scaling solution or from a given state; the
stage loop scales the model and the terminal value once and builds the
stage's one solution state.  At theta = 0 the problem decouples:
``analytic_base`` builds its solution in closed form (zero value
function, zero control, pure fractional heat flow), and no sweep runs
there.  The ascending scaling schedule, each stage warm starting from
the previous one, is the homotopy of ``sweep_theta`` only: a generator
that yields each stage as it ends and keeps only the one the next stage
starts from, so a caller holds no more of the continuation than it
keeps.

A sweep reads each measure-only quantity once: the backward march fixes
the control path and reads its potential and mean control once, writes H
on the new value gradient and keeps it with the ``grad_p`` of the
model's ``hamiltonian_at``; the solution's drift -D_p H is a view that
evaluates that ``grad_p`` on the levels it is indexed with, so no drift
path is held, and the CFL guard, the forward march, the duality pairing
and the certificate's exploitability each read it a block of levels at
a time.

A stage owns one set of paths: it copies its start once into a value,
gradient, H, density and control path of its own, and its sweeps and its
closing re-solve write over them, so what a caller holds (a warm start,
a stage ``sweep_theta`` has yielded) stays as it is.  The control fixed
point steps the controls in place, the backward march takes each level's
value change just before it writes the level, and the forward march
copies each block's old levels aside and takes their density change.  A
march that raises leaves the stage's paths half-written, and nothing
reads them again: the error names the sweep, not the state.  The
analytic base holds one density path, the heat flow checked once; its
zero value, H, gradient and control paths are read-only broadcast views
with no memory behind them, its drift evaluates to zero on the levels it
is indexed with, and its control path, the first stage's baseline, is a
view of that density.  Path work that needs path-sized temporaries (the
control fixed point, the drift and its CFL rule, the forward march's
face velocities, the duality pairing, the value and density changes, the
packaged H and the certificate's exploitability, moments and
monotonicity pairing) runs one block of levels at a time
(``SpectralGrid.level_blocks``), with every level's arithmetic the one a
whole-path pass gives.

The loop's density change bounds the true W1 change from above: exact
W1 per level in d = 1, and in d = 2 sqrt(2)/2 times the total variation
1/2 ||m_new - m_old||_1 per level, as no two points of the unit 2-torus
lie farther apart than sqrt(2)/2.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import FmfgcError
from .fokker_planck import FpSolution, duality_residual, heat_flow, solve_forward
from .hjb import HjbSolution, one_field, solve_backward
from .measures import (
    GridMeasure,
    MeasurePath,
    checked_density_path,
    monotonicity_pairing,
    wasserstein_1d,
)
from .models import ThetaScaledModel
from .mu_solver import MuSolveConfig, moment_certificate, solve_mu
from .spectral import TimeGrid


@dataclass(frozen=True)
class LoopConfig:
    tolerance: float = 1e-6
    max_sweeps: int = 80
    theta_schedule: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    #: the control fixed point's settings, the same for every solve
    mu_config: ClassVar[MuSolveConfig] = MuSolveConfig(1e-12)

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be at least 1, got {self.max_sweeps}")
        sched = tuple(self.theta_schedule)
        if any(not 0.0 <= t <= 1.0 for t in sched):
            raise ValueError(f"theta_schedule entries must lie in [0, 1], got {sched}")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError(f"theta_schedule must be strictly increasing, got {sched}")
        if not sched or sched[-1] <= 0.0:
            raise ValueError(f"theta_schedule must be nonempty and end above 0, got {sched}")


@dataclass(frozen=True)
class SweepMetrics:
    sweep: int
    theta: float
    #: the weight of the new iterate; plain Picard, so always 1.0
    delta: ClassVar[float] = 1.0
    u_change: float
    m_change: float
    duality: float

    @property
    def defect(self) -> float:
        return max(self.u_change, self.m_change)


@dataclass
class EquilibriumSolution:
    theta: float
    u_sol: HjbSolution
    m_sol: FpSolution
    mu_path: MeasurePath = field(repr=False)
    u_terminal: np.ndarray = field(repr=False)
    history: list[SweepMetrics] = field(repr=False)
    converged: bool = False
    baseline_mu: MeasurePath | None = field(default=None, repr=False)

    @property
    def sweeps(self) -> int:
        """Sweeps run so far, over every stage: one history row each."""
        return len(self.history)

    @property
    def grid(self):
        return self.u_sol.grid

    @property
    def time_grid(self) -> TimeGrid:
        return self.u_sol.time_grid


def _no_grad_p(p, j=None) -> np.ndarray:
    """D_p H of the decoupled problem, where H = 0: zero at every momentum."""
    return np.zeros(np.shape(p))


def analytic_base(m0: GridMeasure, u_terminal: np.ndarray, tg: TimeGrid) -> EquilibriumSolution:
    """The scaling-zero solution: u = 0, m = fractional heat flow, alpha = 0.

    Every model gives this solution at zero scaling, so it takes no model.
    The heat flow is one batched semigroup call, checked as a density path;
    that checked copy is the one density path the base holds, and every
    other path is a view.
    """
    grid = m0.grid
    flow = heat_flow(m0, tg)
    m_sol = replace(flow, m=checked_density_path(tg, grid, flow.m))
    # one read-only zero view per shape serves u and H, Du and the control,
    # with no memory behind it
    scalar = np.broadcast_to(0.0, m_sol.m.shape)
    vector = np.broadcast_to(0.0, (tg.n_steps + 1, grid.dim) + grid.shape)
    return EquilibriumSolution(
        theta=0.0,
        u_sol=HjbSolution(tg, grid, u=scalar, du=vector, hamiltonian=scalar, grad_p=_no_grad_p),
        m_sol=m_sol,
        mu_path=MeasurePath.view(tg, grid, m_sol.m, vector),
        u_terminal=one_field(grid, u_terminal),
        history=[],
        converged=True,
    )


def _own(state: EquilibriumSolution) -> tuple[HjbSolution, np.ndarray, np.ndarray]:
    """The paths a stage owns, which its sweeps and its closing re-solve
    write over: copies of the state's value solution (u, du and an H to
    write), density and controls."""
    u = np.array(state.u_sol.u)
    value = HjbSolution(state.time_grid, state.grid, u, np.array(state.u_sol.du), np.empty_like(u))
    return value, np.array(state.m_sol.m), np.array(state.mu_path.alpha)


def _density_change(grid, m_old: np.ndarray, m_new: np.ndarray) -> float:
    """The largest change of the density over the levels of two stacks, an
    upper bound on the W1 of each level's pair: exact W1 in d = 1
    (``wasserstein_1d``), in d = 2 sqrt(2)/2 times the total variation."""
    if grid.dim == 1:
        view = GridMeasure.view
        return float(np.max(wasserstein_1d(view(grid, m_old), view(grid, m_new))))
    return float(np.sqrt(2.0) / 2.0 * 0.5 * np.max(grid.integrate(np.abs(m_new - m_old))))


def picard_iterate(model, paths, u_terminal: np.ndarray) -> tuple[float, float, float]:
    """One sweep, the map (Du, m) -> (Du', m') written over ``paths``, a
    stage's ``_own`` value solution, density and controls, at ``model``
    already scaled and ``u_terminal`` its scaled terminal value.  The
    controls are read only as the start of their fixed point, and u and H
    not at all.  Returns the sweep's value change, density change and
    duality residual."""
    value, m, alpha = paths
    start = MeasurePath.view(value.time_grid, value.grid, m, alpha)
    mu_path = solve_mu(start, value.du, model, LoopConfig.mu_config, alpha)
    u_sol = solve_backward(model, mu_path, u_terminal, value)
    # mu_path holds the iterate's density, so its slice 0 is m0
    m_sol = solve_forward(u_sol.drift, mu_path[0].m, value.time_grid, m, _density_change)
    return u_sol.change, m_sol.change, duality_residual(u_sol, m_sol)


class MetricsWriter:
    """Streaming CSV sink for per-sweep metrics; flushes every row.

    Floats are written as their repr, so a row reads back losslessly."""

    FIELDS = ("sweep", "theta", "delta", "u_change", "m_change", "duality")

    def __init__(self, stream):
        self._writer = csv.writer(stream)
        self._stream = stream
        self._writer.writerow(self.FIELDS)
        stream.flush()

    def write(self, metrics: SweepMetrics) -> None:
        self._writer.writerow(
            [metrics.sweep]
            + [repr(getattr(metrics, name)) for name in self.FIELDS[1:]]
        )
        self._stream.flush()


def _run_stage(
    start: EquilibriumSolution,
    theta: float,
    model,
    cfg: LoopConfig,
    sink: MetricsWriter | None,
) -> EquilibriumSolution:
    """Run one scaling stage from ``start``: sweep at ``theta`` to tolerance
    or sweep budget on the stage's own copy of ``start``, then re-solve the
    controls in place against the final value gradient, so the returned
    triple satisfies the slice fixed point to the mu tolerance.  H is then
    written at those controls a block of levels at a time, the value
    solution keeps their grad_p, whose drift the density march and a
    particle simulation advect by, and that march writes a new density
    path, so the controls stay paired with the density they were solved
    on.  The start's controls are the baseline."""
    scaled = ThetaScaledModel(model, theta)
    u_terminal = theta * start.u_terminal
    paths = value, m, alpha = _own(start)
    history, converged = list(start.history), False
    for _ in range(cfg.max_sweeps):
        try:
            u_change, m_change, duality = picard_iterate(scaled, paths, u_terminal)
        except FmfgcError as err:
            err.sweep_index = len(history)
            raise
        history.append(SweepMetrics(len(history) + 1, theta, u_change, m_change, duality))
        if sink is not None:
            sink.write(history[-1])
        converged = history[-1].defect <= cfg.tolerance
        if converged:
            break

    tg, grid = start.time_grid, start.grid
    mu_path = solve_mu(MeasurePath.view(tg, grid, m, alpha), value.du, scaled, cfg.mu_config, alpha)
    hamiltonian, grad_p = scaled.hamiltonian_at(mu_path)
    for block in grid.level_blocks(len(value.u)):
        value.hamiltonian[block] = hamiltonian(value.du[block], block)
    del hamiltonian  # its closure holds the potential path, which the march does not read
    u_sol = replace(value, grad_p=grad_p)
    m_sol = solve_forward(u_sol.drift, mu_path[0].m, tg)
    return EquilibriumSolution(
        theta, u_sol, m_sol, mu_path, start.u_terminal, history, converged, start.mu_path
    )


def solve_equilibrium(
    model,
    m0: GridMeasure,
    u_terminal: np.ndarray,
    time_grid: TimeGrid,
    theta_target: float = 1.0,
    cfg: LoopConfig | None = None,
    metrics_stream=None,
    warm_start: EquilibriumSolution | None = None,
) -> EquilibriumSolution:
    """Direct solve at theta_target: one stage, no continuation.

    The stage starts from the analytic zero-scaling base, or from
    ``warm_start`` when given; ``cfg.theta_schedule`` is not read.  On
    non-convergence the state comes back with ``converged`` false and the
    full history intact rather than raising.
    """
    cfg = cfg or LoopConfig()
    if not 0.0 < theta_target <= 1.0:
        raise ValueError(f"theta_target must lie in (0, 1], got {theta_target}")
    sink = MetricsWriter(metrics_stream) if metrics_stream is not None else None
    if warm_start is None:
        warm_start = analytic_base(m0, u_terminal, time_grid)
    return _run_stage(warm_start, theta_target, model, cfg, sink)


def sweep_theta(
    model,
    m0: GridMeasure,
    u_terminal: np.ndarray,
    time_grid: TimeGrid,
    cfg: LoopConfig | None = None,
    metrics_stream=None,
) -> Iterator[EquilibriumSolution]:
    """Run the continuation through ``cfg.theta_schedule``, yielding each
    stage's final state as the stage ends, each stage warm starting from
    the previous one.

    A zero entry yields the analytic base as a stage.  The sweep stops
    after the first stage that ends unconverged, so no stage starts from
    one that did not converge; that stage comes last, with ``converged``
    false.  While a stage runs, the generator holds only the stage it
    started from (with that stage's baseline, the controls of the one
    before), so a caller that keeps only what it reads of each stage, as
    ``fmfgc sweep-theta`` keeps its theta-table row and the last stage,
    holds one solve's working set and one stage more, not the schedule.
    """
    cfg = cfg or LoopConfig()
    schedule = cfg.theta_schedule
    sink = MetricsWriter(metrics_stream) if metrics_stream is not None else None
    state = analytic_base(m0, u_terminal, time_grid)
    if schedule[0] == 0.0:  # a zero entry is the base itself
        yield state
        schedule = schedule[1:]
    for theta in schedule:
        state = _run_stage(state, theta, model, cfg, sink)
        yield state
        if not state.converged:
            return


@dataclass(frozen=True)
class EquilibriumCertificate:
    duality: float
    exploitability: float
    monotonicity_min: float
    lambda_sup: float
    moments_ok: bool

    @property
    def monotone_ok(self) -> bool:
        return self.monotonicity_min >= -1e-10


def equilibrium_certificate(sol: EquilibriumSolution, model) -> EquilibriumCertificate:
    """Post-solve checks: duality defect, control fixed-point residual,
    monotonicity pairings against the stage's starting path, moments.

    Each check reads the paths a block of levels at a time.  The moment
    bounds read ``C0``, ``q`` and ``q_tilde``, which scaling leaves alone,
    from ``model`` itself; the scaled model is built for the pairing of a
    stage at theta > 0 only, so the analytic base at theta = 0 is
    certified too."""
    duality = duality_residual(sol.u_sol, sol.m_sol)

    alpha, drift = sol.mu_path.alpha, sol.u_sol.drift
    exploit = float(np.max([
        np.max(np.abs(alpha[block] - drift[block]))
        for block in sol.grid.level_blocks(len(alpha))
    ]))
    moments = moment_certificate(sol.mu_path, sol.u_sol.du, model)

    mono_min = 0.0
    if sol.baseline_mu is not None and sol.theta > 0.0:
        scaled = ThetaScaledModel(model, sol.theta)
        mono_min = np.min(monotonicity_pairing(scaled, sol.mu_path, sol.baseline_mu))

    return EquilibriumCertificate(
        duality=duality,
        exploitability=exploit,
        monotonicity_min=float(mono_min),
        lambda_sup=float(np.max(moments.lambda_qt)),
        moments_ok=moments.ok,
    )
