"""Outer equilibrium iteration.

Plain Picard sweeps couple the three building blocks: the control fixed
point on the whole path, the backward value solve, and the forward
density solve.  Each sweep repeats the same update on the last iterate,
with no averaging, so the state holds one density path.  Paths are
stacked arrays with time as the leading axis.  A solve runs one stage at
the target scaling theta in (0, 1], started from the exact zero-scaling
solution or from a given state.  At theta = 0 the problem decouples:
``analytic_base`` builds its solution in closed form (zero value
function, zero control, pure fractional heat flow), and no sweep runs
there.  The ascending scaling schedule, each stage warm starting from the
previous one, is the homotopy of ``sweep_theta`` only.

A sweep reads each measure-only quantity once: the backward march fixes
the control path, evaluates H and the drift -D_p H there on the new value
gradient and keeps both on its solution; the CFL guard, the forward march
and the duality pairing all read those arrays.

The working set is whole paths, so none is held twice.  The analytic
base holds one density path, the heat flow checked once as a density
path; its zero value, H, gradient, drift and control paths are read-only
broadcast views with no memory behind them, and its control path, which
a stage keeps as the certificate's baseline, is a view of that density.
Path work that needs path-sized temporaries (the CFL rule, the forward
march's face velocities, the duality pairing and the certificate's
monotonicity pairing) runs one block of levels at a time
(``SpectralGrid.level_blocks``), with every level's arithmetic the one a
whole-path pass gives.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import FmfgcError
from .fokker_planck import FpSolution, duality_residual, heat_flow, solve_forward
from .hjb import HjbSolution, feedback_drift, one_field, solve_backward
from .measures import (
    GridMeasure,
    MeasurePath,
    checked_density_path,
    coordinate_marginals,
    monotonicity_pairing,
    wasserstein_1d,
)
from .models import coerce_theta
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
    delta: float  # the weight of the new iterate; plain Picard, so always 1.0
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
    # one read-only zero view per shape serves u and H, Du, the drift and
    # the control, with no memory behind it
    scalar = np.broadcast_to(0.0, m_sol.m.shape)
    vector = np.broadcast_to(0.0, (tg.n_steps + 1, grid.dim) + grid.shape)
    return EquilibriumSolution(
        theta=0.0,
        u_sol=HjbSolution(tg, grid, u=scalar, du=vector, hamiltonian=scalar, drift=vector),
        m_sol=m_sol,
        mu_path=MeasurePath.view(tg, grid, m_sol.m, vector),
        u_terminal=one_field(grid, u_terminal),
        history=[],
        converged=True,
    )


def _control_path(state: EquilibriumSolution, scaled, cfg: LoopConfig) -> MeasurePath:
    """The control fixed point on the state's density path against its value
    gradient, all slices at once, warm started from the state's controls."""
    start = MeasurePath.view(state.time_grid, state.grid, state.m_sol.m, state.mu_path.alpha)
    return solve_mu(start, state.u_sol.du, scaled, cfg.mu_config)


def picard_iterate(state: EquilibriumSolution, model, cfg: LoopConfig) -> EquilibriumSolution:
    """One sweep at the state's theta in (0, 1]: controls, backward value,
    forward density."""
    scaled = coerce_theta(model, state.theta)
    try:
        mu_path = _control_path(state, scaled, cfg)
        u_new = solve_backward(scaled, mu_path, state.theta * state.u_terminal)
        # mu_path holds the iterate's density, so its slice 0 is m0
        m_new = solve_forward(u_new.drift, mu_path[0].m, state.time_grid)
    except FmfgcError as err:
        err.sweep_index = state.sweeps
        raise

    duality = duality_residual(u_new, m_new)
    # the next sweep marches again, so a state between sweeps keeps u and
    # Du only: the march's H and drift go as soon as the pairing has read them
    u_new = replace(u_new, hamiltonian=None, drift=None)
    u_change = float(np.max(np.abs(u_new.u - state.u_sol.u)))
    m_change = float(np.max(wasserstein_1d(
        coordinate_marginals(GridMeasure.view(state.grid, state.m_sol.m)),
        coordinate_marginals(GridMeasure.view(state.grid, m_new.m)),
    )))
    metrics = SweepMetrics(
        sweep=state.sweeps + 1,
        theta=state.theta,
        delta=1.0,
        u_change=u_change,
        m_change=m_change,
        duality=duality,
    )
    return replace(
        state,
        u_sol=u_new,
        m_sol=m_new,
        mu_path=mu_path,
        history=state.history + [metrics],
        converged=metrics.defect <= cfg.tolerance,
    )


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
    state: EquilibriumSolution,
    theta: float,
    model,
    cfg: LoopConfig,
    sink: MetricsWriter | None,
) -> EquilibriumSolution:
    """Run one scaling stage from ``state``: iterate at ``theta`` to tolerance
    or sweep budget, then package; the start's controls are the baseline."""
    state = replace(state, theta=theta, converged=False, baseline_mu=state.mu_path)
    for _ in range(cfg.max_sweeps):
        state = picard_iterate(state, model, cfg)
        if sink is not None:
            sink.write(state.history[-1])
        if state.converged:
            break
    return _package(state, model, cfg)


def _package(state: EquilibriumSolution, model, cfg: LoopConfig) -> EquilibriumSolution:
    """Re-solve the control path against the final value gradient so the
    packaged triple satisfies the slice fixed point to the mu tolerance;
    the value solution then carries H and the drift at the packaged path,
    the drift that the density march and a particle simulation advect by."""
    scaled = coerce_theta(model, state.theta)
    mu_path = _control_path(state, scaled, cfg)
    hamiltonian, grad_p = scaled.hamiltonian_at(mu_path)
    du = state.u_sol.du
    u_sol = replace(state.u_sol, hamiltonian=hamiltonian(du), drift=feedback_drift(grad_p, du))
    m_sol = solve_forward(u_sol.drift, mu_path[0].m, state.time_grid)
    return replace(state, u_sol=u_sol, mu_path=mu_path, m_sol=m_sol)


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
) -> list[EquilibriumSolution]:
    """Run the continuation through ``cfg.theta_schedule`` and keep every
    stage's final state, each stage warm starting from the previous one.

    A zero entry keeps the analytic base as a stage.  The sweep stops at the
    first stage that ends unconverged, so no stage starts from one that did
    not converge; that stage comes back last, with ``converged`` false.
    """
    cfg = cfg or LoopConfig()
    schedule = cfg.theta_schedule
    sink = MetricsWriter(metrics_stream) if metrics_stream is not None else None
    state = analytic_base(m0, u_terminal, time_grid)
    stages = [state] if schedule[0] == 0.0 else []  # a zero entry is the base itself
    for theta in schedule[len(stages):]:
        state = _run_stage(state, theta, model, cfg, sink)
        stages.append(state)
        if not state.converged:
            break
    return stages


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

    The moment bounds read ``C0``, ``q`` and ``q_tilde``, which scaling
    leaves alone, from ``model`` itself; the scaled model is built for the
    pairing of a stage at theta > 0 only, so the analytic base at theta = 0
    is certified too."""
    duality = duality_residual(sol.u_sol, sol.m_sol)

    defect = sol.mu_path.alpha - sol.u_sol.drift
    exploit = float(np.max(np.abs(defect)))
    moments = moment_certificate(sol.mu_path, sol.u_sol.du, model)

    mono_min = 0.0
    if sol.baseline_mu is not None and sol.theta > 0.0:
        scaled = coerce_theta(model, sol.theta)
        mono_min = np.min(monotonicity_pairing(scaled, sol.mu_path, sol.baseline_mu))

    return EquilibriumCertificate(
        duality=duality,
        exploitability=exploit,
        monotonicity_min=float(mono_min),
        lambda_sup=float(np.max(moments.lambda_qt)),
        moments_ok=moments.ok,
    )
