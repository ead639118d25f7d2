"""In-memory span tracer for the benchmark's traced repeats.

The wrappers are installed on the names that the package's callers look up
at call time: module globals (``fmfgc.equilibrium.solve_mu`` is looked up
in ``fmfgc.equilibrium``, not in ``fmfgc.mu_solver``) and class attributes.
Nothing under ``src/fmfgc`` changes.  Spans are kept in flat lists (name,
start, end, parent, trace id) and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

from fmfgc import (
    artifacts,
    equilibrium,
    measures,
    models,
    mu_solver,
    particles,
    spectral,
)

ROOT = "bench.repeat"


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


class Tracer:
    """Spans and counters of the traced repeats; one trace id per repeat."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.trace: list[int] = []
        self.counts: list[defaultdict] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self._install()

    # -- recording ---------------------------------------------------------

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[-1][key] += value

    def _wrap(self, name: str, fn, after=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self._stack[-1])
            self.trace.append(len(self.counts) - 1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def span(self, fn, name: str = ROOT):
        """Run fn() as the root span of a new trace (one repeat)."""
        self.counts.append(defaultdict(float))
        return self._wrap(name, fn)()

    # -- wrapper installation ----------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def _counted(self, fn, key: str):
        """A wrapper that only counts calls: measure constructors are too
        frequent and too cheap for a span each."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[-1][key] += 1
            return fn(*args, **kwargs)

        return counted

    def _traced(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, self._wrap(name, getattr(owner, attr), after))

    def _install(self) -> None:
        grid_cls = spectral.SpectralGrid
        for attr in ("semigroup_apply", "frac_laplacian"):
            self._traced(grid_cls, attr, f"spectral.{attr}",
                         lambda a, r: self.count("spectral.fft_count", 2))
        for attr in ("gradient", "divergence"):
            self._traced(grid_cls, attr, f"spectral.{attr}",
                         lambda a, r: self.count("spectral.fft_count", 1 + a[0].dim))

        self._patch(measures.GridMeasure, "__init__", self._counted(
            measures.GridMeasure.__init__, "measures.grid_measure_inits"))
        self._patch(measures.JointControlMeasure, "__init__", self._counted(
            measures.JointControlMeasure.__init__, "measures.joint_measure_inits"))

        for attr in ("hamiltonian_field", "grad_p_field"):
            self._traced(models.ThetaScaledModel, attr, f"models.{attr}")
        # solve_mu looks solve_mu_detailed up in its own module, so this one
        # wrapper sees every control fixed point and its iteration count.
        self._traced(mu_solver, "solve_mu_detailed", "mu_solver.solve_mu",
                     lambda a, r: self.count("mu_solver.iterations", r.iterations))

        eq = equilibrium
        self._traced(eq, "solve_backward", "hjb.solve_backward",
                     lambda a, r: self.count("hjb.levels", r.time_grid.n_steps))
        self._traced(eq, "solve_forward", "fokker_planck.solve_forward")
        self._traced(eq, "duality_residual", "fokker_planck.duality_residual")
        self._traced(eq, "wasserstein_1d", "measures.w1")
        self._traced(measures, "wasserstein_1d", "measures.w1")
        self._traced(eq, "solve_equilibrium", "equilibrium.solve_equilibrium",
                     self._after_solve)
        self._traced(eq, "equilibrium_certificate", "equilibrium.certificate")

        self._traced(artifacts, "emit_artifacts", "artifacts.emit_artifacts",
                     lambda a, r: self.count("artifacts.bytes_written", _file_bytes(r.values())))
        self._traced(artifacts, "emit_simulation", "artifacts.emit_simulation",
                     lambda a, r: self.count("artifacts.bytes_written", _file_bytes(r.values())))
        self._traced(artifacts, "read_field", "artifacts.read_field",
                     lambda a, r: self.count("artifacts.bytes_read", _file_bytes([a[0]])))

        self._traced(particles, "simulate_sde", "particles.simulate_sde",
                     lambda a, r: self.count("particles.steps", a[2] * a[3].n_steps))
        self._traced(particles, "sample_stable_increment", "particles.increment")
        self._traced(particles, "empirical_measure", "particles.deposit")
        self._traced(particles, "holder_wasserstein_check", "particles.holder")
        self._traced(particles, "wasserstein_1d", "particles.holder_w1")

    def _after_solve(self, args, sol) -> None:
        self.count("equilibrium.sweeps", sol.sweeps)
        self.count("equilibrium.stages", len({h.theta for h in sol.history}))
        self.count("equilibrium.fictitious_sweeps", sum(h.delta < 1.0 for h in sol.history))

    def enable(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def disable(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "trace": np.array(self.trace, dtype=np.int32),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def per_trace(self) -> list[dict]:
        """Per repeat: calls, inclusive and self seconds per span name, counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        n_names = len(self.names)
        key = a["trace"].astype(np.int64) * n_names + a["name"]
        size = len(self.counts) * n_names
        shape = (len(self.counts), n_names)
        calls = np.bincount(key, minlength=size).reshape(shape)
        incl = np.bincount(key, weights=dur, minlength=size).reshape(shape)
        selft = np.bincount(key, weights=own, minlength=size).reshape(shape)
        out = []
        for t, counters in enumerate(self.counts):
            out.append({
                "calls": dict(zip(self.names, calls[t].tolist())),
                "incl": dict(zip(self.names, incl[t].tolist())),
                "self": dict(zip(self.names, selft[t].tolist())),
                "counts": dict(counters),
            })
        return out


def _sum(table: dict, prefix: str) -> float:
    return sum(v for k, v in table.items() if k.startswith(prefix))


def unit_of(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "steps/s"
    if name.endswith("_s") or ".s_per_" in name:
        return "s"
    if "bytes" in name:
        return "B"
    if name == "trace.overhead":
        return "1"
    return "count"


def layer_self(trace: dict) -> dict[str, float]:
    """Self seconds per layer (module); the harness root is its own layer."""
    out: dict[str, float] = defaultdict(float)
    for name, value in trace["self"].items():
        out[name.split(".")[0]] += value
    return dict(out)


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced repeat, by name."""
    calls, incl, own, cnt = trace["calls"], trace["incl"], trace["self"], trace["counts"]
    get = lambda table, key: table.get(key, 0.0)  # noqa: E731
    mu_calls = get(calls, "mu_solver.solve_mu")
    levels = cnt.get("hjb.levels", 0.0)
    sweeps = cnt.get("equilibrium.sweeps", 0.0)
    simulate = get(incl, "particles.simulate_sde")
    return {
        "spectral.calls": _sum(calls, "spectral."),
        "spectral.fft_count": cnt.get("spectral.fft_count", 0.0),
        "spectral.busy_s": _sum(own, "spectral."),
        "measures.w1_calls": get(calls, "measures.w1"),
        "measures.w1_busy_s": get(own, "measures.w1"),
        "measures.grid_measure_inits": cnt.get("measures.grid_measure_inits", 0.0),
        "measures.joint_measure_inits": cnt.get("measures.joint_measure_inits", 0.0),
        "models.field_calls": _sum(calls, "models."),
        "models.field_busy_s": _sum(own, "models."),
        "mu_solver.calls": mu_calls,
        "mu_solver.busy_s": get(own, "mu_solver.solve_mu"),
        "mu_solver.iterations_mean": cnt.get("mu_solver.iterations", 0.0) / mu_calls if mu_calls else 0.0,
        "hjb.calls": get(calls, "hjb.solve_backward"),
        "hjb.busy_s": get(own, "hjb.solve_backward"),
        "hjb.s_per_level": get(incl, "hjb.solve_backward") / levels if levels else 0.0,
        "fokker_planck.forward_calls": get(calls, "fokker_planck.solve_forward"),
        "fokker_planck.forward_busy_s": get(own, "fokker_planck.solve_forward"),
        "fokker_planck.duality_calls": get(calls, "fokker_planck.duality_residual"),
        "fokker_planck.duality_busy_s": get(own, "fokker_planck.duality_residual"),
        "equilibrium.stages": cnt.get("equilibrium.stages", 0.0),
        "equilibrium.fictitious_sweeps": cnt.get("equilibrium.fictitious_sweeps", 0.0),
        "equilibrium.self_s": _sum(own, "equilibrium."),
        "equilibrium.s_per_sweep": get(incl, "equilibrium.solve_equilibrium") / sweeps if sweeps else 0.0,
        "equilibrium.certificate_s": get(incl, "equilibrium.certificate"),
        "artifacts.write_s": get(own, "artifacts.emit_artifacts") + get(own, "artifacts.emit_simulation"),
        "artifacts.bytes_written": cnt.get("artifacts.bytes_written", 0.0),
        "artifacts.read_s": get(own, "artifacts.read_field"),
        "artifacts.bytes_read": cnt.get("artifacts.bytes_read", 0.0),
        "particles.simulate_s": simulate,
        "particles.steps_per_s": cnt.get("particles.steps", 0.0) / simulate if simulate else 0.0,
        "particles.increment_s": get(own, "particles.increment"),
        "particles.step_self_s": get(own, "particles.simulate_sde"),
        "particles.deposit_s": get(own, "particles.deposit"),
        "particles.holder_s": get(own, "particles.holder"),
        "particles.holder_w1_s": get(own, "particles.holder_w1"),
        "particles.holder_w1_calls": get(calls, "particles.holder_w1"),
        "trace.spans": sum(calls.values()),
        "trace.repeat_s": get(incl, ROOT),
        "trace.harness_self_s": get(own, ROOT),
    }
