"""The traced benchmark wraps package names by lookup; keep them resolvable.

``bench/tracing.py`` finds every function it wraps with ``getattr`` when the
tracer is built, so renaming or deleting one of those names would crash
``python3 bench/run.py --trace 1`` at start-up.  Building the tracer here
catches that without running a workload.
"""

import threading
from pathlib import Path

import numpy as np
import pytest

from fmfgc import equilibrium, particles
from fmfgc.fokker_planck import initial_density
from fmfgc.models import QuadraticModel
from fmfgc.spectral import SpectralGrid, TimeGrid

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_resolves_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    assert len(tracer._patches) == 24
    # Construction records the patches; only enable() applies them.
    for owner, attr, original, replacement in tracer._patches:
        assert getattr(owner, attr) is original
        assert replacement is not original


def test_traced_solve_reaches_every_solver_layer(monkeypatch):
    # A layer that the solver reaches around a wrapped name would read zero
    # calls in the traced benchmark; one tiny solve per dimension shows each
    # layer is seen.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    for dim in (1, 2):
        grid = SpectralGrid(dim=dim, n=16, s=0.75)
        tg = TimeGrid(horizon=1.0, n_steps=20)
        model = QuadraticModel(coupling_beta=0.3, dim=dim)
        m0 = initial_density(grid, "vonmises")
        u_t = 0.15 * np.cos(2 * np.pi * grid.nodes()[0])

        def solve_and_certify():
            sol = equilibrium.solve_equilibrium(model, m0, u_t, tg)
            return equilibrium.equilibrium_certificate(sol, model)

        tracer = tracing.Tracer()
        tracer.enable()
        try:
            tracer.span(solve_and_certify)
        finally:
            tracer.disable()
        calls = tracer.per_trace()[0]["calls"]
        for name in (
            "mu_solver.solve_mu",
            "hjb.solve_backward",
            "fokker_planck.solve_forward",
            "fokker_planck.duality_residual",
            "models.grad_p_field",
        ):
            assert calls.get(name, 0) > 0, (dim, name)
        # The solver derives its measures from checked stacks and builds
        # none per slice, and the loop metric is one W1 call per sweep in
        # d = 1; in d = 2 it is the total-variation bound, with no W1 call.
        counts = tracer.per_trace()[0]["counts"]
        assert counts.get("measures.joint_measure_inits", 0) == 0, dim
        assert counts.get("measures.grid_measure_inits", 0) == 0, dim
        sweeps = counts["equilibrium.sweeps"]
        assert sweeps > 0, dim
        assert calls.get("measures.w1", 0) == (sweeps if dim == 1 else 0), dim


def test_traced_simulation_spans_stay_on_the_main_thread(monkeypatch):
    # The particle march runs its blocks in forked children as well as in
    # the caller; the tracer keeps one span stack in the caller, so every
    # wrapped name it records must run on the caller's thread.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    monkeypatch.setattr(particles, "MIN_BLOCK", 100)
    monkeypatch.setattr(particles, "_worker_count", lambda: 2)
    grid = SpectralGrid(dim=1, n=16, s=0.75)
    tg = TimeGrid(horizon=0.1, n_steps=10)
    m0 = initial_density(grid, "vonmises")

    tracer = tracing.Tracer()
    callers = []
    tracer.enable()
    try:
        with pytest.MonkeyPatch.context() as spies:
            for owner, attr, _, replacement in tracer._patches:
                def spy(*args, _fn=replacement, **kwargs):
                    callers.append(threading.get_ident())
                    return _fn(*args, **kwargs)

                spies.setattr(owner, attr, spy)
            tracer.span(lambda: particles.simulate_sde(None, m0, 1000, tg, seed=1))
    finally:
        tracer.disable()
    # The march draws inside its blocks and never calls the wrapped sampler.
    calls = tracer.per_trace()[0]["calls"]
    assert calls["particles.simulate_sde"] == 1
    assert calls["particles.increment"] == 0
    assert callers and set(callers) == {threading.get_ident()}
