"""The traced benchmark wraps package names by lookup; keep them resolvable.

``bench/tracing.py`` finds every function it wraps with ``getattr`` when the
tracer is built, so renaming or deleting one of those names would crash
``python3 bench/run.py --trace 1`` at start-up.  Building the tracer here
catches that without running a workload.
"""

from pathlib import Path

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
