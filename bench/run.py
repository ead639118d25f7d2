"""fmfgc benchmark: one workload, closed loop, in one process.

    python3 bench/run.py --workload solve-1d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
After ``SETUP_ROUNDS`` set-up rounds and one warm-up repeat, the
workload's operation repeats back to back for ``--seconds``; every
repeat's output is checked.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repeats, reports the per-layer metrics of the traced
ones and the tracing overhead, and writes the spans to ``.bench_out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_ROUNDS = 3
WORKLOAD_NAMES = ("solve-1d", "solve-2d", "particles-1d")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import fmfgc from this checkout's src, or return None."""
    if not (SRC / "fmfgc" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import fmfgc

    if Path(fmfgc.__file__).resolve().parent != SRC / "fmfgc":
        return None
    return fmfgc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    """Counts checked operations and the ones that failed; prints each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, failures: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(failures)
        for message in failures:
            print(f"FAIL {label}: {message}", flush=True)


def timed_repeats(workload, seconds: float, run: Run, tracer=None):
    """Repeat the operation until the deadline; returns (untraced, traced) times.

    With a tracer, even repeats run untraced and odd repeats traced, so both
    sides see the same drift in machine load.
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        with_trace = tracer is not None and k % 2 == 1
        failures = []
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if with_trace:
                tracer.enable()
                try:
                    result = tracer.span(workload.op)
                finally:
                    tracer.disable()
            else:
                result = workload.op()
        except Exception as exc:  # a failed repeat is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            failures.append(f"{type(exc).__name__}: {exc}")
            result = None
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if result is not None:
            failures = workload.check(result)
        # Drop this repeat's output now, so the next repeat does not run
        # while it is still held and peak_rss_mb counts one solution only.
        result = None
        (traced if with_trace else untraced).append(elapsed)
        run.record(f"repeat {k}", failures)
        print(f"repeat {k}{' traced' if with_trace else ''}: {elapsed:.4f} s wall, "
              f"{cpu:.4f} s cpu", flush=True)
        k += 1
        if time.perf_counter() >= deadline and (tracer is None or k >= 2):
            return untraced, traced


def end_to_end(workload, run: Run, times, setup_s: float) -> dict:
    return {
        "op_s": (statistics.median(times), "s"),
        "sweeps": (workload.sweeps, "count"),
        "duality_gap": (workload.duality, "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - run.failed / run.attempted, "1"),
    }


def per_layer(tracer, untraced, traced, parse_times) -> dict:
    from tracing import layer_metrics, layer_self, unit_of

    traces = tracer.per_trace()
    rows = [layer_metrics(t) for t in traces]
    out = {name: (statistics.median(r[name] for r in rows), unit_of(name)) for name in rows[0]}
    out["manifest.parse_s"] = (statistics.median(parse_times), "s")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    out["trace.overhead"] = (overhead, "1")

    wall = sum(t["incl"]["bench.repeat"] for t in traces)
    totals: dict[str, float] = {}
    for t in traces:
        for layer, value in layer_self(t).items():
            totals[layer] = totals.get(layer, 0.0) + value
    print(f"layer self time over {len(traces)} traced repeats ({wall:.4f} s traced wall):")
    for layer, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {value:10.4f} s  {100.0 * value / wall:6.2f} %")
    print(f"  {'sum':<14} {sum(totals.values()):10.4f} s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if import_package() is None:
        print(f"error: no fmfgc package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    import_s = time.perf_counter() - _STARTED

    rundir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.workload, args.seed, rundir)
        run = Run()
        rounds, parse_times = [], []
        for r in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            outcomes = workload.setup()
            rounds.append(time.perf_counter() - t0)
            parse_times.append(workload.inp.parse_s)
            for i, failures in enumerate(outcomes):
                run.record(f"set-up {r}.{i}", failures)
        t0 = time.perf_counter()
        run.record("warm-up", workload.check(workload.op()))
        warm_up = time.perf_counter() - t0
        setup_s = import_s + statistics.median(rounds) + warm_up
        print(f"imports {import_s:.4f} s; set-up rounds "
              + ", ".join(f"{x:.4f}" for x in rounds) + f" s; warm-up {warm_up:.4f} s",
              flush=True)

        untraced, traced = timed_repeats(workload, args.seconds, run, tracer)
        q1, q3 = quartiles(untraced)
        print(f"op_s median {statistics.median(untraced):.4f} s over {len(untraced)} "
              f"untraced repeats (quartiles {q1:.4f}, {q3:.4f})", flush=True)
        if tracer is None:
            metrics = end_to_end(workload, run, untraced, setup_s)
        else:
            metrics = per_layer(tracer, untraced, traced, parse_times)
            spans = OUT / f"spans-{args.workload}-{args.seed}-{os.getpid()}.npz"
            tracer.write(spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
