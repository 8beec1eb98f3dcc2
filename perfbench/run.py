"""Wall-clock benchmark of the AVCC stack.

Run from the repository root::

    python3 perfbench/run.py --workload train_gisette --seed 1 --seconds 10 --trace 0

Workloads: ``train_gisette``, ``serve_batched``, ``rounds_sim`` (see
``perfbench/workloads.py`` and ``perfbench/NOTES.md``).

``--trace 0`` measures the end-to-end metrics with no instrumentation
in the program. ``--trace 1`` sets up once with the per-layer ledger
installed, measures half the time untraced and half traced, and reports
the per-layer metrics plus the tracing overhead between the two halves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the run's details (seed, environment, percentiles, sample
counts, accuracy). Any wrong, missing or failed operation makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist that
    ``repro`` comes from there (never from an installed copy)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(phase, setup_times: list[float], wrong: int) -> tuple[dict, dict]:
    from workloads import percentile_tail

    lats = phase.latencies_s
    tail, tail_pct, n = percentile_tail(lats)
    failed = phase.failed + wrong
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(_rate(phase), "1/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(lats) if lats else 0.0, "ms"),
        "ok_frac": metric(
            (phase.attempted - failed) / phase.attempted if phase.attempted else 0.0,
            "frac",
        ),
    }
    detail = {
        "setup_s_samples": setup_times,
        # reported, not gated: on a shared host its run-to-run spread is
        # set by preemption and stall lengths, wider than any bound allowed
        "latency_tail_ms": {
            **metric(1e3 * tail if lats else 0.0, "ms"),
            "percentile": tail_pct,
            "samples": n,
        },
        "measured_s": phase.wall_s,
        "ops": phase.ops,
        "shed": phase.shed,
    }
    return metrics, detail


def run_plain(w, seconds: float):
    times = w.setup(w.size["setups"])
    w.prepare()
    gc.collect()
    phase = w.measure(seconds)
    wrong = w.check()
    metrics, detail = end_to_end(phase, times, wrong)
    return metrics, detail, phase.attempted, phase.failed + wrong


#: traced runs alternate this many untraced and traced segments
SEGMENTS = 8


def run_traced(w, seconds: float):
    """Set up once with the ledger installed, then alternate untraced
    and traced segments, so drift in the machine's speed falls on both
    sides of the overhead comparison alike."""
    from ledger import PER_LAYER, Ledger, install, layer_metrics
    from workloads import Phase

    ledger = Ledger()
    install(ledger)
    try:
        w.setup(1)
        setup_snap = ledger.snapshot()
    finally:
        ledger.restore()
    w.prepare()
    gc.collect()
    ledger.reset()
    untraced, traced = Phase(), Phase()
    for i in range(SEGMENTS):
        if i % 2 == 0:
            _merge(untraced, w.measure(seconds / SEGMENTS))
            continue
        install(ledger)
        try:
            segment = w.measure(seconds / SEGMENTS)
        finally:
            ledger.restore()
        _merge(traced, segment)
    snap = ledger.snapshot()
    wrong = w.check()

    p50_a = statistics.median(untraced.latencies_s) if untraced.latencies_s else 0.0
    p50_b = statistics.median(traced.latencies_s) if traced.latencies_s else 0.0
    values = layer_metrics(
        snap, setup_snap, traced.ops, shed=traced.shed,
        latency_s=sum(traced.latencies_s),
    )
    rate_a, rate_b = _rate(untraced), _rate(traced)
    values["trace_overhead"] = 100.0 * (p50_b / p50_a - 1.0) if p50_a else 0.0
    values["trace_overhead_ops"] = 100.0 * (1.0 - rate_b / rate_a) if rate_a else 0.0
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
    detail = {
        "untraced": {"ops": untraced.ops, "p50_ms": 1e3 * p50_a, "ops_per_s": rate_a},
        "traced": {"ops": traced.ops, "p50_ms": 1e3 * p50_b, "ops_per_s": rate_b},
        "self_ms_per_op": {
            k: 1e3 * v / traced.ops for k, v in sorted(snap["self_s"].items())
        } if traced.ops else {},
    }
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed + wrong
    return metrics, detail, attempted, failed


def _merge(into, seg) -> None:
    into.ops += seg.ops
    into.attempted += seg.attempted
    into.failed += seg.failed
    into.wall_s += seg.wall_s
    into.shed += seg.shed
    into.latencies_s.extend(seg.latencies_s)


def _rate(phase) -> float:
    """Throughput: completed operations per measured wall-clock second,
    stalls included."""
    return phase.ops / phase.wall_s if phase.wall_s else 0.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shapes for the self-test")
    ap.add_argument("--corrupt", type=int, default=0,
                    help="corrupt this many results before checking (self-test)")
    args = ap.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload](args.seed, args.size, corrupt=args.corrupt)
    try:
        runner = run_traced if args.trace else run_plain
        metrics, detail, attempted, failed = runner(w, args.seconds)
    finally:
        w.close()

    ok = failed == 0 and attempted >= 1 and not w.info.get("errors")
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        size=args.size,
        env=environment(),
        **w.info,
    )
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(
        {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
