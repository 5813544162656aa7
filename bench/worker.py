"""One workload process: set up, warm up, run the timed loop, report JSON.

Started by run.py, which pins the BLAS/OpenMP thread counts in this
process's environment and times it from spawn to the ``ready`` line.  The
last stdout line is a JSON object with the op statistics (untraced) or the
per-layer metrics (traced).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"


def _import_pdckit():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import pdckit
    from pdckit import bounds, cli, dists, estimation, gf, hashing, identities  # noqa: F401
    from pdckit import protocol, qexact, wiretap  # noqa: F401

    if not Path(pdckit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"pdckit imported from {pdckit.__file__}, not from {ROOT / 'src'}")
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pdckit": pdckit.__version__}


def nearest_rank(sorted_vals: list[float], pct: float) -> tuple[float, int]:
    """The pct-th nearest-rank percentile and how many samples lie beyond it."""
    rank = max(1, math.ceil(len(sorted_vals) * pct / 100))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def run_op(op, tracer=None) -> tuple[float | None, str | None]:
    """Time one operation and check its output: (seconds, error or None)."""
    call, check = op.make()
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - t0
        else:
            with tracer.root("op") as span:
                result = call()
            seconds = span[2] - span[1]
    except Exception:  # an op that raises counts as failed; keep measuring
        return None, f"{op.name}: {traceback.format_exc()}"
    error = check(result)
    return seconds, (None if error is None else f"{op.name}: {error}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    versions = _import_pdckit()
    import_s = time.perf_counter() - t0

    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    if tracer is None:
        wl = workloads.BUILDERS[args.workload](args.seed, None, OUT_DIR)
    else:
        with tracer.root("setup.build"):
            wl = workloads.BUILDERS[args.workload](args.seed, tracer, OUT_DIR)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, error = run_op(wl.cycle[0])
    warmup_s = time.perf_counter() - t0
    if error is not None:
        print(f"warm-up failed: {error}", file=sys.stderr)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Whole cycles only, so every run has the same mix of operation kinds:
    # the untraced run stops at the cycle end nearest to --seconds, and the
    # traced run repeats a fixed number of cycles so that its counts repeat.
    durations: list[float] = []
    failures: list[str] = []
    attempted = 0
    kinds: dict[str, list[float]] = defaultdict(list)
    t_begin = time.perf_counter()
    cycles = 0
    cycle_s = 0.0
    while (cycles < wl.trace_cycles) if tracer else \
            (time.perf_counter() - t_begin + cycle_s / 2 < args.seconds):
        t_cycle = time.perf_counter()
        for op in wl.cycle:
            seconds, error = run_op(op, tracer)
            attempted += 1
            if seconds is not None:
                durations.append(seconds)
                kinds[op.name].append(seconds)
            if error is not None:
                failures.append(error)
        cycles += 1
        cycle_s = time.perf_counter() - t_cycle
    elapsed = time.perf_counter() - t_begin

    if not durations:
        sys.exit("no operation completed: " + "; ".join(failures[:3]))
    p50 = statistics.median(durations)
    tail, beyond = nearest_rank(sorted(durations), wl.tail_pct)
    report = {
        "versions": versions, "attempted": attempted, "failed": len(failures),
        "failures": failures[:5], "cycles": cycles, "elapsed_s": elapsed,
        "op_p50_s": p50, "op_tail_s": tail, "tail_pct": wl.tail_pct,
        "tail_beyond": beyond, "ops_per_s": (attempted - len(failures)) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kinds": {k: [len(v), statistics.median(v)] for k, v in kinds.items()},
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        _, self_s = tracer.self_times()
        layers.update({
            "setup.import_s": import_s, "setup.build_s": build_s,
            "setup.warmup_s": warmup_s, "ops.total_s": sum(durations),
            "bench.op.self_s": self_s.get("op", 0.0), "trace.op_p50_s": p50,
        })
        report["layers"] = layers
        report["idle_spans"] = tracer.idle_targets()
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
