"""pdckit benchmark: one workload, one closed-loop client, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc_hash, mc_decode, oracle, short_calls (see bench/README.md).
Each run starts fresh worker processes with BLAS/OpenMP pinned to one
thread.  Untraced (``--trace 0``), it times set-up in three fresh processes
and reports their median as ``setup_s``; the last of them then runs whole
cycles of the workload for about S seconds.  Traced (``--trace 1``), one
process wraps pdckit's layer entry points, runs a fixed number of cycles
and reports per-layer self times and work counts.  The last stdout line is
the JSON result; the lines before it describe the run.

Reads pdckit from ``src/`` next to this directory and exits with code 2,
printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("mc_hash", "mc_decode", "oracle", "short_calls")
SETUPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def spawn(args, extra: list[str], env, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns (spawn-to-ready seconds, its final JSON or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {' '.join(cmd)}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pdckit" / "__init__.py").is_file():
        print(f"pdckit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    try:
        setups = [spawn(args, ["--setup-only"], env, deadline)[0]
                  for _ in range(SETUPS - 1)] if not args.trace else []
        setup_s, report = spawn(args, [], env, deadline)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    setups.append(setup_s)

    env_record = {"nproc": os.cpu_count(), "git_sha": _git_sha(),
                  "threads": {name: env[name] for name in THREAD_VARS},
                  **report.pop("versions")}
    print("# env " + json.dumps(env_record, sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: {report['attempted']} ops in "
          f"{report['cycles']} cycles, {report['elapsed_s']:.2f} s, failed "
          f"{report['failed']} (fail_frac {report['failed'] / report['attempted']:.4g}); "
          f"op_tail_s is p{report['tail_pct']} with {report['tail_beyond']} samples beyond")
    for kind, (count, median) in report["kinds"].items():
        print(f"#   {kind}: {count} ops, median {median:.6f} s")
    for failure in report["failures"]:
        print("# FAILED " + failure.replace("\n", " | "))

    if args.trace:
        layers = report["layers"]
        total = layers["ops.total_s"]
        print(f"# spans written to {report['spans_file']}")
        print("# share of op time (self time / ops.total_s):")
        for key, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            if key.endswith(".self_s") and value > 0:
                print(f"#   {key[:-7]:32s} {value / total:7.2%}")
        solver = sum(layers[f"qexact.{name}.self_s"]
                     for name in ("_minimize_xi", "_xi_value_and_grad", "_pgd_minimize"))
        print(f"#   {'qexact solver spans together':32s} {solver / total:7.2%}")
        for name in report["idle_spans"]:
            print(f"# idle span: {name}")
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": report["op_p50_s"], "unit": "s"},
            "op_tail_s": {"value": report["op_tail_s"], "unit": "s"},
            "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
