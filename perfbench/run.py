#!/usr/bin/env python3
"""dressing-forge benchmark: one command per workload run.

    python3 perfbench/run.py --workload {scenarios,grid3d,deep_chain} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  Each
run starts one single-threaded worker process (BLAS pinned to one thread)
that drives the library in a closed loop with one client for about S
seconds and checks every output.  With --trace 0, a few extra workers stop
right after set-up, so set-up time is a median.  With --trace 1, untraced and
traced rounds alternate and the per-layer span metrics are reported.

The metric names and units come from BENCHMARK.json.  Human-readable
lines (metric, unit, sample count, provenance) come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Per-run details, with provenance, are written to
.bench_work/<workload>/result-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scenarios", "grid3d", "deep_chain")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
TOTAL_BUDGET_S = 175


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def spawn(root: Path, args, timeout: float, probe: bool) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    t0 = time.monotonic()
    # subprocess.run kills and reaps the worker if it overruns the timeout
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=worker_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_line(name, value, unit, n):
    return f"{name:<40s} {value:>16.6g} {unit:<6s} n={n}"


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    started = time.monotonic()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "dressing_forge" / "__init__.py").is_file():
        print("error: run from a dressing-forge checkout (src/dressing_forge is missing)",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print("error: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(root, args, PROBE_TIMEOUT_S, probe=True)["setup_s"])
        remaining = TOTAL_BUDGET_S - (time.monotonic() - started)
        res = spawn(root, args, remaining, probe=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    lines = []
    if args.trace:
        values = dict(res["layer"])
        wanted = spec["per_layer"]
        counts = {}
        lines.append(f"# traced rounds {len(res['traced_walls'])}, untraced rounds "
                     f"{len(res['walls'])}; tracing overhead "
                     f"{values['trace.overhead_s']:.4g} s per round; spans -> {res['trace_file']}")
        if res["missing_entry_points"]:
            lines.append("# entry points not found: " + ", ".join(res["missing_entry_points"]))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["walls"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        counts = {"setup_s": len(setups), "wall_s": len(res["walls"]), "peak_rss_mb": 1}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        lines.append(metric_line(m["name"], values[m["name"]], m["unit"],
                                 counts.get(m["name"], len(res["traced_walls"]))))
    # not gated: derived from attempted/failed and, on deep_chain, the
    # per-evaluate latencies of the untraced rounds
    lines.append(metric_line("fail_share", res["failed"] / res["attempted"], "ratio",
                             res["attempted"]))
    if args.workload == "deep_chain":
        lines.append(metric_line("eval_p50_us", res["op_p50_us"], "us", res["op_count"]))
        lines.append(metric_line("eval_p99_us", res["op_p99_us"], "us", res["op_count"]))
    for problem in res["problems"][:20]:
        lines.append(f"# check failed: {problem}")
    lines.append("# provenance " + json.dumps(res["provenance"], sort_keys=True))

    correct = not res["problems"]
    result = {
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(res, setups=setups, result=result)
    out = root / ".bench_work" / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
