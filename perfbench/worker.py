"""One benchmark run of one workload, in its own single-threaded process.

Started by run.py, never imported.  Prints one JSON object as its last line
of standard output.  With --probe it stops after set-up and reports only the
set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/dressing_forge")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--probe", action="store_true")
    return ap.parse_args(argv)


def import_package(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import dressing_forge
    if src not in Path(dressing_forge.__file__).resolve().parents:
        raise ImportError(f"dressing_forge was imported from {dressing_forge.__file__}, "
                          f"not from {src}")
    return dressing_forge


def run_rounds(workload, seconds: float, trace: bool, tracer):
    """Closed loop, one client: rounds run back to back until the time is up.
    With tracing, untraced and traced rounds alternate (at least one each)."""
    rounds = []
    reference = {}
    deadline = perf_counter() + seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        try:
            rnd = workload.run_round(index, tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
                tracer.end_round()
        rnd.traced = traced
        workload.check_round(rnd)
        for op, digest in rnd.digests.items():
            ref = reference.setdefault(op, digest)
            if digest != ref:
                kind = "traced" if traced else "untraced"
                rnd.fail(op, f"{kind} round {index} output differs from round 0")
        # keep only what the result needs, so the harness's own memory does
        # not grow with the number of rounds and show in peak_rss_mb
        rnd.digests = {}
        rnd.latencies_s = array("d", rnd.latencies_s)
        rounds.append(rnd)
        index += 1
        if perf_counter() >= deadline and (not trace or index >= 2):
            return rounds


def git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, args, seed_effect: str) -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        src.update(f.relative_to(root).as_posix().encode())
        src.update(f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": git_commit(root),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_changes": seed_effect,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    df = import_package(root)
    from workloads import PER_OP_COUNTS, WORKLOADS
    workdir = root / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](df, root, args.seed, workdir)
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(df)
    rounds = run_rounds(workload, args.seconds, bool(args.trace), tracer)
    workload.final_check(rounds[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [p for r in rounds for p in r.problems]
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    latencies = [x for r in untraced for x in r.latencies_s]
    # linear interpolation between order statistics, as numpy's default
    q = (statistics.quantiles(latencies, n=100, method="inclusive")
         if len(latencies) > 1 else latencies * 99)
    result = {
        "setup_s": setup_s,
        "walls": [r.wall_s for r in untraced],
        "traced_walls": [r.wall_s for r in traced],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems,
        "op_count": len(latencies),
        "op_p50_us": q[49] * 1e6,
        "op_p99_us": q[98] * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layer = tracer.summary(len(traced))
        for r in traced:
            for name, values in r.counts.items():
                layer.setdefault(name, []).extend(values)
        for name, value in list(layer.items()):
            if isinstance(value, list):
                layer[name] = statistics.fmean(value)
        for name in PER_OP_COUNTS:
            layer.setdefault(name, 0.0)
        layer["trace.overhead_s"] = (statistics.median(result["traced_walls"])
                                     - statistics.median(result["walls"]))
        result["layer"] = layer
        result["missing_entry_points"] = tracer.missing
        trace_path = workdir / f"trace-seed{args.seed}.npz"
        tracer.save(trace_path)
        result["trace_file"] = str(trace_path.relative_to(root))
    result["provenance"] = provenance(root, args, workload.seed_effect)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
