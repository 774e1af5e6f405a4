#!/usr/bin/env python3
"""tau/sigma reality scan of every operation of the deep_chain benchmark.

The benchmark's own check samples 64 of the 2,048 operations of a round.
This scan builds the workload for each given seed, runs one round and checks
every operation: with E = E(u, lambda),

    tau   = max |E(u, conj(lambda))^* E - I|,
    sigma = max |E^T E(u, -lambda) - I|.

It prints the worst residual per seed and overall, the median and 99.9th
percentile over every operation, and how many operations reach 1e-10, 3e-11
and 1e-11.  It exits 1 when any operation reaches the benchmark's
REALITY_TOL.

Usage: PYTHONPATH=src python scripts/reality_scan.py [--seeds 10] [--seeds 1-20]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import dressing_forge as df

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import REALITY_TOL, DeepChain  # noqa: E402

THRESHOLDS = (1e-10, 3e-11, 1e-11)


def seeds(specs) -> list:
    """Seeds from "N" and "A-B" (inclusive) items."""
    out = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def scan(seed: int) -> np.ndarray:
    """max(tau, sigma) of every operation of one deep_chain round, shape
    (points, lambdas per point)."""
    work = DeepChain(df, ROOT, seed, ROOT)
    work.run_round(0)
    frame, eye = work._frame, np.eye(3)
    residual = np.empty(work.E.shape[:2])
    for i, u in enumerate(work.points):
        # one call per point: its conj(lambda) and -lambda as a stack
        lams = np.array(work.lams[i])
        E_conj, E_minus = frame.E(u, np.array([lams.conj(), -lams]))
        for j, E in enumerate(work.E[i]):
            tau = df.max_abs(E_conj[j].conj().T @ E - eye)
            sigma = df.max_abs(E.T @ E_minus[j] - eye)
            residual[i, j] = max(tau, sigma)
    return residual


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", nargs="+", default=["10"],
                    help='seeds, each "N" or an inclusive range "A-B" (default 10)')
    args = ap.parse_args(argv)

    residuals = []
    for seed in seeds(args.seeds):
        residual = scan(seed)
        i, j = np.unravel_index(np.argmax(residual), residual.shape)
        print(f"seed {seed:3d}: worst {residual[i, j]:.3e} at op {i}/{j}")
        residuals.append(residual.ravel())
    every = np.concatenate(residuals)
    worst = float(every.max())
    median, p999 = np.percentile(every, [50, 99.9])
    print(f"{every.size} ops, worst {worst:.3e}, median {median:.3e}, 99.9th percentile "
          f"{p999:.3e}; " + ", ".join(f"{np.count_nonzero(every >= t)} >= {t:g}"
                                      for t in THRESHOLDS))
    if worst >= REALITY_TOL:
        print(f"FAIL: an op reaches REALITY_TOL = {REALITY_TOL:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
