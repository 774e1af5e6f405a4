#!/usr/bin/env python3
"""Convergence-order tables for the finite-difference checks and the RK4
oracles, on a one-soliton metric.

Usage: python scripts/convergence_study.py [--alpha 0.6]
"""

import argparse

import numpy as np

from dressing_forge import (ExtendedFrame, Grid, PathSpec, VacuumSeed,
                            check_darboux_egoroff, dress_real, estimate_order,
                            integrate_bf, integrate_frame, max_abs,
                            metric_from_frame, potential_on_grid,
                            project_onto_span)


def table(title, rows):
    print(f"\n{title}")
    print(f"  {'resolution':>12s} {'residual':>12s} {'order':>6s}")
    prev = None
    for label, residual in rows:
        order = "" if prev is None else f"{estimate_order(prev, residual):.2f}"
        print(f"  {label:>12s} {residual:12.3e} {order:>6s}")
        prev = residual


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.6)
    ap.add_argument("--lam", type=float, default=0.9)
    args = ap.parse_args(argv)

    vacuum = ExtendedFrame(VacuumSeed.constant([1.0, 0.7]))
    pi = project_onto_span(np.array([1.0, 1.0]) / np.sqrt(2))
    frame = dress_real(vacuum, args.alpha, pi)

    rows = []
    for m in (9, 17, 33, 65):
        grid = Grid.from_specs([(-0.5, 0.5, m)] * 2)
        metric = metric_from_frame(frame, grid)
        rep = check_darboux_egoroff(metric, tol=1.0)
        rows.append((f"{m} pts/axis", rep["darboux_egoroff_pair"].residual))
    table("flatness (rotation-coefficient equations), central differences", rows)

    rows = []
    for m in (9, 17, 33, 65):
        grid = Grid.from_specs([(-0.5, 0.5, m)] * 2)
        metric = metric_from_frame(frame, grid)
        rows.append((f"{m} pts/axis", max_abs(potential_on_grid(frame, grid) - metric.phi)))
    table("potential: path integral vs closed form", rows)

    target = np.array([0.5, -0.4])
    path = PathSpec.staircase(target)
    ref = frame.evaluate(target, args.lam)
    rows = []
    for step in (4e-2, 2e-2, 1e-2, 5e-3):
        E, X = integrate_frame(2, frame.beta, frame.h, args.lam, path, step)
        rows.append((f"step {step:g}", max(max_abs(E - ref[0]), max_abs(X - ref[1]))))
    table("RK4 frame integration vs closed-form dressing", rows)

    rec = frame.history[0]
    data = rec.point_data(frame, 0, target)
    y_ref = (vacuum.h(target) - frame.h(target)) / (2 * args.alpha)
    rows = []
    for step in (4e-2, 2e-2, 1e-2, 5e-3):
        out = integrate_bf(2, vacuum.beta, vacuum.h, args.alpha, pi.matrix,
                           np.zeros(2), path, step)
        rows.append((f"step {step:g}",
                     max(max_abs(out.pi_tilde - data.pi_tilde.matrix),
                         max_abs(out.y - y_ref))))
    table("RK4 dressing-system integration vs algebraic transport", rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
