#!/usr/bin/env python3
"""Build a small gallery of dressed flat Lagrangian surfaces and Egoroff nets
from the flat-torus vacuum and export them as OBJ/CSV meshes.

Every mesh must stay inside the immersion chart (h > 0 on the whole grid):
the script exits 1 naming each case that leaves it, as a --half-width
much above the default does.

Usage: python scripts/soliton_gallery.py [--out gallery_out] [--points 41]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from dressing_forge import (ExtendedFrame, Grid, VacuumSeed, dress_real,
                            dress_spherical, dress_translation,
                            dress_two_pole, metric_from_frame,
                            project_onto_span)
from dressing_forge.cli import export_immersion_obj, export_metric_csv, write_obj


def build_cases():
    vacuum = ExtendedFrame(VacuumSeed.constant([1.0, 0.7]))
    pi_diag = project_onto_span(np.array([1.0, 1.0]) / np.sqrt(2))
    pi_perp = project_onto_span(np.array([0.7, -1.0]) / np.linalg.norm([0.7, -1.0]))
    pi_cplx = project_onto_span(np.array([1.0, 0.5 - 0.25j]))
    cases = {
        "flat_torus": vacuum,
        "one_soliton": dress_real(vacuum, 0.6, pi_diag),
        "spherical_soliton": dress_spherical(vacuum, 0.8, pi_perp),
        "breather": dress_two_pole(vacuum, 0.4 + 0.8j, pi_cplx),
        "soliton_translated": dress_translation(dress_real(vacuum, 0.6, pi_diag),
                                                0.9, np.array([0.15, -0.2])),
    }
    return cases


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gallery_out")
    ap.add_argument("--points", type=int, default=41, help="grid points per axis")
    ap.add_argument("--lam", type=float, default=0.9, help="family parameter")
    ap.add_argument("--half-width", type=float, default=0.4,
                    help="grid half-width per axis; at 0.9 four cases leave the chart")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = Grid.from_specs([(-args.half_width, args.half_width, args.points)] * 2)

    off_chart = []
    for name, frame in build_cases().items():
        metric = metric_from_frame(frame, grid)
        rows = export_metric_csv(metric, out / f"{name}_metric.csv")
        verts = export_immersion_obj(frame, grid, args.lam, out / f"{name}.obj")
        h_min = metric.h.real.min()
        if not h_min > 0:
            off_chart.append(name)
        print(f"{name:20s} lam={args.lam:g}: {verts} vertices, {rows} metric rows "
              f"(min h {h_min:.3f}, max |Im| {metric.imag_max:.1e})")

        # the lambda -> 0 net, exported as a flat mesh in R^2 x {0}
        X0 = frame.evaluate(grid.points(), 0.0)[1].reshape(-1, 2).real
        write_obj(out / f"{name}_net.obj", np.column_stack([X0, np.zeros(len(X0))]), grid.shape)

    print(f"gallery written to {out}/")
    if off_chart:
        print(f"left the immersion chart (h <= 0): {', '.join(off_chart)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
