#!/usr/bin/env python3
"""Scan the exponent window at fixed N and tabulate the constants chain.

For each p strictly inside (2 + 4/N, 2 + 8/N) this solves the optimizer once
and reports C, the critical mass, the non-homogeneous constant, and the
optimizer frequency, plus the measured mass of the constructed state as a
numeric cross-check of the formula column.  Both come from the same solve;
the mass gap checks the rescaling algebra, not a second solve.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from bnls.constants import compute_constants
from bnls.errors import DivergenceError
from bnls.functionals import Params
from bnls.grid import BoxGrid
from bnls.solvers import SolverConfig, route_Q


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--eps", type=float, default=1.0)
    ap.add_argument("--count", type=int, default=9, help="number of exponents to sample")
    ap.add_argument("--points", type=int, default=1024)
    ap.add_argument("--box", type=float, default=40.0)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    lo = 2.0 + 4.0 / args.N
    hi = 2.0 + 8.0 / args.N
    width = hi - lo
    p_values = np.linspace(lo + 0.1 * width, hi - 0.1 * width, args.count)

    config = SolverConfig()
    rows = []
    print(f"{'p':>7}  {'C':>12}  {'c_eps':>12}  {'K':>12}  {'omega':>12}  {'mass_gap':>9}")
    for p in p_values:
        params = Params(bigN=args.N, p=float(p), eps=args.eps)
        # states widen toward the window edges; grow the box (at fixed h)
        # until the solve no longer reports boundary truncation
        points, box = args.points, args.box
        for attempt in range(4):
            grid = BoxGrid(args.N, points, box)
            try:
                gs = route_Q(params, grid, config)
                break
            except DivergenceError:
                points, box = 2 * points, 2.0 * box
        else:
            print(f"{p:7.3f}  box growth exhausted; skipped")
            continue
        cr = compute_constants(gs)
        mass_gap = abs(gs.nt.mass - cr.c_eps) / cr.c_eps
        print(f"{p:7.3f}  {cr.C:12.6g}  {cr.c_eps:12.6g}  {cr.K:12.6g}  "
              f"{cr.omega_eps:12.6g}  {mass_gap:9.2e}")
        rows.append({
            "p": p, "C": cr.C, "c_eps": cr.c_eps, "K": cr.K,
            "omega": cr.omega_eps, "v_mass": cr.v_mass,
            "mass_Q": gs.nt.mass, "mass_gap": mass_gap,
        })

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"exponents_N{args.N}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
