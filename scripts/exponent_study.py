#!/usr/bin/env python3
"""Scan the exponent window at fixed N and tabulate the constants chain.

For each p strictly inside (2 + 4/N, 2 + 8/N) this writes the ``bnls sweep``
row of one optimizer solve (see ``bnls sweep --help`` for its columns), plus
K from its c_eps and the points and box it was solved on.

States widen toward the lower window edge and sharpen toward the upper one,
so a solve can stall.  The stall's cause decides the retry, up to ATTEMPTS
solves in all: ``grid`` doubles the points in the same box, ``box`` doubles
the points and the box (the same spacing); any other failure skips the row
and prints its cause.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from bnls.cli import SWEEP_COLUMNS, _sweep_row
from bnls.constants import K_from_c_eps
from bnls.errors import DivergenceError
from bnls.functionals import Params
from bnls.grid import BoxGrid
from bnls.solvers import SolverConfig

COLUMNS = SWEEP_COLUMNS + ["K", "points", "box"]
ATTEMPTS = 4


def solve_row(params, points, box, config):
    """(row, None): the sweep row of ``params`` with K and the points and box it was
    solved on, retried on each stall's cause; or (None, why the row was skipped)."""
    for _ in range(ATTEMPTS):
        try:
            row = _sweep_row((params, BoxGrid(params.bigN, points, box), config))
        except DivergenceError as exc:
            cause = exc.cause
        else:
            return dict(row, K=K_from_c_eps(row["c_eps"], params), points=points, box=box), None
        if cause == "grid":
            points *= 2
        elif cause == "box":
            points, box = 2 * points, 2.0 * box
        else:
            return None, f"skipped: {cause}"
    return None, f"skipped: {cause} after {ATTEMPTS} solves"


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
    print(f"{'p':>7}  {'C':>12}  {'c_eps':>12}  {'K':>12}  {'omega':>12}  {'points':>6}  {'box':>6}")
    for p in p_values:
        params = Params(bigN=args.N, p=float(p), eps=args.eps)
        row, skipped = solve_row(params, args.points, args.box, config)
        if row is None:
            print(f"{p:7.3f}  {skipped}")
            continue
        print(f"{p:7.3f}  {row['C']:12.6g}  {row['c_eps']:12.6g}  {row['K']:12.6g}  "
              f"{row['omega']:12.6g}  {row['points']:6d}  {row['box']:6g}")
        rows.append(row)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"exponents_N{args.N}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
