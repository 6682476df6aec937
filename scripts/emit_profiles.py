#!/usr/bin/env python3
"""Solve the default problem both ways and emit plot-ready CSV data.

Writes into --out-dir:
  profile.csv      x, critical-mass state, fixed-frequency state (aligned)
  residuals.csv    residual history of the fixed-frequency solve (its ``residuals``)
  fiber_scan.csv   t, I(u^t), and the gap I(u) - I(u^t)
  flow_energy.csv  accepted-step energies of the supercritical mass flow
"""

import argparse
import csv
import sys
from pathlib import Path

from bnls.constants import compute_constants
from bnls.functionals import Params, action
from bnls.grid import BoxGrid, center_and_align, regrid
from bnls.scalings import fiber_scale_laws, fiber_t_grid
from bnls.solvers import SolverConfig, mass_constrained_flow, petviashvili, route_Q


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--p", type=float, default=8.0)
    ap.add_argument("--eps", type=float, default=1.0)
    ap.add_argument("--points", type=int, default=1024)
    ap.add_argument("--box", type=float, default=40.0)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = Params(bigN=args.N, p=args.p, eps=args.eps)
    grid = BoxGrid(args.N, args.points, args.box)
    config = SolverConfig()

    gs_energy = route_Q(params, grid, config)
    cr = compute_constants(gs_energy)
    print(cr.table())

    gs_action = petviashvili(params.with_omega(cr.omega_eps), grid, config)
    for warning in gs_energy.warnings + gs_action.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    common = BoxGrid(args.N, args.points, max(gs_energy.field.grid.box_length, args.box))
    ue = center_and_align(regrid(gs_energy.field, common))
    ua = center_and_align(regrid(gs_action.field, common))
    if args.N == 1:
        with (out / "profile.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "u_critical_mass", "u_fixed_frequency"])
            for x, a, b in zip(common.axis_coordinates(), ue.samples, ua.samples):
                w.writerow([x, a, b])

    with (out / "residuals.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "residual"])
        w.writerows(enumerate(gs_action.residuals, start=1))

    pm = params.with_omega(gs_action.omega_extracted)
    base = action(gs_action.nt, pm)
    with (out / "fiber_scan.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "action", "gap"])
        for t in fiber_t_grid(count=129):
            val = action(fiber_scale_laws(gs_action.nt, t, pm), pm)
            w.writerow([t, val, base - val])

    trace = []
    mass_constrained_flow(
        params.with_mass(2.0 * cr.c_eps),
        BoxGrid(args.N, 2 * args.points, args.box / 2),
        SolverConfig(tol_residual=1e-8, max_iters=30000),
        energy_trace=trace,
    )
    with (out / "flow_energy.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["accepted_step", "energy"])
        w.writerows(enumerate(trace))

    print(f"state mass {gs_energy.nt.mass:.12g} (critical {cr.c_eps:.12g}); "
          f"wrote CSV data to {out}/")


if __name__ == "__main__":
    main()
