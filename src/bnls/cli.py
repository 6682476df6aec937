"""Command-line front end: constants | ground-state | action-gss | verify | sweep.

Configuration is a flat JSON file mirroring Params + SolverConfig + grid keys;
command-line flags override file values, and --print-config echoes the
resolved configuration.  Exit codes: 0 pass, 1 check failure, 2
configuration/regime error, 3 solver divergence.  BNLS_THREADS caps the sweep
worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import logging
import os
import sys
from pathlib import Path

from .constants import K_numeric, compute_constants
from .errors import (
    BnlsError,
    ConfigurationError,
    DivergenceError,
    FieldFormatError,
    PreconditionError,
    RegimeError,
    VanishingError,
)
from .functionals import Params
from .grid import BoxGrid, norms
from .fieldio import read_field, read_sidecar, sidecar_path, write_field
from .solvers import (
    GroundState,
    SolverConfig,
    extract_omega,
    mass_constrained_flow,
    pde_residual,
    petviashvili,
    route_Q,
)
from .verify import TolProfile, full_verification

log = logging.getLogger("bnls")

CONFIG_KEYS = {
    "N": 1,
    "p": 8.0,
    "eps": None,  # defaults to 1.0 with a notice
    "omega": None,
    "mass": None,
    "relaxed": False,
    "points": 1024,
    "box": 40.0,
    "max_iters": 5000,
    "tol_residual": 1e-10,
    "seed": 0,
    "init": "gaussian_bump",
    "out_dir": ".",
    "samples": 500,
}


def resolve_config(args) -> dict:
    cfg = dict(CONFIG_KEYS)
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        unknown = set(loaded) - set(CONFIG_KEYS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg["eps"] is None:
        # a loaded state takes its eps from its sidecar, so no default applies to it
        if not (getattr(args, "load", None) or getattr(args, "energy_state", None)):
            log.info("eps not configured; defaulting to eps = 1")
        cfg["eps"] = 1.0
    return cfg


def build_problem(cfg) -> tuple:
    params = Params(
        bigN=int(cfg["N"]),
        p=float(cfg["p"]),
        eps=float(cfg["eps"]),
        omega=None if cfg["omega"] is None else float(cfg["omega"]),
        mass_c=None if cfg["mass"] is None else float(cfg["mass"]),
        relaxed=bool(cfg["relaxed"]),
    )
    grid = BoxGrid(
        dim=params.bigN, points_per_axis=int(cfg["points"]), box_length=float(cfg["box"])
    )
    solver = SolverConfig(
        max_iters=int(cfg["max_iters"]),
        tol_residual=float(cfg["tol_residual"]),
        seed=int(cfg["seed"]),
        init=str(cfg["init"]),
    )
    return params, grid, solver


def save_state(gs: GroundState, config: SolverConfig, out_dir, name: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.bnls"
    write_field(path, gs.field, sidecar=gs.sidecar(config))
    return path


def load_state(path) -> GroundState:
    """Read a stored field; its sidecar is required, since only it records (N, p, eps).

    A sidecar that records the field file's sha256 must match it; one written
    before the hash was recorded still loads.
    """
    field, actual = read_field(path, with_sha256=True)
    side_path = sidecar_path(path)
    side = read_sidecar(path) if side_path.exists() else {}
    pdoc = side.get("params", {})
    if not isinstance(pdoc, dict):
        raise ConfigurationError(f"{side_path}: params is not a JSON object")
    missing = [key for key in ("bigN", "p", "eps") if key not in pdoc]
    if missing:
        raise ConfigurationError(
            f"{path}: the sidecar is absent or lacks params {missing}; only it records (N, p, eps)"
        )
    recorded = side.get("sha256")
    if recorded is not None and recorded != actual:
        raise ConfigurationError(
            f"{path} does not match its sidecar {side_path}: the sidecar records "
            f"sha256 {recorded}, the field file hashes to {actual}"
        )
    try:
        bigN, p, eps = int(pdoc["bigN"]), float(pdoc["p"]), float(pdoc["eps"])
        omega, mass_c = (
            None if pdoc.get(key) is None else float(pdoc[key]) for key in ("omega", "mass_c")
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{side_path}: params must hold numbers ({exc})") from exc
    params = Params(
        bigN=bigN,
        p=p,
        eps=eps,
        omega=omega,
        mass_c=mass_c,
        relaxed=bool(pdoc.get("relaxed", False)),
    )
    nt = norms(field, params.p)
    omega_x = extract_omega(nt, params)
    return GroundState(
        field=field,
        params=params,
        nt=nt,
        omega_extracted=omega_x,
        residual_pde=pde_residual(field, params, omega_x),
        iters=int(side.get("iters", 0)),
        route=str(side.get("route", "stored")),
        warnings=tuple(side.get("warnings", ())),
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    cfg = resolve_config(args)
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
    params, grid, solver = build_problem(cfg)
    q = route_Q(params, grid, solver)
    report = compute_constants(
        q, K_numeric(params, grid, solver) if args.k_numeric else None
    )
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "constants.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    print(report.table())
    return 0


def cmd_ground_state(args) -> int:
    cfg = resolve_config(args)
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
    if args.load:
        gs = load_state(args.load)
        print(
            f"loaded {args.load}: route={gs.route} mass={gs.nt.mass:.12g} "
            f"omega={gs.omega_extracted:.12g} residual={gs.residual_pde:.3e}"
        )
        return 0
    params, grid, solver = build_problem(cfg)
    if params.mass_c is not None:
        gs = mass_constrained_flow(params, grid, solver)
        name = "ground_state_mass_flow"
    else:
        gs = route_Q(params, grid, solver)
        name = "ground_state_critical_mass"
    path = save_state(gs, solver, cfg["out_dir"], name)
    for warning in gs.warnings:
        log.warning(warning)
    print(
        f"{gs.route}: mass={gs.nt.mass:.12g} omega={gs.omega_extracted:.12g} "
        f"residual={gs.residual_pde:.3e} iters={gs.iters} -> {path}"
    )
    return 0


def cmd_action_gss(args) -> int:
    cfg = resolve_config(args)
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
    params, grid, solver = build_problem(cfg)
    if params.omega is None:
        omega = compute_constants(route_Q(params, grid, solver)).omega_eps
        log.info("omega not configured; using the optimizer frequency %.12g", omega)
        params = params.with_omega(omega)
    gs = petviashvili(params, grid, solver)
    path = save_state(gs, solver, cfg["out_dir"], "action_gss")
    for warning in gs.warnings:
        log.warning(warning)
    print(
        f"petviashvili at omega={params.omega:.12g}: mass={gs.nt.mass:.12g} "
        f"residual={gs.residual_pde:.3e} iters={gs.iters} -> {path}"
    )
    return 0


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
    params, grid, solver = build_problem(cfg)
    energy_state = action_state = None
    if args.energy_state:
        energy_state = load_state(args.energy_state)
        params = energy_state.params
        grid = energy_state.field.grid
    if args.action_state:
        action_state = load_state(args.action_state)
    report, _states = full_verification(
        params,
        grid,
        solver,
        tol=TolProfile(),
        n_samples=int(cfg["samples"]),
        with_k_numeric=not args.skip_k_numeric,
        energy_state=energy_state,
        action_state=action_state,
    )
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "verify_report.json").write_text(report.to_json() + "\n")
    print(report.table())
    return 0 if report.passed else 1


def _sweep_row(problem) -> dict:
    params, grid, solver = problem
    from .functionals import nehari_residual, pohozaev, quadratic_scale

    gs = route_Q(params, grid, solver)
    report = compute_constants(gs)
    pm = params.with_omega(gs.omega_extracted)
    scale = quadratic_scale(gs.nt, pm)
    nehari_rel = abs(nehari_residual(gs.nt, pm)) / scale
    poho_rel = abs(pohozaev(gs.nt, pm)) / scale
    identities_pass = (
        gs.residual_pde <= 1e-6
        and nehari_rel <= 1e-6
        and poho_rel <= 1e-6
        and abs(gs.nt.mass - report.c_eps) / report.c_eps <= 1e-4
    )
    return {
        "N": params.bigN,
        "p": params.p,
        "eps": params.eps,
        "C": report.C,
        "c_eps": report.c_eps,
        "omega": report.omega_eps,
        "v_mass": report.v_mass,
        "mass_Q": gs.nt.mass,
        "residual_pde": gs.residual_pde,
        "nehari_rel": nehari_rel,
        "pohozaev_rel": poho_rel,
        "identities_pass": identities_pass,
    }


SWEEP_COLUMNS = [
    "N",
    "p",
    "eps",
    "C",
    "c_eps",
    "omega",
    "v_mass",
    "mass_Q",
    "residual_pde",
    "nehari_rel",
    "pohozaev_rel",
    "identities_pass",
]


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
    p_grid = [float(x) for x in args.p_grid.split(",")] if args.p_grid else [float(cfg["p"])]
    eps_grid = (
        [float(x) for x in args.eps_grid.split(",")] if args.eps_grid else [float(cfg["eps"])]
    )
    # every row's problem is built, and checked, before any solve starts
    tasks = [build_problem(dict(cfg, p=p, eps=eps)) for p in p_grid for eps in eps_grid]
    workers = int(os.environ.get("BNLS_THREADS", "0")) or min(len(tasks), os.cpu_count() or 1)
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(_sweep_row, tasks))
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows -> {path}")
    return 0 if all(r["identities_pass"] for r in rows) else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file (flat keys; flags override)")
    sub.add_argument("--print-config", action="store_true", help="echo the resolved config")
    sub.add_argument("--N", type=int, help="space dimension N")
    sub.add_argument("--p", type=float, help="nonlinearity exponent")
    sub.add_argument("--eps", type=float, help="fourth-order dispersion coefficient")
    sub.add_argument("--omega", type=float, help="frequency (action route)")
    sub.add_argument("--mass", type=float, help="mass constraint c (energy route)")
    sub.add_argument("--relaxed", action="store_const", const=True, default=None,
                     help="allow any 2 < p < 2* and eps = 0 (oracle mode)")
    sub.add_argument("--points", type=int, help="grid points per axis (power of two)")
    sub.add_argument("--box", type=float, help="box side length L")
    sub.add_argument("--max-iters", dest="max_iters", type=int)
    sub.add_argument("--tol", dest="tol_residual", type=float, help="solver residual tolerance")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--init", choices=["gaussian_bump", "random_bandlimited"])
    sub.add_argument("--out-dir", dest="out_dir", help="output directory")
    sub.add_argument("--samples", type=int, help="random fields for inequality tests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnls",
        description=(
            "Ground states of eps*lap^2 u - lap u + omega u = |u|^(p-2) u on periodic "
            "boxes, with the constants pipeline and identity verification."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("constants", help="best constants, critical mass, frequency table")
    _add_common(c)
    c.add_argument("--k-numeric", action="store_true", help="also run the quotient-ascent K")
    c.set_defaults(func=cmd_constants)

    g = subs.add_parser("ground-state", help="critical-mass state, or mass flow with --mass")
    _add_common(g)
    g.add_argument("--load", help="load and report a stored field instead of solving")
    g.set_defaults(func=cmd_ground_state)

    a = subs.add_parser("action-gss", help="fixed-frequency ground state")
    _add_common(a)
    a.set_defaults(func=cmd_action_gss)

    v = subs.add_parser("verify", help="run every identity check on fresh or stored states")
    _add_common(v)
    v.add_argument("--fresh", action="store_true",
                   help="solve fresh states (the default when no paths are given)")
    v.add_argument("--energy-state", help="stored critical-mass state to verify")
    v.add_argument("--action-state", help="stored fixed-frequency state to verify")
    v.add_argument("--skip-k-numeric", action="store_true",
                   help="skip the multi-start quotient ascent (faster)")
    v.set_defaults(func=cmd_verify)

    s = subs.add_parser(
        "sweep",
        help="CSV over a parameter grid",
        epilog="CSV columns: " + ", ".join(SWEEP_COLUMNS) + ". "
        "C is the numeric best constant, c_eps the formula critical mass, omega the "
        "optimizer frequency, v_mass the optimizer mass, mass_Q the measured state mass, "
        "then the relative PDE/Nehari/Pohozaev residuals and an overall identities flag. "
        "BNLS_THREADS caps the worker count.",
    )
    _add_common(s)
    s.add_argument("--p-grid", help="comma-separated exponents, e.g. 7,7.5,8")
    s.add_argument("--eps-grid", help="comma-separated dispersion values")
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RegimeError, ConfigurationError, FieldFormatError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, VanishingError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        history = getattr(exc, "history", None)
        if history:
            tail = ", ".join(f"{r:.3e}" for r in history[-8:])
            print(f"residual history (tail): {tail}", file=sys.stderr)
        return 3
    except BnlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
