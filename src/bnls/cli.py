"""Command-line front end: constants | ground-state | action-gss | verify | sweep.

Configuration is a flat JSON file mirroring Params + SolverConfig + grid keys;
flags, built from the same table (CONFIG_KEYS) and typed by argparse, override
file values.  ``main`` resolves the configuration (and echoes it for
--print-config) once, then hands it to the subcommand.  Exit codes: 0 pass, 1
check failure, 2 configuration/regime error, 3 solver divergence.  Config-file
and sidecar values are read through one typed table by JSON's rules: an int key
takes only an integer (not true, not 1.0), a float key any number but a bool,
stored as a float.  A value of the wrong type, or an input that cannot be read
(a config file, a grid, an exponent list, a state path, BNLS_THREADS), raises
ConfigurationError naming the key and its file, so it exits 2 with one
``error:`` line; so do a non-finite eps, omega or mass, a non-finite tolerance,
a negative seed and verify --fresh beside a stored state.  BNLS_THREADS caps
the sweep worker count.  The sweep's residual columns and its identities flag
are ``verify.q_checks``, the checks of ``verify_Q``, at their tiers.  A stalled
sweep row is retried on its cause; every row is written, with its status.
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
from .errors import BnlsError, ConfigurationError, DivergenceError
from .functionals import Params
from .grid import BoxGrid, norms
from .fieldio import read_field, read_sidecar, sidecar_path, write_field
from .solvers import (
    INIT_MODES,
    GroundState,
    SolverConfig,
    extract_omega,
    mass_constrained_flow,
    pde_residual,
    petviashvili,
    route_Q,
)
from .verify import full_verification, q_checks

log = logging.getLogger("bnls")

CONFIG_KEYS = {  # key: (default, type, flag, help)
    "N": (1, int, "--N", "space dimension N"),
    "p": (8.0, float, "--p", "nonlinearity exponent"),
    # eps defaults to 1.0 with a notice
    "eps": (None, float | None, "--eps", "fourth-order dispersion coefficient"),
    "omega": (None, float | None, "--omega", "frequency (action route)"),
    "mass": (None, float | None, "--mass", "mass constraint c (energy route)"),
    "relaxed": (False, bool, "--relaxed", "allow any 2 < p < 2* and eps = 0 (oracle mode)"),
    "points": (1024, int, "--points", "grid points per axis (power of two)"),
    "box": (40.0, float, "--box", "box side length L"),
    "max_iters": (5000, int, "--max-iters", None),
    "tol_residual": (1e-10, float, "--tol", "solver residual tolerance"),
    "seed": (0, int, "--seed", None),
    "init": ("gaussian_bump", str, "--init", None),
    "out_dir": (".", str, "--out-dir", "output directory"),
    "samples": (500, int, "--samples", "random fields for inequality tests"),
}
SIDECAR_PARAMS = {  # a sidecar's Params fields; bigN, p and eps are required
    "bigN": (None, int), "p": (None, float), "eps": (None, float),
    "omega": (None, float | None), "mass_c": (None, float | None), "relaxed": (False, bool),
}
SIDECAR_KEYS = {"iters": (0, int), "warnings": ([], list[str]), "route": ("stored", str)}
JSON_TYPES = {  # a table type: the types json.loads may give for it, and its name
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    float | None: ((int, float, type(None)), "a number or null"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
    list[str]: ((list,), "a list of strings"),
}


def _typed(doc: dict, table: dict, where: str) -> dict:
    """doc's value of every table key (its default when absent), checked against its type."""
    typed = {}
    for key, (default, kind, *_) in table.items():
        value = doc.get(key, default)
        accepted, name = JSON_TYPES[kind]
        if type(value) not in accepted or (
            kind == list[str] and not all(type(item) is str for item in value)
        ):
            raise ConfigurationError(f"{where}{key} must be {name}, got {value!r}")
        if type(value) is int and kind is not int:
            value = float(value)
        typed[key] = tuple(value) if kind == list[str] else value
    return typed


def resolve_config(args) -> dict:
    loaded = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ConfigurationError(f"config {args.config} is not JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config {args.config} does not hold a JSON object")
        unknown = set(loaded) - set(CONFIG_KEYS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    cfg = _typed(loaded, CONFIG_KEYS, f"config {args.config}: ")
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if cfg["eps"] is None:
        # a loaded state or a sweep with --eps-grid gets no default eps
        if not any(getattr(args, key, None) for key in ("load", "energy_state", "eps_grid")):
            log.info("eps not configured; defaulting to eps = 1")
        cfg["eps"] = 1.0
    if cfg["samples"] < 1:
        raise ConfigurationError(f"samples must be an integer >= 1, got {cfg['samples']!r}")
    return cfg


def build_problem(cfg) -> tuple:
    params = Params(bigN=cfg["N"], p=cfg["p"], eps=cfg["eps"], omega=cfg["omega"],
                    mass_c=cfg["mass"], relaxed=cfg["relaxed"])
    try:
        grid = BoxGrid(dim=cfg["N"], points_per_axis=cfg["points"], box_length=cfg["box"])
    except ValueError as exc:
        raise ConfigurationError(f"grid: {exc}") from exc
    solver = SolverConfig(max_iters=cfg["max_iters"], tol_residual=cfg["tol_residual"],
                          seed=cfg["seed"], init=cfg["init"])
    return params, grid, solver


def _output_dir(path) -> Path:
    """The output directory, created if missing: called only where a file is written."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def save_state(gs: GroundState, config: SolverConfig, out_dir, name: str) -> Path:
    path = _output_dir(out_dir) / f"{name}.bnls"
    write_field(path, gs.field, sidecar=gs.sidecar(config))
    for warning in gs.warnings:
        log.warning(warning)
    return path


def load_state(path) -> GroundState:
    """Read a stored field; its sidecar is required, since only it records (N, p, eps).

    A sidecar that records the field file's sha256 must match it; one written
    before the hash was recorded still loads.
    """
    try:
        field, actual = read_field(path, with_sha256=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot read state {path}: {exc.strerror}") from exc
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
    state = _typed(side, SIDECAR_KEYS, f"{side_path}: ")
    typed = _typed(pdoc, SIDECAR_PARAMS, f"{side_path}: params.")
    if field.grid.dim != typed["bigN"]:
        raise ConfigurationError(f"{path} holds a {field.grid.dim}D field; {side_path} "
                                 f"records bigN {typed['bigN']}")
    params = Params(**typed)
    nt = norms(field, params.p)
    omega_x = extract_omega(nt, params)
    return GroundState(
        field=field,
        params=params,
        nt=nt,
        omega_extracted=omega_x,
        residual_pde=pde_residual(field, params, omega_x),
        **state,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args, cfg) -> int:
    params, grid, solver = build_problem(cfg)
    q = route_Q(params, grid, solver)
    report = compute_constants(
        q, K_numeric(params, grid, solver) if args.k_numeric else None
    )
    (_output_dir(cfg["out_dir"]) / "constants.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    print(report.table())
    return 0


def cmd_ground_state(args, cfg) -> int:
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
    print(
        f"{gs.route}: mass={gs.nt.mass:.12g} omega={gs.omega_extracted:.12g} "
        f"residual={gs.residual_pde:.3e} iters={gs.iters} -> {path}"
    )
    return 0


def cmd_action_gss(args, cfg) -> int:
    params, grid, solver = build_problem(cfg)
    if params.omega is None:
        omega = compute_constants(route_Q(params, grid, solver)).omega_eps
        log.info("omega not configured; using the optimizer frequency %.12g", omega)
        params = params.with_omega(omega)
    gs = petviashvili(params, grid, solver)
    path = save_state(gs, solver, cfg["out_dir"], "action_gss")
    print(
        f"petviashvili at omega={params.omega:.12g}: mass={gs.nt.mass:.12g} "
        f"residual={gs.residual_pde:.3e} iters={gs.iters} -> {path}"
    )
    return 0


def cmd_verify(args, cfg) -> int:
    if args.fresh and (args.energy_state or args.action_state):
        raise ConfigurationError("--fresh solves new states; it takes no --energy-state "
                                 "or --action-state")
    params, grid, solver = build_problem(cfg)
    energy_state = action_state = None
    if args.energy_state:
        energy_state = load_state(args.energy_state)
        params = energy_state.params
        grid = energy_state.field.grid
    if args.action_state:
        action_state = load_state(args.action_state)
    report, _states = full_verification(
        params, grid, solver, n_samples=cfg["samples"], with_k_numeric=not args.skip_k_numeric,
        energy_state=energy_state, action_state=action_state,
    )
    (_output_dir(cfg["out_dir"]) / "verify_report.json").write_text(report.to_json() + "\n")
    print(report.table())
    return 0 if report.passed else 1


SWEEP_COLUMNS = ["N", "p", "eps", "C", "c_eps", "omega", "v_mass", "mass_Q", "residual_pde",
                 "nehari_rel", "pohozaev_rel", "identities_pass", "K", "points", "box", "status"]
SWEEP_ATTEMPTS = 4  # solves of a sweep row, retries included
SWEEP_MAX_POINTS = 2**21  # 128^3, the largest desk grid


def _sweep_row(problem) -> tuple:
    """The CSV row of one (p, eps), and its solver failure or None; see the sweep epilog."""
    params, grid, solver = problem
    row = {"N": params.bigN, "p": params.p, "eps": params.eps}
    for attempt in range(1, SWEEP_ATTEMPTS + 1):
        row.update(points=grid.points_per_axis, box=grid.box_length)
        try:
            gs = route_Q(params, grid, solver)
            break
        except DivergenceError as exc:
            scale = {"grid": 1.0, "box": 2.0}.get(exc.cause)  # the box factor of a retry
            points = 2 * grid.points_per_axis
            if scale is None or attempt == SWEEP_ATTEMPTS or points**grid.dim > SWEEP_MAX_POINTS:
                # name the row; the type, the cause and the history stay as raised
                exc.args = (f"sweep row p = {params.p:g}, eps = {params.eps:g} "
                            f"({exc.cause}): {exc}",)
                return dict(row, identities_pass=False, status=exc.cause), exc
        grid = BoxGrid(params.bigN, points, scale * grid.box_length)
    report = compute_constants(gs)
    # the residual columns and the flag are verify_Q's checks, at its tiers
    check = {c.name: c for c in q_checks(gs, report)}
    identities = ("q.pde_residual", "q.nehari_zero", "q.pohozaev_zero", "q.mass_equals_critical")
    return dict(
        row,
        C=report.C,
        c_eps=report.c_eps,
        omega=report.omega_eps,
        v_mass=report.v_mass,
        mass_Q=gs.nt.mass,
        residual_pde=check["q.pde_residual"].residual,
        nehari_rel=check["q.nehari_zero"].residual,
        pohozaev_rel=check["q.pohozaev_zero"].residual,
        identities_pass=all(check[name].passed for name in identities),
        K=report.K,
        status="ok",
    ), None


def _number_list(text: str, flag: str) -> list:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"{flag} takes comma-separated numbers ({exc})") from exc


def _worker_count(rows: int) -> int:
    """BNLS_THREADS, or one worker a row up to the CPU count when it is unset or 0."""
    text = os.environ.get("BNLS_THREADS", "0").strip()
    if not text.isdecimal():
        raise ConfigurationError(f"BNLS_THREADS must be a nonnegative integer, got {text!r}")
    return int(text) or min(rows, os.cpu_count() or 1)


def cmd_sweep(args, cfg) -> int:
    p_grid = _number_list(args.p_grid, "--p-grid") if args.p_grid else [cfg["p"]]
    eps_grid = _number_list(args.eps_grid, "--eps-grid") if args.eps_grid else [cfg["eps"]]
    # every row's problem is built, and checked, before any solve starts
    tasks = [build_problem(dict(cfg, p=p, eps=eps)) for p in p_grid for eps in eps_grid]
    with concurrent.futures.ThreadPoolExecutor(max_workers=_worker_count(len(tasks))) as pool:
        rows, failures = zip(*pool.map(_sweep_row, tasks))
    path = _output_dir(cfg["out_dir"]) / "sweep.csv"
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    for exc in filter(None, failures):
        _report_failure(exc)
    print(f"wrote {len(rows)} rows -> {path}")
    if any(failures):
        return 3
    return 0 if all(r["identities_pass"] for r in rows) else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _common_parser() -> argparse.ArgumentParser:
    """The flags every subcommand takes, as a parent parser: built once, copied into each."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flat keys; flags override)")
    common.add_argument("--print-config", action="store_true", help="echo the resolved config")
    for key, (_, kind, flag, text) in CONFIG_KEYS.items():
        if kind is bool:  # a flag that switches the key on; absent, the file decides
            common.add_argument(flag, dest=key, action="store_const", const=True, help=text)
        else:
            common.add_argument(flag, dest=key, type={float | None: float}.get(kind, kind),
                                choices=INIT_MODES if key == "init" else None, help=text)
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnls",
        description=(
            "Ground states of eps*lap^2 u - lap u + omega u = |u|^(p-2) u on periodic "
            "boxes, with the constants pipeline and identity verification."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    common = [_common_parser()]

    c = subs.add_parser(
        "constants", help="best constants, critical mass, frequency table", parents=common
    )
    c.add_argument("--k-numeric", action="store_true", help="also run the quotient-ascent K")
    c.set_defaults(func=cmd_constants)

    g = subs.add_parser(
        "ground-state", help="critical-mass state, or mass flow with --mass", parents=common
    )
    g.add_argument("--load", help="load and report a stored field instead of solving")
    g.set_defaults(func=cmd_ground_state)

    a = subs.add_parser("action-gss", help="fixed-frequency ground state", parents=common)
    a.set_defaults(func=cmd_action_gss)

    v = subs.add_parser(
        "verify", help="run every identity check on fresh or stored states", parents=common
    )
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
        "then the relative PDE/Nehari/Pohozaev residuals, an overall identities flag, K "
        "from c_eps, and the grid of the solve. A stalled row is solved again, up to "
        f"{SWEEP_ATTEMPTS} solves on at most {SWEEP_MAX_POINTS} (128^3) points: cause grid "
        "doubles the points, box the points and the box. status is ok or the last cause; a "
        "failed row has empty numbers and is named on stderr. Exit 3 if a row failed, else "
        "1 if identities fail. BNLS_THREADS caps the worker count.",
        parents=common,
    )
    s.add_argument("--p-grid", help="comma-separated exponents, e.g. 7,7.5,8")
    s.add_argument("--eps-grid", help="comma-separated dispersion values")
    s.set_defaults(func=cmd_sweep)
    return parser


def _report_failure(exc) -> None:
    """A solver failure on stderr: its message, then the tail of its residual history."""
    print(f"solver failure: {exc}", file=sys.stderr)
    if exc.history:
        tail = ", ".join(f"{r:.3e}" for r in exc.history[-8:])
        print(f"residual history (tail): {tail}", file=sys.stderr)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.print_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
        return args.func(args, cfg)
    except DivergenceError as exc:
        _report_failure(exc)
        return 3
    except BnlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
