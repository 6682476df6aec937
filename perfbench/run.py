#!/usr/bin/env python3
"""End-to-end benchmark of the bnls CLI, with an optional per-layer trace.

Run from the root of a source checkout (it imports ``src/bnls`` from there):

    python3 perfbench/run.py --workload verify-1d --seed 1 --seconds 60 --trace 0

Every operation is a real CLI invocation, run in-process through
``bnls.cli.main`` with the workload seed passed as ``--seed``; one pass runs a
workload's invocation list once.  The run repeats passes until ``--seconds``
is used up and checks every invocation's output (see ``check_*`` below).

``--trace 0`` reports the end-to-end metrics: the median pass wall time, the
median fresh-interpreter ``import bnls.cli`` time, and the process's peak
resident set.  ``--trace 1`` alternates untraced and traced passes and
reports per-layer numbers (``tracer.pass_metrics``), medians over the traced
passes, plus grid probes on the solved state.  Earlier stdout lines carry the
provenance; the last line is the result object.  Exit status is 0 when every
invocation passed its check, 1 when one failed, 2 when no checkout is found.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.metadata
import io
import json
import logging
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = json.loads((HERE / "reference.json").read_text())

# Set-up is probed once per round, spread over the run, and at least this often.
SETUP_PROBES = 5
THREAD_VARS = (
    "BNLS_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload: a CLI subcommand and the problem flags every invocation shares.

    ``kind`` "verify" runs ``verify --fresh``; ``kind`` "ground-state" runs the
    critical-mass solve, the mass flow at twice the mass it reports, and a
    ``--load`` of the written state, and needs ``--tol`` among its flags.
    """

    name: str
    kind: str
    problem: tuple

    def flag(self, name: str) -> str:
        return self.problem[self.problem.index(name) + 1]

    @property
    def p(self) -> float:
        return float(self.flag("--p"))

    @property
    def shape(self) -> tuple:
        return (int(self.flag("--points")),) * int(self.flag("--N"))

    @property
    def tol(self) -> float:
        return float(self.flag("--tol"))


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-1d",
            "verify",
            ("--N", "1", "--p", "8", "--eps", "1", "--points", "1024", "--box", "40",
             "--samples", "500"),
        ),
        Workload(
            "ground-state-3d",
            "ground-state",
            ("--N", "3", "--p", "4", "--eps", "1", "--points", "64", "--box", "32",
             "--tol", "1e-8"),
        ),
    )
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    "grid.fft_pair_ms": "ms",
    "grid.quadratic_norms_ms": "ms",
    "grid.norms_ms": "ms",
    "grid.regrid_s": "s",
    "grid.regrid.calls": "count",
    "fft.calls": "count",
    "fft.points": "count",
    "fft.bytes_computed": "B",
    "fft.s": "s",
    "solvers.shooting.solves": "count",
    "solvers.shooting_s": "s",
    "solvers.shooting.sweeps": "count",
    "solvers.shooting.ms_per_sweep": "ms",
    "solvers.petviashvili_s": "s",
    "solvers.petviashvili.sweeps": "count",
    "solvers.petviashvili.ms_per_sweep": "ms",
    "solvers.mass_flow_s": "s",
    "solvers.mass_flow.iters": "count",
    "solvers.mass_flow.ms_per_iter": "ms",
    "solvers.random_bandlimited.calls": "count",
    "solvers.random_bandlimited_s": "s",
    "constants.k_ascent_s": "s",
    "constants.k_ascent.fft_calls": "count",
    "constants.compute_constants_s": "s",
    "verify.gn_sampler_s": "s",
    "verify.gn_sampler.samples": "count",
    "verify.equivalence_s": "s",
    "verify.checks_passed": "count",
    "verify.checks_total": "count",
    "fieldio.write_s": "s",
    "fieldio.read_s": "s",
    "fieldio.bytes": "B",
    "cli.load_state_s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_s": "s",
}


class NoCheckout(Exception):
    """The working tree holds no bnls sources to benchmark."""


class _StderrNow(logging.Handler):
    """Writes to whatever ``sys.stderr`` is when a record arrives, so the
    per-invocation capture in :func:`invoke` also sees the CLI's log lines."""

    def emit(self, record):
        sys.stderr.write(self.format(record) + "\n")


def load_bnls():
    """Import ``bnls.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bnls" / "cli.py").is_file():
        raise NoCheckout(f"no bnls sources under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bnls.cli

    if not Path(bnls.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise NoCheckout(f"bnls was imported from {bnls.cli.__file__}, not from {SRC}")
    # The level and format the CLI's own basicConfig would set; that call is
    # then a no-op instead of binding a handler to the first captured stderr.
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", handlers=[_StderrNow()]
    )
    return bnls.cli


# ---------------------------------------------------------------------------
# invocations and their correctness gate


@dataclasses.dataclass
class Op:
    argv: list
    seconds: float = 0.0
    cpu_s: float = 0.0
    problems: list = dataclasses.field(default_factory=list)
    stdout: str = ""


def invoke(cli, argv) -> tuple:
    """Run one CLI invocation in-process; returns (Op, exit code)."""
    op = Op(list(argv))
    out, err = io.StringIO(), io.StringIO()
    code = None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception:  # a crash is a failed operation; keep the run going
        op.problems.append("raised:\n" + traceback.format_exc())
    op.seconds = time.perf_counter() - t0
    op.cpu_s = time.process_time() - cpu0
    op.stdout = out.getvalue()
    if code not in (0, None):
        op.problems.append(f"exit code {code}: {err.getvalue().strip()[-2000:]}")
    return op, code


def within(problems, label, value, ref, tol):
    """Record a problem unless ``value`` is within relative ``tol`` of ``ref``."""
    if not (math.isfinite(value) and abs(value - ref) <= tol * abs(ref)):
        problems.append(f"{label} = {value!r} is not within {tol:g} of the reference {ref!r}")


def check_verify(op: Op, out_dir: Path, constants, ref: dict):
    """Report passes, and C / c_eps sit within the report's own tiers of the reference."""
    path = out_dir / "verify_report.json"
    if not path.is_file():
        op.problems.append("no verify_report.json written")
        return None
    report = json.loads(path.read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"] and not c["skipped"]]
    if failed or not report["passed"]:
        op.problems.append(f"failed checks: {failed}")
    tiers = {c["name"]: c["tol"] for c in report["checks"]}
    if constants is None:
        op.problems.append("no constants report was produced")
    elif "q.weinstein_optimal" not in tiers or "q.mass_equals_critical" not in tiers:
        op.problems.append("report lacks the checks whose tiers gate C and c_eps")
    else:
        within(op.problems, "C", constants.C, ref["C"], tiers["q.weinstein_optimal"])
        within(op.problems, "c_eps", constants.c_eps, ref["c_eps"], tiers["q.mass_equals_critical"])
    return report["counts"]


STATE_LINE = re.compile(r"mass=(\S+) omega=(\S+)")


def printed_state(op: Op):
    match = STATE_LINE.search(op.stdout)
    if match is None:
        op.problems.append(f"no mass/omega in output: {op.stdout[-500:]!r}")
        return None
    return float(match.group(1)), float(match.group(2))


def check_sidecar(op: Op, state_path: Path, tol: float):
    """The stored residual meets ``--tol``; returns the sidecar (None when absent)."""
    sidecar = Path(str(state_path) + ".json")
    if not sidecar.is_file():
        op.problems.append(f"no sidecar {sidecar.name}")
        return None
    doc = json.loads(sidecar.read_text())
    if not doc["residual_pde"] <= tol:
        op.problems.append(f"{sidecar.name}: residual {doc['residual_pde']:.3e} > --tol {tol:g}")
    return doc


def run_pass(cli, workload: Workload, seed: int, work: Path, ref: dict, tap) -> tuple:
    """Run and check one pass; returns (ops, verify check counts)."""
    common = list(workload.problem) + ["--seed", str(seed), "--out-dir", str(work)]
    ops = []
    counts = {"passed": 0, "total": 0}

    def run(argv):
        tap.last.pop("constants.compute_constants", None)
        op, code = invoke(cli, argv)
        ops.append(op)
        return op, code

    if workload.kind == "verify":
        op, code = run(["verify", "--fresh"] + common)
        if code is not None:
            found = check_verify(op, work, tap.last.get("constants.compute_constants"), ref)
            if found:
                counts = {"passed": found["passed"], "total": found["total"]}
        return ops, counts

    from bnls.verify import TolProfile

    tiers = TolProfile()
    critical = work / "ground_state_critical_mass.bnls"
    op, code = run(["ground-state"] + common)
    state = printed_state(op) if code is not None else None
    stored = None
    if state is not None:
        within(op.problems, "critical mass", state[0], ref["mass"], tiers.cross_numeric)
        within(op.problems, "omega", state[1], ref["omega"], tiers.numeric)
        stored = check_sidecar(op, critical, workload.tol)
    if op.problems:
        skipped = ["skipped: the critical-mass solve failed"]
        ops.append(Op(["ground-state", "--mass", "(twice the critical mass)"], problems=skipped))
        ops.append(Op(["ground-state", "--load", str(critical)], problems=list(skipped)))
        return ops, counts
    target = 2.0 * state[0]
    op, code = run(["ground-state", "--mass", repr(target)] + common)
    flow = printed_state(op) if code is not None else None
    if flow is not None:
        within(op.problems, "mass-flow mass", flow[0], target, tiers.numeric)
        check_sidecar(op, work / "ground_state_mass_flow.bnls", workload.tol)
    op, code = run(["ground-state", "--load", str(critical)])
    loaded = printed_state(op) if code is not None else None
    if loaded is not None:
        within(op.problems, "loaded mass", loaded[0], stored["norms"]["mass"], tiers.algebraic)
        within(op.problems, "loaded omega", loaded[1], stored["omega_extracted"], tiers.algebraic)
    return ops, counts


# ---------------------------------------------------------------------------
# measurements outside the passes


def steal_seconds():
    """CPU time the hypervisor took from this machine's CPUs so far (None if unknown).

    Kept in the provenance so a disturbed run can be recognised; it does not
    enter any metric.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup_probe() -> float:
    """Wall time of a fresh interpreter that imports bnls.cli from this checkout."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import bnls.cli"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, capture_output=True,
    )
    return time.perf_counter() - t0


def probe_ms(fn, *args) -> float:
    """Median milliseconds of one call, over at least 7 calls or 0.2 s."""
    times = []
    start = time.perf_counter()
    while len(times) < 7 or (time.perf_counter() - start < 0.2 and len(times) < 1000):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def grid_probes(field, p: float) -> dict:
    from bnls import grid

    return {
        "grid.fft_pair_ms": probe_ms(grid.laplacian, field),
        "grid.quadratic_norms_ms": probe_ms(grid.quadratic_norms, field),
        "grid.norms_ms": probe_ms(grid.norms, field, p),
    }


def _cache_kib() -> dict:
    """Total KiB per cache level, over distinct instances (sysfs, Linux)."""
    seen, total = set(), {}
    for index in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or (level, shared) in seen or not size.endswith("K"):
            continue
        seen.add((level, shared))
        total[f"L{level}"] = total.get(f"L{level}", 0) + int(size[:-1])
    return total


def provenance(workload: Workload, seed: int, fft_backend: str) -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    cells = math.prod(workload.shape)
    spectrum = math.prod(workload.shape[:-1]) * (workload.shape[-1] // 2 + 1)
    caches = _cache_kib()
    array_bytes = {"real": 8 * cells, "spectrum": 16 * spectrum}
    l3 = caches.get("L3", 0) * 1024
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache_kib": caches,
        "array_bytes": array_bytes,
        "memory_note": (
            "per-array bytes fit in L3, so this is not a DRAM-bandwidth test; "
            "fft.bytes_computed is derived from array sizes and no bandwidth is reported"
            if l3 and max(array_bytes.values()) < l3
            else "per-array bytes exceed L3 (or L3 is unknown); no bandwidth is reported"
        ),
        "python": platform.python_version(),
        **versions,
        "fft_backend": fft_backend,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one run


def _median_metrics(rows: list) -> dict:
    """Median per key; counts keep a whole-number median."""
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        exact = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if exact else statistics.median)(values)
    return out


@dataclasses.dataclass
class Rounds:
    """Everything one run measured, before it is reduced to metrics."""

    ops: list = dataclasses.field(default_factory=list)
    plain: list = dataclasses.field(default_factory=list)  # untraced passes: wall, cpu, steal
    layers: list = dataclasses.field(default_factory=list)  # traced passes: per-layer rows
    setup: list = dataclasses.field(default_factory=list)  # set-up probes, seconds
    state: object = None  # the last critical-mass state solved, for the grid probes
    fft_backend: str = "none"


def run_rounds(cli, workload: Workload, seed: int, seconds: float, trace: bool, ref: dict):
    """Repeat rounds until the next one would overrun ``seconds`` (at least one).

    A round is one untraced pass, then one traced pass with ``trace``, or one
    set-up probe without it.
    """
    tap = tracer.Recorder(tracing=False, taps=("constants.compute_constants", "solvers.route_Q"))
    traced = tracer.Recorder(tracing=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    got = Rounds()
    tap.install()
    try:
        start = time.perf_counter()
        durations = []
        while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
            t0 = time.perf_counter()
            for tracing in (False, True) if trace else (False,):
                work = work_root / f"pass{len(got.plain)}{'t' if tracing else ''}"
                work.mkdir()
                if tracing:
                    traced.reset()
                    traced.install()
                steal0 = steal_seconds()
                try:
                    ops, counts = run_pass(cli, workload, seed, work, ref, tap)
                finally:
                    if tracing:
                        traced.uninstall()
                steal1 = steal_seconds()
                shutil.rmtree(work)
                got.ops += ops
                wall = sum(op.seconds for op in ops)
                if not tracing:
                    got.plain.append({
                        "wall_s": wall,
                        "cpu_s": sum(op.cpu_s for op in ops),
                        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
                    })
                    continue
                row = tracer.pass_metrics(traced)
                row["verify.checks_passed"] = counts["passed"]
                row["verify.checks_total"] = counts["total"]
                row["traced_wall_s"] = wall
                got.layers.append(row)
                got.fft_backend = "+".join(sorted(traced.fft_by_backend)) or "none"
            if not trace:
                got.setup.append(setup_probe())
            durations.append(time.perf_counter() - t0)
        while not trace and len(got.setup) < SETUP_PROBES:
            got.setup.append(setup_probe())
        got.state = tap.last.get("solvers.route_Q")
    finally:
        tap.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)
    return got


def measure(workload: Workload, seed: int, seconds: float, trace: bool, ref: dict) -> tuple:
    """Run passes for ``seconds``; returns (result object, provenance)."""
    cli = load_bnls()
    got = run_rounds(cli, workload, seed, seconds, trace, ref)
    failed = [op for op in got.ops if op.problems]
    for op in failed:
        print(f"FAILED {' '.join(op.argv)}:\n  " + "\n  ".join(op.problems), file=sys.stderr)
    plain_wall = statistics.median(r["wall_s"] for r in got.plain)
    if trace:
        layers = _median_metrics(got.layers)
        cpu = statistics.median(r["cpu_s"] for r in got.plain)
        layers["proc.cpu_s"] = cpu
        layers["proc.cpu_util"] = cpu / plain_wall
        layers["trace.overhead_s"] = layers.pop("traced_wall_s") - plain_wall
        if got.state is not None:
            layers.update(grid_probes(got.state.field, workload.p))
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in LAYER_UNITS.items()}
        backend = got.fft_backend
    else:
        values = {
            "wall_s": plain_wall,
            "setup_s": statistics.median(got.setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        backend = "scipy.fft" if "scipy.fft" in sys.modules else "numpy.fft"
    prov = provenance(workload, seed, backend)
    prov["passes"] = {
        "untraced_wall_s": [r["wall_s"] for r in got.plain],
        "untraced_cpu_s": [r["cpu_s"] for r in got.plain],
        "untraced_steal_s": [r["steal_s"] for r in got.plain],
        "traced": len(got.layers),
        "setup_s": got.setup,
    }
    result = {
        "correct": not failed,
        "attempted": len(got.ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, prov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        result, prov = measure(
            workload, args.seed, args.seconds, bool(args.trace), REFERENCE[workload.name]
        )
    except NoCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
