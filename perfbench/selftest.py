#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on reduced grids.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Each workload is shrunk to a small grid and a few samples.  For each one the
test checks that an untraced run emits exactly the end-to-end metrics of
``BENCHMARK.json`` and a traced run exactly the per-layer metrics, each with
its unit; that the layer counters fire on the workloads that exercise those
layers; and that the correctness gate fails every operation when the stored
reference is wrong.  It also checks that the benchmark refuses to run, with
no result line, in a directory that holds only the benchmark's own files.
Exit status 0 means every check held.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run as bench

REDUCED = {
    "verify-1d": {"--points": "256", "--samples": "20"},
    "ground-state-3d": {"--points": "32", "--box": "20", "--tol": "1e-6"},
}

# Per-layer metrics that must be positive on every workload, and on each kind.
POSITIVE = (
    "grid.fft_pair_ms", "grid.quadratic_norms_ms", "grid.norms_ms",
    "fft.calls", "fft.points", "fft.bytes_computed", "fft.s",
    "solvers.shooting.solves", "solvers.shooting_s", "solvers.shooting.sweeps",
    "solvers.shooting.ms_per_sweep", "proc.cpu_s", "proc.cpu_util",
)
POSITIVE_BY_KIND = {
    "verify": (
        "grid.regrid_s", "grid.regrid.calls",
        "solvers.petviashvili_s", "solvers.petviashvili.sweeps",
        "solvers.petviashvili.ms_per_sweep",
        "solvers.random_bandlimited.calls", "solvers.random_bandlimited_s",
        "constants.k_ascent_s", "constants.k_ascent.fft_calls", "constants.compute_constants_s",
        "verify.gn_sampler_s", "verify.gn_sampler.samples", "verify.equivalence_s",
        "verify.checks_passed", "verify.checks_total",
    ),
    "ground-state": (
        "solvers.mass_flow_s", "solvers.mass_flow.iters", "solvers.mass_flow.ms_per_iter",
        "fieldio.write_s", "fieldio.read_s", "fieldio.bytes", "cli.load_state_s",
    ),
}


def reduced(workload: bench.Workload) -> bench.Workload:
    problem = list(workload.problem)
    for flag, value in REDUCED[workload.name].items():
        if flag in problem:
            problem[problem.index(flag) + 1] = value
        else:
            problem += [flag, value]
    return dataclasses.replace(workload, problem=tuple(problem))


def expect(failures: list, ok: bool, message: str):
    if not ok:
        failures.append(message)


def check_metrics(failures, label, result, declared):
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(failures, got == units, f"{label}: metrics/units {got} != declared {units}")
    for name, m in result["metrics"].items():
        value = m["value"]
        expect(failures, isinstance(value, (int, float)), f"{label}: {name} is not a number")


def check_workload(failures, workload, spec):
    ref = bench.REFERENCE["reduced"][workload.name]
    label = workload.name
    plain, _ = bench.measure(workload, seed=3, seconds=0, trace=False, ref=ref)
    expect(failures, plain["correct"] and plain["failed"] == 0, f"{label}: untraced run failed")
    check_metrics(failures, f"{label} untraced", plain, spec["end_to_end"])
    for name, m in plain["metrics"].items():
        expect(failures, m["value"] > 0, f"{label}: end-to-end {name} is not positive")

    traced, prov = bench.measure(workload, seed=4, seconds=0, trace=True, ref=ref)
    expect(failures, traced["correct"], f"{label}: traced run failed")
    check_metrics(failures, f"{label} traced", traced, spec["per_layer"])
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    for name in POSITIVE + POSITIVE_BY_KIND[workload.kind]:
        expect(failures, values.get(name, 0) > 0, f"{label}: {name} = {values.get(name)}")
    if workload.kind == "verify":
        expect(
            failures,
            values["verify.checks_passed"] == values["verify.checks_total"],
            f"{label}: not every verify check passed",
        )
        samples = workload.flag("--samples")
        expect(
            failures,
            values["verify.gn_sampler.samples"] == int(samples),
            f"{label}: sampler drew {values['verify.gn_sampler.samples']} fields, not {samples}",
        )
    expect(failures, prov["fft_backend"] != "none", f"{label}: no transform was counted")

    wrong = {key: value * (1.0 + 1e-3) for key, value in ref.items()}
    print(f"{label}: wrong reference; the FAILED lines that follow are expected", file=sys.stderr)
    bad, _ = bench.measure(workload, seed=3, seconds=0, trace=False, ref=wrong)
    expect(
        failures,
        not bad["correct"] and bad["attempted"] >= 1 and bad["failed"] == bad["attempted"],
        f"{label}: a wrong reference was not rejected: {bad['attempted']} attempted, "
        f"{bad['failed']} failed",
    )


def check_bare_directory(failures):
    """Only BENCHMARK.json and perfbench/: the benchmark must refuse to run."""
    bare = bench.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-1d", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(failures, out.returncode != 0, "bare directory: exit status was 0")
    expect(failures, '"correct"' not in out.stdout, "bare directory: a result was printed")


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expect_names = sorted(w["name"] for w in spec["workloads"])
    failures = []
    expect(failures, expect_names == sorted(bench.WORKLOADS), "workload names differ")
    for workload in bench.WORKLOADS.values():
        check_workload(failures, reduced(workload), spec)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
