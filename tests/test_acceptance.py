"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Default problem: d = 1, N = 1, p = 8, eps = 1, grid 1024, L = 40.
Criteria that probe other regimes (eps = 64, halved box, the concentrated
supercritical minimizer) configure their own grids, with tolerances matched
to each box's truncation floor.
"""

import numpy as np
import pytest

from bnls.constants import (
    K_from_C,
    K_numeric,
    c_eps_formula,
    compute_constants,
    omega_formula,
)
from bnls.functionals import (
    Params,
    action,
    energy,
    gn_k_quotient,
    holder_chain_gap,
    nehari_residual,
    pohozaev,
    quadratic_scale,
    weinstein,
)
from bnls.grid import (
    BoxGrid,
    Field,
    center_and_align,
    norms,
    regrid,
    relative_l2_distance,
)
from bnls.scalings import (
    action_gap_decomposition,
    fiber_scale_laws,
    fiber_t_grid,
    g_functions,
)
from bnls.solvers import (
    SolverConfig,
    mass_constrained_flow,
    petviashvili,
    random_bandlimited,
    route_Q,
)

from conftest import make_solution_tuple


def report(number, name, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_spectral_exactness():
    g = BoxGrid(1, 1024, 2.0 * np.pi)
    nt = norms(Field(g, np.sin(3.0 * g.axis_coordinates())), 4.0)
    expected = (np.pi, 9 * np.pi, 81 * np.pi, 3 * np.pi / 4)
    got = (nt.mass, nt.grad, nt.bilap, nt.lp)
    worst = max(abs(a - b) / b for a, b in zip(got, expected))
    report(1, "spectral exactness", worst <= 1e-12, f"worst relative error {worst:.2e}")


def test_criterion_02_second_order_soliton_oracle(grid):
    pm = Params(bigN=1, p=8.0, eps=0.0, omega=1.0, relaxed=True)
    gs = petviashvili(pm, grid, SolverConfig())
    x = grid.axis_coordinates()
    exact = 4.0 ** (1.0 / 6.0) * np.cosh(3.0 * x) ** (-1.0 / 3.0)
    err = np.max(np.abs(center_and_align(gs.field).samples - exact)) / exact.max()
    report(2, "sech soliton oracle", err <= 1e-6, f"Linf relative error {err:.2e}")


def test_criterion_03_q_identity_suite(q_state, params):
    nt = q_state.nt
    ep = params.exponents()
    eps = params.eps
    residuals = {
        "grad_vs_bilap": abs(nt.grad * ep.alpha / (ep.beta * eps * nt.bilap) - 1.0),
        "grad_vs_lp": abs(nt.grad * params.p / (ep.beta * nt.lp) - 1.0),
        "bilap_vs_lp": abs(nt.bilap * params.p * eps / (ep.alpha * nt.lp) - 1.0),
        "energy_zero": abs(energy(nt, params))
        / quadratic_scale(nt, params.with_omega(q_state.omega_extracted)),
    }
    ratio = nt.grad / (eps * nt.bilap)
    residuals["ratio_equals_one"] = abs(ratio - 1.0)
    worst = max(residuals.values())
    report(
        3,
        "critical-mass state identities",
        worst <= 1e-6,
        f"worst residual {worst:.2e} (ratio grad/(eps*bilap) = {ratio:.9f})",
    )


def test_criterion_04_consistency_triangle(q_state, params, grid, config, constants_report):
    cr = constants_report
    mass_gap = abs(q_state.nt.mass - c_eps_formula(cr.C, params)) / cr.c_eps
    omega_gap = abs(q_state.omega_extracted - omega_formula(cr.v_mass, params)) / cr.omega_eps
    k_num = K_numeric(params, grid, config, n_starts=8).value
    k_gap = abs(k_num - cr.K) / cr.K
    algebra_gap = abs(K_from_C(cr.C, params) / cr.K - 1.0)
    ok = mass_gap <= 1e-4 and omega_gap <= 1e-6 and k_gap <= 1e-3 and algebra_gap <= 1e-10
    report(
        4,
        "consistency triangle",
        ok,
        f"mass gap {mass_gap:.2e}, omega gap {omega_gap:.2e}, K numeric gap {k_gap:.2e}",
    )


def test_criterion_05_route_equivalence(q_state, action_state):
    common = BoxGrid(
        1,
        max(q_state.field.grid.points_per_axis, action_state.field.grid.points_per_axis),
        max(q_state.field.grid.box_length, action_state.field.grid.box_length),
    )
    distance = relative_l2_distance(
        center_and_align(regrid(q_state.field, common)),
        center_and_align(regrid(action_state.field, common)),
    )
    mass_gap = abs(q_state.nt.mass - action_state.nt.mass) / q_state.nt.mass
    ok = distance <= 1e-3 and mass_gap <= 1e-4
    report(
        5,
        "energy/action route equivalence",
        ok,
        f"aligned L2 distance {distance:.2e}, mass gap {mass_gap:.2e}",
    )


def test_criterion_06_nehari_pohozaev_everywhere(q_state, action_state, params, constants_report):
    states = {"critical_mass": q_state, "fixed_frequency": action_state}
    flow = mass_constrained_flow(
        params.with_mass(2.0 * constants_report.c_eps),
        BoxGrid(1, 2048, 20.0),
        SolverConfig(tol_residual=1e-8, max_iters=30000),
    )
    states["mass_flow"] = flow
    relaxed = Params(bigN=1, p=8.0, eps=0.0, omega=1.0, relaxed=True)
    states["second_order_oracle"] = petviashvili(relaxed, BoxGrid(1, 1024, 40.0), SolverConfig())
    worst = 0.0
    for name, gs in states.items():
        pm = gs.params.with_omega(gs.omega_extracted)
        scale = quadratic_scale(gs.nt, pm)
        worst = max(
            worst,
            abs(nehari_residual(gs.nt, pm)) / scale,
            abs(pohozaev(gs.nt, pm)) / scale,
        )
    report(
        6,
        "Nehari and Pohozaev on every converged state",
        worst <= 1e-6,
        f"worst relative residual {worst:.2e} over {len(states)} states",
    )


def test_criterion_07_fiber_maximality(q_state, params):
    pm = params.with_omega(q_state.omega_extracted)
    nt = q_state.nt
    base = action(nt, pm)
    scale = quadratic_scale(nt, pm)
    worst_violation = 0.0
    decomposition_worst = 0.0
    for t in fiber_t_grid():
        gap = base - action(fiber_scale_laws(nt, t, pm), pm)
        if t != 1.0:
            worst_violation = max(worst_violation, -gap / scale)
            assert gap > 0.0
        decomposition_worst = max(
            decomposition_worst,
            abs(gap - sum(action_gap_decomposition(nt, pm, t))) / scale,
        )
    # random-tuple decomposition at 1e-12 algebra
    rng = np.random.default_rng(17)
    for _ in range(200):
        omega = float(rng.uniform(0.1, 5.0))
        pm2 = params.with_omega(omega)
        tpl = make_solution_tuple(
            float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0)), pm2
        )
        s2 = quadratic_scale(tpl, pm2)
        for t in (0.4, 1.6, 3.1):
            gap = action(tpl, pm2) - action(fiber_scale_laws(tpl, t, pm2), pm2)
            decomposition_worst = max(
                decomposition_worst,
                abs(gap - sum(action_gap_decomposition(tpl, pm2, t))) / s2,
            )
    ok = worst_violation <= 1e-10 and decomposition_worst <= 1e-12
    report(
        7,
        "fiber action maximality and gap decomposition",
        ok,
        f"worst maximality violation {worst_violation:.2e}, "
        f"decomposition residual {decomposition_worst:.2e}",
    )


def test_criterion_08_g_function_properties():
    rng = np.random.default_rng(23)
    worst_neg = 0.0
    worst_at_one = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        p = (2.0 + 4.0 / n) + float(rng.uniform(0.02, 0.98)) * (4.0 / n)
        t = float(np.exp(rng.uniform(np.log(0.02), np.log(50.0))))
        worst_neg = max(worst_neg, -min(g_functions(t, n, p)))
        worst_at_one = max(worst_at_one, max(abs(g) for g in g_functions(1.0, n, p)))
    ok = worst_neg <= 1e-12 and worst_at_one <= 1e-12
    report(
        8,
        "g-function nonnegativity and zeros",
        ok,
        f"worst negativity {worst_neg:.2e}, worst |g(1)| {worst_at_one:.2e} over 1000 draws",
    )


def test_criterion_09_gn_inequality_property_tests(params, constants_report):
    cr = constants_report
    g = BoxGrid(1, 256, 40.0)
    n_violations_w = n_violations_k = n_violations_h = 0
    worst_w = np.inf
    worst_k = -np.inf
    used = 0
    for k in range(500):
        u = random_bandlimited(g, 900 + k)
        nt = norms(u, params.p)
        if nt.grad <= 0 or nt.bilap <= 0 or nt.lp <= 0:
            continue
        used += 1
        w_margin = weinstein(nt, params) * cr.C
        k_margin = gn_k_quotient(nt, params) / cr.K
        worst_w = min(worst_w, w_margin)
        worst_k = max(worst_k, k_margin)
        if w_margin < 1.0 - 1e-6:
            n_violations_w += 1
        if k_margin > 1.0 + 1e-6:
            n_violations_k += 1
        vol = g.cell_volume
        low = vol * float(np.sum(np.abs(u.samples) ** 6.0))
        high = vol * float(np.sum(np.abs(u.samples) ** 10.0))
        if holder_chain_gap(nt, params, low, high) < -1e-12:
            n_violations_h += 1
    ok = used == 500 and n_violations_w == 0 and n_violations_k == 0 and n_violations_h == 0
    report(
        9,
        "inequality direction on 500 random fields",
        ok,
        f"violations (W, K, chain) = ({n_violations_w}, {n_violations_k}, "
        f"{n_violations_h}); worst margins {worst_w - 1:.2e}, {1 - worst_k:.2e}",
    )


def test_criterion_10_supercritical_mass_negativity(params, constants_report):
    trace = []
    gs = mass_constrained_flow(
        params.with_mass(2.0 * constants_report.c_eps),
        BoxGrid(1, 2048, 20.0),
        SolverConfig(tol_residual=1e-8, max_iters=30000),
        energy_trace=trace,
    )
    e_final = energy(gs.nt, params)
    scale = params.eps * gs.nt.bilap + gs.nt.grad
    diffs = np.diff(np.array(trace))
    monotone = bool(np.all(diffs <= 1e-12 * abs(trace[0])))
    ok = e_final < -1e-6 * scale and monotone
    report(
        10,
        "supercritical-mass energy negativity",
        ok,
        f"final energy {e_final:.4e} (scale {scale:.3e}), "
        f"{len(trace)} accepted steps, monotone={monotone}",
    )


def test_criterion_11_eps_scaling_law(q_state):
    q64 = route_Q(
        Params(bigN=1, p=8.0, eps=64.0),
        BoxGrid(1, 4096, 200.0),
        SolverConfig(tol_residual=1e-8, init="random_bandlimited", seed=11),
    )
    ratio = q64.nt.mass / q_state.nt.mass
    gap = abs(ratio - 2.0)
    report(
        11,
        "dispersion scaling of the critical mass",
        gap <= 1e-4,
        f"c_eps(64)/c_eps(1) = {ratio:.10f}, |ratio - 2| = {gap:.2e}",
    )


def test_criterion_12_resolution_robustness(params, config, constants_report):
    base = constants_report
    fine = compute_constants(route_Q(params, BoxGrid(1, 2048, 40.0), config))
    small = compute_constants(
        route_Q(params, BoxGrid(1, 512, 20.0), SolverConfig(tol_residual=1e-6))
    )
    worst_fine = max(
        abs(getattr(fine, name) - getattr(base, name)) / getattr(base, name)
        for name in ("C", "c_eps", "omega_eps")
    )
    worst_small = max(
        abs(getattr(small, name) - getattr(base, name)) / getattr(base, name)
        for name in ("C", "c_eps", "omega_eps")
    )
    ok = worst_fine <= 1e-8 and worst_small <= 1e-4
    report(
        12,
        "resolution and box robustness",
        ok,
        f"doubling points: {worst_fine:.2e} (<= 1e-8); halving box: {worst_small:.2e} (<= 1e-4)",
    )
