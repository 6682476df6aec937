"""Identity checks over computed states, collected into pass/fail reports.

Every identity the computed states are supposed to satisfy becomes a named
check with a measured residual and a tolerance drawn from the four tiers of
``TOL``: ``algebraic`` for pure NormTuple arithmetic, ``numeric`` for
single-solve identities, ``cross_numeric`` for quantities that compose several
numeric stages and ``route`` for the comparison of the two ground-state
routes.  ``REQUIRED_CHECKS`` is the coverage manifest: the default full suite
must produce every name in it, and the test suite enforces that.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .constants import (
    ConstantsReport,
    K_from_C,
    K_from_c_eps,
    K_numeric,
    KAscent,
    c_eps_formula,
    c_eps_from_K,
    compute_constants,
    eps_c_formula,
    omega_formula,
)
from .errors import ConfigurationError, PreconditionError
from .functionals import (
    Params,
    action,
    energy,
    energy_factored,
    gn_k_quotient,
    holder_chain_gap,
    nehari_residual,
    pohozaev,
    quadratic_scale,
    weinstein,
)
from .grid import (
    BoxGrid,
    NormTuple,
    aligned_pair,
    norm_sums,
    relative_l2_distance,
)
from .scalings import (
    action_gap_decomposition,
    fiber_scale_laws,
    fiber_t_grid,
    g_functions,
    h_profile,
    mass_preserving_scale_laws,
    t_eps,
)
from .fieldio import field_to_bytes
from .solvers import (
    GroundState,
    SolverConfig,
    petviashvili,
    random_bandlimited_blocks,
    route_Q,
)


@dataclass(frozen=True)
class TolProfile:
    """The four tolerance tiers of the module doc; every check reads the one instance TOL."""

    algebraic: float = 1e-10
    numeric: float = 1e-6
    cross_numeric: float = 1e-4
    route: float = 1e-3


TOL = TolProfile()


@dataclass(frozen=True)
class Check:
    name: str
    identity: str
    residual: float
    tol: float
    passed: bool
    skipped: bool = False
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def counts(self) -> dict:
        return {
            "total": len(self.checks),
            "passed": sum(1 for c in self.checks if c.passed and not c.skipped),
            "failed": sum(1 for c in self.checks if not c.passed and not c.skipped),
            "skipped": sum(1 for c in self.checks if c.skipped),
        }

    def names(self) -> set:
        return {c.name for c in self.checks}

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "counts": self.counts(),
            "checks": [c.as_dict() for c in self.checks],
            "provenance": dict(self.provenance),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def table(self) -> str:
        lines = [f"{'status':<8}{'residual':<13}{'tol':<10}name"]
        for c in self.checks:
            status = "SKIP" if c.skipped else ("pass" if c.passed else "FAIL")
            lines.append(f"{status:<8}{c.residual:<13.3e}{c.tol:<10.1e}{c.name}")
        counts = self.counts()
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'}: {counts['passed']} passed, "
            f"{counts['failed']} failed, {counts['skipped']} skipped"
        )
        return "\n".join(lines)


def _check(name, identity, residual, tol, skipped=False, detail="") -> Check:
    residual = float(residual)
    return Check(
        name=name,
        identity=identity,
        residual=residual,
        tol=tol,
        passed=bool(residual <= tol),
        skipped=skipped,
        detail=detail,
    )


# Coverage manifest: the default full suite must produce every one of these.
REQUIRED_CHECKS = frozenset(
    """
    q.pde_residual q.ratio_grad_bilap q.ratio_grad_lp q.ratio_bilap_lp q.energy_zero
    q.mass_at_least_critical q.mass_equals_critical q.nehari_zero q.pohozaev_zero
    q.omega_matches_formula q.weinstein_optimal q.gnk_quotient_extremal
    q.energy_factored_reconstruction q.energy_factored_bracket_zero
    q.h_profile_critical_at_one q.h_profile_stationary q.fiber_action_max_at_one
    q.fiber_gap_decomposition
    equiv.aligned_distance equiv.mass_match equiv.action_energy_zero equiv.action_match
    equiv.action_positive equiv.fiber_t_one equiv.fiber_action_max_at_one
    gn.weinstein_lower_bound gn.k_quotient_upper_bound gn.holder_chain
    const.k_routes_agree const.k_inversion_roundtrip const.eps_c_roundtrip
    const.c_eps_scaling const.omega_scaling const.k_numeric_close
    alg.weinstein_scale_invariance alg.fiber_mass_law alg.g_zero_at_one alg.g_nonnegative
    alg.nehari_pohozaev_combination
    """.split()
)


# ---------------------------------------------------------------------------
# checks on the constructed critical-mass state


def _fiber_frame(gs: GroundState, omega: float) -> tuple:
    """(params at omega, quadratic scale, skip reason) for a fiber statement.

    The fiber statements presuppose the Nehari and dilation identities; when
    those are visibly violated the check is reported as skipped, not failed,
    and the reason says by how much.
    """
    pm = gs.params.with_omega(omega)
    scale = quadratic_scale(gs.nt, pm)
    gap = max(abs(nehari_residual(gs.nt, pm)), abs(pohozaev(gs.nt, pm))) / scale
    if gap > TOL.numeric:
        return pm, scale, f"stationarity identities off by {gap:.3e}; not a solution"
    return pm, scale, ""


def _fiber_max_check(prefix: str, gs: GroundState, omega: float) -> Check:
    """Action maximality along u^t = t^N u(t.): I(u) - I(u^t) > 0 for t != 1."""
    pm, scale, unsolved = _fiber_frame(gs, omega)
    base = action(gs.nt, pm)
    gaps = [] if unsolved else [
        base - action(fiber_scale_laws(gs.nt, t, pm), pm) for t in fiber_t_grid() if t != 1.0
    ]
    return _check(
        f"{prefix}.fiber_action_max_at_one",
        "I(u) >= I(t^N u(t.)) for t in [1/4, 4], equality only at t = 1",
        max(0.0, -min(gaps, default=0.0)) / scale,
        TOL.algebraic,
        skipped=bool(unsolved),
        detail=unsolved or f"smallest off-peak gap {min(gaps):.3e}",
    )


def _fiber_gap_check(prefix: str, gs: GroundState, omega: float) -> Check:
    """The three-term split of the action gap I(u) - I(u^t) at four off-peak t."""
    pm, scale, unsolved = _fiber_frame(gs, omega)
    base = action(gs.nt, pm)
    errors = [] if unsolved else [
        abs(base - action(fiber_scale_laws(gs.nt, t, pm), pm)
            - sum(action_gap_decomposition(gs.nt, pm, t))) / scale
        for t in (0.5, 0.77, 1.3, 2.4)
    ]
    return _check(
        f"{prefix}.fiber_gap_decomposition",
        "I(u) - I(u^t) splits into the three g-weighted norm terms",
        max(errors, default=0.0),
        TOL.algebraic,
        skipped=bool(unsolved),
        detail=unsolved,
    )


def verify_Q(gs: GroundState, cr: ConstantsReport) -> VerificationReport:
    """All identities the constructed critical-mass state must satisfy.

    Mildly off states produce a report whose checks fail; grossly unconverged
    input (residual above 1e-2) is refused outright.
    """
    if gs.residual_pde > 1e-2:
        raise PreconditionError(
            f"refusing to verify an unconverged state (residual {gs.residual_pde:.3e})"
        )
    return VerificationReport(checks=q_checks(gs, cr))


def q_checks(gs: GroundState, cr: ConstantsReport) -> tuple:
    """The checks of :func:`verify_Q`, taken on any state, however unconverged.

    ``sweep`` reports its identity columns from these, so a row solved to a
    loose tolerance is written with its checks failing, not refused.
    """
    params = gs.params
    ep = params.exponents()
    p = params.p
    nt = gs.nt
    eps = params.eps
    omega_x = gs.omega_extracted
    pm = params.with_omega(omega_x)
    scale = quadratic_scale(nt, pm)
    checks = [
        _check(
            "q.pde_residual",
            "eps lap^2 Q - lap Q + omega Q = |Q|^(p-2) Q",
            gs.residual_pde,
            TOL.numeric,
        ),
        _check(
            "q.ratio_grad_bilap",
            "grad(Q) = (beta/alpha) eps bilap(Q)",
            abs(nt.grad * ep.alpha / (ep.beta * eps * nt.bilap) - 1.0),
            TOL.numeric,
        ),
        _check(
            "q.ratio_grad_lp",
            "grad(Q) = (beta/p) lp(Q)",
            abs(nt.grad * p / (ep.beta * nt.lp) - 1.0),
            TOL.numeric,
        ),
        _check(
            "q.ratio_bilap_lp",
            "bilap(Q) = (alpha/p) lp(Q) / eps",
            abs(nt.bilap * p * eps / (ep.alpha * nt.lp) - 1.0),
            TOL.numeric,
        ),
        _check(
            "q.energy_zero",
            "energy(Q) = 0",
            abs(energy(nt, params)) / scale,
            TOL.numeric,
        ),
        _check(
            "q.mass_at_least_critical",
            "mass(Q) >= c_eps",
            max(0.0, (cr.c_eps - nt.mass) / cr.c_eps),
            TOL.cross_numeric,
        ),
        _check(
            "q.mass_equals_critical",
            "mass(Q) = c_eps",
            abs(nt.mass - cr.c_eps) / cr.c_eps,
            TOL.cross_numeric,
        ),
        _check(
            "q.nehari_zero",
            "eps bilap + grad + omega mass = lp at the extracted omega",
            abs(nehari_residual(nt, pm)) / scale,
            TOL.numeric,
        ),
        _check(
            "q.pohozaev_zero",
            "dilation identity vanishes at the extracted omega",
            abs(pohozaev(nt, pm)) / scale,
            TOL.numeric,
        ),
        _check(
            "q.omega_matches_formula",
            "extracted omega equals the optimizer-mass frequency",
            abs(omega_x - cr.omega_eps) / cr.omega_eps,
            TOL.numeric,
        ),
        _check(
            "q.weinstein_optimal",
            "W_p(Q) * C = 1",
            abs(weinstein(nt, params) * cr.C - 1.0),
            TOL.numeric,
        ),
        _check(
            "q.gnk_quotient_extremal",
            "gn_k_quotient(Q) = (p/2) c_eps^(-(p-2)/2)",
            abs(gn_k_quotient(nt, params) / K_from_c_eps(cr.c_eps, params) - 1.0),
            TOL.cross_numeric,
        ),
    ]
    qd, bracket = energy_factored(nt, params.with_mass(nt.mass))
    checks.append(
        _check(
            "q.energy_factored_reconstruction",
            "energy = (1/2) (eps bilap + grad) * bracket on the mass sphere",
            abs(0.5 * qd * bracket - energy(nt, params)) / scale,
            TOL.algebraic,
        )
    )
    checks.append(
        _check(
            "q.energy_factored_bracket_zero",
            "factored-energy bracket vanishes at the optimizer with critical mass",
            abs(bracket),
            TOL.cross_numeric,
        )
    )
    te = t_eps(nt, params)
    checks.append(
        _check(
            "q.h_profile_critical_at_one",
            "the rescaled energy profile has its critical point at t = 1",
            abs(te - 1.0),
            TOL.numeric,
        )
    )
    delta = 1e-5 * te
    (_, h_minus), (_, h_plus) = h_profile(nt, params, [te - delta, te + delta])
    h_scale = params.eps * nt.bilap * te + nt.lp / p
    checks.append(
        _check(
            "q.h_profile_stationary",
            "centered difference of the energy profile vanishes at its critical point",
            abs(h_plus - h_minus) / (2.0 * delta) / h_scale,
            1e-10,
        )
    )
    checks.append(_fiber_max_check("q", gs, omega_x))
    checks.append(_fiber_gap_check("q", gs, omega_x))
    return tuple(checks)


# ---------------------------------------------------------------------------
# equivalence of the two ground-state notions


def verify_equivalence(gsE: GroundState, gsA: GroundState) -> VerificationReport:
    """Compare a critical-mass energy minimizer with a fixed-frequency minimizer, the
    fields side by side by :func:`~bnls.grid.aligned_pair`."""
    pe, pa = gsE.params, gsA.params
    if (pe.bigN, pe.p, pe.eps) != (pa.bigN, pa.p, pa.eps):
        raise PreconditionError(
            f"states solve different problems: {(pe.bigN, pe.p, pe.eps)} vs "
            f"{(pa.bigN, pa.p, pa.eps)}"
        )
    omega = pa.omega if pa.omega is not None else gsA.omega_extracted
    pm = pe.with_omega(omega)
    n = pe.bigN
    distance = relative_l2_distance(*aligned_pair(gsE.field, gsA.field))

    scale = quadratic_scale(gsA.nt, pm)
    i_e = action(gsE.nt, pm)
    i_a = action(gsA.nt, pm)
    t_star = (gsE.nt.mass / gsA.nt.mass) ** (1.0 / n)
    checks = [
        _check(
            "equiv.aligned_distance",
            "energy and action ground states coincide after centering",
            distance,
            TOL.route,
        ),
        _check(
            "equiv.mass_match",
            "action ground state at the optimizer frequency has critical mass",
            abs(gsA.nt.mass - gsE.nt.mass) / gsE.nt.mass,
            TOL.cross_numeric,
        ),
        _check(
            "equiv.action_energy_zero",
            "action ground state at the optimizer frequency has zero energy",
            abs(energy(gsA.nt, pa)) / scale,
            TOL.cross_numeric,
        ),
        _check(
            "equiv.action_match",
            "both routes give the same action value",
            abs(i_e - i_a) / max(abs(i_e), abs(i_a)),
            TOL.route,
        ),
        _check(
            "equiv.action_positive",
            "the shared action level is positive",
            max(0.0, -min(i_e, i_a)),
            0.0,
            detail=f"I = {i_a:.6g}",
        ),
        _check(
            "equiv.fiber_t_one",
            "the mass-matching fiber parameter equals 1",
            abs(t_star - 1.0),
            TOL.cross_numeric,
        ),
    ]
    checks.append(_fiber_max_check("equiv", gsA, omega))
    return VerificationReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# inequality direction tests on random fields


def verify_gn_random(
    params: Params,
    C: float,
    K: float,
    n_samples: int = 500,
    seed: int = 7,
) -> VerificationReport:
    """Random band-limited fields never violate the two inequalities or the
    interpolation chain that proves the homogeneous one.

    The fields are the ``n_samples`` rows of ``random_bandlimited_blocks(grid,
    seed, n_samples)``.  The sampler grid has box 40 and 256, 128 or 64 points
    per axis in 1D, 2D or 3D, and the band 20, 10 or 5 modes: k_max / kc =
    points / (2 modes) = 6.4 in every d, so the band filter is e^-41 at the
    grid's Nyquist wavenumber.  Norms, Hölder integrals and quotients are
    taken a block at a time.  The generator makes no row with a vanishing
    derivative norm or lp; one would raise DegenerateQuotientError in the
    quotients rather than be skipped.  No samples at all is a ConfigurationError.
    """
    if n_samples < 1:
        raise ConfigurationError(f"samples must be an integer >= 1, got {n_samples!r}")
    grid = BoxGrid(dim=params.bigN, points_per_axis=512 >> params.bigN, box_length=40.0)
    q_low, q_high = params.mass_window()
    worst_w = math.inf
    worst_k = -math.inf
    worst_holder = math.inf
    for block in random_bandlimited_blocks(grid, seed, n_samples, modes=40 >> grid.dim):
        sums = norm_sums(grid, block, (params.p, q_low, q_high))
        mass, grad, bilap, lp, low_int, high_int = sums
        nt = NormTuple(mass=mass, grad=grad, bilap=bilap, lp=lp, p=float(params.p))
        worst_w = min(worst_w, float(np.min(weinstein(nt, params) * C)))
        worst_k = max(worst_k, float(np.max(gn_k_quotient(nt, params) / K)))
        gaps = holder_chain_gap(nt, params, low_int, high_int)
        worst_holder = min(worst_holder, float(np.min(gaps)))
    return VerificationReport(checks=(
        _check(
            "gn.weinstein_lower_bound",
            "W_p(u) >= 1/C for every field",
            max(0.0, 1.0 - worst_w),
            TOL.numeric,
            detail=f"{n_samples} samples, worst margin {worst_w - 1.0:.3e}",
        ),
        _check(
            "gn.k_quotient_upper_bound",
            "gn_k_quotient(u) <= K for every field",
            max(0.0, worst_k - 1.0),
            TOL.numeric,
            detail=f"{n_samples} samples, worst margin {1.0 - worst_k:.3e}",
        ),
        _check(
            "gn.holder_chain",
            "lp interpolates between the two mass-critical integrals",
            max(0.0, -worst_holder),
            TOL.algebraic,
            detail=f"{n_samples} samples, smallest slack {worst_holder:.3e}",
        ),
    ))


# ---------------------------------------------------------------------------
# constants cross-relations and pure scaling algebra


def verify_constants(cr: ConstantsReport, params: Params, ascent: KAscent) -> VerificationReport:
    """The constants chain's algebraic relations, and ``ascent`` (:func:`K_numeric`) against K."""
    ep = params.exponents()
    return VerificationReport(checks=(
        _check(
            "const.k_routes_agree",
            "K from C equals K from c_eps",
            abs(K_from_C(cr.C, params) / K_from_c_eps(cr.c_eps, params) - 1.0),
            TOL.algebraic,
        ),
        _check(
            "const.k_inversion_roundtrip",
            "c_eps = ((2/p) K)^(-2/(p-2)) inverts K = (p/2) c_eps^(-(p-2)/2)",
            abs(c_eps_from_K(cr.K, params) / cr.c_eps - 1.0),
            TOL.algebraic,
        ),
        _check(
            "const.eps_c_roundtrip",
            "c -> eps_c -> c_eps returns c",
            abs(
                c_eps_formula(cr.C, replace(params, eps=eps_c_formula(2.0 * cr.c_eps, cr.C, params)))
                / (2.0 * cr.c_eps)
                - 1.0
            ),
            TOL.algebraic,
        ),
        _check(
            "const.c_eps_scaling",
            "c_eps(s eps) / c_eps(eps) = s^(alpha/(p-2))",
            abs(
                c_eps_formula(cr.C, replace(params, eps=64.0 * params.eps))
                / (cr.c_eps * 64.0 ** (ep.alpha / (params.p - 2.0)))
                - 1.0
            ),
            TOL.algebraic,
        ),
        _check(
            "const.omega_scaling",
            "omega(eps) scales like 1/eps at fixed optimizer mass",
            abs(
                omega_formula(cr.v_mass, replace(params, eps=2.0 * params.eps))
                * 2.0
                / cr.omega_eps
                - 1.0
            ),
            TOL.algebraic,
        ),
        # an ascent, but held to the algebraic tier: its random starts reach K
        # to roundoff on the 1D, 2D and 3D desk grids, though a half-cell shift
        # of the optimizer lowers the discrete quotient by 2e-11 on 64^3, L 32
        _check(
            "const.k_numeric_close",
            "ascent supremum reaches the closed-form K",
            abs(ascent.value / cr.K - 1.0),
            TOL.algebraic,
            detail=ascent.provenance(),
        ),
    ))


def verify_scaling_algebra(
    gs: GroundState, params: Params, seed: int = 5
) -> VerificationReport:
    """Pure NormTuple algebra: scaling invariances and the g-polynomial facts."""
    nt = gs.nt
    w0 = weinstein(nt, params)
    worst = 0.0
    for t in (0.3, 0.9, 1.7, 3.3):
        worst = max(
            worst, abs(weinstein(mass_preserving_scale_laws(nt, t, params), params) / w0 - 1.0)
        )
    checks = [
        _check(
            "alg.weinstein_scale_invariance",
            "W_p is invariant under the mass-preserving rescaling",
            worst,
            TOL.algebraic,
        )
    ]
    t_m = (2.0 * nt.mass / nt.mass) ** (1.0 / params.bigN)
    scaled = fiber_scale_laws(nt, t_m, params)
    checks.append(
        _check(
            "alg.fiber_mass_law",
            "the fiber scaling with t = (c/mass)^(1/N) lands exactly on mass c",
            abs(scaled.mass / (2.0 * nt.mass) - 1.0),
            TOL.algebraic,
        )
    )
    n, p = params.bigN, params.p
    g_at_one = g_functions(1.0, n, p)
    checks.append(
        _check(
            "alg.g_zero_at_one",
            "g1(1) = g2(1) = g3(1) = 0",
            max(abs(g) for g in g_at_one),
            TOL.algebraic,
        )
    )
    rng = np.random.default_rng(seed)
    worst_g = 0.0
    for t in np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=200)):
        worst_g = max(worst_g, max(0.0, -min(g_functions(float(t), n, p))))
    checks.append(
        _check(
            "alg.g_nonnegative",
            "each g polynomial is nonnegative on (0, inf)",
            worst_g,
            TOL.algebraic,
            detail="200 random t in [0.05, 20]",
        )
    )
    omega = gs.omega_extracted
    pm = params.with_omega(omega)
    worst_combo = 0.0
    for _ in range(50):
        sample = replace(
            nt,
            mass=float(rng.uniform(0.1, 5.0)),
            grad=float(rng.uniform(0.1, 5.0)),
            bilap=float(rng.uniform(0.1, 5.0)),
            lp=float(rng.uniform(0.1, 5.0)),
        )
        combo = params.bigN * nehari_residual(sample, pm) - pohozaev(sample, pm)
        direct = (
            params.eps * (n + 4.0) / 2.0 * sample.bilap
            + (n + 2.0) / 2.0 * sample.grad
            + omega * n / 2.0 * sample.mass
            - n * (p - 1.0) / p * sample.lp
        )
        scale = quadratic_scale(sample, pm) + sample.lp
        worst_combo = max(worst_combo, abs(combo - direct) / scale)
    checks.append(
        _check(
            "alg.nehari_pohozaev_combination",
            "N * nehari - pohozaev equals its displayed norm combination",
            worst_combo,
            1e-12,
            detail="50 random tuples",
        )
    )
    return VerificationReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# the full default suite


def full_verification(
    params: Params,
    grid: BoxGrid,
    config: SolverConfig,
    n_samples: int = 500,
    energy_state: "GroundState | None" = None,
    action_state: "GroundState | None" = None,
) -> tuple:
    """Run every check family against fresh or supplied states.

    One ``route_Q`` solve always runs, even when an energy state is supplied,
    and the constants come from it: a supplied state is never checked against
    constants derived from itself.  The K ascent always runs, from random
    starts only, so ``const.k_numeric_close`` checks the closed-form K
    independently.  A missing action state is an independent Petviashvili solve
    at ``omega_eps`` on the energy state's grid, so only a stored action state
    on another grid is interpolated for the comparison.
    Deterministic given the inputs; the report's provenance hashes both states
    and names the sampler seed.
    """
    q = route_Q(params, grid, config)
    ascent = K_numeric(params, grid, config)
    cr = compute_constants(q)
    gs_energy = energy_state if energy_state is not None else q
    gs_action = (
        action_state
        if action_state is not None
        else petviashvili(params.with_omega(cr.omega_eps), gs_energy.field.grid, config)
    )
    checks = (
        *verify_constants(cr, params, ascent).checks,
        *verify_Q(gs_energy, cr).checks,
        *verify_equivalence(gs_energy, gs_action).checks,
        *verify_gn_random(params, cr.C, cr.K, n_samples=n_samples, seed=config.seed + 7).checks,
        *verify_scaling_algebra(gs_energy, params, seed=config.seed + 11).checks,
    )
    provenance = {
        "params": {"bigN": params.bigN, "p": params.p, "eps": params.eps},
        "grid": {"dim": grid.dim, "points": grid.points_per_axis, "box": grid.box_length},
        "config_hash": config.config_hash(),
        "energy_state_sha256": hashlib.sha256(field_to_bytes(gs_energy.field)).hexdigest(),
        "action_state_sha256": hashlib.sha256(field_to_bytes(gs_action.field)).hexdigest(),
        "sampler_seed": config.seed + 7,
    }
    report = VerificationReport(checks=checks, provenance=provenance)
    return report, {"constants": cr, "energy": gs_energy, "action": gs_action}
