"""Closed-form constants pipeline and its numeric cross-checks.

All exponent algebra runs in log space (the regime-boundary guard lives in
Params/ExponentPack).  In terms of alpha = (N(p-2)-4)/2 and
beta = (8-N(p-2))/2 the chain is

    c_eps   = C^(-2/(p-2)) (p/alpha)^(alpha/(p-2)) (p/beta)^(beta/(p-2)) eps^(alpha/(p-2))
    eps_c   = c^((p-2)/alpha) C^(2/alpha) (alpha/p) (beta/p)^(beta/alpha)
    K       = (p/2) c_eps^(-(p-2)/2)
            = (p/2) C (p/alpha)^(-alpha/2) (p/beta)^(-beta/2) eps^(-alpha/2)
    omega   = (p-2) alpha / (beta^2 eps ||v||_2^2)

eps_c is the exact inverse of the c_eps formula (the round trip
c -> eps_c -> c_eps is an identity), and the second K line comes from
substituting the c_eps formula into the first; the two K routes agree
identically and that agreement is itself a shipped check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RegimeError
from .functionals import Params, weinstein
from .grid import BoxGrid, Field
from .solvers import (
    GroundState,
    SolverConfig,
    _by_real,
    _SpectralIterate,
    random_bandlimited_blocks,
)

STAGNATION_RTOL = 1e-12
STAGNATION_WINDOW = 3
# Anderson mixing of the K ascent: a start takes its plain step after a sweep
# that moved its quotient by more than ANDERSON_GATE, relatively (or that grew
# its residual).
ANDERSON_GATE = 1e-2


@dataclass(frozen=True)
class ConstantsReport:
    C: float
    K: float
    c_eps: float
    eps_c: float
    omega_eps: float
    v_mass: float
    K_numeric: float | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("C", "K", "c_eps", "eps_c", "omega_eps", "v_mass"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise RegimeError(f"constants entry {name} = {value} is not positive finite")

    def as_dict(self) -> dict:
        return {
            "C": self.C,
            "K": self.K,
            "c_eps": self.c_eps,
            "eps_c": self.eps_c,
            "omega_eps": self.omega_eps,
            "v_mass": self.v_mass,
            "K_numeric": self.K_numeric,
            "provenance": dict(self.provenance),
        }

    def table(self) -> str:
        rows = [
            ("C", self.C, self.provenance.get("C", "")),
            ("K", self.K, self.provenance.get("K", "")),
            ("c_eps", self.c_eps, self.provenance.get("c_eps", "")),
            ("eps_c", self.eps_c, self.provenance.get("eps_c", "")),
            ("omega_eps", self.omega_eps, self.provenance.get("omega_eps", "")),
            ("v_mass", self.v_mass, self.provenance.get("v_mass", "")),
        ]
        if self.K_numeric is not None:
            rows.append(("K_numeric", self.K_numeric, self.provenance.get("K_numeric", "")))
        lines = [f"{'entry':<12}{'value':<24}{'provenance'}"]
        for name, value, prov in rows:
            lines.append(f"{name:<12}{value:<24.15g}{prov}")
        return "\n".join(lines)


def _require_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise RegimeError(f"{name} must be positive finite, got {value}")


def c_eps_formula(C: float, params: Params) -> float:
    """Critical mass from the homogeneous best constant."""
    _require_positive("C", C)
    ep = params.exponents()
    p = params.p
    log_c = (
        -2.0 * math.log(C)
        + ep.alpha * math.log(p / ep.alpha)
        + ep.beta * math.log(p / ep.beta)
        + ep.alpha * math.log(params.eps)
    ) / (p - 2.0)
    return math.exp(log_c)


def eps_c_formula(c: float, C: float, params: Params) -> float:
    """Critical dispersion for a given mass; exact inverse of c_eps_formula."""
    _require_positive("c", c)
    _require_positive("C", C)
    ep = params.exponents()
    p = params.p
    log_eps = (
        (p - 2.0) * math.log(c)
        + 2.0 * math.log(C)
        - ep.alpha * math.log(p / ep.alpha)
        - ep.beta * math.log(p / ep.beta)
    ) / ep.alpha
    return math.exp(log_eps)


def K_from_c_eps(c_eps: float, params: Params) -> float:
    """K = (p/2) * c_eps^(-(p-2)/2)."""
    _require_positive("c_eps", c_eps)
    params.exponents()
    return params.p / 2.0 * c_eps ** (-(params.p - 2.0) / 2.0)


def c_eps_from_K(K: float, params: Params) -> float:
    """Inverse of :func:`K_from_c_eps`: c_eps = ((2/p) K)^(-2/(p-2))."""
    _require_positive("K", K)
    params.exponents()
    return (2.0 / params.p * K) ** (-2.0 / (params.p - 2.0))


def K_from_C(C: float, params: Params) -> float:
    """K = (p/2) C (p/alpha)^(-alpha/2) (p/beta)^(-beta/2) eps^(-alpha/2).

    Derived by composing :func:`c_eps_formula` with :func:`K_from_c_eps`, so
    it agrees with that route identically.
    """
    _require_positive("C", C)
    ep = params.exponents()
    p = params.p
    log_k = (
        math.log(p / 2.0)
        + math.log(C)
        - ep.alpha / 2.0 * math.log(p / ep.alpha)
        - ep.beta / 2.0 * math.log(p / ep.beta)
        - ep.alpha / 2.0 * math.log(params.eps)
    )
    return math.exp(log_k)


def omega_formula(v_mass: float, params: Params) -> float:
    """Frequency of the constructed critical-mass state, from the optimizer's mass."""
    _require_positive("v_mass", v_mass)
    ep = params.exponents()
    return (params.p - 2.0) * ep.alpha / (ep.beta**2 * params.eps * v_mass)


def K_numeric(params: Params, grid: BoxGrid, config: SolverConfig, n_starts: int = 8) -> float:
    """Independent estimate of the supremum of the non-homogeneous quotient by multi-start ascent.

    Each start is a random field on ``grid`` (seeds ``config.seed + 101 k``,
    k = 1..n_starts) and runs a normalized (Petviashvili-type) fixed point on
    the quotient's stationarity equation; the best quotient value over all
    iterates of all starts is returned.  No start is taken from a solved
    state, so the estimate checks the closed-form K from the random starts
    alone.  The fixed point converges only linearly, so each start is
    Anderson-mixed with its step before (:meth:`_SpectralIterate.mix`).  A
    start whose quotient moved by more than ANDERSON_GATE, relatively, in the
    last sweep takes its plain step, as does one whose residual grew, so
    starts mix only once they settle near a critical point: mixed from the
    first sweep with no restart, some starts end on a critical point far
    below K.  All starts advance as one batch on one thread, one transform
    pair per sweep, so the result is the same at any thread count.  A start
    retires once its quotient moved by at most STAGNATION_RTOL, relatively,
    over STAGNATION_WINDOW sweeps, and after 400 sweeps at most.
    """
    p = params.p
    params.exponents()
    seeds = [config.seed + 101 * (k + 1) for k in range(n_starts)]
    starts = [Field(grid, row) for block in random_bandlimited_blocks(grid, seeds) for row in block]
    state = _SpectralIterate(starts)
    symbols = np.empty(state.spec.shape)  # every sweep's symbol, on the live rows
    best = 0.0
    recent = np.full((len(starts), STAGNATION_WINDOW), np.inf)  # each row's last quotients
    for _ in range(max(60, min(400, config.max_iters))):
        mass, grad, bilap = state.quadratic_norms()
        lp, nl_spec = state.nonlinearity(p)
        quad = params.eps * bilap + grad
        quotient = (lp / (mass ** ((p - 2.0) / 2.0) * quad)).ravel()
        best = max(best, float(np.max(quotient)))
        live = np.abs(quotient - recent[:, 0]) > STAGNATION_RTOL * quotient
        if not live.any():
            break
        symbol = state.symbol(2.0 * params.eps / quad, 2.0 / quad, (p - 2.0) / mass,
                              out=symbols[: len(state.spec)])
        nl_spec *= p / lp
        _by_real(np.divide, nl_spec, symbol, nl_spec)
        # quotient is amplitude-invariant; renormalize mass to stop drift
        nl_spec /= np.sqrt(state.spec_norm_sq(nl_spec))
        state.mix(np.abs(quotient - recent[:, -1]) > ANDERSON_GATE * quotient)
        state.advance()
        if not live.all():
            state.keep(live)
        recent = np.column_stack([recent[:, 1:], quotient])[live]
    return best


def compute_constants(q: GroundState, k_numeric: float | None = None) -> ConstantsReport:
    """Assemble the constants chain from the critical-mass state ``q`` of ``route_Q``.

    No solve or measurement runs here: ``q`` is an exact amplitude and
    dilation rescaling of the quotient optimizer, and W_p is invariant under
    both, so C = 1/W_p(q.nt); the optimizer's mass at grad = bilap = 1 is
    v_mass = mass * bilap / grad^2 of q.nt.  ``k_numeric`` is the
    :func:`K_numeric` cross-check, if it was run.
    """
    params = q.params
    nt = q.nt
    c_best = 1.0 / weinstein(nt, params)
    v_mass = nt.mass * nt.bilap / nt.grad**2
    c_eps = c_eps_formula(c_best, params)
    return ConstantsReport(
        C=c_best,
        K=K_from_c_eps(c_eps, params),
        c_eps=c_eps,
        eps_c=eps_c_formula(c_eps, c_best, params),
        omega_eps=omega_formula(v_mass, params),
        v_mass=v_mass,
        K_numeric=k_numeric,
        provenance={
            "C": "numeric (quotient minimization)",
            "K": "formula (from c_eps)",
            "c_eps": "formula (from numeric C)",
            "eps_c": "formula (inverse at c = c_eps)",
            "omega_eps": "formula (from numeric v_mass)",
            "v_mass": "numeric (optimizer mass)",
            "K_numeric": "numeric (quotient ascent)" if k_numeric is not None else "skipped",
        },
    )
