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
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import RegimeError
from .functionals import Params, weinstein
from .grid import BoxGrid, Field, _irfftn, regrid, spectral_tail_ratio
from .scalings import omega_formula
from .solvers import GroundState, SolverConfig, _band_limiter, _SpectralIterate

STAGNATION_RTOL = 1e-12
COARSE_RTOL = 1e-6
STAGNATION_WINDOW = 3


@dataclass(frozen=True)
class KAscent:
    """:func:`K_numeric`'s best fine quotient, with its coarse grid's points per axis, both
    stages' sweeps and the spectral-tail ratio of the coarse row it polished."""

    value: float
    coarse_points: int
    coarse_sweeps: int
    fine_sweeps: int
    coarse_tail: float

    def provenance(self) -> str:
        return (f"numeric (quotient ascent: {self.coarse_sweeps} sweeps on {self.coarse_points} "
                f"points per axis, tail {self.coarse_tail:.1e}; {self.fine_sweeps} fine sweeps)")


@dataclass(frozen=True)
class ConstantsReport:
    C: float
    K: float
    c_eps: float
    eps_c: float
    omega_eps: float
    v_mass: float
    provenance: dict = field(default_factory=dict)

    CHAIN = ("C", "K", "c_eps", "eps_c", "omega_eps", "v_mass")

    def __post_init__(self):
        for name in self.CHAIN:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise RegimeError(f"constants entry {name} = {value} is not positive finite")

    def as_dict(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        lines = [f"{'entry':<12}{'value':<24}{'provenance'}"]
        for name in self.CHAIN:
            lines.append(f"{name:<12}{getattr(self, name):<24.15g}{self.provenance.get(name, '')}")
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


def _ascend(params: Params, state: _SpectralIterate, rtol: float, cap: int) -> tuple:
    """Sweep every row of ``state`` until each row's quotient has moved by at most ``rtol``,
    relatively, over STAGNATION_WINDOW sweeps, or ``cap`` sweeps have run; returns the best
    quotient of all iterates, the sweeps run and each row's last quotient, whose
    iterate ``state.spec`` holds when the rows stagnated."""
    p = params.p
    symbol = np.empty(state.spec.shape)  # every sweep's symbol
    best, sweeps = 0.0, 0
    recent = np.full((len(state.spec), STAGNATION_WINDOW), np.inf)  # each row's last quotients
    while sweeps < cap:
        sweeps += 1
        mass, grad, bilap = state.quadratic_norms()
        lp, nl_spec = state.nonlinearity(p)
        quad = params.eps * bilap + grad
        quotient = (lp / (mass ** ((p - 2.0) / 2.0) * quad)).ravel()
        best = max(best, float(np.max(quotient)))
        if not np.any(np.abs(quotient - recent[:, 0]) > rtol * quotient):
            break
        state.symbol(2.0 * params.eps / quad, 2.0 / quad, (p - 2.0) / mass, out=symbol)
        nl_spec *= p / lp
        np.divide(nl_spec, symbol, out=nl_spec)
        # quotient is amplitude-invariant; renormalize mass to stop drift
        nl_spec /= np.sqrt(state.inner(nl_spec, nl_spec))
        state.mix()
        state.advance()
        recent = np.column_stack([recent[:, 1:], quotient])
    return best, sweeps, quotient


def K_numeric(params: Params, grid: BoxGrid, config: SolverConfig, n_starts: int = 8) -> KAscent:
    """Independent estimate of the supremum of the non-homogeneous quotient by multi-start ascent.

    Each start is the white noise of seed ``config.seed + 101 k``, k = 1..n_starts, a row
    of one block that the sampler's step (:func:`~bnls.solvers._band_limiter`)
    band-limits in place and the kernel takes as it is; never a solved state, so
    the estimate checks the closed-form K independently.
    A sweep is a normalized (Petviashvili-type) fixed point on the quotient's
    stationarity equation, Anderson-mixed per row (:meth:`_SpectralIterate.mix`),
    one transform pair for all rows.  The ascent runs coarse to fine:

    * all starts advance as one batch on the coarse grid, the same box with
      max(32, points // 4) points per axis, until every row's quotient has moved
      by at most COARSE_RTOL, relatively, over STAGNATION_WINDOW sweeps;
    * the row of the highest last quotient is zero-padded onto ``grid`` by
      :func:`~bnls.grid.regrid` and polished alone to the STAGNATION_RTOL stop.

    Each stage runs 400 sweeps at most.  The coarse row need not be resolved
    (on 32^3 at L 32 its spectral tail reaches 2e-1), so the value is the best
    quotient of the fine iterates only.  Over seeds 0, 1, 3 and 405 this took
    23-28 coarse and 4 fine sweeps on the 1D desk problem (1024 points, L 40,
    p 8), 13-17 and 22 in 2D (128^2, L 40, p 5) and 16-54 and 13-27 in 3D (64^3,
    L 32, p 4).  One thread runs every row, so the result is the same at any
    thread count.
    """
    params.exponents()
    coarse = BoxGrid(grid.dim, max(32, grid.points_per_axis // 4), grid.box_length)
    block = np.empty((n_starts,) + coarse.shape)  # filled in place, a row per start
    for k in range(n_starts):
        np.random.default_rng(config.seed + 101 * (k + 1)).standard_normal(out=block[k])
    state = _SpectralIterate(coarse, _band_limiter(coarse)(block))
    del block  # the spectrum is the iterate from here
    cap = max(60, min(400, config.max_iters))
    _, coarse_sweeps, quotient = _ascend(params, state, COARSE_RTOL, cap)
    top = state.spec[int(np.argmax(quotient))].copy()
    del state  # the coarse batch: the polish needs only its best row
    row = Field(coarse, _irfftn(top, coarse.dim))
    tail = spectral_tail_ratio(row, top)
    fine = regrid(row, grid).samples[np.newaxis]  # a one-row batch
    best, fine_sweeps, _ = _ascend(params, _SpectralIterate(grid, fine), STAGNATION_RTOL, cap)
    return KAscent(best, coarse.points_per_axis, coarse_sweeps, fine_sweeps, tail)


def compute_constants(q: GroundState) -> ConstantsReport:
    """Assemble the constants chain from the critical-mass state ``q`` of ``route_Q``.

    No solve or measurement runs here: ``q`` is an exact amplitude and
    dilation rescaling of the quotient optimizer, and W_p is invariant under
    both, so C = 1/W_p(q.nt); the optimizer's mass at grad = bilap = 1 is
    v_mass = mass * bilap / grad^2 of q.nt.
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
        provenance={
            "C": "numeric (quotient minimization)",
            "K": "formula (from c_eps)",
            "c_eps": "formula (from numeric C)",
            "eps_c": "formula (inverse at c = c_eps)",
            "omega_eps": "formula (from numeric v_mass)",
            "v_mass": "numeric (optimizer mass)",
        },
    )
