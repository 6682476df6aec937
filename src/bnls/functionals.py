"""Scalar functionals as pure algebra over a NormTuple.

One measurement per field (grid.norms: Parseval sums for the quadratic norms
and a quadrature for lp), or exact scaling laws for a rescaled field
(scalings), and everything here is exact arithmetic on the four scalars, which is what makes the scaling-law tests
sharp.  Residual-style quantities come with a relative normalization helper
since all identities involved are homogeneous.  The quotients and the Hölder
slack also take a NormTuple of per-field arrays, as the GN sampler measures a
block of fields at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DegenerateQuotientError, PreconditionError, RegimeError
from .grid import NormTuple

# Exponents this close to the window edges make the optimizer-rescaling
# parameters blow up; reject them outright.
REGIME_MARGIN = 1e-9


def sobolev_critical(n: int) -> float:
    """H^2-critical exponent: 2N/(N-4) for N >= 5, infinity below."""
    return 2.0 * n / (n - 4.0) if n >= 5 else math.inf


@dataclass(frozen=True)
class Params:
    """Problem quadruple (N, p, eps) plus the optional omega / mass constraint.

    bigN is the dimension entering the exponent algebra; it must equal the
    grid dimension whenever a Field is involved.  The mass-competition window
    2 + 4/N < p < 2 + 8/N is enforced on construction; ``relaxed=True`` keeps
    only 2 < p < 2* (and allows eps = 0) for the second-order oracle runs.
    """

    bigN: int
    p: float
    eps: float
    omega: float | None = None
    mass_c: float | None = None
    relaxed: bool = False

    def __post_init__(self):
        n = self.bigN
        if not isinstance(n, int) or n < 1:
            raise RegimeError(f"bigN must be an integer >= 1, got {n}")
        if not (self.p > 2 and math.isfinite(self.p)):
            raise RegimeError(f"p must exceed 2, got {self.p}")
        for name in ("eps", "omega", "mass_c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise RegimeError(f"{name} must be finite, got {value}")
        if self.p >= sobolev_critical(n):
            raise RegimeError(f"p = {self.p} is not below the critical exponent for N = {n}")
        if self.relaxed:
            if self.eps < 0:
                raise RegimeError(f"eps must be nonnegative, got {self.eps}")
        else:
            if not self.eps > 0:
                raise RegimeError(f"eps must be positive, got {self.eps}")
            lo, hi = self.mass_window()
            if self.p < lo + REGIME_MARGIN or self.p > hi - REGIME_MARGIN:
                raise RegimeError(
                    f"p = {self.p} outside the mass-competition window "
                    f"({lo}, {hi}) for N = {n} (margin {REGIME_MARGIN})"
                )
        if self.mass_c is not None and not self.mass_c > 0:
            raise RegimeError(f"mass_c must be positive, got {self.mass_c}")

    def mass_window(self) -> tuple:
        return 2.0 + 4.0 / self.bigN, 2.0 + 8.0 / self.bigN

    def exponents(self) -> "ExponentPack":
        return ExponentPack.from_problem(self.bigN, self.p)

    def require_omega(self) -> float:
        if self.omega is None:
            raise ConfigurationError("this functional needs omega; none was provided")
        return self.omega

    def require_mass(self) -> float:
        if self.mass_c is None:
            raise ConfigurationError("this operation needs the mass constraint c")
        return self.mass_c

    def with_omega(self, omega: float) -> "Params":
        return replace(self, omega=float(omega))

    def with_mass(self, c: float) -> "Params":
        return replace(self, mass_c=float(c))


@dataclass(frozen=True)
class ExponentPack:
    """alpha = (N(p-2)-4)/2 and beta = (8-N(p-2))/2; alpha + beta = 2."""

    alpha: float
    beta: float

    @classmethod
    def from_problem(cls, n: int, p: float) -> "ExponentPack":
        alpha = (n * (p - 2.0) - 4.0) / 2.0
        beta = (8.0 - n * (p - 2.0)) / 2.0
        if alpha <= 0 or beta <= 0:
            raise RegimeError(
                f"exponent pair (alpha, beta) = ({alpha}, {beta}) leaves the "
                f"mass-competition regime for N = {n}, p = {p}"
            )
        return cls(alpha=alpha, beta=beta)


def _check_p(nt: NormTuple, params: Params):
    if abs(nt.p - params.p) > 1e-12:
        raise PreconditionError(f"NormTuple was computed at p = {nt.p}, params have p = {params.p}")


def energy(nt: NormTuple, params: Params) -> float:
    """(eps/2)*bilap + (1/2)*grad - (1/p)*lp."""
    _check_p(nt, params)
    return 0.5 * params.eps * nt.bilap + 0.5 * nt.grad - nt.lp / params.p


def action(nt: NormTuple, params: Params) -> float:
    """energy + (omega/2)*mass."""
    return energy(nt, params) + 0.5 * params.require_omega() * nt.mass


def nehari_residual(nt: NormTuple, params: Params) -> float:
    """eps*bilap + grad + omega*mass - lp; zero on the constraint manifold."""
    _check_p(nt, params)
    return params.eps * nt.bilap + nt.grad + params.require_omega() * nt.mass - nt.lp


def pohozaev(nt: NormTuple, params: Params) -> float:
    """Dilation identity combination; zero at solutions of the stationary equation."""
    _check_p(nt, params)
    n = params.bigN
    omega = params.require_omega()
    return (
        params.eps * (n - 4.0) / 2.0 * nt.bilap
        + (n - 2.0) / 2.0 * nt.grad
        + omega * n / 2.0 * nt.mass
        - n / params.p * nt.lp
    )


def quadratic_scale(nt: NormTuple, params: Params) -> float:
    """Natural positive scale eps*bilap + grad + |omega|*mass for relative residuals."""
    omega = params.omega if params.omega is not None else 0.0
    return params.eps * nt.bilap + nt.grad + abs(omega) * nt.mass


def weinstein(nt: NormTuple, params: Params) -> float:
    """Scale-invariant quotient whose infimum is the reciprocal best constant.

    W_p = bilap^(alpha/2) * grad^(beta/2) * mass^((p-2)/2) / lp.  The norms may
    be per-field arrays; one vanishing lp among them raises.
    """
    _check_p(nt, params)
    if np.any(nt.lp <= 0):
        raise DegenerateQuotientError("weinstein quotient undefined: ||u||_p vanishes")
    ep = params.exponents()
    return (
        nt.bilap ** (ep.alpha / 2.0)
        * nt.grad ** (ep.beta / 2.0)
        * nt.mass ** ((params.p - 2.0) / 2.0)
        / nt.lp
    )


def gn_k_quotient(nt: NormTuple, params: Params) -> float:
    """lp / (mass^((p-2)/2) * (eps*bilap + grad)); its supremum is the
    non-homogeneous interpolation constant.  The norms may be per-field
    arrays; one zero denominator among them raises."""
    _check_p(nt, params)
    denom = nt.mass ** ((params.p - 2.0) / 2.0) * (params.eps * nt.bilap + nt.grad)
    if np.any(denom <= 0):
        raise DegenerateQuotientError("interpolation quotient undefined: zero denominator")
    return nt.lp / denom


def energy_factored(nt: NormTuple, params: Params) -> tuple:
    """Energy written as (1/2) * Qd * B on the mass sphere ||u||_2^2 = c.

    Returns (Qd, B) with Qd = eps*bilap + grad and
    B = 1 - (2/p) * c^((p-2)/2) * gn_k_quotient; their halved product equals
    the energy whenever mass == c, which is a precondition.
    """
    c = params.require_mass()
    if abs(nt.mass - c) > 1e-10 * max(abs(c), abs(nt.mass)):
        raise PreconditionError(
            f"energy_factored needs mass == c; mass = {nt.mass}, c = {c}"
        )
    qd = params.eps * nt.bilap + nt.grad
    bracket = 1.0 - (2.0 / params.p) * c ** ((params.p - 2.0) / 2.0) * gn_k_quotient(nt, params)
    return qd, bracket


def holder_chain_gap(nt: NormTuple, params: Params, q_low_int: float, q_high_int: float) -> float:
    """Relative slack of lp <= (int |u|^(2+4/N))^theta * (int |u|^(2+8/N))^(1-theta).

    The two auxiliary integrals are supplied by the caller (one extra
    quadrature pass each); theta interpolates the exponents.  Nonnegative
    return means the inequality holds, and a vanishing bound gives 0.  The
    norms and integrals may be per-field arrays, and the slack is then one.
    """
    _check_p(nt, params)
    n = params.bigN
    theta = ((2.0 + 8.0 / n) - params.p) / (4.0 / n)
    if not (0.0 < theta < 1.0):
        raise RegimeError(f"interpolation weight theta = {theta} outside (0, 1)")
    bound = np.asarray(q_low_int**theta * q_high_int ** (1.0 - theta))
    gap = np.divide(bound - nt.lp, bound, out=np.zeros_like(bound), where=bound > 0)
    return gap if gap.ndim else float(gap)
