"""Changes of variables: exact NormTuple laws and their Field realizations.

Field-level rescaling is grid reinterpretation (change box_length, keep
samples), which transforms the norms exactly; nothing is ever interpolated
here, and a rescaled field's norms come from those laws, not from measuring
it again.  When two fields must live on one grid afterwards, use grid.regrid.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, PreconditionError, RegimeError
from .grid import BoxGrid, Field, NormTuple, quadratic_norms
from .functionals import Params


def mass_preserving_scale_laws(nt: NormTuple, t: float, params: Params) -> NormTuple:
    """u(x) -> t^(N/2) u(t x): mass fixed, grad *= t^2, bilap *= t^4,
    lp *= t^(N(p-2)/2)."""
    if not t > 0:
        raise ValueError(f"scaling parameter must be positive, got {t}")
    n = params.bigN
    return replace(
        nt,
        grad=t**2 * nt.grad,
        bilap=t**4 * nt.bilap,
        lp=t ** (n * (params.p - 2.0) / 2.0) * nt.lp,
    )


def fiber_scale_laws(nt: NormTuple, t: float, params: Params) -> NormTuple:
    """u(x) -> t^N u(t x): mass *= t^N, grad *= t^(N+2), bilap *= t^(N+4),
    lp *= t^(N(p-1))."""
    if not t > 0:
        raise ValueError(f"scaling parameter must be positive, got {t}")
    n = params.bigN
    return replace(
        nt,
        mass=t**n * nt.mass,
        grad=t ** (n + 2) * nt.grad,
        bilap=t ** (n + 4) * nt.bilap,
        lp=t ** (n * (params.p - 1.0)) * nt.lp,
    )


def resample(u: Field, mu: float) -> Field:
    """Realize x -> mu*x by shrinking the box: same samples on box L/mu.

    This reinterprets the grid rather than interpolating, so the norm laws
    of :func:`rescale_laws` (with amplitude 1) hold exactly.
    """
    if not mu > 0:
        raise ValueError(f"resample factor must be positive, got {mu}")
    g = u.grid
    new_grid = BoxGrid(dim=g.dim, points_per_axis=g.points_per_axis, box_length=g.box_length / mu)
    return Field(new_grid, u.samples)


def rescale_laws(nt: NormTuple, amp: float, mu: float, dim: int) -> NormTuple:
    """Norms of amp * u(mu x) in dimension dim, as :func:`resample` realizes it:
    mass *= amp^2 mu^-d, grad *= amp^2 mu^(2-d), bilap *= amp^2 mu^(4-d),
    lp *= amp^p mu^-d."""
    a2 = amp * amp
    return replace(
        nt,
        mass=a2 * mu**-dim * nt.mass,
        grad=a2 * mu ** (2 - dim) * nt.grad,
        bilap=a2 * mu ** (4 - dim) * nt.bilap,
        lp=abs(amp) ** nt.p * mu**-dim * nt.lp,
    )


def _unit_scales(grad: float, bilap: float, dim: int) -> tuple:
    """(L1, L2) with L1 * u(L2 x) at grad = bilap = 1, for u with these norms."""
    if grad <= 0 or bilap <= 0:
        raise PreconditionError("cannot normalize a field with vanishing derivative norms")
    lam1 = grad ** ((dim - 4) / 4.0) / bilap ** ((dim - 2) / 4.0)
    return lam1, math.sqrt(grad / bilap)


def lambda_normalize(v: Field) -> Field:
    """Rescale amplitude and space so grad = bilap = 1.

    w(x) = L1 * v(L2 x) with L1 = grad^((N-4)/4) / bilap^((N-2)/4) and
    L2 = sqrt(grad / bilap); leaves the Weinstein quotient unchanged.
    """
    _, grad, bilap = quadratic_norms(v)
    lam1, lam2 = _unit_scales(grad, bilap, v.grid.dim)
    out = resample(v, lam2)
    return Field(out.grid, lam1 * out.samples)


def omega_formula(v_mass: float, params: Params) -> float:
    """(p-2) alpha / (beta^2 eps v_mass): the frequency of the critical-mass state built
    from a quotient optimizer of mass ``v_mass`` at grad = bilap = 1 (:func:`construct_Q`).

    The quotient route has no eps = 0 form, so eps = 0, which ``relaxed``
    admits, is refused here, before anything divides by it.
    """
    if not (math.isfinite(v_mass) and v_mass > 0):
        raise RegimeError(f"v_mass must be positive finite, got {v_mass}")
    if not params.eps > 0:
        raise ConfigurationError(f"the quotient route needs eps > 0, got eps = {params.eps}")
    ep = params.exponents()
    return (params.p - 2.0) * ep.alpha / (ep.beta**2 * params.eps * v_mass)


def construct_Q(u: Field, nt: NormTuple, params: Params) -> tuple:
    """Scale a quotient optimizer u with norms nt into a solution of the stationary PDE.

    With v = lambda_normalize(u), Q(x) = lam * v(mu x) for mu = sqrt(alpha/(beta*eps))
    and lam = (p*alpha / (beta^2*eps*lp(v)))^(1/(p-2)), built as one amplitude
    and box rescale of u.  Returns (Q, norms of Q, omega), the norms by
    :func:`rescale_laws` and omega = :func:`omega_formula` of mass(v) the
    frequency Q solves at.
    """
    if not (nt.mass > 0 and nt.lp > 0):
        raise PreconditionError(f"construct_Q needs positive mass and lp; got {nt}")
    n = u.grid.dim
    lam1, lam2 = _unit_scales(nt.grad, nt.bilap, n)
    nt_v = rescale_laws(nt, lam1, lam2, n)
    ep = params.exponents()
    eps = params.eps
    mu = math.sqrt(ep.alpha / (ep.beta * eps))
    lam = (params.p * ep.alpha / (ep.beta**2 * eps * nt_v.lp)) ** (1.0 / (params.p - 2.0))
    omega = omega_formula(nt_v.mass, params)
    amp, dilation = lam * lam1, mu * lam2
    scaled = resample(u, dilation)
    return Field(scaled.grid, amp * scaled.samples), rescale_laws(nt, amp, dilation, n), omega


def t_eps(nt: NormTuple, params: Params) -> float:
    """Unique critical point of the mass-preserving energy profile h.

    t = [(alpha/p) * lp / (eps * bilap)]^(1/beta), evaluated in log space;
    equals 1 exactly at a zero-energy state.
    """
    if nt.bilap <= 0 or nt.lp <= 0:
        raise PreconditionError("t_eps needs positive bilap and lp")
    ep = params.exponents()
    log_t = (
        math.log(ep.alpha / params.p)
        + math.log(nt.lp)
        - math.log(params.eps)
        - math.log(nt.bilap)
    ) / ep.beta
    return math.exp(log_t)


def h_profile(nt: NormTuple, params: Params, t_list) -> list:
    """Energy along the mass-preserving fiber divided by t^2, sampled at t_list.

    h(t) = eps*t^2/2 * bilap + grad/2 - t^alpha/p * lp, whose unique interior
    critical point is :func:`t_eps`.
    """
    ep = params.exponents()
    out = []
    for t in t_list:
        if not t > 0:
            raise ValueError(f"profile parameter must be positive, got {t}")
        h = (
            params.eps * t**2 / 2.0 * nt.bilap
            + nt.grad / 2.0
            - t**ep.alpha / params.p * nt.lp
        )
        out.append((float(t), float(h)))
    return out


def g_functions(t: float, n: int, p: float) -> tuple:
    """The three fiber-gap polynomials; each is >= 0 on (0, inf), zero only at t = 1.

    g1 = 2 - (N+4) t^(N+2) + (N+2) t^(N+4)
    g2 = 4 - (N+4) t^N     + N     t^(N+4)
    g3 = N(p-2) - 4 - N(p-1) t^(N+4) + (N+4) t^(N(p-1))
    """
    if not t > 0:
        raise ValueError(f"g functions are defined for t > 0, got {t}")
    g1 = 2.0 - (n + 4.0) * t ** (n + 2) + (n + 2.0) * t ** (n + 4)
    g2 = 4.0 - (n + 4.0) * t**n + n * t ** (n + 4)
    g3 = n * (p - 2.0) - 4.0 - n * (p - 1.0) * t ** (n + 4) + (n + 4.0) * t ** (n * (p - 1.0))
    return g1, g2, g3


def action_gap_decomposition(nt: NormTuple, params: Params, t: float) -> tuple:
    """The three nonnegative terms whose sum is I(u) - I(u^t) at a solution.

    (g1 * grad, g2 * omega * mass) / (2(N+4)) and g3 * lp / (p(N+4)); valid
    when nt satisfies both the Nehari and the dilation identity.
    """
    n = params.bigN
    omega = params.require_omega()
    g1, g2, g3 = g_functions(t, n, params.p)
    return (
        g1 * nt.grad / (2.0 * (n + 4.0)),
        g2 * omega * nt.mass / (2.0 * (n + 4.0)),
        g3 * nt.lp / (params.p * (n + 4.0)),
    )


def fiber_t_grid(lo: float = 0.25, hi: float = 4.0, count: int = 33) -> np.ndarray:
    """Logarithmic grid of fiber parameters containing t = 1 exactly."""
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), count))
    grid[np.argmin(np.abs(grid - 1.0))] = 1.0
    return grid
