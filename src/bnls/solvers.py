"""Iterative routes to ground states.

Three routes:

* ``petviashvili`` solves the stationary PDE at fixed omega > 0 with the
  classic stabilized fixed point u <- S^gamma * L^-1 N(u).
* ``route_Q`` locates the optimizer of the scale-invariant quotient by
  shooting on the frequency: the fixed-omega ground state is the optimizer
  exactly when its norms satisfy grad = (beta/alpha) * eps * bilap, and that
  mismatch is a smooth, monotone, scale-free function of omega.  A bracketed
  secant iteration drives it to zero, warm-starting each inner solve from the
  previous one.  The inner solves are inexact: each runs only to
  INNER_FORCING times the last Euler-Lagrange residual (an inexact-Newton
  forcing rule), and once that residual meets the tolerance the last inner
  solve is polished at its omega to the tight inner floor and the residual
  checked again.  Exact rescalings of the converged state give the unit-norm
  optimizer and the critical-mass state, from which a pipeline derives all
  its constants.  (Per-sweep renormalized Euler-Lagrange sweeps were tried
  first and rejected: the renormalization shrinks the box until the tails
  wrap, which feeds a slow width instability.)
* ``mass_constrained_flow`` descends the energy on the fixed-mass sphere with
  a preconditioned, multiplier-shifted projected gradient; its fixed points
  are exact critical points and every accepted step is non-increasing in
  energy.

The inner loops carry the iterate as its (real-to-complex) spectrum.  This is
deliberate: materializing the field every sweep re-quantizes the tiny
high-|k| coefficients, and the |k|^4 symbol then amplifies that noise into a
residual floor around 1e-10 at default resolution.  Kept spectral, the
residual bottoms out near 1e-14.  Reported residuals are measured at the
final spectral state, right before the field is materialized; recomputing
them from the stored samples adds back the amplified quantization noise,
which is harmless at verification tolerances.

Each run owns its state and is single-threaded; everything is deterministic
given (seed, config, grid).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    VanishingError,
)
from .functionals import Params
from .grid import (
    BoxGrid,
    Field,
    NormTuple,
    _spectral_tables,
    bilaplacian,
    boundary_amplitude_ratio,
    laplacian,
    norms,
    spectral_tail_ratio,
)
from .scalings import construct_Q, lambda_normalize

INIT_MODES = ("gaussian_bump", "stored_field", "random_bandlimited")

# Iterations without a new best residual before a run is declared stalled.
STALL_WINDOW = 60
# Residual growth after this many iterations is only a warning, not an error.
BURN_IN = 10
# Inexact frequency shooting: an inner solve runs to INNER_FORCING times the
# last Euler-Lagrange residual; the first one, with no such residual yet, runs
# to FIRST_INNER_TOL.
INNER_FORCING = 1e-2
FIRST_INNER_TOL = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    tol_residual: float = 1e-10
    relaxation: float = 1.0
    seed: int = 0
    init: str = "gaussian_bump"
    init_field: Field | None = None
    filter: bool = False
    petviashvili_gamma: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol_residual > 0:
            raise ConfigurationError(f"tol_residual must be positive, got {self.tol_residual}")
        if not 0.0 < self.relaxation <= 1.0:
            raise ConfigurationError(f"relaxation must lie in (0, 1], got {self.relaxation}")
        if self.init not in INIT_MODES:
            raise ConfigurationError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        if self.init == "stored_field" and self.init_field is None:
            raise ConfigurationError("init = 'stored_field' needs init_field")

    def config_hash(self) -> str:
        blob = {
            "max_iters": self.max_iters,
            "tol_residual": self.tol_residual,
            "relaxation": self.relaxation,
            "seed": self.seed,
            "init": self.init,
            "filter": self.filter,
            "petviashvili_gamma": self.petviashvili_gamma,
        }
        return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class GroundState:
    field: Field
    params: Params
    nt: NormTuple
    omega_extracted: float
    residual_pde: float
    iters: int
    route: str
    warnings: tuple = ()

    def sidecar(self, config: SolverConfig | None = None) -> dict:
        doc = {
            "params": {
                "bigN": self.params.bigN,
                "p": self.params.p,
                "eps": self.params.eps,
                "omega": self.params.omega,
                "mass_c": self.params.mass_c,
                "relaxed": self.params.relaxed,
            },
            "route": self.route,
            "iters": self.iters,
            "residual_pde": self.residual_pde,
            "omega_extracted": self.omega_extracted,
            "norms": self.nt.as_dict(),
            "warnings": list(self.warnings),
        }
        if config is not None:
            doc["config_hash"] = config.config_hash()
        return doc


# ---------------------------------------------------------------------------
# initial guesses


def gaussian_bump(grid: BoxGrid, width: float | None = None, amplitude: float = 1.0) -> Field:
    """Centered Gaussian bump; the default initial guess (width L/10)."""
    width = grid.box_length / 10.0 if width is None else width
    r2 = np.zeros(grid.shape)
    for x in grid.coordinates():
        r2 += x * x
    return Field(grid, amplitude * np.exp(-r2 / (2.0 * width**2)))


def random_bandlimited(
    grid: BoxGrid, seed: int, modes: int = 20, width_frac: float = 0.125
) -> Field:
    """Seed-deterministic random field: low-pass noise under a Gaussian envelope.

    The cutoff is ``modes`` fundamental wavenumbers, so the band is the same
    physical one at any resolution, and the envelope keeps the sample
    localized well inside the box.  Peak amplitude is normalized to 1.
    """
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(grid.shape)
    spec = np.fft.rfftn(white)
    k2, _ = _spectral_tables(grid)
    kc = modes * 2.0 * np.pi / grid.box_length
    spec *= np.exp(-k2 / (kc * kc))
    smooth = np.fft.irfftn(spec, s=grid.shape, axes=range(grid.dim))
    r2 = np.zeros(grid.shape)
    for x in grid.coordinates():
        r2 += x * x
    sigma = width_frac * grid.box_length
    samples = smooth * np.exp(-r2 / (2.0 * sigma**2))
    peak = np.max(np.abs(samples))
    if peak > 0:
        samples = samples / peak
    return Field(grid, samples)


def initial_field(grid: BoxGrid, config: SolverConfig) -> Field:
    if config.init == "gaussian_bump":
        return gaussian_bump(grid)
    if config.init == "random_bandlimited":
        return random_bandlimited(grid, config.seed)
    field = config.init_field
    if field.grid != grid:
        raise ConfigurationError("stored initial field lives on a different grid")
    return field


# ---------------------------------------------------------------------------
# physical-field diagnostics (also used on loaded states)


def _l2(u: Field) -> float:
    return math.sqrt(u.grid.cell_volume * float(np.sum(u.samples**2)))


def pde_residual(u: Field, params: Params, omega: float) -> float:
    """||eps*lap^2 u - lap u + omega u - |u|^(p-2)u||_2 / |||u|^(p-2)u||_2."""
    nl = np.abs(u.samples) ** (params.p - 2.0) * u.samples
    lin = params.eps * bilaplacian(u).samples - laplacian(u).samples + omega * u.samples
    denom = _l2(Field(u.grid, nl))
    if denom == 0.0:
        return math.inf
    return _l2(Field(u.grid, lin - nl)) / denom


def extract_omega(nt: NormTuple, params: Params) -> float:
    """Lagrange multiplier read off the Nehari identity: (lp - eps*bilap - grad)/mass."""
    if nt.mass <= 0:
        raise VanishingError("cannot extract a multiplier from the zero field")
    return (nt.lp - params.eps * nt.bilap - nt.grad) / nt.mass


def normalize_to_mass(u: Field, c: float) -> Field:
    m = u.grid.cell_volume * float(np.sum(u.samples**2))
    if m <= 0:
        raise VanishingError("cannot rescale the zero field onto a mass sphere")
    return Field(u.grid, math.sqrt(c / m) * u.samples)


# ---------------------------------------------------------------------------
# spectral iteration plumbing


class _SpectralIterate:
    """Iterate kept as an rfftn spectrum on a fixed grid.

    Built from a list of fields on one grid, ``spec`` gets a leading batch axis
    (drop rows by indexing it) and each norm is a (rows, 1, ...) array.
    """

    def __init__(self, fields):
        self.batched = not isinstance(fields, Field)
        self.grid = fields[0].grid if self.batched else fields.grid
        self._scale = self.grid.cell_volume / self.grid.size  # Parseval factor
        self.k2, self._weight = _spectral_tables(self.grid)
        self._axes = tuple(range(-self.grid.dim, 0))
        samples = np.stack([f.samples for f in fields]) if self.batched else fields.samples
        self.spec = np.fft.rfftn(samples, axes=self._axes)

    def physical(self) -> np.ndarray:
        return np.fft.irfftn(self.spec, s=self.grid.shape, axes=self._axes)

    def _sum(self, arr: np.ndarray):
        """Sum over the grid axes: a float, or per row an array that broadcasts on spec."""
        total = np.sum(arr, axis=self._axes, keepdims=self.batched)
        return total if self.batched else float(total)

    def spec_norm_sq(self, arr: np.ndarray):
        """Parseval ||.||_2^2 of a spectrum on the grid."""
        return self._scale * self._sum(self._weight * (arr.real**2 + arr.imag**2))

    def quadratic_norms(self, spec: np.ndarray | None = None) -> tuple:
        """(mass, grad, bilap) of the iterate, or of another spectrum on the grid."""
        spec = self.spec if spec is None else spec
        power = self._weight * (spec.real**2 + spec.imag**2)
        mass = self._scale * self._sum(power)
        grad = self._scale * self._sum(self.k2 * power)
        bilap = self._scale * self._sum(self.k2 * self.k2 * power)
        return mass, grad, bilap

    def nonlinearity(self, p: float) -> tuple:
        """(lp, nl_spec) = (||u||_p^p, rfftn(|u|^(p-2) u)) from one irfftn.

        A lone iterate sums |u|^p for lp, which keeps solves bit-identical to
        their stored references; a batch sums nl * u and saves that pass.
        """
        u = self.physical()
        nl = np.abs(u) ** (p - 2.0) * u
        lp = self.grid.cell_volume * self._sum(nl * u if self.batched else np.abs(u) ** p)
        return lp, np.fft.rfftn(nl, axes=self._axes)

    def field(self) -> Field:
        return Field(self.grid, self.physical())


def _filter_mask(state: _SpectralIterate) -> np.ndarray:
    cutoff = (2.0 / 3.0) * np.pi * state.grid.points_per_axis / state.grid.box_length
    return (state.k2 <= cutoff * cutoff).astype(np.float64)


class _Progress:
    """Best-residual tracking with stall detection and a monotonicity note."""

    def __init__(self, label: str, config: SolverConfig, tol: float):
        self.label = label
        self.tol = tol
        self.config = config
        self.history = []
        self.best = math.inf
        self.best_iter = 0
        self.non_monotone = False

    def update(self, it: int, res: float):
        self.history.append(res)
        if not math.isfinite(res):
            raise DivergenceError(
                f"{self.label}: residual became non-finite at iteration {it}",
                last_residual=res,
                history=self.history,
            )
        if it > BURN_IN and res > 1.5 * self.best:
            self.non_monotone = True
        if res < self.best:
            self.best, self.best_iter = res, it
        elif it - self.best_iter > STALL_WINDOW:
            raise DivergenceError(
                f"{self.label}: residual stopped decreasing near {self.best:.3e} "
                f"(tolerance {self.tol:.1e})",
                last_residual=res,
                history=self.history,
            )

    def exhausted(self):
        raise DivergenceError(
            f"{self.label}: no convergence to {self.tol:.1e} "
            f"within {self.config.max_iters} iterations",
            last_residual=self.history[-1] if self.history else None,
            history=self.history,
        )

    def warnings(self) -> tuple:
        if self.non_monotone:
            return (f"{self.label}: residual history was not monotone after burn-in",)
        return ()


def _finish(
    u: Field,
    params: Params,
    iters: int,
    route: str,
    residual: float,
    extra_warnings: tuple = (),
) -> GroundState:
    nt = norms(u, params.p)
    omega_x = extract_omega(nt, params)
    warn = list(extra_warnings)
    ratio = boundary_amplitude_ratio(u)
    if ratio > 1e-8:
        warn.append(f"boundary amplitude is {ratio:.2e} of the peak; box may be too small")
    tail = spectral_tail_ratio(u)
    if tail > 1e-8:
        warn.append(f"spectral tail is {tail:.2e} of the peak; grid may under-resolve the state")
    return GroundState(
        field=u,
        params=params,
        nt=nt,
        omega_extracted=omega_x,
        residual_pde=residual,
        iters=iters,
        route=route,
        warnings=tuple(warn),
    )


def _require_field_grid(params: Params, grid: BoxGrid):
    if grid.dim != params.bigN:
        raise ConfigurationError(
            f"grid dim {grid.dim} must equal bigN {params.bigN} for a field solve"
        )


# ---------------------------------------------------------------------------
# fixed-frequency stabilized fixed point


def petviashvili(
    params: Params, grid: BoxGrid, config: SolverConfig, residual_trace: list | None = None
) -> GroundState:
    """Stabilized fixed point for the stationary PDE at fixed omega > 0.

    Pass a list as ``residual_trace`` to record the residual history.
    """
    state, res, iters, warn, _sweep = _petviashvili_state(
        params, grid, config, residual_trace=residual_trace
    )
    return _finish(state.field(), params, iters, "petviashvili", res, warn)


def _petviashvili_state(
    params: Params,
    grid: BoxGrid,
    config: SolverConfig,
    warm: _SpectralIterate | None = None,
    tol: float | None = None,
    residual_trace: list | None = None,
) -> tuple:
    """Returns (state, residual, iterations, warnings, sweep).

    ``sweep`` = ((mass, grad, bilap), lp, nl_spec) is what the last sweep
    computed for the returned state (``nl_spec`` unfiltered), so a caller
    measuring that state needs no further transform.
    """
    omega = params.require_omega()
    if not omega > 0:
        raise ConfigurationError(f"petviashvili needs omega > 0, got {omega}")
    _require_field_grid(params, grid)
    tol = config.tol_residual if tol is None else tol
    p = params.p
    gamma = config.petviashvili_gamma
    if gamma is None:
        gamma = (p - 1.0) / (p - 2.0)
    state = warm if warm is not None else _SpectralIterate(initial_field(grid, config))
    k2 = state.k2
    symbol = params.eps * k2 * k2 + k2 + omega
    mass0 = state.quadratic_norms()[0]
    progress = _Progress("petviashvili", config, tol)
    for it in range(1, config.max_iters + 1):
        mass, grad, bilap = state.quadratic_norms()
        if not math.isfinite(mass) or mass > 1e24 * max(mass0, 1.0):
            raise DivergenceError(
                "petviashvili iterate blew up",
                last_residual=progress.history[-1] if progress.history else None,
                history=progress.history,
            )
        if mass < 1e-24 * mass0:
            raise VanishingError("iterate collapsed to zero")
        lp, raw_nl = state.nonlinearity(p)
        if lp <= 0:
            raise VanishingError("nonlinearity vanished; iterate collapsed")
        nl_spec = raw_nl * _filter_mask(state) if config.filter else raw_nl
        res = math.sqrt(
            state.spec_norm_sq(symbol * state.spec - nl_spec) / state.spec_norm_sq(nl_spec)
        )
        progress.update(it, res)
        if residual_trace is not None:
            residual_trace.append(res)
        if res <= tol:
            return state, res, it, progress.warnings(), ((mass, grad, bilap), lp, raw_nl)
        stabilizer = (params.eps * bilap + grad + omega * mass) / lp
        new_spec = stabilizer**gamma * (nl_spec / symbol)
        if config.relaxation < 1.0:
            new_spec = (1.0 - config.relaxation) * state.spec + config.relaxation * new_spec
        state.spec = new_spec
    progress.exhausted()


# ---------------------------------------------------------------------------
# quotient optimizer by frequency shooting


def _el_residual_spectral(state: _SpectralIterate, params: Params, sweep: tuple) -> float:
    """Relative residual of the self-normalized Euler-Lagrange equation.

    (alpha/bilap) lap^2 u - (beta/grad) lap u + ((p-2)/mass) u = (p/lp) |u|^(p-2) u
    is exactly invariant under amplitude/box rescaling, so this equals the
    residual of the unit-normalized optimizer candidate.  ``sweep`` is what
    the inner solve computed for ``state`` (see ``_petviashvili_state``).
    """
    ep = params.exponents()
    p = params.p
    (mass, grad, bilap), lp, nl_spec = sweep
    if lp <= 0 or grad <= 0 or bilap <= 0:
        raise VanishingError("degenerate iterate in quotient residual")
    k2 = state.k2
    symbol = (ep.alpha / bilap) * k2 * k2 + (ep.beta / grad) * k2 + (p - 2.0) / mass
    rhs = (p / lp) * nl_spec
    return math.sqrt(state.spec_norm_sq(symbol * state.spec - rhs) / state.spec_norm_sq(rhs))


def _weinstein_state(params: Params, grid: BoxGrid, config: SolverConfig) -> tuple:
    """Shoot on omega until the fixed-omega ground state is the optimizer.

    Returns (state, residual, total inner iterations); the state is the
    converged fixed-omega solution whose exact rescalings are the optimizer
    and the constructed critical-mass state.

    The inner solves are inexact (Eisenstat-Walker forcing): each runs only to
    ``max(inner_floor, INNER_FORCING * el)``, with ``el`` the last
    Euler-Lagrange residual (the first solve, before any, runs to
    ``FIRST_INNER_TOL``): all but the last only supply a mismatch sign or a
    secant point.  Once the EL residual meets the tolerance, the last inner
    solve is polished at the same omega down to ``inner_floor`` and the EL
    residual is checked again, so the returned state is converged as tightly
    as a sequence of exact solves would leave it.
    """
    _require_field_grid(params, grid)
    ep = params.exponents()
    inner_floor = min(1e-12, 0.1 * config.tol_residual)
    total = 0
    state = omega_at = inner_res = el = None

    def solve(omega, inner_tol=None):
        """Inner solve at omega, by default forced by ``el``; sets ``el``, returns the mismatch."""
        nonlocal total, state, omega_at, inner_res, el
        if inner_tol is None:
            inner_tol = max(inner_floor, INNER_FORCING * el)
        state, inner_res, its, _warn, sweep = _petviashvili_state(
            params.with_omega(omega), grid, config, warm=state, tol=inner_tol
        )
        total += its
        omega_at = omega
        el = _el_residual_spectral(state, params, sweep)
        _mass, g, b = sweep[0]
        return ep.beta * params.eps * b / (ep.alpha * g) - 1.0

    # The mismatch is scale-free and increasing in omega; bracket a sign change
    # starting from the frequency the optimizer would have at unit mass.
    omega0 = (params.p - 2.0) * ep.alpha / (ep.beta**2 * params.eps)
    lo = hi = omega0
    f_lo = f_hi = solve(omega0, FIRST_INNER_TOL)
    for _ in range(80):
        if f_lo < 0 < f_hi or f_lo > 0 > f_hi or f_lo == 0 or f_hi == 0:
            break
        if f_hi < 0:
            hi *= 2.0
            f_hi = solve(hi)
        else:
            lo *= 0.5
            f_lo = solve(lo)
    else:
        raise DivergenceError(
            "could not bracket the optimizer frequency", last_residual=f_hi
        )
    if f_lo > 0 > f_hi:
        lo, hi, f_lo, f_hi = hi, lo, f_hi, f_lo

    # Illinois-damped regula falsi on the bracketed, monotone mismatch; stop
    # on the actual Euler-Lagrange residual of the inner state.  That residual
    # bottoms out at the larger of the box-truncation and the resolution
    # error, so a stall names whichever of the two ratios is larger.
    el_history = [el]
    best = el
    stale = 0
    last_side = 0
    for _ in range(120):
        if el <= config.tol_residual:
            if inner_res <= inner_floor:
                return state, el, total
            solve(omega_at, inner_floor)  # the polish
            el_history.append(el)
            continue
        denom = f_hi - f_lo
        w = 0.5 * (lo + hi) if denom == 0 else hi - f_hi * (hi - lo) / denom
        if not (min(lo, hi) < w < max(lo, hi)):
            w = 0.5 * (lo + hi)
        f_w = solve(w)
        if (f_w < 0) == (f_lo < 0):
            if last_side == -1:
                f_hi *= 0.5
            lo, f_lo = w, f_w
            last_side = -1
        elif f_w != 0.0:
            if last_side == +1:
                f_lo *= 0.5
            hi, f_hi = w, f_w
            last_side = +1
        el_history.append(el)
        if el < 0.5 * best:
            best, stale = el, 0
        else:
            stale += 1
            if stale > 12:
                break
    u = state.field()
    boundary = boundary_amplitude_ratio(u)
    tail = spectral_tail_ratio(u)
    if tail > boundary:
        cause = "the grid may under-resolve the state (use more points)"
    else:
        cause = "the box may be too small for these parameters (enlarge it)"
    raise DivergenceError(
        f"frequency shooting stalled at residual {best:.3e} "
        f"(tolerance {config.tol_residual:.1e}); boundary amplitude ratio is "
        f"{boundary:.2e} and spectral tail ratio is {tail:.2e}, so {cause}",
        last_residual=el,
        history=el_history,
    )


def route_Q(params: Params, grid: BoxGrid, config: SolverConfig) -> GroundState:
    """Optimizer solve, unit normalization, then the constructive rescale.

    The state solves the stationary PDE at the frequency fixed by the
    optimizer's mass, and its own mass is the critical one.  All three steps
    after the solve are exact rescalings, so the solver-state residual is the
    returned state's residual.  A pipeline solves once here and derives the
    rest: ``compute_constants`` and the ``K_numeric`` seed take the result.
    """
    state, res, iters = _weinstein_state(params, grid, config)
    v = lambda_normalize(state.field())
    q_field, omega = construct_Q(v, params)
    if not (math.isfinite(omega) and omega > 0):
        raise DivergenceError(f"constructed frequency {omega} is not positive", last_residual=res)
    return _finish(q_field, params, iters, "weinstein_Q", res)


# ---------------------------------------------------------------------------
# normalized energy descent on the mass sphere


def mass_constrained_flow(
    params: Params, grid: BoxGrid, config: SolverConfig, energy_trace: list | None = None
) -> GroundState:
    """Projected, preconditioned energy descent on the sphere ||u||_2^2 = c.

    The step direction is P^-1 (E'(u) + omega_k u) with omega_k the Nehari
    multiplier estimate (so fixed points solve the stationary PDE exactly) and
    P the positive operator eps*lap^2 - lap + sigma.  A backtracking line
    search keeps the measured energy non-increasing at every accepted step;
    pass a list as ``energy_trace`` to record the accepted energy values.

    For masses below the critical one the constrained infimum is not attained
    and the iterate spreads toward the box boundary; that is detected via the
    boundary-amplitude ratio and reported as a no-minimizer outcome (a warning
    on the returned state), not as an error.
    """
    c = params.require_mass()
    _require_field_grid(params, grid)
    p = params.p
    state = _SpectralIterate(normalize_to_mass(initial_field(grid, config), c))
    k2 = state.k2
    vol = grid.cell_volume

    def energy_parts(spec, phys):
        _, grad, bilap = state.quadratic_norms(spec)
        return grad, bilap, vol * float(np.sum(np.abs(phys) ** p))

    u_phys = state.physical()
    grad, bilap, lp = energy_parts(state.spec, u_phys)
    e_now = 0.5 * params.eps * bilap + 0.5 * grad - lp / p
    if energy_trace is not None:
        energy_trace.append(e_now)
    tau = 1.0
    progress = _Progress("mass flow", config, config.tol_residual)
    for it in range(1, config.max_iters + 1):
        omega_k = (lp - params.eps * bilap - grad) / c
        nl_spec = np.fft.rfftn(np.abs(u_phys) ** (p - 2.0) * u_phys)
        if config.filter:
            nl_spec *= _filter_mask(state)
        r_spec = (params.eps * k2 * k2 + k2 + omega_k) * state.spec - nl_spec
        scale_q = params.eps * bilap + grad + abs(omega_k) * c
        rel = math.sqrt(state.spec_norm_sq(r_spec) * c) / scale_q
        progress.update(it, rel)
        if rel <= config.tol_residual:
            return _finish(state.field(), params, it, "mass_flow", rel, progress.warnings())
        d_spec = r_spec / (params.eps * k2 * k2 + k2 + max(omega_k, 1e-2))
        accepted = False
        for _ in range(60):
            trial = state.spec - tau * d_spec
            trial_phys = np.fft.irfftn(trial, s=state.grid.shape, axes=range(state.grid.dim))
            m_t = vol * float(np.sum(trial_phys**2))
            if m_t <= 0:
                tau *= 0.5
                continue
            amp = math.sqrt(c / m_t)
            trial = amp * trial
            trial_phys = amp * trial_phys
            t_grad, t_bilap, t_lp = energy_parts(trial, trial_phys)
            e_t = 0.5 * params.eps * t_bilap + 0.5 * t_grad - t_lp / p
            if e_t <= e_now:
                state.spec = trial
                u_phys = trial_phys
                grad, bilap, lp = t_grad, t_bilap, t_lp
                e_now = e_t
                if energy_trace is not None:
                    energy_trace.append(e_now)
                tau = min(tau * 1.25, 16.0)
                accepted = True
                break
            tau *= 0.5
        spread = boundary_amplitude_ratio(u_phys)
        if spread > 1e-2:
            return _finish(
                state.field(),
                params,
                it,
                "mass_flow",
                rel,
                progress.warnings()
                + (
                    "no-minimizer outcome: iterate is spreading toward the box "
                    f"boundary (boundary ratio {spread:.2e}); the constrained "
                    "infimum appears not to be attained at this mass",
                ),
            )
        if not accepted:
            return _finish(
                state.field(),
                params,
                it,
                "mass_flow",
                rel,
                progress.warnings()
                + (
                    f"energy descent stalled at relative residual {rel:.2e} "
                    f"(tolerance {config.tol_residual:.1e})",
                ),
            )
    progress.exhausted()
