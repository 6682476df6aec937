"""Iterative routes to ground states.

Three routes:

* ``petviashvili`` solves the stationary PDE at fixed omega > 0 with the
  classic stabilized fixed point u <- S^gamma * L^-1 N(u), each step
  Anderson-mixed with the one before it.
* ``route_Q`` finds the optimizer of the scale-invariant quotient with the
  same sweep, letting the frequency move: the fixed-omega ground state is the
  optimizer exactly when its norms satisfy grad = (beta/alpha) * eps * bilap,
  and that mismatch is a smooth, monotone, scale-free function of omega.  Each
  sweep takes one Petviashvili step at the current omega and moves log omega
  against the iterate's mismatch, and the pair (spectrum, log omega) is
  Anderson-mixed as one fixed point; the loop stops on the scale-free
  Euler-Lagrange residual.  The converged state is measured once; one exact
  rescaling gives the critical-mass state, whose norms follow by the scaling
  laws, and a pipeline derives all its constants from them.  (Per-sweep
  renormalized Euler-Lagrange sweeps were tried first and rejected: the
  renormalization shrinks the box until the tails wrap, which feeds a slow
  width instability.)
* ``mass_constrained_flow`` descends the energy on the fixed-mass sphere
  along preconditioned Polak-Ribiere+ conjugate directions, from the bump
  moved to its fiber's energy minimum; its fixed points are exact critical
  points, and every accepted step is non-increasing in energy, judged on an
  energy change summed without cancellation.

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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    VanishingError,
)
from .functionals import Params, energy
from .grid import (
    BoxGrid,
    Field,
    NormTuple,
    _irfftn,
    _k2_table,
    _parseval_sums,
    _rfftn,
    boundary_amplitude_ratio,
    norms,
    spectral_tail_ratio,
)
from .scalings import construct_Q, mass_preserving_scale_laws, omega_formula

INIT_MODES = ("gaussian_bump", "random_bandlimited")

# Iterations without a new best residual before a run is declared stalled: the
# converging optimizer, Petviashvili and mass-flow solves of the 1D and 2D desk
# problems go at most 4 sweeps without one.
STALL_WINDOW = 20
# The optimizer's sweep moves log omega by -OMEGA_STEP times the quotient
# mismatch and mixes log omega, unscaled, beside the spectrum.  On the 1D desk
# problem and 1D p 7 (1024 points, L 40), which take 28 sweeps each here, a
# step of 1 stalls near 2.6e-4 on the first, steps of 1/8 and 1/2 take 30 and
# 27, and 30 and 39 sweeps; log omega scaled by 100, near the raw spectrum's
# norm, takes 41 and 37, and scales from 0.1 to 10 change a count by one at most.
OMEGA_STEP = 0.25
# Width of the random fields' Gaussian envelope, as a fraction of the box side L.
ENVELOPE_WIDTH = 0.125
# Bytes of samples per block of random_bandlimited_blocks: every row of the
# GN sampler's 256-point 1D grid in one block, 32 rows at 128^2, 2 at 64^3.
SAMPLER_BLOCK_BYTES = 1 << 22
# Points per block of the mass flow's trial lp change (_power_change): an eighth
# MiB of samples, so its temporaries stay small beside a 3D grid's arrays.
POWER_BLOCK = 1 << 14


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    tol_residual: float = 1e-10
    seed: int = 0
    init: str = "gaussian_bump"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.tol_residual < math.inf:
            raise ConfigurationError(
                f"tol_residual must be positive finite, got {self.tol_residual}"
            )
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigurationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.init not in INIT_MODES:
            raise ConfigurationError(f"init must be one of {INIT_MODES}, got {self.init!r}")

    def config_hash(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()[:16]


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
    residuals: tuple = ()  # the solve's residual at every iteration; () for a loaded state

    def sidecar(self, config: SolverConfig | None = None) -> dict:
        doc = {
            "params": asdict(self.params),
            "route": self.route,
            "iters": self.iters,
            "residual_pde": self.residual_pde,
            "omega_extracted": self.omega_extracted,
            "norms": asdict(self.nt),
            "warnings": list(self.warnings),
        }
        if config is not None:
            doc["config_hash"] = config.config_hash()
        return doc


# ---------------------------------------------------------------------------
# initial guesses


def _radius_sq(grid: BoxGrid) -> np.ndarray:
    """|x|^2 on the grid, summed axis by axis from broadcast axis coordinates."""
    axes = np.meshgrid(*[grid.axis_coordinates()] * grid.dim, indexing="ij", sparse=True)
    r2 = np.zeros(grid.shape)
    for x in axes:
        r2 += x * x
    return r2


def gaussian_bump(grid: BoxGrid, width: float | None = None, amplitude: float = 1.0) -> Field:
    """Centered Gaussian bump; the default initial guess (width L/10)."""
    width = grid.box_length / 10.0 if width is None else width
    return Field(grid, amplitude * np.exp(-_radius_sq(grid) / (2.0 * width**2)))


def _band_limiter(grid: BoxGrid, modes: int = 20):
    """The in-place step that turns a (rows, *grid.shape) block of white noise into
    random band-limited fields, and returns the block.

    Each row is low-passed by exp(-|k|^2/kc^2) with the cutoff kc at ``modes``
    fundamental wavenumbers (the same physical band at any resolution), times a
    Gaussian envelope of width ENVELOPE_WIDTH L that keeps it well inside the
    box, and divided by its peak |u|.  The filter and the envelope are built
    once, here; a block costs one batched transform pair.
    """
    k2 = _k2_table(grid)
    kc = modes * 2.0 * np.pi / grid.box_length
    band = np.negative(k2)  # exp(-k2 / kc^2), written in place
    band /= kc * kc
    np.exp(band, out=band)
    sigma = ENVELOPE_WIDTH * grid.box_length
    envelope = _radius_sq(grid)  # exp(-r2 / (2 sigma^2)), written in place
    np.negative(envelope, out=envelope)
    envelope /= 2.0 * sigma**2
    np.exp(envelope, out=envelope)
    axes = tuple(range(-grid.dim, 0))

    def limit(block: np.ndarray) -> np.ndarray:
        spec = _rfftn(block, grid.dim)
        spec *= band
        _irfftn(spec, grid.dim, spec, out=block)  # the complex passes overwrite spec
        del spec
        block *= envelope
        # max |u| per row, with no |u| array
        top = np.max(block, axis=axes, keepdims=True)
        peak = np.maximum(top, -np.min(block, axis=axes, keepdims=True))
        block /= np.where(peak > 0, peak, 1.0)
        return block

    return limit


def random_bandlimited_blocks(grid: BoxGrid, seed: int, count: int, modes: int = 20):
    """Yield ``count`` random band-limited fields as (rows, *grid.shape) blocks.

    The white noise of every row is drawn, in order, from the one stream
    ``default_rng(seed)``, so the fields do not depend on how the rows are
    split into blocks (the SAMPLER_BLOCK_BYTES budget); :func:`_band_limiter`
    with ``modes`` turns each block into fields.
    """
    rng = np.random.default_rng(seed)
    limit = _band_limiter(grid, modes)
    rows = max(1, SAMPLER_BLOCK_BYTES // (8 * grid.size))
    for lo in range(0, count, rows):
        block = np.empty((min(rows, count - lo),) + grid.shape)
        rng.standard_normal(out=block)
        yield limit(block)


def random_bandlimited(grid: BoxGrid, seed: int) -> Field:
    """The first field of :func:`random_bandlimited_blocks`; peak |u| is 1."""
    (block,) = random_bandlimited_blocks(grid, seed, 1)
    return Field(grid, block[0])


def initial_field(grid: BoxGrid, config: SolverConfig) -> Field:
    if config.init == "gaussian_bump":
        return gaussian_bump(grid)
    return random_bandlimited(grid, config.seed)


# ---------------------------------------------------------------------------
# physical-field diagnostics (also used on loaded states)


def pde_residual(u: Field, params: Params, omega: float) -> float:
    """||eps*lap^2 u - lap u + omega u - |u|^(p-2)u||_2 / |||u|^(p-2)u||_2 (inf if u = 0).

    Measured on the Fourier side by the iteration kernel, in three transforms.
    """
    state = _SpectralIterate(u)
    _lp, nl_spec = state.nonlinearity(params.p)
    return state.residual_ratio(state.symbol(params.eps, 1.0, omega), nl_spec)


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


def _carve(memory: np.ndarray, shape: tuple, start: int = 0) -> np.ndarray:
    """A C-contiguous array of ``shape`` on the flat array ``memory``, from index ``start``."""
    return memory[start : start + math.prod(shape)].reshape(shape)


def _real_rows(spec: np.ndarray, lead: int) -> np.ndarray:
    """The real and imaginary parts of a complex array, flat past ``lead`` axes: a view, so
    writes reach ``spec`` (reshaping raises where it would have to copy)."""
    return np.reshape(spec, spec.shape[:lead] + (-1,), copy=False).view(np.float64)


class _SpectralIterate:
    """Iterate kept as an rfftn spectrum on a fixed grid, with the arrays its sweeps reuse.

    Built from a list of fields on one grid, ``spec`` gets a leading batch axis
    and each norm is a (rows, 1, ...) array.

    Besides ``spec`` the iterate owns two spectrum-sized arrays and a
    half-sized one that every sweep overwrites instead of allocating
    temporaries:

    * ``next``, the spectrum being written next: :meth:`physical` writes the
      physical field there, :meth:`nonlinearity` then puts the forward
      transform there, a sweep turns it into the new iterate in place and
      :meth:`advance` swaps it with ``spec``;
    * ``work``, the complex work array of the inverse transform, which between
      transforms holds one physical-space or residual array (:meth:`scratch`)
      or the mass flow's last preconditioned gradient;
    * a real array of the spectrum's shape for the weighted power behind
      every quadratic norm.

    An iterate that :meth:`mix` drives also owns its mixing history, allocated
    by the first call.
    """

    def __init__(self, fields):
        self.batched = not isinstance(fields, Field)
        self.grid = fields[0].grid if self.batched else fields.grid
        self.k2 = _k2_table(self.grid)
        self._axes = tuple(range(-self.grid.dim, 0))
        samples = np.stack([f.samples for f in fields]) if self.batched else fields.samples
        self.spec = _rfftn(samples, self.grid.dim)
        self.next = np.empty_like(self.spec)
        self.work = np.empty_like(self.spec)
        self._power = np.empty(self.spec.size)
        self._history = None  # mix()'s last (f, g) pair, spectra and extra coordinate

    def advance(self):
        """Make ``next`` the iterate; the old spectrum's memory is written next."""
        self.spec, self.next = self.next, self.spec

    def mix(self, extra=(0.0, 0.0)):
        """Anderson-mix the fixed-point step in ``next`` with the one before it, per batch
        row, in place.

        ``next`` holds g = G(spec), the map's image of the iterate, whose
        residual is f = g - spec.  With df and dg the changes of f and g since
        the last call, the mixed step is g - gamma dg, where gamma = <f, df> /
        <df, df> over the real and imaginary parts is the least-squares fit of
        f by df: Anderson mixing at depth one (Anderson, J. ACM 12, 1965;
        Walker and Ni, SIAM J. Numer. Anal. 49, 2011).  A row takes g itself
        on the first call, where its residual grew in the last sweep and where
        df is exactly zero.

        ``extra`` = (x, g) is one more real coordinate of each row's iterate
        and of its image (floats for a lone iterate, else per-row arrays),
        fitted and mixed with the spectrum; the mixed coordinate is returned.

        The history is each row's last (f, g) pair and its extra pair,
        allocated once.  A call turns the last pair into (df, dg) in place,
        builds the mixed step in dg's array, which trades places with
        ``next``, so that the history keeps g, and copies f over df.
        """
        g = self.next
        f = np.subtract(g, self.spec, out=self.work)
        rows = len(g) if self.batched else 1
        pair = np.empty((rows, 2))  # the extra coordinate's (f, g) per row
        pair[:, 1] = extra[1]
        pair[:, 0] = pair[:, 1] - extra[0]
        if self._history is None:
            self._history = (f.copy(), g.copy(), pair)
            return pair[:, 1] if self.batched else float(pair[0, 1])
        df, dg, d_pair = self._history
        rowed = (lambda arr: arr) if self.batched else (lambda arr: arr[np.newaxis])
        np.subtract(f, df, out=df)
        np.subtract(g, dg, out=dg)
        np.subtract(pair, d_pair, out=d_pair)
        f_re, df_re = _real_rows(rowed(f), 1), _real_rows(rowed(df), 1)
        df_df = np.einsum("rn,rn->r", df_re, df_re) + d_pair[:, 0] * d_pair[:, 0]
        f_df = np.einsum("rn,rn->r", f_re, df_re) + pair[:, 0] * d_pair[:, 0]
        # |f|^2 - |f_last|^2 = 2 f.df - |df|^2 with df = f - f_last
        fit = ~(2.0 * f_df > df_df) & (df_df > 0)
        gamma = np.divide(f_df, df_df, out=np.zeros(rows), where=fit)
        mixed = pair[:, 1] - gamma * d_pair[:, 1]
        d_pair[...] = pair
        df[...] = f  # work is free from here
        step = rowed(dg)  # -gamma per row, complex, so no casting buffer
        step *= np.negative(gamma).astype(complex).reshape((-1,) + (1,) * self.grid.dim)
        step += rowed(g)
        self.next, self._history = dg, (df, g, d_pair)
        return mixed if self.batched else float(mixed[0])

    def scratch(self, shape: tuple) -> np.ndarray:
        """A float array of ``shape``, at most the physical or the spectrum's size, in ``work``."""
        return _carve(self.work.view(np.float64).reshape(-1), shape)

    def physical(self) -> np.ndarray:
        """The iterate in physical space, in ``next``, which the next transform overwrites."""
        shape = self.spec.shape[:-1] + (self.grid.points_per_axis,)
        memory = self.next.view(np.float64).reshape(-1)
        return _irfftn(self.spec, self.grid.dim, self.work, out=_carve(memory, shape))

    def _sum(self, arr: np.ndarray):
        """Sum over the grid axes: a float, or per row an array that broadcasts on spec."""
        total = np.sum(arr, axis=self._axes, keepdims=self.batched)
        return total if self.batched else float(total)

    def _parseval(self, spec: np.ndarray, moments: int, other: np.ndarray | None = None) -> tuple:
        """:func:`grid._parseval_sums` of spec (with ``other``, their cross sums, with
        ``next`` as scratch) in the power array: floats, or per-row arrays."""
        power = _carve(self._power, spec.shape)
        scratch = None if other is None else self.next.view(np.float64)
        sums = _parseval_sums(self.grid, spec, moments, power, keepdims=self.batched,
                              other=other, scratch=scratch)
        return sums if self.batched else tuple(float(s) for s in sums)

    def spec_norm_sq(self, arr: np.ndarray):
        """Parseval ||.||_2^2 of a spectrum on the grid."""
        return self._parseval(arr, 1)[0]

    def quadratic_norms(self, spec: np.ndarray | None = None) -> tuple:
        """(mass, grad, bilap) of the iterate, or of another spectrum on the grid."""
        return self._parseval(self.spec if spec is None else spec, 3)

    def cross_norms(self, spec: np.ndarray) -> tuple:
        """The (mass, grad, bilap) cross sums of the iterate and another spectrum on the grid,
        the Parseval sums of Re(iterate conj(spec)); overwrites ``next``."""
        return self._parseval(self.spec, 3, other=spec)

    def symbol(self, a, b, c, out: np.ndarray | None = None) -> np.ndarray:
        """The Fourier symbol a|k|^4 + b|k|^2 + c, per row in a batch, into ``out`` or a new array.

        Formed as ((a k2) k2 + b k2) + c, with b k2 in the power array.
        """
        out = np.multiply(a, self.k2, out=out)
        out *= self.k2
        b_shape = np.broadcast_shapes(np.shape(b), self.k2.shape)
        out += np.multiply(b, self.k2, out=_carve(self._power, b_shape))
        out += c
        return out

    def residual_ratio(self, symbol: np.ndarray, rhs: np.ndarray,
                       out: np.ndarray | None = None) -> float:
        """||symbol * spec - rhs|| / ||rhs|| of a lone iterate (inf for a zero rhs).

        ||rhs|| is taken first, so the difference may overwrite ``rhs``: it goes
        into ``out`` (``work`` by default), a part (real, imaginary) at a time
        through the power array.
        """
        den = self.spec_norm_sq(rhs)
        out = self.work if out is None else out
        prod = _carve(self._power, symbol.shape)
        for spec_part, rhs_part, out_part in ((self.spec.real, rhs.real, out.real),
                                              (self.spec.imag, rhs.imag, out.imag)):
            np.subtract(np.multiply(spec_part, symbol, out=prod), rhs_part, out=out_part)
        return math.sqrt(self.spec_norm_sq(out) / den) if den > 0 else math.inf

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """The L2 inner product of the fields of two lone spectra (Parseval), with no
        temporary: Re(a conj(b)) summed twice over the last axis's interior modes."""
        total = 2.0 * np.einsum("n,n->", _real_rows(a, 0), _real_rows(b, 0))
        for edge in (0, -1):  # m = 0 and Nyquist, counted once
            x, y = (np.reshape(s[..., edge], -1) for s in (a, b))
            total -= np.einsum("n,n->", x.real, y.real) + np.einsum("n,n->", x.imag, y.imag)
        return self.grid.cell_volume / self.grid.size * float(total)

    def nonlinearity(self, p: float) -> tuple:
        """(lp, nl_spec) = (||u||_p^p, rfftn(|u|^(p-2) u)) from one irfftn; nl_spec is ``next``.

        lp is h^d sum(nl * u), which needs no |u|^p pass of its own.
        """
        u = self.physical()
        nl = self.scratch(u.shape)
        np.abs(u, out=nl)
        nl **= p - 2.0
        nl *= u
        lp = self.grid.cell_volume * self._sum(np.multiply(nl, u, out=u))
        return lp, _rfftn(nl, self.grid.dim, out=self.next)

    def field(self) -> Field:
        """The iterate as a Field.  Taking it ends any mixing: the history is
        freed first, so it does not stay live beside the copy."""
        self._history = None
        return Field(self.grid, self.physical())


def _by_real(op, spec: np.ndarray, real: np.ndarray, out: np.ndarray) -> np.ndarray:
    """op(spec, real) for a complex spectrum and a real array, into the complex ``out``.

    Applied to the real and the imaginary parts in turn: a mixed complex-by-real
    ufunc would cast through a 128 KiB buffer, which would set the peak memory
    of a sweep.
    """
    op(spec.real, real, out=out.real)
    op(spec.imag, real, out=out.imag)
    return out


class _Progress:
    """Best-residual tracking: a non-finite residual is a divergence, and STALL_WINDOW
    iterations without a new best are a stall, whose error names its likely cause
    (:func:`_stall`, on the field that ``field()`` returns)."""

    def __init__(self, label: str, config: SolverConfig, field):
        self.label = label
        self.config = config
        self.field = field
        self.history = []
        self.best = math.inf
        self.best_iter = 0

    def update(self, it: int, res: float):
        self.history.append(res)
        if not math.isfinite(res):
            raise DivergenceError(f"{self.label}: residual became non-finite at iteration {it}",
                                  cause="blow-up", history=self.history)
        if res < self.best:
            self.best, self.best_iter = res, it
        elif it - self.best_iter > STALL_WINDOW:
            raise _stall(self.label, self.field(), self.best, self.config, self.history)

    def exhausted(self):
        raise DivergenceError(f"{self.label}: no convergence to {self.config.tol_residual:.1e} "
                              f"within {self.config.max_iters} iterations",
                              cause="iterations", history=self.history)


def _finish(u: Field, params: Params, history: list, route: str,
            extra_warnings: tuple = ()) -> GroundState:
    """The solved state ``u``, measured once, with the loop's residual ``history``: its
    length is the iteration count and its last entry the reported residual."""
    spec = _rfftn(u.samples, u.grid.dim)  # one transform for the norms and the tail
    nt = norms(u, params.p, spec)
    omega_x = extract_omega(nt, params)
    warn = list(extra_warnings)
    ratio = boundary_amplitude_ratio(u)
    if ratio > 1e-8:
        warn.append(f"boundary amplitude is {ratio:.2e} of the peak; box may be too small")
    tail = spectral_tail_ratio(u, spec)
    if tail > 1e-8:
        warn.append(f"spectral tail is {tail:.2e} of the peak; grid may under-resolve the state")
    return GroundState(field=u, params=params, nt=nt, omega_extracted=omega_x,
                       residual_pde=history[-1], iters=len(history), route=route,
                       warnings=tuple(warn), residuals=tuple(history))


def _stall(label: str, u: Field, best: float, config: SolverConfig, history: list):
    """The error for a residual floor above the tolerance, naming its likely cause.

    Such a floor sits at the larger of the box-truncation and the resolution
    error, so the error's cause, and its message, name whichever of the
    boundary and spectral-tail ratios of ``u`` is larger: ``"grid"`` or ``"box"``.
    """
    boundary = boundary_amplitude_ratio(u)
    tail = spectral_tail_ratio(u)
    if tail > boundary:
        cause, advice = "grid", "the grid may under-resolve the state (use more points)"
    else:
        cause, advice = "box", "the box may be too small for these parameters (enlarge it)"
    return DivergenceError(
        f"{label} stalled at residual {best:.3e} "
        f"(tolerance {config.tol_residual:.1e}); boundary amplitude ratio is "
        f"{boundary:.2e} and spectral tail ratio is {tail:.2e}, so {advice}",
        cause=cause, history=history,
    )


def _require_field_grid(params: Params, grid: BoxGrid):
    if grid.dim != params.bigN:
        raise ConfigurationError(
            f"grid dim {grid.dim} must equal bigN {params.bigN} for a field solve"
        )


# ---------------------------------------------------------------------------
# the Petviashvili sweep, at fixed omega or jointly with omega


def petviashvili(params: Params, grid: BoxGrid, config: SolverConfig) -> GroundState:
    """Stabilized fixed point for the stationary PDE at fixed omega > 0 (:func:`_sweeps`).

    The state's ``residuals`` hold the residual of every sweep.
    """
    omega = params.require_omega()
    if not omega > 0:
        raise ConfigurationError(f"petviashvili needs omega > 0, got {omega}")
    u, history = _sweeps(params, grid, config, omega)
    return _finish(u, params, history, "petviashvili")


def _sweeps(params: Params, grid: BoxGrid, config: SolverConfig, omega: float,
            optimize: bool = False) -> tuple:
    """The Petviashvili sweep loop from the initial field: (field, residual history).

    The history holds every sweep's residual, so the sweep count is its length.

    A sweep takes the stabilized step u <- S^gamma L^-1 N(u) at the current
    omega, with L = eps lap^2 - lap + omega, N(u) = |u|^(p-2) u, S = <Lu, u> /
    <N(u), u> and gamma = (p-1)/(p-2), and Anderson-mixes it with the step
    before it (:meth:`_SpectralIterate.mix`; Alvarez and Duran,
    Math. Comput. Simul. 123, 2016, accelerate Petviashvili iterations by
    extrapolation alike).  It stops on the residual of the PDE at omega.

    With ``optimize`` omega moves too, from the given start: the same sweep
    sets log omega <- log omega - OMEGA_STEP m, with m = beta eps bilap /
    (alpha grad) - 1 the quotient mismatch of the iterate, which vanishes
    exactly at the optimizer's frequency and grows with omega, and log omega
    is mixed as one more coordinate beside the spectrum, so the mix sees one
    map of (u, log omega).  The loop then stops on the scale-free
    Euler-Lagrange residual (:func:`_el_residual_spectral`).
    """
    _require_field_grid(params, grid)
    p, eps = params.p, params.eps
    ep = params.exponents() if optimize else None
    gamma = (p - 1.0) / (p - 2.0)
    state = _SpectralIterate(initial_field(grid, config))
    lin = state.symbol(eps, 1.0, omega, out=np.empty(state.k2.shape))  # L's symbol
    log_omega = math.log(omega)
    mass0 = state.quadratic_norms()[0]
    progress = _Progress("quotient optimizer" if optimize else "petviashvili", config,
                         state.field)
    for it in range(1, config.max_iters + 1):
        mass, grad, bilap = state.quadratic_norms()
        if not math.isfinite(mass) or mass > 1e24 * max(mass0, 1.0):
            raise DivergenceError(
                f"{progress.label} iterate blew up", cause="blow-up", history=progress.history
            )
        if mass < 1e-24 * mass0:
            raise VanishingError("iterate collapsed to zero")
        lp, nl_spec = state.nonlinearity(p)
        if lp <= 0:
            raise VanishingError("nonlinearity vanished; iterate collapsed")
        if optimize:  # the residual's symbol borrows L's array
            res = _el_residual_spectral(state, ep, p, (mass, grad, bilap), lp, nl_spec, lin)
            state.symbol(eps, 1.0, omega, out=lin)
        else:
            res = state.residual_ratio(lin, nl_spec)
        progress.update(it, res)
        if res <= config.tol_residual:
            del lin  # free it before the field is copied out
            return state.field(), progress.history
        stabilizer = (eps * bilap + grad + omega * mass) / lp
        _by_real(np.divide, nl_spec, lin, nl_spec)  # the step, in next
        nl_spec *= stabilizer**gamma
        if optimize:
            mismatch = ep.beta * eps * bilap / (ep.alpha * grad) - 1.0
            log_omega = state.mix((log_omega, log_omega - OMEGA_STEP * mismatch))
            omega = math.exp(log_omega)
        else:
            state.mix()
        state.advance()
    progress.exhausted()


def _el_residual_spectral(
    state: _SpectralIterate, ep, p: float, quadratic: tuple, lp: float, nl_spec: np.ndarray,
    out: np.ndarray,
) -> float:
    """Relative residual of the self-normalized Euler-Lagrange equation.

    (alpha/bilap) lap^2 u - (beta/grad) lap u + ((p-2)/mass) u = (p/lp) |u|^(p-2) u
    is exactly invariant under amplitude/box rescaling, so this equals the
    residual of the unit-normalized optimizer candidate.  It is taken on the
    equation times lp/p, against ``nl_spec`` = rfftn(|u|^(p-2) u) as it
    stands, with the symbol in ``out``; ``quadratic`` is (mass, grad, bilap)
    and ``ep`` the exponents of the problem.
    """
    mass, grad, bilap = quadratic
    if grad <= 0 or bilap <= 0:
        raise VanishingError("degenerate iterate in quotient residual")
    scale = lp / p
    symbol = state.symbol(scale * ep.alpha / bilap, scale * ep.beta / grad,
                          scale * (p - 2.0) / mass, out=out)
    return state.residual_ratio(symbol, nl_spec)


def _weinstein_state(params: Params, grid: BoxGrid, config: SolverConfig) -> tuple:
    """The quotient optimizer: (field, residual history, sweeps), from :func:`_sweeps` with
    omega free; the sweep count, the history's length, is returned third for
    perfbench's tracer.

    The field is a fixed-omega ground state whose norms satisfy grad =
    (beta/alpha) eps bilap, so its exact rescalings are the optimizer and
    the constructed critical-mass state.  Moving the frequency inside the
    iteration is the spectral renormalization of Ablowitz and Musslimani
    (Opt. Lett. 30, 2005).  The start is the initial field at the frequency
    the optimizer would have at unit mass (:func:`~bnls.scalings.omega_formula`,
    which refuses eps = 0).  A residual floor above the tolerance sits at the
    larger of the box-truncation and the resolution error, so a stall names
    whichever of the two ratios is larger.
    """
    u, history = _sweeps(params, grid, config, omega_formula(1.0, params), optimize=True)
    return u, history, len(history)


def route_Q(params: Params, grid: BoxGrid, config: SolverConfig) -> GroundState:
    """Optimizer solve, then the constructive rescale to the critical-mass state.

    The state solves the stationary PDE at the frequency fixed by the
    optimizer's mass, and its own mass is the critical one.  The solved state
    is measured once, on the solver grid; the rescale is exact, so its norms
    follow by the scaling laws, and the residual and the boundary and tail
    ratios, which the rescale leaves unchanged, carry over.  A pipeline solves
    once here and derives the rest: ``compute_constants`` takes the result.
    """
    u, history, _ = _weinstein_state(params, grid, config)
    solved = _finish(u, params, history, "weinstein_Q")
    q_field, nt, omega = construct_Q(solved.field, solved.nt, params)
    if not (math.isfinite(omega) and omega > 0):
        raise DivergenceError(f"constructed frequency {omega} is not positive",
                              cause="blow-up", history=history)
    return replace(solved, field=q_field, nt=nt, omega_extracted=extract_omega(nt, params))


# ---------------------------------------------------------------------------
# normalized energy descent on the mass sphere


def mass_constrained_flow(
    params: Params, grid: BoxGrid, config: SolverConfig, energy_trace: list | None = None
) -> GroundState:
    """Preconditioned conjugate-gradient energy descent on the sphere ||u||_2^2 = c.

    Fixed points solve the stationary PDE at the Nehari multiplier, and no
    accepted step raises the energy (:func:`_mass_flow_state`).  A list as
    ``energy_trace`` records the energy of the start and of every step.  The
    default start is the bump moved to its mass-preserving fiber's energy
    minimum where that is negative (:func:`_fiber_start`), else the bump.

    An iterate of nonnegative energy that spreads toward the box (boundary
    ratio above 1e-2 after the first step) ends the flow with a no-minimizer
    warning: below the critical mass the infimum is not attained, and
    negative energy proves a minimizer exists.  A line search that finds no
    lower energy above the tolerance raises :class:`DivergenceError` (a
    stall, naming the larger of the boundary and spectral-tail ratios).  At
    eps = 0 and p >= 2 + 4/N no mass has a minimizer: ConfigurationError.
    """
    c = params.require_mass()
    _require_field_grid(params, grid)
    low = params.mass_window()[0]
    if params.eps == 0 and params.p >= low:
        raise ConfigurationError(
            f"the mass flow at eps = 0 needs p < 2 + 4/N = {low:g}, got "
            f"p = {params.p:g}: the energy has no minimizer on the mass sphere there"
        )
    u, history, warn = _mass_flow_state(params, grid, config, c, energy_trace)
    return _finish(u, params, history, "mass_flow", warn)


def _fiber_start(grid: BoxGrid, params: Params, c: float) -> Field:
    """The default bump at mass c, moved along its mass-preserving fiber to the fiber's
    energy minimum where that minimum is negative, else the bump itself.

    Along u_t(x) = t^(N/2) u(t x) the energy is eps B t^4/2 + G t^2/2 - P t^gamma/p,
    with (G, B, P) the bump's grad, bilap and lp and gamma = N(p-2)/2, which
    lies in (2, 4) in the mass-competition window.  Its interior minimum is the
    larger root t* of 2 eps B t^2 + G = (gamma/p) P t^(gamma-2); the left side
    over t^(gamma-2) falls and then rises, so the root is bisected above that
    turning point.  A Gaussian's u_t is the Gaussian of width w/t, so the start
    is the bump of width (L/10)/t* put back on the sphere.
    """
    bump = normalize_to_mass(gaussian_bump(grid), c)
    gamma = params.bigN * (params.p - 2.0) / 2.0
    if not (params.eps > 0 and 2.0 < gamma < 4.0):
        return bump
    nt = norms(bump, params.p)
    two_eps_b = 2.0 * params.eps * nt.bilap
    target = gamma / params.p * nt.lp

    def excess(t):
        return two_eps_b * t ** (4.0 - gamma) + nt.grad * t ** (2.0 - gamma) - target

    lo = math.sqrt((gamma - 2.0) * nt.grad / ((4.0 - gamma) * two_eps_b))
    if excess(lo) >= 0:
        return bump  # the fiber energy has no interior minimum
    hi = 2.0 * lo
    while excess(hi) < 0:
        hi *= 2.0
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
    if energy(mass_preserving_scale_laws(nt, hi, params), params) >= 0:
        return bump
    return normalize_to_mass(gaussian_bump(grid, grid.box_length / 10.0 / hi), c)


def _power_change(u, v, tau, p, powered, block) -> float:
    """sum(|u - tau v|^p - |u|^p), each point's change taken without cancellation.

    ``powered`` holds |u|^p.  Where the step keeps the sign of u, x = -tau v/u
    exceeds -1 and a point's change is |u|^p expm1(p log1p(x)), exact to a
    few ulps of the change.  Elsewhere (a flipped sign, u = 0, an overflow:
    tail points, with a vanishing share of lp) it is the direct difference.
    The points go through the float array ``block`` a block at a time, which
    bounds the temporaries.
    """
    u, v, powered = u.reshape(-1), v.reshape(-1), powered.reshape(-1)
    total = 0.0
    for lo in range(0, u.size, block.size):
        u_b, v_b, powered_b = (a[lo : lo + block.size] for a in (u, v, powered))
        with np.errstate(all="ignore"):  # the rest come out as nan or inf
            x = np.divide(v_b, u_b, out=block[: u_b.size])
            x *= -tau
            np.log1p(x, out=x)
            x *= p
            np.expm1(x, out=x)
            x *= powered_b
        change = float(np.sum(x))
        if not math.isfinite(change):  # the block holds some of the rest
            rest = np.flatnonzero(~np.isfinite(x))
            stepped = v_b[rest]
            stepped *= -tau
            stepped += u_b[rest]
            np.abs(stepped, out=stepped)
            stepped **= p
            stepped -= powered_b[rest]
            x[rest] = stepped
            change = float(np.sum(x))
        total += change
    return total


def _step_size(change, tau: float, slope: float) -> float | None:
    """The step one line search accepts, or None where no trial lowers the energy.

    ``change(t)`` is the energy change at step t, of slope -``slope`` at 0.
    The trials are ``tau``, the last accepted step, and the minimizer of the
    quadratic through 0, that slope and the first trial, clamped to [tau/4,
    4 tau]; the lower wins if <= 0, else the smaller is halved until one is,
    60 trials in all.
    """
    first = change(tau)
    curvature = (first + slope * tau) / (tau * tau)
    model = 4.0 * tau
    if curvature > 0:
        model = min(max(slope / (2.0 * curvature), tau / 4.0), model)
    lowest, step = min((first, tau), (change(model), model))
    if lowest > 0:
        step = min(tau, model)
        for _ in range(58):
            step *= 0.5
            if change(step) <= 0:
                return step
        return None
    return step


def _mass_flow_state(
    params: Params, grid: BoxGrid, config: SolverConfig, c: float, energy_trace: list | None
) -> tuple:
    """The loop of :func:`mass_constrained_flow`: (field, residual history, warnings).

    It stops on :func:`pde_residual` at the Nehari multiplier omega_k, taken
    on the spectrum: ||r|| / ||N(u)|| with r = L u - N(u), L = eps lap^2 -
    lap + omega_k, N(u) = |u|^(p-2) u; r is the sphere's energy gradient.
    The direction is preconditioned Polak-Ribiere+ (Antoine, Levitt and
    Tang, J. Comput. Phys. 343, 2017): z = P^-1 r with P the symbol of L at
    max(omega_k, 1e-2), d = z + beta d_last, beta = max(0, (<r, z> - <r,
    z_last>) / <r_last, z_last>), and d = z where <r, d> <= 0.

    A trial amp (s - tau d), amp = sqrt(c / mass(s - tau d)), has the field
    amp (u - tau v) with v = irfftn(d), so it needs no transform, and an
    energy change summed without cancellation: exact quadratics in tau from
    the cross sums (s, d) and (d, d), amp^2 - 1 and amp^p - 1 from the mass
    change relative to the iterate's own mass, and :func:`_power_change`.  A
    difference of two energies would floor the flow near a residual of
    sqrt(machine eps) (Nocedal and Wright, Numerical Optimization, 2006, ch. 3).

    Nothing is allocated per iteration: N(u) and the symbol use v's memory;
    r and then z replace N(u)'s spectrum in ``next``, and z stays as z_last
    in ``work``, which trades places with ``next``; d_last stays in d's
    array; |u|^p and the transform's and cross sums' scratch use ``next``,
    the trials' point changes the power array; an accepted step is written
    into ``next`` and v, which trade places with s and u.
    """
    p = params.p
    eps = params.eps
    state = _SpectralIterate(
        _fiber_start(grid, params, c) if config.init == "gaussian_bump"
        else normalize_to_mass(initial_field(grid, config), c)
    )
    vol = grid.cell_volume
    d_spec = np.empty_like(state.spec)
    u = state.physical().copy()  # physical() returns next, which the loop overwrites
    v = np.empty_like(u)
    block = _carve(state._power, (min(state._power.size, POWER_BLOCK),))

    def symbol(sigma):
        return state.symbol(eps, 1.0, sigma, out=_carve(v.reshape(-1), state.k2.shape))

    def change(tau):  # this iteration's energy change at step tau; inf where undefined
        d_mass = tau * (tau * m_dd - 2.0 * m_sd)
        if not mass + d_mass > 0:
            return math.inf
        d_quad = tau * (tau * quad_dd - quad_sd)
        amp2_m1 = -d_mass / (mass + d_mass)  # amp^2 - 1
        ampp_m1 = math.expm1(0.5 * p * math.log1p(amp2_m1))  # amp^p - 1
        d_lp = vol * _power_change(u, v, tau, p, powered, block)
        d_energy = (amp2_m1 * quad + (1.0 + amp2_m1) * d_quad
                    - (ampp_m1 * lp + (1.0 + ampp_m1) * d_lp) / p)
        return d_energy if math.isfinite(d_energy) else math.inf

    mass, grad, bilap = state.quadratic_norms()
    tau = 1.0
    rz_last = 0.0  # <r, z> of the last iteration; 0 takes z itself as the direction
    progress = _Progress("energy descent", config, lambda: Field(grid, u))
    for it in range(1, config.max_iters + 1):
        np.abs(u, out=v)  # |u|^(p-2) u, then |u|^p
        v **= p - 2.0
        v *= u
        r_spec = _rfftn(v, grid.dim, out=state.next)  # N(u), made r and then z in place
        v *= u
        lp = vol * float(np.sum(v))
        quad = 0.5 * eps * bilap + 0.5 * grad
        e_k = quad - lp / p
        if energy_trace is not None:
            energy_trace.append(e_k)
        omega_k = (lp - eps * bilap - grad) / c
        sym = symbol(omega_k)
        rel = state.residual_ratio(sym, r_spec, out=r_spec)
        progress.update(it, rel)
        if rel <= config.tol_residual:
            warn = ()
            break
        spread = boundary_amplitude_ratio(u)
        if it > 1 and spread > 1e-2 and e_k >= 0:  # E < 0 proves a minimizer exists
            warn = (
                "no-minimizer outcome: iterate is spreading toward the box "
                f"boundary (boundary ratio {spread:.2e}); the constrained "
                "infimum appears not to be attained at this mass",
            )
            break
        sigma = max(omega_k, 1e-2)
        if sigma != omega_k:
            sym = symbol(sigma)
        r_z_last, r_d_last = ((state.inner(r_spec, state.work), state.inner(r_spec, d_spec))
                              if rz_last > 0 else (0.0, 0.0))
        z_spec = _by_real(np.divide, r_spec, sym, r_spec)
        z_mass, z_grad, z_bilap = state.quadratic_norms(z_spec)
        rz = eps * z_bilap + z_grad + sigma * z_mass  # <r, z> = <P z, z>
        beta = max(0.0, (rz - r_z_last) / rz_last) if rz_last > 0 else 0.0
        slope = rz + beta * r_d_last  # <r, d>
        if beta > 0 and slope > 0:
            d_spec *= beta
            d_spec += z_spec
        else:  # the preconditioned gradient itself
            np.copyto(d_spec, z_spec)
            slope = rz
        state.work, state.next = z_spec, state.work
        rz_last = rz
        _irfftn(d_spec, grid.dim, state.next, out=v)
        m_sd, g_sd, b_sd = state.cross_norms(d_spec)
        m_dd, g_dd, b_dd = state.quadratic_norms(d_spec)
        quad_sd, quad_dd = eps * b_sd + g_sd, 0.5 * (eps * b_dd + g_dd)
        powered = _carve(state.next.view(np.float64).reshape(-1), u.shape)  # |u|^p
        np.abs(u, out=powered)
        powered **= p
        step = _step_size(change, tau, slope)
        if step is None:  # no step lowers the energy: a roundoff floor above the tolerance
            raise _stall("energy descent", Field(grid, u), rel, config, progress.history)
        tau = step
        amp2 = c / (mass + tau * (tau * m_dd - 2.0 * m_sd))
        mass, grad, bilap = (c, amp2 * (grad + tau * (tau * g_dd - 2.0 * g_sd)),
                             amp2 * (bilap + tau * (tau * b_dd - 2.0 * b_sd)))
        amp = math.sqrt(amp2)
        trial = np.multiply(d_spec, -tau, out=state.next)
        trial += state.spec
        trial *= amp
        state.advance()
        v *= -tau
        v += u
        v *= amp
        u, v = v, u
    else:
        progress.exhausted()
    del u, v, sym, d_spec  # free them before the field is copied out
    return state.field(), progress.history, warn
