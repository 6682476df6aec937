"""Spans and counters recorded around the bnls layers from outside the package.

Nothing in ``src/`` is edited.  A :class:`Recorder` replaces functions by
identity: the original object is looked up in its defining module, and every
``bnls`` module namespace that binds the same object (``from .solvers import
route_Q`` in ``constants`` and ``cli``, for instance) gets the wrapper too, so
calls are seen from every caller.  ``uninstall`` puts the originals back.

Two kinds of recorder exist:

* a *tap* (``tracing=False``) keeps the last return value of a few named
  functions, which the correctness gate and the grid probes read;
* a *tracer* (``tracing=True``) wraps every public function of the layers in
  :data:`LAYERS`, plus the transform entry points of ``numpy.fft`` and
  ``scipy.fft``, and records one span per call and FFT counters.

Spans live in memory until the pass ends.  A span's parent is the innermost
open span of the calling thread; a worker thread with no open span of its own
(the K ascent's thread pool) is attributed to the main thread's innermost
span, which is the call that is waiting on the pool.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time

LAYERS = ("grid", "solvers", "constants", "verify", "fieldio", "cli")

# Private names traced in addition to the public functions: the shooting
# solve's inner loop reports its total sweep count only through this return
# value.
PRIVATE = {"solvers": ("_weinstein_state",)}

# Per-span value extracted from the return value (and arguments) of a call.
SPAN_VALUES = {
    "solvers._weinstein_state": lambda result, args: result[2],
    "solvers.petviashvili": lambda result, args: result.iters,
    "solvers.mass_constrained_flow": lambda result, args: result.iters,
    "fieldio.write_field": lambda result, args: os.path.getsize(result),
    "fieldio.read_field": lambda result, args: os.path.getsize(args[0]),
}

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "value", "fft_calls")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.value = 0
        self.fft_calls = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bnls_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "bnls" and m]


class Recorder:
    """Identity-based function replacement with optional span recording."""

    def __init__(self, tracing: bool, taps=()):
        self.tracing = tracing
        self.taps = tuple(taps)  # "layer.name" whose last return value a tap keeps
        self.last = {}
        self.spans = []
        self.fft = {"calls": 0, "points": 0, "bytes": 0, "s": 0.0}
        self.fft_by_backend = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    # -- bookkeeping -----------------------------------------------------

    def reset(self):
        self.last = {}
        self.spans = []
        self.fft = {"calls": 0, "points": 0, "bytes": 0, "s": 0.0}
        self.fft_by_backend = {}

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    # -- wrappers ----------------------------------------------------------

    def _tap(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.last[key] = result
            return result

        return wrapper

    def _span(self, key, fn):
        value_of = SPAN_VALUES.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(key, self._current())
            stack = self._stack()
            with self._lock:
                self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if value_of is not None:
                span.value = value_of(result, args)
            return result

        return wrapper

    def _fft(self, backend, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "in_fft", False):
                return fn(*args, **kwargs)
            local.in_fft = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                local.in_fft = False
            seconds = time.perf_counter() - start
            x = args[0] if args else kwargs.get("x", kwargs.get("a"))
            size = getattr(x, "size", 0)
            nbytes = getattr(x, "nbytes", 0) + out.nbytes
            span = self._current()
            with self._lock:
                self.fft["calls"] += 1
                self.fft["points"] += max(size, out.size)
                self.fft["bytes"] += nbytes
                self.fft["s"] += seconds
                self.fft_by_backend[backend] = self.fft_by_backend.get(backend, 0) + 1
                if span is not None:
                    span.fft_calls += 1
            return out

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _replace(self, namespaces, original, wrapper):
        for module in namespaces:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("recorder is already installed")
        self._main_stack = self._stack()
        bnls = _bnls_modules()
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"bnls.{layer}"]
            for name, fn in list(vars(module).items()):
                key = f"{layer}.{name}"
                wanted = (key in self.taps) if not self.tracing else (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and (not name.startswith("_") or name in PRIVATE.get(layer, ()))
                )
                if wanted:
                    targets[key] = fn
        for key, fn in targets.items():
            wrap = self._span if self.tracing else self._tap
            self._replace(bnls, fn, wrap(key, fn))
        if self.tracing:
            for backend, module in _fft_modules():
                for name in FFT_NAMES:
                    fn = getattr(module, name, None)
                    if fn is not None:
                        self._replace([module] + bnls, fn, self._fft(backend, fn))

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches = []


def _fft_modules():
    import numpy.fft

    modules = [("numpy.fft", numpy.fft)]
    try:
        import scipy.fft
    except ImportError:
        pass
    else:
        modules.append(("scipy.fft", scipy.fft))
    return modules


# ---------------------------------------------------------------------------
# per-pass metrics from the recorded spans

SHOOTING = ("solvers.route_Q", "solvers.weinstein_minimize")


def _covered(parent: Span, children) -> float:
    """Length of the part of ``parent``'s interval that its children cover."""
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    )
    covered, reach = 0.0, parent.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _has_ancestor(span: Span, names) -> bool:
    node = span.parent
    while node is not None:
        if node.name in names:
            return True
        node = node.parent
    return False


def pass_metrics(recorder: Recorder) -> dict:
    """Per-layer numbers of one traced pass (counts and seconds)."""
    spans = recorder.spans
    named = {}
    children = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)
        children.setdefault(id(s.parent), []).append(s)

    def calls(name):
        return len(named.get(name, ()))

    def seconds(name):
        return sum(s.seconds for s in named.get(name, ()))

    def values(name):
        return sum(s.value for s in named.get(name, ()))

    def per(total_s, count):
        return 1e3 * total_s / count if count else 0.0

    shooting = [
        s for name in SHOOTING for s in named.get(name, ()) if not _has_ancestor(s, SHOOTING)
    ]
    shooting_s = sum(s.seconds for s in shooting)
    sweeps = values("solvers._weinstein_state")
    pv_s, pv_sweeps = seconds("solvers.petviashvili"), values("solvers.petviashvili")
    flow = "solvers.mass_constrained_flow"
    mf_s, mf_iters = seconds(flow), values(flow)
    k_spans = named.get("constants.K_numeric", ())
    k_self = sum(s.seconds - _covered(s, children.get(id(s), ())) for s in k_spans)
    gn = named.get("verify.verify_gn_random", ())
    samples = sum(
        1 for s in named.get("solvers.random_bandlimited", ()) if s.parent in gn
    )
    return {
        "grid.regrid_s": seconds("grid.regrid"),
        "grid.regrid.calls": calls("grid.regrid"),
        "fft.calls": recorder.fft["calls"],
        "fft.points": recorder.fft["points"],
        "fft.bytes_computed": recorder.fft["bytes"],
        "fft.s": recorder.fft["s"],
        "solvers.shooting.solves": len(shooting),
        "solvers.shooting_s": shooting_s,
        "solvers.shooting.sweeps": sweeps,
        "solvers.shooting.ms_per_sweep": per(shooting_s, sweeps),
        "solvers.petviashvili_s": pv_s,
        "solvers.petviashvili.sweeps": pv_sweeps,
        "solvers.petviashvili.ms_per_sweep": per(pv_s, pv_sweeps),
        "solvers.mass_flow_s": mf_s,
        "solvers.mass_flow.iters": mf_iters,
        "solvers.mass_flow.ms_per_iter": per(mf_s, mf_iters),
        "solvers.random_bandlimited.calls": calls("solvers.random_bandlimited"),
        "solvers.random_bandlimited_s": seconds("solvers.random_bandlimited"),
        "constants.k_ascent_s": k_self,
        "constants.k_ascent.fft_calls": sum(s.fft_calls for s in k_spans),
        "constants.compute_constants_s": seconds("constants.compute_constants"),
        "verify.gn_sampler_s": seconds("verify.verify_gn_random"),
        "verify.gn_sampler.samples": samples,
        "verify.equivalence_s": seconds("verify.verify_equivalence"),
        "fieldio.write_s": seconds("fieldio.write_field"),
        "fieldio.read_s": seconds("fieldio.read_field"),
        "fieldio.bytes": values("fieldio.write_field") + values("fieldio.read_field"),
        "cli.load_state_s": seconds("cli.load_state"),
    }
