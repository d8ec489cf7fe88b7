"""Spans around calls into gnls, recorded from outside the package.

:meth:`Tracer.install` replaces every public function of the gnls modules,
and ``fftn``/``ifftn`` of ``numpy.fft`` and ``scipy.fft``, in each namespace
where a caller looks it up (``gnls.norms.to_spectral``,
``gnls.integrator._kernels.phase_rotate``, ``numpy.fft.fftn``, ...) with a
wrapper that records a span: name, start, end and the index of the span that
was open when it started.  ``Field.__init__`` is wrapped too, and so is the
``on_snapshot`` callback handed to ``evolve``, which belongs to the caller.
Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall` restores
every attribute.  Spans nest through one stack, so gnls must be called from
a single thread while the tracer is installed.

A span is the list ``[name, parent, start, end, alloc_start, alloc_end,
work]``; ``parent`` is -1 for a root.  ``work`` is a per-call count chosen
by name: solver steps for ``evolve``, computed bytes moved for
``phase_rotate``, ensemble members for ``audit_trilinear`` and 1 for a
``Field`` whose values were copied on construction.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
import tracemalloc
import types

import numpy as np

NAME, PARENT, START, END, ALLOC0, ALLOC1, WORK = range(7)

#: gnls modules whose public functions are traced; the label drops the "_"
GNLS_MODULES = ("grid", "spectral", "norms", "integrator", "bookkeeper",
                "spacetime", "audits", "data", "storage", "harness", "cli",
                "_kernels")
FFT_FUNCTIONS = ("fftn", "ifftn")
#: module labels that get a ``<label>.self_ms`` metric; "bench" is the
#: benchmark's own code between calls into gnls
SELF_LABELS = tuple(m.lstrip("_") for m in GNLS_MODULES) + ("fft", "bench")

#: per-call work counts, from the bound arguments of the traced call
WORK_OF = {
    # phase_rotate reads and writes one complex128 per sample
    "kernels.phase_rotate": lambda a: 32 * a["values"].size,
    "audits.audit_trilinear": lambda a: a["n_members"],
}

_fftn = np.fft.fftn  # untraced, for the resolution probe


def _label(module_name: str) -> str:
    """'gnls._kernels' -> 'kernels'; any module outside gnls -> 'bench'."""
    if module_name.startswith("gnls."):
        return module_name.split(".", 1)[1].lstrip("_")
    return "bench"


class Tracer:
    """Records spans in memory while installed; see the module docstring.

    With ``track_alloc`` each span also records a running total of
    tracemalloc high-water growth, sampled at every span boundary: the sum
    of (peak - level at the previous boundary) over the segments between
    boundaries.  It is a lower bound on the bytes allocated, since memory
    freed and reallocated inside one segment counts once.  With ``probe``
    set, every snapshot handed to an ``on_snapshot`` callback is passed to
    ``probe`` inside the callback's span, before the callback runs.
    """

    def __init__(self):
        self.spans = []
        self.track_alloc = False
        self.probe = None
        self._stack = []
        self._patches = []
        self._alloc = 0
        self._level = 0

    # -- recording --------------------------------------------------------

    def _tick(self) -> int:
        if self.track_alloc:
            cur, peak = tracemalloc.get_traced_memory()
            self._alloc += peak - self._level
            tracemalloc.reset_peak()
            self._level = cur
        return self._alloc

    def enter(self, name: str, work=0) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, 0.0, 0.0, self._tick(), 0, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def exit(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        rec[ALLOC1] = self._tick()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.enter(name)
        try:
            yield rec
        finally:
            self.exit(rec)

    @contextlib.contextmanager
    def counting(self):
        """Track allocations with tracemalloc for the duration."""
        tracemalloc.start()
        self.track_alloc, self._alloc, self._level = True, 0, 0
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            self.track_alloc = False
            tracemalloc.stop()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, name: str):
        work_of = WORK_OF.get(name)
        sig = inspect.signature(fn) if work_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = work_of(sig.bind(*args, **kwargs).arguments) if work_of else 0
            rec = self.enter(name, work)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(rec)
        return traced

    def _wrap_evolve(self, fn):
        """evolve, plus a span around the caller's on_snapshot callback."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            callback = bound.arguments.get("on_snapshot")
            if callback is not None:
                bound.arguments["on_snapshot"] = self._wrap_callback(callback)
            rec = self.enter("integrator.evolve", bound.arguments["cfg"].n_steps)
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self.exit(rec)
        return traced

    def _wrap_callback(self, callback):
        name = _label(getattr(callback, "__module__", "")) + ".on_snapshot"

        def traced(t, u):
            rec = self.enter(name)
            try:
                if self.probe is not None:
                    self.probe(u)
                return callback(t, u)
            finally:
                self.exit(rec)
        return traced

    def _wrap_field_init(self, init):
        def traced_init(field, grid, values, *args, **kwargs):
            rec = self.enter("grid.Field")
            try:
                init(field, grid, values, *args, **kwargs)
            finally:
                self.exit(rec)
            rec[WORK] = int(field.values is not values)
        return traced_init

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import gnls
        from gnls.grid import Field

        modules = [importlib.import_module(f"gnls.{m}") for m in GNLS_MODULES]
        fft_namespaces = [np.fft]
        try:
            import scipy.fft
            fft_namespaces.append(scipy.fft)
        except ImportError:
            pass

        wrappers = {}  # id(function) -> (function, wrapper)
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__ or id(obj) in wrappers):
                    continue
                name = f"{_label(mod.__name__)}.{attr}"
                wrapper = (self._wrap_evolve(obj) if name == "integrator.evolve"
                           else self.wrap(obj, name))
                wrappers[id(obj)] = (obj, wrapper)
        for ns in fft_namespaces:
            for attr in FFT_FUNCTIONS:
                obj = getattr(ns, attr)
                wrappers[id(obj)] = (obj, self.wrap(obj, f"fft.{attr}"))

        for ns in [gnls, *modules, *fft_namespaces]:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, hit[1])
        self._patch(Field, "__init__", self._wrap_field_init(Field.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered(interval, children) -> float:
    """Length of the part of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in children):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the time its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered((s[START], s[END]), kids)
            for s, kids in zip(spans, children)]


def contexts(spans) -> list:
    """'snapshot' under an on_snapshot callback, 'step' elsewhere under
    evolve, '' otherwise.  Parents are recorded before their children."""
    out = []
    for s in spans:
        up = out[s[PARENT]] if s[PARENT] >= 0 else ""
        if s[NAME].endswith(".on_snapshot"):
            up = "snapshot"
        elif s[NAME] == "integrator.evolve" and up != "snapshot":
            up = "step"
        out.append(up)
    return out


def resolved(values: np.ndarray) -> bool:
    """True when the coefficient energy at |k| >= N/4 on any axis is below
    round-off: at most eps^2 x (number of coefficients) x the total energy."""
    coeffs = _fftn(values)
    energy = coeffs.real ** 2 + coeffs.imag ** 2
    n = values.shape[0]
    high_axis = np.abs(np.fft.fftfreq(n, d=1.0 / n)) >= n // 4
    high = np.zeros(values.shape, dtype=bool)
    for axis in range(values.ndim):
        shape = [1] * values.ndim
        shape[axis] = n
        high |= high_axis.reshape(shape)
    eps = np.finfo(np.float64).eps
    return float(energy[high].sum()) <= eps * eps * energy.size * float(energy.sum())


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def pass_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, whose root span is spans[0].

    Times are in ms unless the name ends in ``_s``.  Layers the pass never
    called read 0.
    """
    selfs = self_times(spans)
    ctx = contexts(spans)
    dur = [s[END] - s[START] for s in spans]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def calls(name, where=None):
        return [i for i in by_name.get(name, ()) if where is None or ctx[i] == where]

    def mean_ms(name):
        idx = calls(name)
        return 1e3 * sum(dur[i] for i in idx) / len(idx) if idx else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    steps = sum(spans[i][WORK] for i in calls("integrator.evolve"))
    snaps = [i for i, s in enumerate(spans) if s[NAME].endswith(".on_snapshot")]
    fft_calls = [i for name in FFT_FUNCTIONS for i in calls(f"fft.{name}")]
    field_inits = calls("grid.Field", "snapshot")
    rotate = calls("kernels.phase_rotate")
    members = sum(spans[i][WORK] for i in calls("audits.audit_trilinear"))
    module_self = dict.fromkeys(SELF_LABELS, 0.0)
    for s, t in zip(spans, selfs):
        module_self[s[NAME].split(".", 1)[0]] += t

    m = {
        "integrator.step_ms": 1e3 * ratio(
            sum(dur[i] for i in calls("integrator.evolve"))
            - sum(dur[i] for i in snaps), steps),
        "integrator.self_ms_per_step": 1e3 * ratio(module_self["integrator"], steps),
        "fft.fftn_ms": mean_ms("fft.fftn"),
        "fft.ifftn_ms": mean_ms("fft.ifftn"),
        "fft.calls_per_step": ratio(sum(ctx[i] == "step" for i in fft_calls), steps),
        "fft.calls_per_snapshot": ratio(
            sum(ctx[i] == "snapshot" for i in fft_calls), len(snaps)),
        "kernels.phase_rotate_ms": mean_ms("kernels.phase_rotate"),
        "kernels.phase_rotate_computed_gb_s": 1e-9 * ratio(
            sum(spans[i][WORK] for i in rotate), sum(dur[i] for i in rotate)),
        "kernels.shell_envelope_ms": mean_ms("kernels.shell_envelope"),
        "kernels.triple_gap_ratios_ms": mean_ms("kernels.triple_gap_ratios"),
        "spectral.pad_spectrum_ms": mean_ms("spectral.pad_spectrum"),
        "spectral.l4_norm_ms": mean_ms("spectral.l4_norm"),
        "grid.field_inits_per_snapshot": ratio(len(field_inits), len(snaps)),
        "grid.field_copies_per_snapshot": ratio(
            sum(spans[i][WORK] for i in field_inits), len(snaps)),
        "harness.self_ms_per_snapshot": 1e3 * ratio(module_self["harness"], len(snaps)),
        "harness.sweep_s": sum(dur[i] for i in calls("harness.fit_conservation_constant")),
        "storage.write_csv_ms": mean_ms("storage.write_csv"),
        "audits.member_ms": 1e3 * ratio(
            sum(dur[i] for i in calls("audits.audit_trilinear")), members),
        "bookkeeper.run_induction_ms": mean_ms("bookkeeper.run_induction"),
        "trace.wall_ms": 1e3 * dur[0],
        "trace.self_sum_ms": 1e3 * sum(selfs),
    }
    for name in ("norm_report", "energy", "l4_gevrey", "gevrey_norm",
                 "radius_estimate", "a_sigma"):
        m[f"norms.{name}_ms"] = mean_ms(f"norms.{name}")
    for name in ("st_triple_product", "xsb_norm", "random_decaying"):
        m[f"spacetime.{name}_ms"] = mean_ms(f"spacetime.{name}")
    for label, t in module_self.items():
        m[f"{label}.self_ms"] = 1e3 * t
    return m


def alloc_mb_per_step(spans) -> float:
    """tracemalloc high-water growth inside evolve, outside its callbacks,
    per solver step (see :class:`Tracer`)."""
    steps = 0
    alloc = 0
    for s in spans:
        if s[NAME] == "integrator.evolve":
            steps += s[WORK]
            alloc += s[ALLOC1] - s[ALLOC0]
        elif s[NAME].endswith(".on_snapshot"):
            alloc -= s[ALLOC1] - s[ALLOC0]
    return alloc / steps / 2 ** 20 if steps else 0.0


def initial_data_s(spans) -> float:
    """Time inside gnls.data, outermost data spans only."""
    return sum(s[END] - s[START] for s in spans if s[NAME].startswith("data.")
               and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith("data.")))


def median_metrics(passes) -> dict:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
