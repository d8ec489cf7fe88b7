"""Hot pointwise kernels in numpy, and the two-thread grid passes.

The FFTs that dominate the integrator are delegated to numpy/pocketfft;
these are the pointwise nonlinear phase rotation, in place with the
blow-up guard's peak fused into it, the Monte-Carlo triple-frequency
inequality check, and the shell envelope reduction used by the radius
estimator.  The rotation and the guard go over the grid in cache-sized
slabs of rows along axis 0, in buffers the caller makes once
(:func:`_workspace`); the linear step's phase is the product of its
per-axis factors, formed slab by slab in the same buffers.  The private
section at the end runs a full-grid pass (an FFT, a pointwise product, the
slabs of the rotation or of a phase product, the one slab pass of a
function of the per-axis squares that fills |xi| and the radial initial
data) as two halves on two threads; the triple-frequency check runs its
ensemble as two halves on the same two threads.  No other module hands work to the helper thread.
"""

import _thread
import os
import threading
from functools import partial, reduce

import numpy as np


def phase_rotate(values: np.ndarray, dt: float, work) -> np.ndarray:
    """u <- u * exp(-i |u|^2 dt) in place; returns max|u| of the result.

    ``work`` is :func:`_workspace` of ``values``, made once by the caller.
    The rotation and the blow-up guard's peak run slab by slab (see
    :func:`_slabs`), so every sample is read and written once; on a split
    grid (see :func:`_splits`) each half along axis 0 runs on its own
    thread.  A NaN anywhere is the peak.
    """
    return reduce(np.maximum, _halves(_slabs, work, values, -float(dt)))


def _guard(values: np.ndarray, work) -> np.ndarray:
    """max|u| over ``values`` in the slabs of :func:`phase_rotate`, with
    no rotation: ``values`` is only read."""
    return reduce(np.maximum, _halves(_slabs, work, values, None))


def _abs_range(values: np.ndarray) -> tuple:
    """``(min |u|, max |u|)`` over ``values``, one slab of about ``_SLAB``
    points of rows along axis 0 at a time in a real buffer made here, so
    no temporary of the grid is made; on a split grid each half along
    axis 0 runs on its own thread, in half a slab, as in :func:`_workspace`."""
    halves = 2 if _splits(values) else 1
    rows = max(_SLAB // halves * values.shape[0] // values.size, 1)
    work = _pieces(values, lambda n: (
        np.empty((min(rows, n),) + values.shape[1:]),))
    parts = _halves(_abs_range_slabs, work, values)
    return min(lo for lo, _ in parts), max(hi for _, hi in parts)


def _abs_range_slabs(values, buf):
    """:func:`_abs_range` on the rows of ``values``, as many at a time as
    ``buf`` holds."""
    lo, hi = np.inf, 0.0
    for start in range(0, len(values), len(buf)):
        v = values[start:start + len(buf)]
        mag = np.abs(v, out=buf[:len(v)])
        lo, hi = min(lo, float(mag.min())), max(hi, float(mag.max()))
    return lo, hi


def _slabs(values, rotation, phase, rot):
    """max|u| over ``values``, as many rows along axis 0 at a time as the
    real ``phase`` and complex ``rot`` buffers hold; unless ``rotation`` is
    None each slab is first multiplied in place by exp(i rotation |u|^2).

    A slab's phase goes into ``phase``, with ``rot.imag`` holding Im(u)^2
    on the way; its cosine and sine are written into the real and
    imaginary parts of ``rot``, which multiplies the slab, and ``phase``
    then takes the slab's |u| for its maximum while the slab is in cache.
    Every sample sees the ufuncs of the whole-grid rotation in their order
    (tests/oracles.py), so the output is bit-identical to it.  The slabs'
    peaks combine through np.maximum, which, unlike max(), keeps a NaN.
    """
    rows = phase.shape[0]
    peak = None
    for lo in range(0, values.shape[0], rows):
        v = values[lo:lo + rows]
        if v.shape[0] < rows:  # the last slab, partial
            phase, rot = phase[:v.shape[0]], rot[:v.shape[0]]
        if rotation is not None:
            np.multiply(v.real, v.real, out=phase)
            phase += np.multiply(v.imag, v.imag, out=rot.imag)
            phase *= rotation
            np.cos(phase, out=rot.real)
            np.sin(phase, out=rot.imag)
            np.multiply(v, rot, out=v)
        top = np.maximum.reduce(np.abs(v, out=phase), axis=None)
        peak = top if peak is None else np.maximum(peak, top)
    return peak


def _phase_product(values: np.ndarray, scale: complex, xi_axis: np.ndarray,
                   work):
    """A function of no arguments that multiplies ``values`` in place by the
    linear step's phase exp(scale |xi|^2) on the d-dimensional lattice of
    wavenumbers ``xi_axis``, as the product of its per-axis factors
    exp(scale xi_j^2).

    The one-axis factor e gets xi * xi in its real parts and +0 in its
    imaginary parts, numpy's cast of xi^2 to complex, then the product with
    ``scale`` and its exponential, the ufuncs of the whole-grid formula
    ``np.exp(scale * xi_abs**2)``; so at d = 1 e is that formula bit for
    bit and the function is one ``np.multiply``.  At d >= 2 it also holds
    the outer product of the last d - 1 axes' factors, N^(d-1) entries, and
    :func:`_phase_slabs` multiplies each slab of rows along axis 0 by
    e_i * (e_j * e_k), formed in the complex buffer of ``work``
    (:func:`_workspace` of ``values``); on a split grid (see
    :func:`_splits`) each half along axis 0 runs on its own thread.
    """
    e = np.empty(len(xi_axis), np.complex128)
    np.multiply(xi_axis, xi_axis, out=e.real)
    e.imag = 0.0
    np.multiply(scale, e, out=e)
    np.exp(e, out=e)
    if values.ndim == 1:
        return partial(np.multiply, values, e, out=values)
    rest = reduce(np.multiply, np.meshgrid(*[e] * (values.ndim - 1),
                                           indexing="ij", sparse=True))
    return partial(_halves, partial(_phase_slabs, rest.reshape(-1)), work,
                   values, e)


def _phase_slabs(rest, values, e, _, buf):
    """:func:`_phase_product` on the rows of ``values``, whose axis-0
    factors are ``e``, as many rows at a time as the complex ``buf`` holds:
    each slab's factors e_i * rest, ``rest`` the flat outer product of the
    other axes' factors, go into ``buf``, which then multiplies the slab,
    in the operand order of ``values * (e_i * rest)``."""
    rows = buf.shape[0]
    for lo in range(0, len(values), rows):
        v = values[lo:lo + rows]
        t = buf[:len(v)]
        np.multiply(e[lo:lo + len(v), None], rest, out=t.reshape(len(v), -1))
        np.multiply(v, t, out=v)


#: members per block of ``triple_gap_ratios``: a working column of one
#: block is 128 KB
_BLOCK = 1 << 14


def triple_gap_ratios(source, n, sigma):
    """Audit 1 - exp(-sigma*gap) <= 12*sigma*xi_med over an ensemble.

    source : callable, ``source(lo, size) -> draw``, where ``draw(m)``,
        m <= size, hands out the interaction frequencies of the next m
        members, from member ``lo`` on, as one (3, m, d) float array:
        xi1, xi2 and xi3 stacked.  This function only reads it.
    n : number of members.
    Returns (violations, ratios) where ratio = lhs/rhs with
    rhs = 12*sigma*xi_med; degenerate members with rhs == 0 count as a
    violation only if lhs > 0 (they cannot, by the triangle inequality).

    Members are drawn and checked in blocks of ``_BLOCK`` in columns made
    once, so every temporary stays in cache and no whole ensemble is held;
    each block's ratios go straight into the one output array.  With more
    than one CPU an ensemble of two blocks or more runs as two halves cut
    at a block boundary, the second on the helper thread (see the
    two-thread section below), each in half blocks: both together hold
    the working columns of one block.  Every member sees the same
    arithmetic either way, so the output is bit-identical.
    """
    ratios = np.zeros(n)

    def run(lo, hi, size):
        # the run's draw buffer and working columns, six float and one
        # bool, made here on the calling thread
        work = np.empty((6, size)), np.empty(size, np.bool_)
        return source(lo, size), sigma, ratios[lo:hi], work

    if not (_TWO_CPUS and n > _BLOCK):
        return _gap_run(*run(0, n, min(n, _BLOCK))), ratios
    cut = _BLOCK * (-(-n // _BLOCK) // 2)
    left, right = run(0, cut, _BLOCK // 2), run(cut, n, _BLOCK // 2)
    return sum(_both(lambda: _gap_run(*left),
                     lambda: _gap_run(*right))), ratios


def _gap_run(draw, sigma, ratios, work):
    """:func:`triple_gap_ratios` on the run of members whose ratios go into
    ``ratios``, drawn from ``draw`` as many at a time as ``work`` has
    columns for; returns their violations.

    Norms sum squared components left to right, the addition order of
    ``(v * v).sum(axis=1)`` for d <= 3, and the output frequency is
    ``xi1 - xi2 - xi3`` taken left to right, so every ratio is bit-identical
    to the whole-array check; einsum and linalg.norm are not.
    """
    cols, mask = work
    size = mask.size
    violations = 0
    for lo in range(0, ratios.size, size):
        m = min(size, ratios.size - lo)
        xi = draw(m)
        d = xi.shape[2]
        norms, sq = cols[:3, :m], cols[3:, :m]  # |xi1|, |xi2|, |xi3|; scratch
        np.multiply(xi[..., 0], xi[..., 0], out=norms)
        for j in range(1, d):
            norms += np.multiply(xi[..., j], xi[..., j], out=sq)
        np.sqrt(norms, out=norms)
        a1, a2, a3 = norms
        # |xi1 - xi2 - xi3|, its components in the rows of sq
        for j in range(d):
            np.subtract(xi[0, :, j], xi[1, :, j], out=sq[j])
            sq[j] -= xi[2, :, j]
        np.multiply(sq[:d], sq[:d], out=sq[:d])
        aout, gap, hi = sq
        for j in range(1, d):
            aout += sq[j]
        np.sqrt(aout, out=aout)
        np.add(a1, a2, out=gap)
        gap += a3
        gap -= aout
        gap *= -sigma
        lhs = np.expm1(gap, out=gap)
        np.negative(lhs, out=lhs)
        # exact median of three: max(min(a1, a2), min(max(a1, a2), a3))
        np.maximum(a1, a2, out=hi)
        np.minimum(hi, a3, out=hi)
        med = np.minimum(a1, a2, out=a1)
        np.maximum(med, hi, out=med)
        rhs = np.multiply(12.0 * sigma, med, out=med)
        np.divide(lhs, rhs, out=ratios[lo:lo + m],
                  where=np.greater(rhs, 0.0, out=mask[:m]))
        # lhs > rhs is the violation: with rhs == 0 it is lhs > 0
        violations += int(np.count_nonzero(np.greater(lhs, rhs, out=mask[:m])))
    return violations


def shell_envelope(mag, shell, n_shells):
    """Per-shell maximum of |coefficients|.

    mag : flat float array of coefficient magnitudes.
    shell : flat int array of shell indices in [0, n_shells).
    """
    env = np.zeros(n_shells)
    np.maximum.at(env, shell, mag)
    return env


# ---------------------------------------------------------------------------
# two halves on two threads
# ---------------------------------------------------------------------------
#
# numpy releases the GIL inside every FFT, ufunc and random fill, so a
# full-grid pass cut into two halves runs on two cores, and so does the
# triple-frequency ensemble cut into two runs of members, each drawing from
# its own streams.  Each half sees exactly the arithmetic of the whole pass:
# pocketfft transforms every line on its own, in the axis order np.fft.fftn
# uses, and every ufunc here is pointwise or an exact maximum.  So every
# output is bit-identical to the one-thread pass.
#
# Every FFT of the package goes through :func:`_fft`, which makes one
# np.fft.fftn/ifftn call on the calling thread and np.fft.fft/ifft calls on
# the helper.  The helper calls only those, ufuncs, random fills and private
# functions, never a public gnls function or np.fft.fftn/ifftn, so whatever
# wraps those (a profiler, a tracer) sees every call on the calling thread.
# Both halves' buffers are made on the calling thread.  Whether a pass
# splits is decided here too (:func:`_splits`, through :func:`_halves` and
# :func:`_pieces`), never by a caller.

def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


#: whether this process may run on more than one CPU; without, no pass
#: runs as two halves and no helper thread is started
_TWO_CPUS = _cpus() > 1

#: grid points from which a pass over a d >= 2 grid runs as two halves
_SPLIT_MIN = 1 << 16 if _TWO_CPUS else float("inf")


def _splits(a: np.ndarray) -> bool:
    """Whether a pass over ``a`` runs as two halves."""
    return a.ndim > 1 and a.size >= _SPLIT_MIN


_on_helper = threading.local()  # ``marked`` is set on helper threads only


def _both(left, right):
    """``(left(), right())``, with ``right`` run on a helper thread of its
    own.

    Both have finished before a failure in either is raised here.
    """
    done = threading.Lock()
    done.acquire()
    box = [None, None]  # right's result, right's exception

    def helper():
        nonlocal right
        _on_helper.marked = True
        try:
            box[0] = right()
        except BaseException as exc:
            box[1] = exc
        # hold no array of the half past its hand-off: it would outlive
        # the caller's last use and change what the heap reuses
        right = None
        done.release()

    _thread.start_new_thread(helper, ())
    try:
        here = left()
    finally:
        done.acquire()
    if box[1] is not None:
        raise box[1]
    return here, box[0]


#: grid points per slab of the rotation, the guard, the phase product and
#: :func:`_radial`: a slab's real buffer takes 256 KB and its complex one
#: 512 KB
_SLAB = 1 << 15


def _workspace(values: np.ndarray) -> tuple:
    """The slab buffers of :func:`phase_rotate`, :func:`_guard` and
    :func:`_phase_product` on grids of the shape of ``values``: a real and
    a complex array of one slab of rows along axis 0, one pair for the
    whole grid or, on a split grid, one pair of half a slab per half, so
    that both together hold one slab's buffers; all made here on the
    calling thread."""
    halves = 2 if _splits(values) else 1
    rows = max(_SLAB // halves * values.shape[0] // values.size, 1)
    shape = (min(rows, -(-values.shape[0] // halves)),) + values.shape[1:]
    return tuple((np.empty(shape), np.empty(shape, np.complex128))
                 for _ in range(halves))


def _mesh_sum(sq, lo, out):
    """((0 + s0) + s1) + s2, the order of sum() over the sparse mesh ``sq``
    of per-axis squares, on the rows of ``out`` from row ``lo`` along axis
    0 on; returns ``out``.  Copying s0 is adding it to 0: a square is +0 or
    more."""
    np.copyto(out, sq[0][lo:lo + out.shape[0]])
    for s in sq[1:]:
        out += s
    return out


def _halves(run, work, *args, axis=0):
    """``run(*args, *buffers)`` with the one buffer tuple of ``work``, or,
    with a tuple per half, ``run`` on the first half of every array in
    ``args`` with the first tuple here and on the second half with the
    second on the helper thread, all cut along ``axis`` at the same index;
    other arguments go whole to both.  ``work`` None is a pass with no
    buffers, split as a pass over ``args[0]`` splits (:func:`_splits`).
    Returns the results, one per piece."""
    if work is None:
        work = ((), ()) if _splits(args[0]) else ((),)
    if len(work) == 1:
        return (run(*args, *work[0]),)
    h = args[0].shape[axis] // 2
    head = (slice(None),) * axis
    lo, hi = ([a[head + (cut,)] if isinstance(a, np.ndarray) else a
               for a in args] for cut in (slice(None, h), slice(h, None)))
    left, right = work
    return _both(lambda: run(*lo, *left), lambda: run(*hi, *right))


def _pieces(a, make, n=None) -> tuple:
    """The ``work`` of :func:`_halves` for a pass over ``a`` of ``n`` rows
    along axis 0, ``len(a)`` unless given: ``(make(n),)``, or, on a split
    grid, ``make(n // 2)`` for the calling thread's half and
    ``make(n - n // 2)`` for the helper's; each ``make(rows)`` is a tuple
    of buffers, all made here on the calling thread."""
    n = len(a) if n is None else n
    if not _splits(a):
        return (make(n),)
    return make(n // 2), make(n - n // 2)


def _radial(sq, out, fill, n_work, *params):
    """``out``, filled with a function of the sum of the per-axis squares
    ``sq``, a sparse mesh of out's shape: the one slab pass of |xi| and
    the radial initial data.

    Each slab of rows along axis 0, about ``_SLAB`` points, is summed by
    :func:`_mesh_sum` into a real buffer, and ``fill(r2, slab, *scratch,
    *params)`` then writes the function of those sums ``r2`` into the
    slab of ``out``, using ``r2`` itself and the ``n_work`` real
    ``scratch`` arrays of the slab's shape; so no pass makes a temporary of
    the grid, and every value sees the ufuncs of the whole-grid formula.
    On a split grid each half along axis 0 runs on its own thread, with
    one slab's buffers of its own.  Returns ``out``.
    """
    rows = max(_SLAB * out.shape[0] // out.size, 1)
    work = _pieces(out, lambda n: (
        np.empty((n_work + 1, min(rows, n)) + out.shape[1:]),))
    _halves(_radial_slabs, work, out, sq[0], sq[1:], fill, params)
    return out


def _radial_slabs(out, sq0, sq_rest, fill, params, work):
    """:func:`_radial` on the rows of ``out``, whose squares along axis 0
    are ``sq0``, as many rows at a time as ``work`` holds."""
    rows = work.shape[1]
    for lo in range(0, out.shape[0], rows):
        m = min(rows, out.shape[0] - lo)
        r2 = _mesh_sum((sq0, *sq_rest), lo, work[0, :m])
        fill(r2, out[lo:lo + m], *[w[:m] for w in work[1:]], *params)


def _fft(a, out, axes, inverse=False):
    """``np.fft.fftn(a, axes=axes, out=out)``, or ifftn when ``inverse``, as
    that one call on the calling thread and as one np.fft.fft or ifft call
    per axis on the helper thread, in the axis order of fftn: the last of
    ``axes``, all of a's when None, first.  Every line sees the same
    transform either way."""
    if not getattr(_on_helper, "marked", False):
        return (np.fft.ifftn if inverse else np.fft.fftn)(a, axes=axes,
                                                          out=out)
    line = np.fft.ifft if inverse else np.fft.fft
    for axis in reversed(range(a.ndim) if axes is None else axes):
        a = line(a, axis=axis, out=out)
    return a


def _fftn(a, out, inverse=False):
    """``np.fft.fftn(a, out=out)``, or ifftn when ``inverse``; on a split
    grid as two passes of :func:`_fft`: axes d-1 ... 1 over the halves along
    axis 0, then axis 0 over the halves along axis 1."""
    if not _splits(a):
        return _fft(a, out, None, inverse)
    _halves(_fft, None, a, out, tuple(range(1, a.ndim)), inverse)
    _halves(_fft, None, out, out, (0,), inverse, axis=1)
    return out


def _multiply(a, b, out):
    """``np.multiply(a, b, out=out)``, in two halves along axis 0 on a split
    grid; ``b`` is a scalar."""
    _halves(np.multiply, None, a, b, out)
    return out
