"""Hot pointwise kernels in numpy, and the two-thread grid passes.

The FFTs that dominate the integrator are delegated to numpy/pocketfft;
these are the pointwise nonlinear phase rotation, the Monte-Carlo
triple-frequency inequality check, and the shell envelope reduction used by
the radius estimator.  The private section at the end runs a full-grid pass
(an FFT, a pointwise product, the blow-up guard) as two halves on two
threads; the triple-frequency check runs its ensemble as two halves on the
same two threads.
"""

import os
import threading

import numpy as np


def phase_rotate(values: np.ndarray, dt: float, phase: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """u <- u * exp(-i |u|^2 dt), written into ``out`` and returned.

    ``phase`` (real) and ``out`` (complex) are the caller's buffers of the
    shape of ``values``; ``out`` must not share memory with ``values``.
    On a split grid (see :func:`_splits`) each half along axis 0 is
    rotated on its own thread.
    """
    # the test of _splits inline: one call fewer per 1-D step
    if values.ndim > 1 and values.size >= _SPLIT_MIN:
        _split(0, _rotate, _rotate, values, phase, out, dt)
        return out
    return _rotate(values, phase, out, dt)


def _rotate(values, phase, out, dt):
    """The rotation of :func:`phase_rotate` on one piece of the grid.

    The phase -dt |u|^2 goes into ``phase``, with ``out.imag`` holding
    Im(u)^2 on the way; its cosine and sine are written straight into the
    real and imaginary parts of ``out``, which is then multiplied by
    ``values`` in place, so no temporary is made.
    """
    np.multiply(values.real, values.real, out=phase)
    phase += np.multiply(values.imag, values.imag, out=out.imag)
    phase *= -float(dt)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    np.multiply(values, out, out=out)
    return out


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
# The calling thread runs its half through np.fft.fftn/ifftn.  The helper
# thread calls only ufuncs, np.fft.fft/ifft, random fills and private
# functions, never a public gnls function or np.fft.fftn/ifftn, so whatever
# wraps those (a profiler, a tracer) sees every call on the calling thread.
# The helper is never handed work that hands off again: one helper would
# wait on itself.  Both halves' buffers are made on the calling thread.

def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


#: whether this process may run on more than one CPU; without, no pass
#: runs as two halves and the helper thread is never started
_TWO_CPUS = _cpus() > 1

#: grid points from which a pass over a d >= 2 grid runs as two halves
_SPLIT_MIN = 1 << 16 if _TWO_CPUS else float("inf")


def _splits(a: np.ndarray) -> bool:
    """Whether a pass over ``a`` runs as two halves."""
    return a.ndim > 1 and a.size >= _SPLIT_MIN


_helper = None  # the helper thread's task queue, made on first use
_helper_lock = threading.Lock()


def _serve(tasks):
    while True:
        fn, box, done = tasks.get()
        try:
            box[0] = fn()
        except BaseException as exc:
            box[1] = exc
        # hold no array of the task past its hand-off: it would outlive
        # the caller's last use and change what the heap reuses
        fn = box = None
        done.release()


def _start_helper():
    global _helper
    with _helper_lock:
        if _helper is None:
            import queue
            tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(tasks,), name="gnls-half",
                             daemon=True).start()
            _helper = tasks
        return _helper


def _forget_helper():
    """A forked child has no helper thread; it starts its own on first use."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _both(left, right):
    """``(left(), right())``, with ``right`` run on the helper thread.

    Both have finished before a failure in either is raised here.
    """
    tasks = _helper if _helper is not None else _start_helper()
    done = threading.Lock()
    done.acquire()
    box = [None, None]  # right's result, right's exception
    tasks.put((right, box, done))
    try:
        here = left()
    finally:
        done.acquire()
    if box[1] is not None:
        raise box[1]
    return here, box[0]


def _split(axis, left, right, *args):
    """``left`` on the first half and ``right`` on the second half of every
    array in ``args``, cut along ``axis`` at the same index, on two threads;
    other arguments go whole to both.  Returns both results."""
    h = args[0].shape[axis] // 2
    head = (slice(None),) * axis
    lo = [a[head + (slice(None, h),)] if isinstance(a, np.ndarray) else a
          for a in args]
    hi = [a[head + (slice(h, None),)] if isinstance(a, np.ndarray) else a
          for a in args]
    return _both(lambda: left(*lo), lambda: right(*hi))


def _transform(a, out, nd, line):
    """``nd(a, out=out)`` for ``nd`` np.fft.fftn or ifftn, as two passes:
    axes d-1 ... 1 over the halves along axis 0, then axis 0 over the
    halves along axis 1.  The helper's halves go one axis at a time through
    ``line``, np.fft.fft or ifft, in the axis order of ``nd``."""
    inner = tuple(range(1, a.ndim))

    def lines(x, o):
        for axis in reversed(inner):
            line(x, axis=axis, out=o)
            x = o

    _split(0, lambda x, o: nd(x, axes=inner, out=o), lines, a, out)
    _split(1, lambda o: nd(o, axes=(0,), out=o),
           lambda o: line(o, axis=0, out=o), out)
    return out


def _fftn(a, out):
    """``np.fft.fftn(a, out=out)``, in two halves per axis pass on a split grid."""
    if not _splits(a):
        return np.fft.fftn(a, out=out)
    return _transform(a, out, np.fft.fftn, np.fft.fft)


def _ifftn(a, out):
    """``np.fft.ifftn(a, out=out)``, in two halves per axis pass on a split grid."""
    if not _splits(a):
        return np.fft.ifftn(a, out=out)
    return _transform(a, out, np.fft.ifftn, np.fft.ifft)


def _pointwise(ufunc):
    """``ufunc(a, b, out=out)``, in two halves along axis 0 on a split grid;
    ``b`` is a scalar or an array of the shape of ``a``."""
    def run(a, b, out):
        if not _splits(a):
            return ufunc(a, b, out=out)
        _split(0, ufunc, ufunc, a, b, out)
        return out
    return run


_multiply = _pointwise(np.multiply)
_divide = _pointwise(np.divide)


def _exp_of(scale, x):
    """``np.exp(scale * x)``, in two halves along axis 0 on a split grid."""
    if not _splits(x):
        return np.exp(scale * x)
    out = np.empty(x.shape, np.result_type(scale, x))

    def part(x, out):
        np.multiply(scale, x, out=out)
        return np.exp(out, out=out)

    _split(0, part, part, x, out)
    return out


def _abs_max(values, mag):
    """``np.abs(values, out=mag).max()``, the blow-up guard's peak, through
    the reduction itself: one call fewer per step than ndarray.max."""
    return np.maximum.reduce(np.abs(values, out=mag), axis=None)


def _peak(values, mag):
    """:func:`_abs_max` over two halves along axis 0; a NaN in either half
    is the peak."""
    return np.maximum(*_split(0, _abs_max, _abs_max, values, mag))
