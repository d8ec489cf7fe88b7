"""Hot pointwise kernels in numpy.

The FFTs that dominate the integrator are delegated to numpy/pocketfft and
are not here; these are the pointwise nonlinear phase rotation, the
Monte-Carlo triple-frequency inequality check, and the shell envelope
reduction used by the radius estimator.
"""

import numpy as np


def phase_rotate(values: np.ndarray, dt: float, phase: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """u <- u * exp(-i |u|^2 dt), written into ``out`` and returned.

    ``phase`` (real) and ``out`` (complex) are the caller's buffers of the
    shape of ``values``; ``out`` must not share memory with ``values``.
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


#: members per block of ``triple_gap_ratios``: each temporary is 128 KB
_BLOCK = 1 << 14


def _row_norms(x):
    """Euclidean norm of each row, summing squared columns left to right.

    For d <= 3 this is the addition order of ``(x * x).sum(axis=1)``, so
    the norms are bit-identical to it; einsum and linalg.norm are not.
    """
    s = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        s += x[:, j] * x[:, j]
    return np.sqrt(s, out=s)


def triple_gap_ratios(draw, n, sigma):
    """Audit 1 - exp(-sigma*gap) <= 12*sigma*xi_med over an ensemble.

    draw : callable, ``draw(m) -> (xi1, xi2, xi3)``, each an (m, d) float
        array of the next m members' interaction frequencies.
    n : number of members.
    Returns (violations, ratios) where ratio = lhs/rhs with
    rhs = 12*sigma*xi_med; degenerate members with rhs == 0 count as a
    violation only if lhs > 0 (they cannot, by the triangle inequality).

    Members are drawn and checked in blocks of ``_BLOCK``, so every
    temporary stays in cache and no whole ensemble is held; each block's
    ratios go straight into the one output array.
    """
    ratios = np.zeros(n)
    violations = 0
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        x1, x2, x3 = draw(m)
        a1, a2, a3 = _row_norms(x1), _row_norms(x2), _row_norms(x3)
        gap = a1 + a2
        gap += a3
        gap -= _row_norms(x1 - x2 - x3)
        gap *= -sigma
        lhs = np.expm1(gap, out=gap)
        np.negative(lhs, out=lhs)
        # exact median of three: max(min(a1, a2), min(max(a1, a2), a3))
        hi = np.maximum(a1, a2)
        np.minimum(hi, a3, out=hi)
        med = np.minimum(a1, a2, out=a1)
        np.maximum(med, hi, out=med)
        rhs = np.multiply(12.0 * sigma, med, out=med)
        np.divide(lhs, rhs, out=ratios[lo:lo + m], where=rhs > 0.0)
        ok_zero = (rhs == 0.0) & (lhs <= 0.0)
        violations += int(np.count_nonzero((lhs > rhs) & ~ok_zero))
    return violations, ratios


def shell_envelope(mag, shell, n_shells):
    """Per-shell maximum of |coefficients|.

    mag : flat float array of coefficient magnitudes.
    shell : flat int array of shell indices in [0, n_shells).
    """
    env = np.zeros(n_shells)
    np.maximum.at(env, shell, mag)
    return env
