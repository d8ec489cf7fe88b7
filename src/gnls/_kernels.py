"""Hot pointwise kernels in numpy.

The FFTs that dominate the integrator are delegated to numpy/pocketfft and
are not here; these are the pointwise nonlinear phase rotation, the
Monte-Carlo triple-frequency inequality check, and the shell envelope
reduction used by the radius estimator.
"""

import numpy as np


def phase_rotate(values: np.ndarray, dt: float) -> np.ndarray:
    """u <- u * exp(-i |u|^2 dt), same shape as ``values``."""
    flat = values.ravel()
    out = np.empty_like(flat)
    intensity = flat.real * flat.real + flat.imag * flat.imag
    np.multiply(flat, np.exp(-1j * float(dt) * intensity), out=out)
    return out.reshape(values.shape)


def triple_gap_ratios(xi1, xi2, xi3, sigma):
    """Audit 1 - exp(-sigma*gap) <= 12*sigma*xi_med over an ensemble.

    xi1, xi2, xi3 : (n, d) float arrays of interaction frequencies.
    Returns (violations, ratios) where ratio = lhs/rhs with
    rhs = 12*sigma*xi_med; degenerate members with rhs == 0 count as a
    violation only if lhs > 0 (they cannot, by the triangle inequality).
    """
    a1 = np.sqrt((xi1 * xi1).sum(axis=1))
    a2 = np.sqrt((xi2 * xi2).sum(axis=1))
    a3 = np.sqrt((xi3 * xi3).sum(axis=1))
    out = xi1 - xi2 - xi3
    aout = np.sqrt((out * out).sum(axis=1))
    gap = a1 + a2 + a3 - aout
    lhs = -np.expm1(-sigma * gap)
    med = np.sort(np.stack([a1, a2, a3], axis=1), axis=1)[:, 1]
    rhs = 12.0 * sigma * med
    ok_zero = (rhs == 0.0) & (lhs <= 0.0)
    ratio = np.where(rhs > 0.0, lhs / np.where(rhs > 0.0, rhs, 1.0), 0.0)
    violations = int(np.count_nonzero((lhs > rhs) & ~ok_zero))
    return violations, ratio


def shell_envelope(mag, shell, n_shells):
    """Per-shell maximum of |coefficients|.

    mag : flat float array of coefficient magnitudes.
    shell : flat int array of shell indices, -1 to skip.
    """
    env = np.zeros(n_shells)
    valid = shell >= 0
    np.maximum.at(env, shell[valid], mag[valid])
    return env
