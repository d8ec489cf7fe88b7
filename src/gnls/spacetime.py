"""Sampled space-time spectra and dispersive-weighted norms.

A :class:`SpaceTimeSpectrum` holds coefficients u~(tau, xi) on the product
of a periodic time window of length ``T_win`` (M modes, tau_m = 2*pi*m/T_win)
and a spatial :class:`~gnls.grid.FourierGrid`.  Normalization is unitary in
both time and space, so the (0,0,0)-weighted norm is the plain space-time
L2 norm by Plancherel.

The time direction is periodic synthesis: a restriction-type norm over a
window is replaced by this periodic extension, which can only overestimate
the restricted norm, so bounds audited against it remain valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FourierGrid, frozen_complex, mode_index
from .spectral import (_band, _cubic_product, _forward_factor,
                       _guarded_exp, _reach, _synthesise)


@dataclass(frozen=True)
class SpaceTimeSpectrum:
    """Coefficients u~(tau, xi); axis 0 is time frequency."""

    grid: FourierGrid
    M: int
    T_win: float
    coeffs: np.ndarray

    def __post_init__(self):
        _check_lattice(self.M, self.T_win)
        c = frozen_complex(self.coeffs, (self.M,) + self.grid.shape,
                           "coefficient")
        if not np.all(np.isfinite(c)):
            raise ValueError("space-time coefficients contain non-finite values")
        object.__setattr__(self, "coeffs", c)

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


def _check_lattice(M: int, T_win: float) -> None:
    if M < 8 or M % 2 != 0:
        raise ValueError(f"M must be even and >= 8, got {M}")
    if not T_win > 0:
        raise ValueError(f"T_win must be positive, got {T_win}")


def dispersive_weight(grid: FourierGrid, M: int, T_win: float, sigma: float,
                      s: float, b: float) -> np.ndarray:
    """e^{sigma|xi|} <xi>^s <tau + |xi|^2>^b on the (tau, xi) lattice of
    ``M`` time modes tau_m = 2*pi*m/T_win (FFT ordering) over ``grid``."""
    _check_lattice(M, T_win)
    tau = 2.0 * np.pi * mode_index(M) / T_win
    xi = grid.xi_abs
    mod = tau.reshape((M,) + (1,) * grid.d) + xi[np.newaxis, ...] ** 2
    weight = (1.0 + mod * mod) ** (b / 2.0)
    if s != 0.0:
        weight = weight * (1.0 + xi * xi)[np.newaxis, ...] ** (s / 2.0)
    if sigma != 0.0:
        weight = weight * _guarded_exp(sigma, xi,
                                       grid.xi_max)[np.newaxis, ...]
    return weight


def xsb_norm(w: SpaceTimeSpectrum, sigma: float, s: float, b: float, *,
             weight: np.ndarray = None) -> float:
    """Weighted space-time l2 norm || e^{sigma|xi|} <xi>^s <tau+|xi|^2>^b u~ ||.

    ``weight``, when given, is :func:`dispersive_weight` of w's lattice at
    ``(sigma, s, b)``, made once for many spectra; otherwise it is made here.
    """
    if weight is None:
        weight = dispersive_weight(w.grid, w.M, w.T_win, sigma, s, b)
    return float(np.sqrt(np.sum((weight * np.abs(w.coeffs)) ** 2)))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _decay_envelope(grid: FourierGrid, M: int) -> tuple:
    """``(mask, damp)`` of :func:`random_decaying` on the lattice of ``M``
    time modes over ``grid``: the band |k| < N/6, |m| < M/6 and the
    damping e^{-(|k| + |m|)/2}.  At |k| = N/6 a cubic product would reach
    N/2, which the coarse band [-N/2, N/2) holds only as -N/2."""
    k_band, m_band = (grid.N - 1) // 6, (M - 1) // 6
    m_idx = np.abs(mode_index(M))
    mask = (grid.k_max <= k_band)[np.newaxis, ...] & \
        (m_idx <= m_band).reshape((M,) + (1,) * grid.d)
    damp = np.exp(-0.5 * grid.k_max)[np.newaxis, ...] * \
        np.exp(-0.5 * m_idx).reshape((M,) + (1,) * grid.d)
    return mask, damp


def random_decaying(grid: FourierGrid, M: int, T_win: float, rng, *,
                    envelope: tuple = None) -> SpaceTimeSpectrum:
    """Random coefficients damped by e^{-(|k| + |m|)/2}, with |k| the
    largest spatial mode index over the axes, restricted to |k| < N/6 and
    |m| < M/6 so that cubic products stay inside the coarse band.

    ``envelope``, when given, is ``_decay_envelope(grid, M)``, made once for
    many draws; otherwise it is made here.
    """
    shape = (M,) + grid.shape
    mask, damp = envelope if envelope is not None else _decay_envelope(grid, M)
    # damp * re and damp * im written into the real view of one zeroed
    # array: the bytes of np.where(mask, (re + 1j*im) * damp, 0.0), signed
    # zeros included, with the normals drawn in its order
    coeffs = np.zeros(shape, np.complex128)
    parts = coeffs.view(np.float64)
    for i in range(2):
        np.multiply(rng.standard_normal(shape), damp, out=parts[..., i::2],
                    where=mask)
    coeffs.flags.writeable = False  # kept without a copy
    return SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Dealiased space-time products
# ---------------------------------------------------------------------------

def st_triple_product(w1: SpaceTimeSpectrum, w2: SpaceTimeSpectrum,
                      w3: SpaceTimeSpectrum):
    """Pointwise product u1 * conj(u2) * conj(u3) of three space-time
    fields, on the smallest lattice on which it does not alias.

    The product reaches at most B = the sum of the factors' reaches
    (:func:`~gnls.spectral._reach` of their nonzero coefficients) along
    each axis.  When 2B < n on every axis of n points, time and space,
    every product mode is one mode of the coarse lattice: it is formed
    there, is its own band, and leaks nothing.  Otherwise it is formed
    with every axis padded 2x and cut back to the coarse band
    (:func:`~gnls.spectral._band`).  Either way each factor is synthesised
    by :func:`~gnls.spectral._synthesise` on that lattice.

    Returns (product spectrum on the common lattice, leaked energy fraction
    beyond the coarse band).
    """
    if not (w1.grid == w2.grid == w3.grid and w1.M == w2.M == w3.M
            and w1.T_win == w2.T_win == w3.T_win):
        raise ValueError("space-time product requires a common lattice")
    grid, M, T_win = w1.grid, w1.M, w1.T_win
    shape = (M,) + grid.shape
    reach = sum(_reach(w.coeffs != 0) for w in (w1, w2, w3))
    m = 1 if np.all(2 * reach < shape) else 2  # the lattice's refinement
    g = grid.refined(m)
    factor = (np.sqrt(T_win) / (m * M)) * _forward_factor(g)
    s1, s2, s3 = (_synthesise(w.coeffs, factor, (m * M,) + g.shape)
                  for w in (w1, w2, w3))
    coeffs = _cubic_product(s1, np.conjugate(s2, out=s2),
                            np.conjugate(s3, out=s3), factor)
    del s1, s2, s3
    coeffs.flags.writeable = False  # checked below without a copy
    prod = SpaceTimeSpectrum(grid=g, M=m * M, T_win=T_win, coeffs=coeffs)
    if m == 1:
        return prod, 0.0
    band = _band(prod.coeffs, shape)
    total = float(np.sum(np.abs(prod.coeffs) ** 2))
    kept = float(np.sum(np.abs(band) ** 2))
    leaked = 0.0 if total == 0.0 else max(total - kept, 0.0) / total
    band.flags.writeable = False  # kept without a copy
    return SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win, coeffs=band), leaked
