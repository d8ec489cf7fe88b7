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
from functools import cached_property

import numpy as np

from .errors import MultiplierOverflowError
from .grid import FourierGrid
from .spectral import OVERFLOW_EXPONENT


@dataclass(frozen=True)
class SpaceTimeSpectrum:
    """Coefficients u~(tau, xi); axis 0 is time frequency."""

    grid: FourierGrid
    M: int
    T_win: float
    coeffs: np.ndarray

    def __post_init__(self):
        if self.M < 8 or self.M % 2 != 0:
            raise ValueError(f"M must be even and >= 8, got {self.M}")
        if not self.T_win > 0:
            raise ValueError(f"T_win must be positive, got {self.T_win}")
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.M,) + self.grid.shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match "
                f"(M,) + grid shape {(self.M,) + self.grid.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("space-time coefficients contain non-finite values")
        if c.flags.writeable:
            c = c.copy()
            c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @cached_property
    def tau_axis(self) -> np.ndarray:
        """Time frequencies 2*pi*m/T_win, FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=1.0 / self.M) / self.T_win

    def tau_mesh(self) -> np.ndarray:
        shape = (self.M,) + (1,) * self.grid.d
        return self.tau_axis.reshape(shape)

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


def _st_forward_factor(grid: FourierGrid, M: int, T_win: float) -> float:
    return (np.sqrt(T_win) / M) * (np.sqrt(grid.L) / grid.N) ** grid.d


def st_forward(samples: np.ndarray, grid: FourierGrid, M: int,
               T_win: float) -> SpaceTimeSpectrum:
    """Physical space-time samples (axis 0 = time) -> unitary coefficients."""
    coeffs = np.fft.fftn(samples) * _st_forward_factor(grid, M, T_win)
    return SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win, coeffs=coeffs)


def st_inverse(w: SpaceTimeSpectrum) -> np.ndarray:
    """Unitary coefficients -> physical samples on the (M,) + grid lattice."""
    return np.fft.ifftn(w.coeffs) / _st_forward_factor(w.grid, w.M, w.T_win)


def dispersive_weight(w: SpaceTimeSpectrum, sigma: float, s: float,
                      b: float) -> np.ndarray:
    """e^{sigma|xi|} <xi>^s <tau + |xi|^2>^b on the (tau, xi) lattice."""
    xi = w.grid.xi_abs
    if sigma * w.grid.xi_max > OVERFLOW_EXPONENT:
        raise MultiplierOverflowError(
            f"multiplier overflow: sigma*|xi|_max = {sigma * w.grid.xi_max:g} "
            f"exceeds {OVERFLOW_EXPONENT:g}")
    mod = w.tau_mesh() + xi[np.newaxis, ...] ** 2
    weight = (1.0 + mod * mod) ** (b / 2.0)
    if s != 0.0:
        weight = weight * (1.0 + xi * xi)[np.newaxis, ...] ** (s / 2.0)
    if sigma != 0.0:
        weight = weight * np.exp(sigma * xi)[np.newaxis, ...]
    return weight


def xsb_norm(w: SpaceTimeSpectrum, sigma: float, s: float, b: float) -> float:
    """Weighted space-time l2 norm || e^{sigma|xi|} <xi>^s <tau+|xi|^2>^b u~ ||."""
    weight = dispersive_weight(w, sigma, s, b)
    return float(np.sqrt(np.sum((weight * np.abs(w.coeffs)) ** 2)))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def single_mode(grid: FourierGrid, M: int, T_win: float, m0: int, k0,
                amplitude: complex = 1.0) -> SpaceTimeSpectrum:
    """One coefficient at integer time mode m0 and spatial mode k0."""
    coeffs = np.zeros((M,) + grid.shape, dtype=np.complex128)
    k0 = (k0,) if np.isscalar(k0) else tuple(k0)
    idx = (m0 % M,) + tuple(k % grid.N for k in k0)
    coeffs[idx] = amplitude
    return SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win, coeffs=coeffs)


def random_decaying(grid: FourierGrid, M: int, T_win: float, rng,
                    k_band: int = None, m_band: int = None,
                    k_decay: float = 0.5, m_decay: float = 0.5) -> SpaceTimeSpectrum:
    """Random coefficients, exponentially damped, restricted to a safe band.

    Defaults keep |k| <= N/6 and |m| <= M/6 per axis so that cubic products
    stay inside the 2x-padded band.
    """
    if k_band is None:
        k_band = grid.N // 6
    if m_band is None:
        m_band = M // 6
    shape = (M,) + grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k_idx = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N))
    kmag = np.zeros(grid.shape)
    for axis in range(grid.d):
        sh = [1] * grid.d
        sh[axis] = grid.N
        kmag = np.maximum(kmag, k_idx.reshape(sh) * np.ones(grid.shape))
    m_idx = np.abs(np.fft.fftfreq(M, d=1.0 / M))
    mask = (kmag <= k_band)[np.newaxis, ...] & \
        (m_idx <= m_band).reshape((M,) + (1,) * grid.d)
    damp = np.exp(-k_decay * kmag)[np.newaxis, ...] * \
        np.exp(-m_decay * m_idx).reshape((M,) + (1,) * grid.d)
    return SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win,
                             coeffs=np.where(mask, coeffs * damp, 0.0))


# ---------------------------------------------------------------------------
# Dealiased space-time products
# ---------------------------------------------------------------------------

def _st_pad(w: SpaceTimeSpectrum, factor: int = 2) -> SpaceTimeSpectrum:
    shifted = np.fft.fftshift(w.coeffs)
    big_shape = tuple(factor * n for n in shifted.shape)
    big = np.zeros(big_shape, dtype=np.complex128)
    slices = tuple(slice((bn - n) // 2, (bn - n) // 2 + n)
                   for n, bn in zip(shifted.shape, big_shape))
    big[slices] = shifted
    return SpaceTimeSpectrum(grid=w.grid.refined(factor), M=factor * w.M,
                             T_win=w.T_win, coeffs=np.fft.ifftshift(big))


def _st_truncate(w: SpaceTimeSpectrum, grid: FourierGrid, M: int):
    """Restrict to the coarse band; returns (spectrum, leaked_fraction)."""
    shifted = np.fft.fftshift(w.coeffs)
    small_shape = (M,) + grid.shape
    slices = tuple(slice((bn - n) // 2, (bn - n) // 2 + n)
                   for n, bn in zip(small_shape, shifted.shape))
    small = shifted[slices]
    total = float(np.sum(np.abs(shifted) ** 2))
    kept = float(np.sum(np.abs(small) ** 2))
    leaked = 0.0 if total == 0.0 else max(total - kept, 0.0) / total
    return SpaceTimeSpectrum(grid=grid, M=M, T_win=w.T_win,
                             coeffs=np.fft.ifftshift(small)), leaked


def st_triple_product(w1: SpaceTimeSpectrum, w2: SpaceTimeSpectrum,
                      w3: SpaceTimeSpectrum,
                      conjugate=(False, True, True)):
    """Pointwise product of three space-time fields, dealiased by 2x padding.

    Returns (product spectrum on the common lattice, leaked energy fraction
    beyond the padded band).  The default conjugation pattern is
    (u, conj u, conj u).
    """
    if not (w1.grid == w2.grid == w3.grid and w1.M == w2.M == w3.M
            and w1.T_win == w2.T_win == w3.T_win):
        raise ValueError("space-time product requires a common lattice")
    phys = []
    for w, c in zip((w1, w2, w3), conjugate):
        p = st_inverse(_st_pad(w))
        phys.append(np.conj(p) if c else p)
    prod = phys[0] * phys[1] * phys[2]
    fine = st_forward(prod, w1.grid.refined(2), 2 * w1.M, w1.T_win)
    return _st_truncate(fine, w1.grid, w1.M)
