"""Unitary Fourier transforms, the Gevrey weight, and dealiased cubic products.

Normalization is unitary with respect to the torus quadrature: for a field
``f`` with physical samples ``f_j`` and spectral coefficients ``fh_k``,

    sum_j |f_j|^2 * (L/N)^d  ==  sum_k |fh_k|^2

so L2-type norms read directly off the coefficients.  With this convention a
plane wave ``A*exp(i k.x)`` carries the single coefficient ``A * L^(d/2)``,
independent of N, which is what makes zero-padding between grids a pure
index embedding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import MultiplierOverflowError
from .grid import Field, FourierGrid, PHYSICAL, SPECTRAL

#: exp(x) stays finite in double precision with margin up to this exponent
OVERFLOW_EXPONENT = 600.0


def _forward_factor(grid: FourierGrid) -> float:
    return (np.sqrt(grid.L) / grid.N) ** grid.d


def forward_transform(f: Field) -> Field:
    """Physical samples -> unitary spectral coefficients."""
    if not f.is_physical:
        raise ValueError("forward_transform expects a physical-space field")
    coeffs = np.fft.fftn(f.values) * _forward_factor(f.grid)
    return Field(f.grid, coeffs, rep=SPECTRAL, t=f.t)


def inverse_transform(f: Field) -> Field:
    """Unitary spectral coefficients -> physical samples."""
    if not f.is_spectral:
        raise ValueError("inverse_transform expects a spectral-space field")
    values = np.fft.ifftn(f.values) / _forward_factor(f.grid)
    return Field(f.grid, values, rep=PHYSICAL, t=f.t)


def to_spectral(f: Field) -> Field:
    return f if f.is_spectral else forward_transform(f)


def to_physical(f: Field) -> Field:
    return f if f.is_physical else inverse_transform(f)


# ---------------------------------------------------------------------------
# Gevrey weight
# ---------------------------------------------------------------------------

def apply_exp_gevrey(f: Field, sigma: float) -> Field:
    """Coefficient-wise product of a spectral field with e^{sigma |xi|}.

    Identity at sigma = 0.  Raises :class:`MultiplierOverflowError` when
    the weight could exceed exp(OVERFLOW_EXPONENT) on the lattice, or is
    non-finite anywhere on it.
    """
    if not f.is_spectral:
        raise ValueError("apply_exp_gevrey expects a spectral-space field")
    grid = f.grid
    name = f"exp-gevrey(sigma={sigma:g})"
    if max(sigma, 0.0) * grid.xi_max > OVERFLOW_EXPONENT:
        raise MultiplierOverflowError(
            f"multiplier overflow: {name} exceeds exp({OVERFLOW_EXPONENT:g}) "
            f"at |xi|_max = {grid.xi_max:g}")
    w = np.exp(sigma * grid.xi_abs)
    if not np.all(np.isfinite(w)):
        raise MultiplierOverflowError(
            f"multiplier overflow: {name} non-finite on lattice "
            f"(|xi|_max = {grid.xi_max:g})")
    # free the weights before Field copies the product: this call sets the
    # peak RSS of the per-snapshot diagnostics
    out = f.values * w
    del w
    return Field(grid, out, rep=SPECTRAL, t=f.t)


# ---------------------------------------------------------------------------
# Zero-padding and dealiased products
# ---------------------------------------------------------------------------

def _centered_slices(n_small: int, n_big: int, d: int):
    lo = (n_big - n_small) // 2
    return (slice(lo, lo + n_small),) * d


def pad_spectrum(f: Field, factor: int = 2) -> Field:
    """Embed spectral coefficients into a grid ``factor`` times as fine."""
    if not f.is_spectral:
        raise ValueError("pad_spectrum expects a spectral-space field")
    g = f.grid
    big = g.refined(factor)
    small_c = np.fft.fftshift(f.values)
    big_c = np.zeros(big.shape, dtype=np.complex128)
    big_c[_centered_slices(g.N, big.N, g.d)] = small_c
    return Field(big, np.fft.ifftshift(big_c), rep=SPECTRAL, t=f.t)


def truncate_spectrum(f: Field, grid: FourierGrid) -> Field:
    """Restrict spectral coefficients to the band of a coarser grid."""
    if not f.is_spectral:
        raise ValueError("truncate_spectrum expects a spectral-space field")
    big = f.grid
    if big.L != grid.L or big.d != grid.d or big.N < grid.N:
        raise ValueError("target grid must share the torus and be coarser")
    big_c = np.fft.fftshift(f.values)
    small_c = big_c[_centered_slices(grid.N, big.N, grid.d)]
    return Field(grid, np.fft.ifftshift(small_c), rep=SPECTRAL, t=f.t)


def dealiased_triple_product(f: Field, g: Field, h: Field,
                             conjugate: Sequence[bool] = (False, True, False)) -> Field:
    """Pointwise triple product with 2x zero-padding per axis.

    Each factor is optionally conjugated (default pattern u * conj(u) * u,
    i.e. |u|^2 u).  The product is formed on the doubled grid and truncated
    back, which reproduces the exact spectral convolution whenever the
    product's bandwidth fits the doubled band.
    """
    if not (f.grid == g.grid == h.grid):
        raise ValueError("dealiased_triple_product requires a common grid")
    fine = [to_physical(pad_spectrum(to_spectral(u))) for u in (f, g, h)]
    vals = [np.conj(u.values) if c else u.values
            for u, c in zip(fine, conjugate)]
    prod = vals[0] * vals[1] * vals[2]
    prod_spec = forward_transform(Field(fine[0].grid, prod, rep=PHYSICAL, t=f.t))
    return inverse_transform(truncate_spectrum(prod_spec, f.grid))


def l4_norm(u: Field, padded: bool = True) -> float:
    """||u||_{L^4} by quadrature on the 2x-padded grid.

    |u|^4 of a band-limited field is band-limited at four times the
    bandwidth; padding makes the quadrature exact up to truncation of the
    outer half of that band.  ``padded=False`` falls back to the naive
    collocation quadrature (aliased, but cheaper).
    """
    fine = to_physical(pad_spectrum(to_spectral(u))) if padded else to_physical(u)
    q = (fine.grid.L / fine.grid.N) ** fine.grid.d
    mag2 = fine.values.real ** 2 + fine.values.imag ** 2
    return float((np.sum(mag2 * mag2) * q) ** 0.25)
