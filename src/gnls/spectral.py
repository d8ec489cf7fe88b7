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

import numpy as np

from . import _kernels
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
    # one array: the transform writes into it and is scaled in place
    coeffs = _kernels._fftn(f.values, np.empty(f.grid.shape, np.complex128))
    _kernels._multiply(coeffs, _forward_factor(f.grid), coeffs)
    return Field(f.grid, coeffs, rep=SPECTRAL, t=f.t)


def inverse_transform(f: Field) -> Field:
    """Unitary spectral coefficients -> physical samples."""
    if not f.is_spectral:
        raise ValueError("inverse_transform expects a spectral-space field")
    values = _kernels._ifftn(f.values, np.empty(f.grid.shape, np.complex128))
    _kernels._divide(values, _forward_factor(f.grid), values)
    return Field(f.grid, values, rep=PHYSICAL, t=f.t)


def to_spectral(f: Field) -> Field:
    return f if f.is_spectral else forward_transform(f)


def to_physical(f: Field) -> Field:
    return f if f.is_physical else inverse_transform(f)


# ---------------------------------------------------------------------------
# Gevrey weight
# ---------------------------------------------------------------------------

def exp_weight(sigma: float, grid: FourierGrid) -> np.ndarray:
    """e^{sigma |xi|} on the lattice of ``grid``, the one overflow guard:
    raises :class:`MultiplierOverflowError` when sigma |xi|_max exceeds
    OVERFLOW_EXPONENT, or when the weight is non-finite on the lattice.
    """
    name = f"e^({sigma:g}|xi|)"
    if max(sigma, 0.0) * grid.xi_max > OVERFLOW_EXPONENT:
        raise MultiplierOverflowError(
            f"multiplier overflow: {name} exceeds exp({OVERFLOW_EXPONENT:g}) "
            f"at |xi|_max = {grid.xi_max:g}")
    w = np.exp(sigma * grid.xi_abs)
    if not np.all(np.isfinite(w)):
        raise MultiplierOverflowError(
            f"multiplier overflow: {name} non-finite on lattice "
            f"(|xi|_max = {grid.xi_max:g})")
    return w


def apply_exp_gevrey(f: Field, sigma: float) -> Field:
    """Coefficient-wise product of a spectral field with e^{sigma |xi|}.

    Identity at sigma = 0; guarded by :func:`exp_weight`.
    """
    if not f.is_spectral:
        raise ValueError("apply_exp_gevrey expects a spectral-space field")
    # the weights are freed as soon as the product is made: this call sets
    # the peak RSS of the per-snapshot diagnostics
    prod = f.values * exp_weight(sigma, f.grid)
    prod.flags.writeable = False  # Field checks it without a copy
    return Field(f.grid, prod, rep=SPECTRAL, t=f.t)


# ---------------------------------------------------------------------------
# Zero-padding and dealiased products
# ---------------------------------------------------------------------------

def _centred_block(shape, big_shape) -> tuple:
    """Slices of the block of ``shape`` around the zero mode of an
    ``np.fft.fftshift``-ed array of ``big_shape``."""
    return tuple(slice((nb - n) // 2, (nb - n) // 2 + n)
                 for n, nb in zip(shape, big_shape))


def _centred_band(coeffs: np.ndarray, shape) -> tuple:
    """``(centred, band)``: ``np.fft.fftshift(coeffs)`` and its block of
    ``shape`` around the zero mode, a view; ``np.fft.ifftshift(band)`` is
    the band of the coarser lattice ``shape`` in FFT ordering."""
    centred = np.fft.fftshift(coeffs)
    return centred, centred[_centred_block(shape, centred.shape)]


def truncate_spectrum(f: Field, grid: FourierGrid) -> Field:
    """Restrict spectral coefficients to the band of a coarser grid."""
    if not f.is_spectral:
        raise ValueError("truncate_spectrum expects a spectral-space field")
    big = f.grid
    if big.L != grid.L or big.d != grid.d or big.N < grid.N:
        raise ValueError("target grid must share the torus and be coarser")
    _, band = _centred_band(f.values, grid.shape)
    return Field(grid, np.fft.ifftshift(band), rep=SPECTRAL, t=f.t)


def _embed_band(band: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Write ``band`` (FFT ordering along ``axis``) into ``out``, twice as
    long on that axis: the non-negative modes at the front, the negative
    ones at the back and zeros between them.  Returns ``out``."""
    n = band.shape[axis]
    half = n // 2
    head = (slice(None),) * axis
    out[head + (slice(0, half),)] = band[head + (slice(0, half),)]
    out[head + (slice(half, 2 * n - half),)] = 0.0
    out[head + (slice(2 * n - half, 2 * n),)] = band[head + (slice(half, n),)]
    return out


def _synthesise(coeffs: np.ndarray, axes, split: bool) -> np.ndarray:
    """Inverse-transform ``coeffs`` along each of ``axes`` in turn, each
    axis embedded into its doubled length by :func:`_embed_band` just before
    its own transform, which runs in place on that one new array.

    A line of zeros transforms to zeros, so only the lines that hold
    coefficients are transformed: 7N^2 instead of 12N^2 lines on an N^3
    cube, with every sample equal to the full ``np.fft.ifftn``.  With
    ``split`` (``_kernels._splits(coeffs)``) each axis is embedded and
    transformed as two halves on two threads, cut along axis 0, or along
    axis 1 for axis 0.
    """
    a = coeffs
    for axis in axes:
        shape = a.shape[:axis] + (2 * a.shape[axis],) + a.shape[axis + 1:]
        emb = np.empty(shape, dtype=np.complex128)

        def here(band, out):
            _embed_band(band, axis, out)
            return np.fft.ifftn(out, axes=(axis,), out=out)

        def there(band, out):  # the helper thread's half
            _embed_band(band, axis, out)
            return np.fft.ifft(out, axis=axis, out=out)

        if split:
            _kernels._split(int(axis == 0), here, there, a, emb)
        else:
            here(a, emb)
        a = emb
    return a


def _padded_samples(coeffs: np.ndarray, factor: float) -> np.ndarray:
    """Samples of ``coeffs`` (FFT ordering) zero-padded to twice the length
    of every axis, divided by ``factor``, the doubled lattice's forward
    factor: the one inverse transform of a zero-padded spectrum.  The axes
    are synthesised last first, the order ``np.fft.ifftn`` uses.
    """
    a = _synthesise(coeffs, reversed(range(coeffs.ndim)),
                    _kernels._splits(coeffs))
    # numpy divides a complex by a real f as ((re + im*0) * (1/f),
    # (im - re*0) * (1/f)): scaling the real and imaginary parts by 1/f
    # gives the same values up to the sign of zeros
    parts = a.view(np.float64)
    parts *= 1.0 / factor
    return a


def _cubic_product(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                   factor: float) -> np.ndarray:
    """Coefficients on the doubled lattice (forward factor ``factor``) of
    the pointwise product ``a * b * c`` of padded samples, each synthesised
    by :func:`_padded_samples` and conjugated by the caller.  Doubling
    every axis keeps the aliases of a cubic product out of the coarse band
    (Orszag, J. Atmos. Sci. 28, 1971).
    """
    prod = a * b
    prod *= c
    _kernels._fftn(prod, prod)
    prod *= factor
    return prod


def dealiased_cubic(u: Field) -> Field:
    """|u|^2 u with 2x zero-padding per axis, in physical space.

    ``u`` is synthesised once on the doubled grid; the product is formed
    there and truncated back, which reproduces the exact spectral
    convolution whenever its bandwidth fits the doubled band.
    """
    fine = u.grid.refined(2)
    factor = _forward_factor(fine)
    s = _padded_samples(to_spectral(u).values, factor)
    # a named conjugate: ``s * np.conjugate(s)`` would let numpy write the
    # product into the temporary, whose loop rounds differently
    c = np.conjugate(s)
    coeffs = _cubic_product(s, c, s, factor)
    del s, c
    coeffs.flags.writeable = False  # Field checks it without a copy
    prod = Field(fine, coeffs, rep=SPECTRAL, t=u.t)
    return inverse_transform(truncate_spectrum(prod, u.grid))


#: lines along axis 0 per slab of the last synthesis in :func:`l4_norm`;
#: at 128^3 a slab's buffer is 1 MB
_SLAB = 512


def l4_norm(u: Field) -> float:
    """||u||_{L^4} by quadrature on the 2x-padded grid.

    |u|^4 of a band-limited field is band-limited at four times the
    bandwidth; padding makes the quadrature exact up to truncation of the
    outer half of that band.

    Axes d-1 ... 1 are synthesised as in :func:`_padded_samples`.  Axis 0,
    the last, is synthesised ``_SLAB`` lines at a time in one reused
    buffer, and each slab's |u|^4 goes straight into one real array, so no
    padded complex grid is made.  On a split grid each thread takes half of
    the lines and half of the buffer.  Every line sees the transform it
    sees on the whole grid, and the one sum sees the same array, so the
    value equals the whole-array quadrature bit for bit.
    """
    grid = u.grid.refined(2)
    coeffs = to_spectral(u).values
    split = _kernels._splits(coeffs)
    a = _synthesise(coeffs, range(grid.d - 1, 0, -1), split)
    lines = a.reshape(a.shape[0], -1)  # one column per line along axis 0
    n_lines = lines.shape[1]
    mag2 = np.empty(grid.shape)
    mag2_lines = mag2.reshape(grid.N, -1)
    buf = np.empty((grid.N, min(_SLAB, n_lines)), dtype=np.complex128)
    # numpy divides a complex by a real f as ((re + im*0) * (1/f),
    # (im - re*0) * (1/f)): scaling the real and imaginary parts by 1/f
    # gives the same values up to the sign of zeros, which |u|^4 drops
    scale = 1.0 / _forward_factor(grid)

    if split and buf.shape[1] > 1:
        mid, w = n_lines // 2, buf.shape[1] // 2
        _kernels._both(
            lambda: _slab_quartics(lines[:, :mid], mag2_lines[:, :mid],
                                   buf[:, :w], scale),
            lambda: _slab_quartics(lines[:, mid:], mag2_lines[:, mid:],
                                   buf[:, w:], scale, np.fft.ifft))
    else:
        _slab_quartics(lines, mag2_lines, buf, scale)
    q = (grid.L / grid.N) ** grid.d
    return float((np.sum(mag2) * q) ** 0.25)


def _slab_quartics(lines, mag2_lines, buf, scale, line=None):
    """|u|^4 of ``lines`` synthesised along axis 0 into ``mag2_lines``, as
    many lines at a time as ``buf`` holds.  Each slab is transformed by
    ``np.fft.ifftn``, or by ``line`` (np.fft.ifft) on the helper thread."""
    n_lines, width = lines.shape[1], buf.shape[1]
    for lo in range(0, n_lines, width):
        hi = min(lo + width, n_lines)
        s = _embed_band(lines[:, lo:hi], 0, buf[:, :hi - lo])
        if line is None:
            np.fft.ifftn(s, axes=(0,), out=s)
        else:
            line(s, axis=0, out=s)
        parts = s.view(np.float64)  # re, im, re, im, ... along each row
        parts *= scale
        parts *= parts
        m = np.add(parts[:, 0::2], parts[:, 1::2], out=mag2_lines[:, lo:hi])
        m *= m
