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

import itertools

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
    values = _kernels._fftn(f.values, np.empty(f.grid.shape, np.complex128),
                            inverse=True)
    # scaled on the real view, as _padded_samples scales: equal to the
    # complex division by the factor up to the sign of zeros, at a fifth of
    # its cost
    parts = values.view(np.float64)
    _kernels._multiply(parts, 1.0 / _forward_factor(f.grid), parts)
    values.flags.writeable = False  # Field checks it without a copy
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
    """Restrict spectral coefficients to the band of a coarser grid.

    The band's modes -n/2 ... n/2 - 1 along each axis sit, in FFT order,
    in the first n/2 and the last n/2 entries of that axis on both
    lattices, so the band is the 2^d corners of the fine array, copied
    into one read-only array that the field keeps without a copy: no
    shifted copy of the fine array is made.
    """
    if not f.is_spectral:
        raise ValueError("truncate_spectrum expects a spectral-space field")
    big = f.grid
    if big.L != grid.L or big.d != grid.d or big.N < grid.N:
        raise ValueError("target grid must share the torus and be coarser")
    half = grid.N // 2
    # per axis, the band's head and tail: (band slice, fine slice)
    ends = ((slice(0, half), slice(0, half)),
            (slice(half, grid.N), slice(big.N - half, big.N)))
    band = np.empty(grid.shape, np.complex128)
    for corner in itertools.product(ends, repeat=grid.d):
        band[tuple(c for c, _ in corner)] = f.values[tuple(c for _, c in corner)]
    band.flags.writeable = False
    # the corners of a field's values are finite: no second check
    return Field(grid, band, rep=SPECTRAL, t=f.t, _check=False)


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


def _embed_ifft(band: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``band`` embedded into ``out`` by :func:`_embed_band` and inverse
    transformed along ``axis`` in place there.  Returns ``out``."""
    return _kernels._fft(_embed_band(band, axis, out), out, (axis,), True)


def _synthesise(coeffs: np.ndarray, axes) -> np.ndarray:
    """Inverse-transform ``coeffs`` along each of ``axes`` in turn, each
    axis embedded into its doubled length by :func:`_embed_band` just before
    its own transform, which runs in place on that one new array.

    A line of zeros transforms to zeros, so only the lines that hold
    coefficients are transformed: 7N^2 instead of 12N^2 lines on an N^3
    cube, with every sample equal to the full ``np.fft.ifftn``.  On a
    split grid each axis is embedded and transformed as two halves
    (``_kernels._halves``), cut along axis 0, or along axis 1 for axis 0.
    """
    a = coeffs
    for axis in axes:
        shape = a.shape[:axis] + (2 * a.shape[axis],) + a.shape[axis + 1:]
        emb = np.empty(shape, dtype=np.complex128)
        _kernels._halves(_embed_ifft, None, a, axis, emb, axis=int(axis == 0))
        a = emb
    return a


def _padded_samples(coeffs: np.ndarray, factor: float) -> np.ndarray:
    """Samples of ``coeffs`` (FFT ordering) zero-padded to twice the length
    of every axis, divided by ``factor``, the doubled lattice's forward
    factor: the one inverse transform of a zero-padded spectrum.  The axes
    are synthesised last first, the order ``np.fft.ifftn`` uses.
    """
    a = _synthesise(coeffs, reversed(range(coeffs.ndim)))
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
    """|u|^2 u with 2x zero-padding per axis, as coefficients on u's grid.

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
    return truncate_spectrum(Field(fine, coeffs, rep=SPECTRAL, t=u.t), u.grid)


#: lines along axis 0 per slab of the last pass of :func:`l4_norm` on each
#: thread, and the points of as many lines per block of planes of its first
#: pass: at 64^3 a thread's slab buffers take 393 KB
_SLAB = 128


def l4_norm(u: Field) -> float:
    """||u||_{L^4} by quadrature on the 2x-padded grid.

    |u|^4 of a band-limited field is band-limited at four times the
    bandwidth; padding makes the quadrature exact up to truncation of the
    outer half of that band.

    The one grid-sized array is the real C-ordered |u|^4 array of the
    padded grid, seen as 2N rows of P = (2N)^(d-1) columns.  It first holds
    the half-padded spectrum as split planes: each k0-plane of the
    coefficients, synthesised along axes d-1 ... 1 (:func:`_planes`), puts
    its real parts in row 2 k0 and its imaginary parts in row 2 k0 + 1.
    Column c then holds the line along axis 0 at c in exactly the 2N
    entries its |u|^4 fills, so the last pass (:func:`_columns`) runs in
    place, ``_SLAB`` columns at a time.  On a split grid each pass runs as
    two halves, of the planes and then of the columns.

    Every line sees the transform it sees on the whole grid, and every
    sample the ufuncs of the whole-array quadrature in their order, so the
    array ends with the whole |u|^4 array's values in its C order and the
    one ``np.sum`` adds them in the same tree: numpy sums a contiguous
    array as one pairwise tree (with numpy 2.4.6, of aligned 8192-element
    chunks), which a sum in pieces would change wherever a piece's edge is
    not a node of it, as at N = 10, 18 and 300.  So the value is
    bit-identical to the whole-array quadrature.
    """
    grid = u.grid.refined(2)
    coeffs = to_spectral(u).values
    quad = np.empty(grid.shape)
    lines = quad.reshape(grid.N, -1).T  # column c of quad as row c
    axes = range(grid.d - 1, 0, -1)
    block = max(_SLAB * grid.N // len(lines), 1)

    # a piece's buffers, made here: for n planes, one buffer per
    # synthesised axis of a block; for n columns, a slab's complex and real
    # buffers, where a one-line slab needs no real one.  Both passes split
    # as a pass over the coefficients does
    def planes(n):
        return ([np.empty((min(block, n),) + coeffs.shape[1:axis]
                          + grid.shape[axis:], np.complex128)
                 for axis in axes],)

    def columns(n):
        w = min(_SLAB, n)
        return (np.empty((w, grid.N), np.complex128),
                np.empty((w, grid.N)) if w > 1 else None)

    _kernels._halves(_planes, _kernels._pieces(coeffs, planes),
                     coeffs, quad.reshape(len(coeffs), 2, -1), axes)
    # numpy divides a complex by a real f as ((re + im*0) * (1/f),
    # (im - re*0) * (1/f)): scaling the real and imaginary parts by 1/f
    # gives the same values up to the sign of zeros, which |u|^4 drops
    _kernels._halves(_columns, _kernels._pieces(coeffs, columns, len(lines)),
                     lines, 1.0 / _forward_factor(grid))
    q = (grid.L / grid.N) ** grid.d
    return float((np.sum(quad) * q) ** 0.25)


def _planes(coeffs, rows, axes, bufs):
    """The planes of ``coeffs`` along axis 0, synthesised along ``axes``,
    into ``rows``, a (planes, 2, P) view of the |u|^4 array: real parts
    into rows[k, 0], imaginary parts into rows[k, 1].  As many planes at a
    time as ``bufs``, one buffer per axis, hold are embedded and
    transformed along each axis by :func:`_embed_ifft`, as in
    :func:`_synthesise`; at d = 1, with no axis, the one block is a copy.
    """
    width = len(bufs[0]) if bufs else len(coeffs)
    for lo in range(0, len(coeffs), width):
        a = coeffs[lo:lo + width]
        for axis, buf in zip(axes, bufs):
            a = _embed_ifft(a, axis, buf[:len(a)])
        flat, block = a.reshape(len(a), -1), rows[lo:lo + len(a)]
        block[:, 0], block[:, 1] = flat.real, flat.imag


def _columns(lines, scale, buf, quart):
    """|u|^4 of the lines whose split planes are the rows of ``lines``,
    each synthesised and multiplied by ``scale``, over those rows, as many
    at a time as ``buf`` holds.  A row is the re, im pairs of N
    coefficients, so :func:`_embed_band` embeds it into ``buf``'s real
    view as it would the complex band (N is even).  The ufuncs are those
    of the whole-array quadrature in their order (times scale, square,
    re^2 + im^2, square), into ``quart`` and then over the slab's rows, or
    straight into them when a slab is one line (at d = 1 it is contiguous).
    """
    for lo in range(0, len(lines), len(buf)):
        rows = lines[lo:lo + len(buf)]
        s = buf[:len(rows)]
        parts = _embed_band(rows, 1, s.view(np.float64))
        _kernels._fft(s, s, (1,), True)
        parts *= scale  # re, im, re, im, ... along each row
        parts *= parts
        m = rows if quart is None else quart[:len(s)]
        np.add(parts[:, 0::2], parts[:, 1::2], out=m)
        m *= m
        if quart is not None:
            rows[...] = m
