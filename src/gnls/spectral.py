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

def guarded_exp(sigma: float, xi: np.ndarray, xi_max: float) -> np.ndarray:
    """e^{sigma xi} of the |xi| values ``xi`` of a lattice whose largest
    |xi| is ``xi_max``, the one overflow guard: raises
    :class:`MultiplierOverflowError` when sigma xi_max exceeds
    OVERFLOW_EXPONENT, or when the weight is non-finite on the lattice.
    """
    if max(sigma, 0.0) * xi_max > OVERFLOW_EXPONENT:
        raise MultiplierOverflowError(
            f"multiplier overflow: e^({sigma:g}|xi|) exceeds "
            f"exp({OVERFLOW_EXPONENT:g}) at |xi|_max = {xi_max:g}")
    w = np.exp(sigma * xi)
    if not np.all(np.isfinite(w)):
        raise MultiplierOverflowError(
            f"multiplier overflow: e^({sigma:g}|xi|) non-finite on lattice "
            f"(|xi|_max = {xi_max:g})")
    return w


def exp_weight(sigma: float, grid: FourierGrid) -> np.ndarray:
    """e^{sigma |xi|} on the lattice of ``grid``, guarded by
    :func:`guarded_exp`."""
    return guarded_exp(sigma, grid.xi_abs, grid.xi_max)


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

def _band(coeffs: np.ndarray, shape) -> np.ndarray:
    """The band of the coarser lattice ``shape`` of the FFT-ordered
    ``coeffs``, in FFT order, in one new array.

    The band's modes -n/2 ... n/2 - 1 along an axis of n points sit, in FFT
    order, in the first n/2 and the last n/2 entries of that axis on both
    lattices, so the band is the 2^d corners of the fine array: no shifted
    copy of it is made.
    """
    # per axis, the band's head and tail: (band slice, fine slice)
    ends = [((slice(0, n // 2),) * 2,
             (slice(n // 2, n), slice(nb - n // 2, nb)))
            for n, nb in zip(shape, coeffs.shape)]
    band = np.empty(shape, np.complex128)
    for corner in itertools.product(*ends):
        band[tuple(c for c, _ in corner)] = coeffs[tuple(c for _, c in corner)]
    return band


def truncate_spectrum(f: Field, grid: FourierGrid) -> Field:
    """Restrict spectral coefficients to the band of a coarser grid, cut by
    :func:`_band` into one read-only array that the field keeps without a
    copy."""
    if not f.is_spectral:
        raise ValueError("truncate_spectrum expects a spectral-space field")
    big = f.grid
    if big.L != grid.L or big.d != grid.d or big.N < grid.N:
        raise ValueError("target grid must share the torus and be coarser")
    band = _band(f.values, grid.shape)
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
    """Coefficients on the lattice of forward factor ``factor`` of the
    pointwise product ``a * b * c`` of samples there, each synthesised and
    conjugated by the caller.  On the doubled lattice of
    :func:`_padded_samples` the aliases of a cubic product stay out of the
    coarse band (Orszag, J. Atmos. Sci. 28, 1971).
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


#: points per block of x0-rows of the second pass of :func:`l4_norm` at
#: d = 2, where a row is a line, over all its pieces.  At d = 3 a row is a
#: plane of (2N)^2 points, and the blocks are sized by memory instead:
#: their buffers, 24 bytes a point (the complex samples and the half-length
#: complex buffer of axis 1, whose real view then holds |u|^4), take 5/8 of
#: a field grid, or an eighth of this many points on grids below 28^3.  At
#: d = 1 a row is one sample and there are no blocks
_SLAB = 1 << 16


def l4_norm(u: Field) -> float:
    """||u||_{L^4} by quadrature on the 2x-padded grid.

    |u|^4 of a band-limited field is band-limited at four times the
    bandwidth; padding makes the quadrature exact up to truncation of the
    outer half of that band.

    Two passes.  The first embeds every coefficient line along axis 0 into
    its doubled length and inverse-transforms it (:func:`_synthesise`), into
    the one grid-sized array, 2N x N^(d-1) complex: 2 field grids.
    The second streams blocks of that array's x0-rows (:func:`_rows`): a
    block is embedded and transformed along axes 1 ... d-1 in buffers of
    its own, scaled on the real view, and its |u|^4 summed row by row into
    a vector of 2N row sums, whose one ``np.sum`` is the quadrature.  On a
    split grid each pass runs as two halves: the first cut along axis 1,
    the second along axis 0, each half with its own block buffers.

    The transforms run in the axis order of ``np.fft.ifftn(padded,
    axes=(d-1, ..., 0))``, axis 0 first; every line sees the transform it
    sees on the whole padded grid, every sample the ufuncs of the
    whole-array quadrature in their order, and every row sum is the
    ``np.sum`` of that row.  So the value is bit-identical, at every block
    width and on one thread or two, to the plain form in tests/oracles.py:
    that ``ifftn``, |u|^4, a sum per x0-row and a sum of the row sums.  At
    d = 1 a row is one sample, and the value is the one ``np.sum`` of the
    whole |u|^4 array.
    """
    grid = u.grid.refined(2)
    coeffs = to_spectral(u).values
    cols = _synthesise(coeffs, (0,))
    row = grid.shape[1:]
    # 5/8 of a field grid of 16-byte points, in 24-byte points
    points = _SLAB if grid.d < 3 else max(10 * u.grid.N ** 3 // 24,
                                          _SLAB // 8)

    # a piece of n rows takes its share of ``points`` as blocks of w rows,
    # and its buffers are made here: the last axis's complex block, at d = 3
    # the half-length one of axis 1, and the real |u|^4 block, at d = 3 the
    # real view of axis 1's buffer.  At d = 1 there are none
    def blocks(n):
        if not row:
            return None, None, None
        w = min(max(points * n // grid.N ** grid.d, 1), n)
        last = np.empty((w,) + row, np.complex128)
        mid = (np.empty((w, grid.N, u.grid.N), np.complex128)
               if grid.d == 3 else None)
        quart = np.empty((w,) + row) if mid is None else mid.view(np.float64)
        return mid, last, quart

    sums = np.empty(grid.N)
    # numpy divides a complex by a real f as ((re + im*0) * (1/f),
    # (im - re*0) * (1/f)): scaling the real and imaginary parts by 1/f
    # gives the same values up to the sign of zeros, which |u|^4 drops
    _kernels._halves(_rows, _kernels._pieces(coeffs, blocks, len(cols)),
                     cols, sums, 1.0 / _forward_factor(grid))
    q = (grid.L / grid.N) ** grid.d
    return float((np.sum(sums) * q) ** 0.25)


def _rows(rows, sums, scale, mid, last, quart):
    """The row sums of |u|^4 over ``rows``, x0-rows of the padded samples
    synthesised along axis 0 only, into ``sums``, as many rows at a time as
    ``quart`` holds.  A block is embedded and inverse-transformed by
    :func:`_embed_ifft` along axis 1 into ``mid`` (d = 3) and then along
    the last axis into ``last``, whose lines are the rows of a 2-D view.
    The ufuncs are those of the whole-array quadrature in their order
    (times scale, square, re^2 + im^2, square), the last into ``quart``,
    and each row of it is summed into ``sums`` by one ``np.sum`` along the
    row.  At d = 1, with no buffers, ``rows`` are the samples, one block,
    scaled in place, and each |u|^4 goes straight into ``sums``: a row is
    one sample.
    """
    width = len(rows) if quart is None else len(quart)
    for lo in range(0, len(rows), width):
        a = rows[lo:lo + width]
        n = len(a)
        if mid is not None:
            a = _embed_ifft(a, 1, mid[:n])
        if last is not None:
            s = last[:n]
            _embed_ifft(a.reshape(-1, a.shape[-1]), 1,
                        s.reshape(-1, s.shape[-1]))
            a = s
        parts = a.view(np.float64)  # re, im, re, im, ... along each row
        parts *= scale
        parts *= parts
        m = sums[lo:lo + n] if quart is None else quart[:n]
        np.add(parts[..., 0::2], parts[..., 1::2], out=m)
        m *= m
        if quart is not None:
            np.sum(m.reshape(n, -1), axis=1, out=sums[lo:lo + n])
