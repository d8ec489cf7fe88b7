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
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import MultiplierOverflowError
from .grid import Field, FourierGrid, PHYSICAL, SPECTRAL, mode_index

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
    values = _synthesise(f.values, _forward_factor(f.grid), f.grid.shape)
    values.flags.writeable = False  # Field checks it without a copy
    return Field(f.grid, values, rep=PHYSICAL, t=f.t)


def to_spectral(f: Field) -> Field:
    return f if f.is_spectral else forward_transform(f)


def to_physical(f: Field) -> Field:
    return f if f.is_physical else inverse_transform(f)


# ---------------------------------------------------------------------------
# Gevrey weight
# ---------------------------------------------------------------------------

def _guarded_exp(sigma: float, xi: np.ndarray, xi_max: float,
                out: np.ndarray = None) -> np.ndarray:
    """e^{sigma xi} of the |xi| values ``xi`` of a lattice whose largest
    |xi| is ``xi_max``, into ``out`` when given (``xi`` itself may be it),
    the one overflow guard: raises :class:`MultiplierOverflowError` when
    sigma xi_max exceeds OVERFLOW_EXPONENT, or when the weight is
    non-finite on the lattice.  Private, so that the slabs of a two-thread
    pass may call it on the helper thread, which calls no public function
    (``gnls._kernels``).
    """
    if max(sigma, 0.0) * xi_max > OVERFLOW_EXPONENT:
        raise MultiplierOverflowError(
            f"multiplier overflow: e^({sigma:g}|xi|) exceeds "
            f"exp({OVERFLOW_EXPONENT:g}) at |xi|_max = {xi_max:g}")
    w = np.exp(np.multiply(sigma, xi, out=out), out=out)
    if not np.all(np.isfinite(w)):
        raise MultiplierOverflowError(
            f"multiplier overflow: e^({sigma:g}|xi|) non-finite on lattice "
            f"(|xi|_max = {xi_max:g})")
    return w


@lru_cache(maxsize=32)
def _squares(grid: FourierGrid) -> tuple:
    """The squared wavenumbers of each axis of ``grid``'s lattice, a sparse
    mesh, s0, ..., s(d-1): |xi| is the square root of their sum in axis
    order, ((0 + s0) + s1) + s2, as ``FourierGrid.xi_abs`` forms it.

    Each is a read-only view as long as the lattice along axis 1, so that a
    piece of the lattice cut along axis 1 takes its own points' squares by
    the same cut; cached on the grid's value, as ``grid.shell_table`` is,
    so that the weighted quadratures of many sigma on one slice, each on a
    grid made afresh, build them once.
    """
    sq = np.meshgrid(*[grid.xi_axis ** 2] * grid.d, indexing="ij",
                     sparse=True)
    return tuple(np.broadcast_to(s, s.shape[:1] + grid.shape[1:2]
                                 + s.shape[2:]) for s in sq)


def _weigh(dst, src, sq, sigma: float, xi_max: float) -> np.ndarray:
    """``dst`` = ``src`` * e^{sigma|xi|}, about ``_kernels._SLAB`` points of
    rows along axis 0 at a time; returns ``dst``.

    ``sq`` are the per-axis squares of src's lattice points, a sparse mesh
    that broadcasts to ``src``.  A slab's |xi| is summed from them by
    :func:`_kernels._mesh_sum` and square-rooted in one real buffer made
    here, and its weight is made in place there by :func:`_guarded_exp`, the
    one overflow guard.  ``np.multiply`` then writes the product, at d >= 2
    one row of the slab at a time: a row is contiguous, so numpy buffers at
    most a row to cast the weight to complex, where a strided slab would
    take three buffers of ``np.getbufsize()`` points.  Every element sees
    the ufuncs of ``values * np.exp(sigma * xi_abs)`` in their order, so the
    product is bit-identical to that whole-grid one at every slab width, and
    no array of the grid is made.
    """
    rows = max(_kernels._SLAB * len(src) // src.size, 1)
    buf = np.empty((min(rows, len(src)),) + src.shape[1:])
    for lo in range(0, len(src), rows):
        w = _kernels._mesh_sum(sq, lo, buf[:len(src) - lo])
        np.sqrt(w, out=w)
        _guarded_exp(sigma, w, xi_max, w)
        parts = (src[lo:lo + len(w)], w, dst[lo:lo + len(w)])
        for s, ws, out in zip(*parts) if src.ndim > 1 else (parts,):
            np.multiply(s, ws, out=out)
    return dst


def apply_exp_gevrey(f: Field, sigma: float) -> Field:
    """Coefficient-wise product of a spectral field with e^{sigma |xi|}.

    Identity at sigma = 0; formed slab by slab by :func:`_weigh`, guarded
    by :func:`_guarded_exp`, into one array that the field keeps without a
    copy.
    """
    if not f.is_spectral:
        raise ValueError("apply_exp_gevrey expects a spectral-space field")
    prod = _weigh(np.empty(f.grid.shape, np.complex128), f.values,
                  _squares(f.grid), sigma, f.grid.xi_max)
    prod.flags.writeable = False  # Field checks it without a copy
    return Field(f.grid, prod, rep=SPECTRAL, t=f.t)


# ---------------------------------------------------------------------------
# Zero-padding and dealiased products
# ---------------------------------------------------------------------------

def _corners(shape, big) -> list:
    """The 2^d corners that the FFT-ordered lattice ``shape`` shares with
    the finer one ``big``, as (index into ``shape``, index into ``big``)
    pairs: the one table of the pad and of the cut.

    The modes -n/2 ... n/2 - 1 along an axis of n points sit, in FFT order,
    in the first n/2 and the last n/2 entries of that axis on both
    lattices, so no shifted copy of either array is made.
    """
    # per axis, the head and the tail: (coarse slice, fine slice)
    ends = [((slice(0, n // 2),) * 2,
             (slice(n // 2, n), slice(nb - n // 2, nb)))
            for n, nb in zip(shape, big)]
    return [tuple(zip(*corner)) for corner in itertools.product(*ends)]


def _reach(occupied: np.ndarray) -> np.ndarray:
    """Per axis, the largest |mode index| (FFT ordering) at which the
    boolean ``occupied`` holds True; 0 when it holds none."""
    axes = range(occupied.ndim)
    return np.array([
        np.abs(mode_index(n))[np.any(occupied, axis=tuple(
            a for a in axes if a != axis))].max(initial=0)
        for axis, n in enumerate(occupied.shape)])


def _band(coeffs: np.ndarray, shape) -> np.ndarray:
    """The band of the coarser lattice ``shape`` of the FFT-ordered
    ``coeffs``, in FFT order, in one new array: the corners of
    :func:`_corners`."""
    band = np.empty(shape, np.complex128)
    for small, big in _corners(shape, coeffs.shape):
        band[small] = coeffs[big]
    return band


def _synthesise(coeffs: np.ndarray, factor: float, shape) -> np.ndarray:
    """Samples on the lattice ``shape`` of the FFT-ordered ``coeffs``,
    divided by ``factor``, that lattice's forward factor, in one new array:
    the one whole-array inverse synthesis.

    On a finer lattice the coefficients are zero-padded into that array by
    :func:`_corners` and transformed in place there; on their own lattice
    they are transformed straight into it.  Either way one inverse
    ``_kernels._fftn`` runs, and its samples are scaled by 1/factor on the
    real view: numpy divides a complex by a real f as ((re + im*0) * (1/f),
    (im - re*0) * (1/f)), so this gives the same values up to the sign of
    zeros, at a fifth of the cost.
    """
    if shape == coeffs.shape:
        out = np.empty(shape, np.complex128)
    else:
        out = np.zeros(shape, np.complex128)
        for small, big in _corners(coeffs.shape, shape):
            out[big] = coeffs[small]
        coeffs = out
    _kernels._fftn(coeffs, out, inverse=True)
    parts = out.view(np.float64)
    _kernels._multiply(parts, 1.0 / factor, parts)
    return out


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


def _copy(dst: np.ndarray, src: np.ndarray, rows: slice) -> None:
    """The plain write of :func:`_embed_band`: ``src`` into ``dst``."""
    np.copyto(dst, src)


def _embed_band(band: np.ndarray, axis: int, out: np.ndarray,
                write=_copy) -> np.ndarray:
    """Write ``band`` (FFT ordering along ``axis``) into ``out``, twice as
    long on that axis: the non-negative modes at the front, the negative
    ones at the back and zeros between them.  Each of the two goes in by
    ``write(dst, src, rows)``, ``rows`` its slice of the band along
    ``axis``: a copy, or the weighted product of :func:`_weighted_lines`.
    Returns ``out``."""
    n = band.shape[axis]
    half = n // 2
    head = (slice(None),) * axis
    pos, neg = slice(0, half), slice(half, n)
    write(out[head + (pos,)], band[head + (pos,)], pos)
    out[head + (slice(half, 2 * n - half),)] = 0.0
    write(out[head + (slice(2 * n - half, 2 * n),)], band[head + (neg,)], neg)
    return out


def _embed_ifft(band: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``band`` embedded into ``out`` by :func:`_embed_band` and inverse
    transformed along ``axis`` in place there.  Returns ``out``."""
    return _kernels._fft(_embed_band(band, axis, out), out, (axis,), True)


def _weighted_lines(band, out, sigma, xi_max, *sq):
    """The first pass of :func:`l4_norm` on ``band``, a piece of the
    coefficient lines along axis 0 cut along axis 1: embedded into ``out``
    by :func:`_embed_band` along axis 0 and inverse transformed there.
    Unless sigma is 0 each half is weighted by e^{sigma|xi|} on its way in
    (:func:`_weigh`), ``sq`` the squares of the piece's lattice points.
    Returns ``out``."""
    def weighted(dst, src, rows):
        _weigh(dst, src, (sq[0][rows], *sq[1:]), sigma, xi_max)

    _embed_band(band, 0, out, weighted if sigma else _copy)
    return _kernels._fft(out, out, (0,), True)


def _cubic_product(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                   factor: float) -> np.ndarray:
    """Coefficients on the lattice of forward factor ``factor`` of the
    pointwise product ``a * b * c`` of samples there, each synthesised and
    conjugated by the caller.  On a doubled lattice of
    :func:`_synthesise` the aliases of a cubic product stay out of the
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
    s = _synthesise(to_spectral(u).values, factor, fine.shape)
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


def l4_norm(u: Field, sigma: float = 0.0) -> float:
    """||e^{sigma|D|} u||_{L^4} by quadrature on the 2x-padded grid; at
    sigma = 0, ||u||_{L^4}.

    |u|^4 of a band-limited field is band-limited at four times the
    bandwidth; padding makes the quadrature exact up to truncation of the
    outer half of that band.

    Two passes.  The first embeds every coefficient line along axis 0 into
    its doubled length and inverse-transforms it (:func:`_weighted_lines`),
    into the one grid-sized array, 2N x N^(d-1) complex: 2 field grids.
    Unless sigma is 0, each block of lines is multiplied by e^{sigma|xi|} as
    it is embedded (:func:`_weigh`), so no weighted field is made; its
    products are those of :func:`apply_exp_gevrey`, bit for bit.  (At sigma
    = 0 that weight is 1, whose product changes no bit of |u|^4: at most
    the sign of a zero.)  The second streams blocks of that array's x0-rows
    (:func:`_rows`): a block is embedded and transformed along axes 1 ...
    d-1 in buffers of its own, scaled on the real view, and its |u|^4
    summed row by row into a vector of 2N row sums, whose one ``np.sum`` is
    the quadrature.  On a split grid each pass runs as two halves: the
    first cut along axis 1, the second along axis 0, each half with its own
    block (and weight slab) buffers.

    The transforms run in the axis order of ``np.fft.ifftn(padded,
    axes=(d-1, ..., 0))``, axis 0 first; every line sees the transform it
    sees on the whole padded grid, every sample the ufuncs of the
    whole-array quadrature in their order, and every row sum is the
    ``np.sum`` of that row.  So the value is bit-identical, at every block
    width and on one thread or two, to the plain form in tests/oracles.py:
    that ``ifftn``, |u|^4, a sum per x0-row and a sum of the row sums, of
    the weighted field.  At d = 1 a row is one sample, and the value is the
    one ``np.sum`` of the whole |u|^4 array.
    """
    grid = u.grid.refined(2)
    coeffs = to_spectral(u).values
    cols = np.empty((grid.N,) + coeffs.shape[1:], np.complex128)
    _kernels._halves(_weighted_lines, None, coeffs, cols, sigma,
                     u.grid.xi_max, *_squares(u.grid), axis=1)
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
    # scaled on the real view, as _synthesise scales: the sign of zeros it
    # may change, |u|^4 drops
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
