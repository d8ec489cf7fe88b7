"""Initial-data library.

Covers the four regimes the diagnostics care about: entire data
(gaussian), finite-radius data (periodized_sech), exactly-solvable data
(plane_wave), and generic rough-but-analytic data (random_bandlimited).
All profiles are centered at L/2 so the bulk sits away from the seam.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .grid import Field, FourierGrid, PHYSICAL, SPECTRAL

KINDS = ("gaussian", "periodized_sech", "plane_wave", "random_bandlimited")


def gaussian(grid: FourierGrid, A: float = 1.0, w: float = 1.0) -> Field:
    """A * exp(-|x - L/2|^2 / w^2); entire, so no finite radius."""
    return Field(grid, _radial(grid, _gaussian_slab, 0, A, w ** 2),
                 rep=PHYSICAL)


def periodized_sech(grid: FourierGrid, A: float = 1.0, a: float = 1.0) -> Field:
    """A * sum_j sech((|x - L/2| - jL) / a), the images taken along the radius.

    In d = 1 this is the lattice sum of sech((x - L/2)/a) over its
    periodic images, analytic in the strip of half-width pi*a/2.  In
    d >= 2 it is not the sum over the lattice Z^d: the profile's normal
    derivative jumps on the faces of the box, so its spectrum stops
    decaying far above round-off and its radius is not pi*a/2 (ROADMAP
    item 1 measured sigma_hat = 0.407 at d = 2, N = 128, L = 20).

    Image j adds at most 2 exp(-(|j| L - r_max) / a), with r_max =
    sqrt(d) L / 2 the largest distance from the centre, while every sample
    is at least exp(-r_max / a).  Each image beyond (2 r_max + 60 ln2 a) / L
    is therefore at most 2^-59 of every sample, under half a unit in the
    last place of the sum, and is left out; the count never exceeds the one
    at which images underflow.
    """
    r_max = np.sqrt(grid.d) * grid.L / 2.0
    n_images = min(int(np.ceil((2.0 * r_max + 60.0 * np.log(2.0) * a) / grid.L)),
                   int(np.ceil(745.0 * a / grid.L)) + 1)
    return Field(grid, _radial(grid, _sech_slab, 3, A, a, grid.L, n_images),
                 rep=PHYSICAL)


def plane_wave(grid: FourierGrid, A: float = 1.0, k: int = 1) -> Field:
    """A * exp(i k_vec . x) with k_vec = (2*pi*k/L) along the first axis."""
    mesh = grid.meshgrid()
    xi = 2.0 * np.pi * k / grid.L
    return Field(grid, A * np.exp(1j * xi * mesh[0]), rep=PHYSICAL)


def random_bandlimited(grid: FourierGrid, seed: int, band: int = None,
                       decay: float = 0.3, amplitude: float = 1.0) -> Field:
    """Random spectral coefficients damped by exp(-decay*|k|) inside a band.

    ``band`` is the largest integer mode index kept per axis (default N/6,
    safe under one dealiased cubic product).
    """
    if band is None:
        band = grid.N // 6
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N)
    # |k|^2 sums integer squares, exact in any order
    k2 = sum(np.meshgrid(*[k * k] * grid.d, indexing="ij", sparse=True))
    coeffs = np.where(grid.k_max <= band,
                      coeffs * np.exp(-decay * np.sqrt(k2)), 0.0)
    return Field(grid, amplitude * coeffs, rep=SPECTRAL)


def make_initial_data(grid: FourierGrid, kind: str, params: dict,
                      seed: int = 0) -> Field:
    """Dispatch on the data descriptor used in configs and sidecars."""
    if kind == "gaussian":
        return gaussian(grid, A=params.get("A", 1.0), w=params.get("w", 1.0))
    if kind == "periodized_sech":
        return periodized_sech(grid, A=params.get("A", 1.0), a=params.get("a", 1.0))
    if kind == "plane_wave":
        return plane_wave(grid, A=params.get("A", 1.0), k=int(params.get("k", 1)))
    if kind == "random_bandlimited":
        return random_bandlimited(
            grid, seed=seed,
            band=int(params["band"]) if "band" in params else None,
            decay=params.get("decay", 0.3),
            amplitude=params.get("A", 1.0))
    raise ValueError(f"unknown data kind {kind!r}; expected one of {KINDS}")


# ---------------------------------------------------------------------------
# radial profiles, slab by slab
# ---------------------------------------------------------------------------
#
# A radial builder never makes a temporary of the whole grid: it writes its
# profile of r^2 = |x - L/2|^2 into the real parts of the one complex output
# slab by slab along axis 0, in a few real buffers of one slab made once, so
# that each of its many passes runs in cache.  Every sample sees the ufuncs
# of the whole-array formula in their order (tests/oracles.py), so the output
# is bit-identical to it.  On a grid that gnls._kernels splits, the two
# halves along axis 0 run on two threads; both halves' buffers are made on
# the calling thread, and the helper's half calls only ufuncs and the private
# functions below.

#: grid points per slab of the radial builders: each of a slab's real
#: buffers takes 256 KB
_SLAB = 1 << 15


def _radial(grid: FourierGrid, fill, n_work: int, *params) -> np.ndarray:
    """The read-only complex samples of a radial profile on ``grid``.

    ``fill(r2, re, work, *params)`` writes the profile's values at the
    squared radii ``r2`` of one slab into ``re``, the real parts of the
    slab's samples, using the ``n_work`` scratch arrays of ``work`` and
    ``r2`` itself.  The imaginary parts are +0.0, as numpy's float to
    complex conversion gives, and the array is marked read-only, so that a
    :class:`Field` keeps it without a copy.
    """
    # the squares per axis, as the sparse mesh the whole-array r^2 sums
    sq = np.meshgrid(*[(grid.x - grid.L / 2.0) ** 2] * grid.d,
                     indexing="ij", sparse=True)
    out = np.zeros(grid.shape, np.complex128)
    rows = max(_SLAB * grid.N // out.size, 1)

    def half(lo, hi):
        work = np.empty((n_work + 1, min(rows, hi - lo)) + grid.shape[1:])
        return out[lo:hi], sq[0][lo:hi], sq[1:], work, fill, params

    if _kernels._splits(out):
        h = grid.N // 2
        left, right = half(0, h), half(h, grid.N)
        _kernels._both(lambda: _slabs(*left), lambda: _slabs(*right))
    else:
        _slabs(*half(0, grid.N))
    out.flags.writeable = False
    return out


def _slabs(out, sq0, sq_rest, work, fill, params):
    """:func:`_radial` on the rows of ``out``, whose squares along axis 0
    are ``sq0``, as many rows at a time as ``work`` holds."""
    rows = work.shape[1]
    for lo in range(0, out.shape[0], rows):
        m = min(rows, out.shape[0] - lo)
        r2 = work[0, :m]
        # ((0 + s0) + s1) + s2, the order of sum() over the sparse mesh
        np.copyto(r2, sq0[lo:lo + m])
        for s in sq_rest:
            r2 += s
        fill(r2, out.real[lo:lo + m], [w[:m] for w in work[1:]], *params)


def _gaussian_slab(r2, re, work, A, w2):
    """A * exp(-r2 / w2) into ``re``."""
    np.negative(r2, out=r2)
    np.divide(r2, w2, out=r2)
    np.exp(r2, out=r2)
    np.multiply(A, r2, out=re)


def _sech_slab(r2, re, work, A, a, L, n_images):
    """A * sum_j sech((r - jL) / a) into ``re``, r = sqrt(r2), the images
    j = -n_images ... n_images added in that order to a sum from zero."""
    r = np.sqrt(r2, out=r2)
    e, den, vals = work
    vals.fill(0.0)
    for j in range(-n_images, n_images + 1):
        # sech(x) = 2 e^{-|x|} / (1 + e^{-2|x|}), overflow-safe form
        np.subtract(r, j * L, out=e)
        np.abs(e, out=e)
        np.divide(e, a, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.multiply(e, e, out=den)
        np.add(1.0, den, out=den)
        np.multiply(2.0, e, out=e)
        np.divide(e, den, out=e)
        vals += e
    np.multiply(A, vals, out=re)
