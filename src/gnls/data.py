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
from .spectral import _weigh

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
    item 2 measured sigma_hat = 0.407 at d = 2, N = 128, L = 20).

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
    """A * exp(i k_vec . x) with k_vec = (2*pi*k/L) along the first axis.

    The profile along axis 0 is computed once and broadcast into the one
    output, so every sample is the whole-grid formula's.
    """
    xi = 2.0 * np.pi * k / grid.L
    profile = A * np.exp(1j * xi * grid.x)
    out = np.empty(grid.shape, np.complex128)
    out[...] = profile.reshape((-1,) + (1,) * (grid.d - 1))
    out.flags.writeable = False
    return Field(grid, out, rep=PHYSICAL)


def random_bandlimited(grid: FourierGrid, seed: int, band: int = None,
                       decay: float = 0.3, amplitude: float = 1.0) -> Field:
    """Random spectral coefficients damped by exp(-decay*|k|) inside a band.

    ``band`` is the largest integer mode index kept per axis (default N/6,
    safe under one dealiased cubic product).

    The real parts are drawn first and the imaginary parts after them, in
    the stream order of two whole-grid draws, slab by slab along axis 0
    through one real buffer of a slab.  The output is then damped in place
    by ``spectral._weigh``, the one slab pass of e^{sigma|xi|}, at sigma =
    -decay on the integer lattice; the modes outside the band are zeroed
    one axis at a time, and the amplitude is applied last: the ufuncs of
    the whole-grid formula (tests/oracles.py) in their order.
    """
    if band is None:
        band = grid.N // 6
    rng = np.random.default_rng(seed)
    k = grid.k_axis
    out = np.empty(grid.shape, np.complex128)
    rows = max(_kernels._SLAB * grid.N // out.size, 1)
    buf = np.empty((min(rows, grid.N),) + grid.shape[1:])
    for part in (out.real, out.imag):
        for lo in range(0, grid.N, rows):
            dst = part[lo:lo + rows]
            dst[...] = rng.standard_normal(out=buf[:dst.shape[0]])
    # |k|^2 sums integer squares, exact in any order
    sq = np.meshgrid(*[k * k] * grid.d, indexing="ij", sparse=True)
    _weigh(out, out, sq, -decay, np.sqrt(grid.d) * grid.N / 2)
    # max_j |k_j| > band: any axis outside the band
    outside = np.abs(k) > band
    for axis in range(grid.d):
        out[(slice(None),) * axis + (outside,)] = 0.0
    np.multiply(amplitude, out, out=out)
    out.flags.writeable = False
    return Field(grid, out, rep=SPECTRAL)


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
# slab by slab along axis 0, through gnls._kernels._radial, so that each of
# its many passes runs in cache, on two threads on a grid that gnls._kernels
# splits.  Every sample sees the ufuncs of the whole-array formula in their
# order (tests/oracles.py), so the output is bit-identical to it.

def _radial(grid: FourierGrid, fill, n_work: int, *params) -> np.ndarray:
    """The read-only complex samples of a radial profile on ``grid``.

    ``fill(r2, slab, *scratch, *params)`` writes the profile's values at
    the squared radii ``r2`` of one slab into the real parts of the slab's
    samples, using the ``n_work`` real arrays ``scratch`` and ``r2``
    itself.  The imaginary parts are +0.0, as numpy's float to complex
    conversion gives, and the array is marked read-only, so that a
    :class:`Field` keeps it without a copy.
    """
    # the squares per axis, as the sparse mesh the whole-array r^2 sums
    sq = np.meshgrid(*[(grid.x - grid.L / 2.0) ** 2] * grid.d,
                     indexing="ij", sparse=True)
    out = _kernels._radial(sq, np.zeros(grid.shape, np.complex128), fill,
                           n_work, *params)
    out.flags.writeable = False
    return out


def _gaussian_slab(r2, slab, A, w2):
    """A * exp(-r2 / w2) into the real parts of ``slab``."""
    np.negative(r2, out=r2)
    np.divide(r2, w2, out=r2)
    np.exp(r2, out=r2)
    np.multiply(A, r2, out=slab.real)


def _sech_slab(r2, slab, e, den, vals, A, a, L, n_images):
    """A * sum_j sech((r - jL) / a) into the real parts of ``slab``,
    r = sqrt(r2), the images j = -n_images ... n_images added in that order
    to a sum from zero."""
    r = np.sqrt(r2, out=r2)
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
    np.multiply(A, vals, out=slab.real)
