"""Initial-data library.

Covers the four regimes the diagnostics care about: entire data
(gaussian), finite-radius data (periodized_sech), exactly-solvable data
(plane_wave), and generic rough-but-analytic data (random_bandlimited).
All profiles are centered at L/2 so the bulk sits away from the seam.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, FourierGrid, PHYSICAL, SPECTRAL

KINDS = ("gaussian", "periodized_sech", "plane_wave", "random_bandlimited")


def gaussian(grid: FourierGrid, A: float = 1.0, w: float = 1.0) -> Field:
    """A * exp(-|x - L/2|^2 / w^2); entire, so no finite radius."""
    mesh = grid.meshgrid()
    r2 = sum((x - grid.L / 2.0) ** 2 for x in mesh)
    return Field(grid, A * np.exp(-r2 / w ** 2), rep=PHYSICAL)


def periodized_sech(grid: FourierGrid, A: float = 1.0, a: float = 1.0) -> Field:
    """A * sum_j sech(|x - L/2 - jL| / a); radius of analyticity pi*a/2.

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
    mesh = np.meshgrid(*([grid.x] * grid.d), indexing="ij", sparse=True)
    r = np.sqrt(sum((x - grid.L / 2.0) ** 2 for x in mesh))
    vals = np.zeros(grid.shape)
    for j in range(-n_images, n_images + 1):
        # sech(x) = 2 e^{-|x|} / (1 + e^{-2|x|}), overflow-safe form
        z = np.abs(r - j * grid.L) / a
        e = np.exp(-z)
        vals = vals + 2.0 * e / (1.0 + e * e)
    return Field(grid, A * vals, rep=PHYSICAL)


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
