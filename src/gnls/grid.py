"""Periodic grids and complex field snapshots.

A :class:`FourierGrid` describes a uniform periodic discretization of the
d-torus of period ``L`` per axis with ``N`` points per axis.  The associated
wavenumber lattice is ``xi_k = 2*pi*k/L`` for integer ``k`` in
``[-N/2, N/2)`` per axis (standard FFT ordering).

A :class:`Field` is one time slice of a complex function, stored either as
physical samples or as unitary spectral coefficients.  Fields are treated as
immutable snapshots: the backing array is marked read-only on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import _kernels
from .errors import NonFiniteFieldError

PHYSICAL = "physical"
SPECTRAL = "spectral"


def mode_index(n: int) -> np.ndarray:
    """The integer mode indices 0, 1, ..., n/2 - 1, -n/2, ..., -1 of an
    axis of ``n`` points, n even, in FFT ordering: the values of
    ``np.fft.fftfreq(n, d=1/n)`` as exact integers, which that formula
    rounds off at some n (at n = 98 it gives 16.000000000000004 for 16)."""
    k = np.arange(n)
    k[n // 2:] -= n
    return k


@dataclass(frozen=True)
class FourierGrid:
    """Uniform periodic grid on the d-torus.

    Parameters
    ----------
    d : int
        Spatial dimension, 1, 2 or 3.
    N : int
        Points per axis; even, and at least 8.
    L : float
        Period per axis.
    """

    d: int
    N: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {self.N}")
        if not 0 < self.L < np.inf:
            raise ValueError(f"L must be positive and finite, got {self.L}")

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def dx(self) -> float:
        return self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        """Physical coordinates along one axis."""
        return np.arange(self.N) * self.dx

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Integer mode indices along one axis, FFT ordering
        (:func:`mode_index`)."""
        return mode_index(self.N)

    @cached_property
    def xi_axis(self) -> np.ndarray:
        """Wavenumbers 2*pi*k/L along one axis, FFT ordering."""
        return 2.0 * np.pi * self.k_axis / self.L

    @property
    def xi_abs(self) -> np.ndarray:
        """|xi| on the full d-dimensional lattice, FFT ordering: the square
        root of the sum ((0 + s0) + s1) + s2 of the squared wavenumbers per
        axis (:func:`xi_squares`), slab by slab into the one output
        (``gnls._kernels._radial``).  Made afresh at each read and never
        kept: of the package, only the space-time weight of the audits reads
        it, and the Gevrey weights of a field form |xi| slab by slab from
        the same squares (``gnls.spectral._weigh``).
        """
        return _kernels._radial(xi_squares(self), np.empty(self.shape),
                                np.sqrt, 0)

    @cached_property
    def k_max(self) -> np.ndarray:
        """max_j |k_j| on the full lattice: the largest integer mode index
        over the axes, FFT ordering."""
        k = np.abs(self.k_axis)
        return reduce(np.maximum, np.meshgrid(*[k] * self.d, indexing="ij",
                                              sparse=True))

    @property
    def xi_max(self) -> float:
        """Largest |xi| representable on the lattice."""
        return float(np.sqrt(self.d) * np.pi * self.N / self.L)

    def refined(self, factor: int) -> "FourierGrid":
        """Same torus, ``factor`` times as many points per axis."""
        return FourierGrid(self.d, self.N * factor, self.L)


@lru_cache(maxsize=32)
def shell_table(grid: FourierGrid) -> tuple:
    """``(j, index)``, the shells of equal |k|^2 of ``grid``'s lattice: j,
    the occupied integer values of |k|^2 in ascending order, and index, for
    each point of the non-negative octant |k_i| in [0, N/2], the position
    of its |k|^2 in j; (N/2 + 1)^d entries, both arrays read-only.

    Every point k of the lattice has the |k|^2 of the octant point
    (|k_0|, ..., |k_{d-1}|), so a sum or a maximum over shells reads the
    octant a field is folded onto.  Built by one ``np.unique`` over the
    octant, and cached on the grid's value, not on the instance: a grid made
    afresh for every slice of a run (``norms.resolved_spectrum``) finds the
    table of the first.
    """
    k = np.arange(grid.N // 2 + 1)
    k2 = reduce(np.add, np.meshgrid(*[k * k] * grid.d, indexing="ij",
                                    sparse=True))
    j, index = np.unique(k2, return_inverse=True)
    index = index.reshape(k2.shape)
    j.flags.writeable = index.flags.writeable = False
    return j, index


@lru_cache(maxsize=32)
def xi_squares(grid: FourierGrid) -> tuple:
    """The squared wavenumbers xi_i^2 of each axis of ``grid``'s lattice,
    as the sparse mesh s0, ..., s(d-1) that broadcasts to the grid, each
    read-only: |xi| is the square root of their sum in axis order,
    ((0 + s0) + s1) + s2.

    The one copy of the mesh, which ``FourierGrid.xi_abs`` and the Gevrey
    weights (``gnls.spectral._weigh``) read; cached on the grid's value, as
    :func:`shell_table` is, so that the weighted quadratures of many sigma
    on one slice, each on a grid made afresh, find the mesh of the first.
    """
    sq = np.meshgrid(*[grid.xi_axis ** 2] * grid.d, indexing="ij",
                     sparse=True)
    for s in sq:
        s.flags.writeable = False
    return tuple(sq)


def frozen_complex(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a read-only complex128 array of ``shape`` (``what``
    names it in the error), copied only while it is the caller's writeable
    array, not a read-only one or a private dtype conversion."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} shape {arr.shape} does not match {shape}")
    if arr.flags.writeable and np.may_share_memory(arr, values):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


class Field:
    """One time slice of the complex solution on a :class:`FourierGrid`.

    ``values`` are either physical samples or unitary spectral coefficients,
    selected by ``rep``, taken in by :func:`frozen_complex`.
    """

    __slots__ = ("grid", "values", "rep", "t")

    def __init__(self, grid: FourierGrid, values: np.ndarray, rep: str = PHYSICAL,
                 t: float = 0.0, _check: bool = True):
        if rep not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {rep!r}")
        arr = frozen_complex(values, grid.shape, "values")
        if _check and not np.all(np.isfinite(arr)):
            raise NonFiniteFieldError(
                f"field contains non-finite values ({rep} representation, t={t})")
        self.grid = grid
        self.values = arr
        self.rep = rep
        self.t = t

    @property
    def is_physical(self) -> bool:
        return self.rep == PHYSICAL

    @property
    def is_spectral(self) -> bool:
        return self.rep == SPECTRAL

    def __repr__(self):
        g = self.grid
        return f"Field(d={g.d}, N={g.N}, L={g.L}, rep={self.rep!r}, t={self.t})"
