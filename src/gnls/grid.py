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
from functools import cached_property

import numpy as np

from .errors import NonFiniteFieldError

PHYSICAL = "physical"
SPECTRAL = "spectral"


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
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")

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
    def xi_axis(self) -> np.ndarray:
        """Wavenumbers 2*pi*k/L along one axis, FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=1.0 / self.N) / self.L

    @cached_property
    def xi_abs(self) -> np.ndarray:
        """|xi| on the full d-dimensional lattice, FFT ordering."""
        sq = np.zeros(self.shape)
        for axis in range(self.d):
            shape = [1] * self.d
            shape[axis] = self.N
            sq = sq + (self.xi_axis.reshape(shape)) ** 2
        return np.sqrt(sq)

    @property
    def xi_max(self) -> float:
        """Largest |xi| representable on the lattice."""
        return float(np.sqrt(self.d) * np.pi * self.N / self.L)

    def meshgrid(self) -> tuple:
        """Physical coordinate arrays, one per axis."""
        return np.meshgrid(*([self.x] * self.d), indexing="ij")

    def refined(self, factor: int) -> "FourierGrid":
        """Same torus, ``factor`` times as many points per axis."""
        return FourierGrid(self.d, self.N * factor, self.L)


class Field:
    """One time slice of the complex solution on a :class:`FourierGrid`.

    ``values`` are either physical samples or unitary spectral coefficients,
    selected by ``rep``.  The array is copied defensively unless it is
    already complex and owned, then frozen.
    """

    __slots__ = ("grid", "values", "rep", "t")

    def __init__(self, grid: FourierGrid, values: np.ndarray, rep: str = PHYSICAL,
                 t: float = 0.0, _check: bool = True):
        if rep not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {rep!r}")
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}")
        if _check and not np.all(np.isfinite(values)):
            raise NonFiniteFieldError(
                f"field contains non-finite values ({rep} representation, t={t})")
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
        self.grid = grid
        self.values = values
        self.rep = rep
        self.t = t

    @property
    def is_physical(self) -> bool:
        return self.rep == PHYSICAL

    @property
    def is_spectral(self) -> bool:
        return self.rep == SPECTRAL

    @classmethod
    def zero(cls, grid: FourierGrid, rep: str = PHYSICAL) -> "Field":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128), rep=rep)

    def __repr__(self):
        g = self.grid
        return f"Field(d={g.d}, N={g.N}, L={g.L}, rep={self.rep!r}, t={self.t})"
