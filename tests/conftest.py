"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

#: pass/fail lines registered by the acceptance tests, echoed at the end
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from gnls.grid import Field, FourierGrid, SPECTRAL


@pytest.fixture
def grid1d():
    return FourierGrid(d=1, N=64, L=2.0 * np.pi)


@pytest.fixture
def grid1d_wide():
    return FourierGrid(d=1, N=256, L=40.0)


def random_field(grid, seed=0, band=None, decay=0.3):
    """Band-limited random spectral field, safe under one cubic product."""
    from gnls.data import random_bandlimited

    return random_bandlimited(grid, seed=seed, band=band, decay=decay)


def rel_err(a, b):
    denom = np.linalg.norm(np.asarray(b).ravel())
    if denom == 0.0:
        return np.linalg.norm(np.asarray(a).ravel())
    return np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()) / denom


def single_mode_field(grid, k, amplitude=1.0):
    """Spectral field with one nonzero coefficient at integer mode k."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    k = (k,) if np.isscalar(k) else tuple(k)
    coeffs[tuple(ki % grid.N for ki in k)] = amplitude * grid.L ** (grid.d / 2.0)
    return Field(grid, coeffs, rep=SPECTRAL)


#: ``slab`` parameters of the L4 quadrature's tests: the default blocks,
#: blocks of 7 points (one row at d = 2, and at d = 3 below 32^3) and blocks
#: that straddle the two-thread cut; at d = 1 there are no blocks
L4_SLABS = dict(argvalues=[None, 7, "straddle"],
                ids=["default-slab", "slab-7", "slab-straddles-cut"])


def l4_slab_points(slab, grid):
    """``spectral._SLAB`` for an ``L4_SLABS`` parameter on ``grid``, None
    for the default: "straddle" makes the first block of x0-rows of the
    one-thread pass cross the two-thread cut, at half of the 2N rows, by
    three rows, and leaves a partial block in each half of the split pass;
    at d = 3 an eighth of ``_SLAB`` sets the blocks."""
    if slab == "straddle":
        points = (grid.N + 3) * (2 * grid.N) ** (grid.d - 1)
        return 8 * points if grid.d == 3 else points
    return slab
