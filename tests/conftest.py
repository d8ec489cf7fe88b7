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
