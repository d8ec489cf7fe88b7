"""Space-time spectra, dispersive-weighted norms, and products."""

import numpy as np
import pytest

from gnls.errors import MultiplierOverflowError
from gnls.grid import FourierGrid
from gnls.spacetime import (SpaceTimeSpectrum, random_decaying, single_mode,
                            st_forward, st_inverse, st_triple_product,
                            xsb_norm)

from conftest import rel_err


@pytest.fixture
def st_lattice():
    return FourierGrid(d=1, N=32, L=7.0), 16, 2.0  # grid, M, T_win


def test_validation(st_lattice):
    grid, M, T_win = st_lattice
    good = np.zeros((M,) + grid.shape, dtype=complex)
    with pytest.raises(ValueError):
        SpaceTimeSpectrum(grid=grid, M=7, T_win=T_win, coeffs=good[:7])
    with pytest.raises(ValueError):
        SpaceTimeSpectrum(grid=grid, M=M, T_win=0.0, coeffs=good)
    with pytest.raises(ValueError):
        SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win, coeffs=good[:, :8])
    bad = good.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win, coeffs=bad)


def test_st_round_trip_and_parseval(st_lattice):
    grid, M, T_win = st_lattice
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((M,) + grid.shape) \
        + 1j * rng.standard_normal((M,) + grid.shape)
    w = st_forward(samples, grid, M, T_win)
    back = st_inverse(w)
    assert rel_err(back, samples) < 1e-12
    quad = np.sum(np.abs(samples) ** 2) * (T_win / M) * (grid.L / grid.N)
    assert w.l2() ** 2 == pytest.approx(quad, rel=1e-12)


def test_xsb_zero_weights_is_l2(st_lattice):
    grid, M, T_win = st_lattice
    w = random_decaying(grid, M, T_win, np.random.default_rng(1))
    assert abs(xsb_norm(w, 0.0, 0.0, 0.0) - w.l2()) <= 1e-14 * w.l2()


def test_xsb_single_mode_closed_form(st_lattice):
    grid, M, T_win = st_lattice
    m0, k0, amp = 3, 5, 2.0 - 1.0j
    w = single_mode(grid, M, T_win, m0, k0, amplitude=amp)
    tau = 2 * np.pi * m0 / T_win
    xi = 2 * np.pi * k0 / grid.L
    sigma, s, b = 0.2, 1.3, 0.55
    expect = abs(amp) * np.exp(sigma * abs(xi)) \
        * (1 + xi * xi) ** (s / 2) \
        * (1 + (tau + xi * xi) ** 2) ** (b / 2)
    assert xsb_norm(w, sigma, s, b) == pytest.approx(expect, rel=1e-13)


def test_xsb_sigma_monotonicity(st_lattice):
    grid, M, T_win = st_lattice
    w = random_decaying(grid, M, T_win, np.random.default_rng(2))
    assert xsb_norm(w, 0.3, 1.0, 0.55) >= xsb_norm(w, 0.0, 1.0, 0.55)


def test_xsb_overflow_guard():
    grid = FourierGrid(d=1, N=1024, L=1.0)
    w = single_mode(grid, 8, 1.0, 0, 0)
    with pytest.raises(MultiplierOverflowError):
        xsb_norm(w, 1.0, 0.0, 0.0)


def test_st_triple_product_single_modes(st_lattice):
    grid, M, T_win = st_lattice
    m0, k0 = 2, 3
    w = single_mode(grid, M, T_win, m0, k0)
    prod, leaked = st_triple_product(w, w, w, conjugate=(False, True, True))
    assert leaked == 0.0
    # pattern u * conj u * conj u lands at (-m0, -k0)
    expect_amp = 1.0 / (T_win * grid.L ** grid.d)
    nz = np.argwhere(np.abs(prod.coeffs) > 1e-15)
    assert len(nz) == 1
    m, k = nz[0]
    assert m == (-m0) % M and k == (-k0) % grid.N
    assert abs(prod.coeffs[m, k] - expect_amp) < 1e-12 * expect_amp


def test_st_triple_product_zero_factor(st_lattice):
    grid, M, T_win = st_lattice
    w = random_decaying(grid, M, T_win, np.random.default_rng(4))
    z = SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win,
                          coeffs=np.zeros((M,) + grid.shape, dtype=complex))
    prod, leaked = st_triple_product(w, z, w)
    assert prod.l2() == 0.0 and leaked == 0.0


def test_st_triple_product_lattice_mismatch(st_lattice):
    grid, M, T_win = st_lattice
    w = random_decaying(grid, M, T_win, np.random.default_rng(5))
    other = random_decaying(grid, M, 2 * T_win, np.random.default_rng(5))
    with pytest.raises(ValueError):
        st_triple_product(w, other, w)


def test_random_decaying_band_restriction(st_lattice):
    grid, M, T_win = st_lattice
    w = random_decaying(grid, M, T_win, np.random.default_rng(6))
    k_idx = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N))
    m_idx = np.abs(np.fft.fftfreq(M, d=1.0 / M))
    outside = (k_idx[None, :] > grid.N // 6) | (m_idx[:, None] > M // 6)
    assert np.all(w.coeffs[outside] == 0.0)
