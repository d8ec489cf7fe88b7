"""Space-time spectra, dispersive-weighted norms, and products."""

import numpy as np
import pytest

from gnls.errors import MultiplierOverflowError
from gnls.grid import FourierGrid
from gnls.spacetime import (SpaceTimeSpectrum, _decay_envelope,
                            dispersive_weight, random_decaying,
                            st_triple_product, xsb_norm)

from oracles import single_mode


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


def test_coefficients_are_copied_only_from_the_callers_array(st_lattice):
    grid, M, T_win = st_lattice
    own = np.zeros((M,) + grid.shape, dtype=complex)
    w = SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win, coeffs=own)
    own[0, 0] = 1.0
    assert w.coeffs[0, 0] == 0.0 and not w.coeffs.flags.writeable
    again = SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win, coeffs=w.coeffs)
    assert again.coeffs is w.coeffs


def test_real_coefficients_allocate_one_complex_array():
    import tracemalloc

    grid, M = FourierGrid(d=2, N=64, L=7.0), 64
    real = np.ones((M,) + grid.shape)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        w = SpaceTimeSpectrum(grid=grid, M=M, T_win=2.0, coeffs=real)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.coeffs.dtype == np.complex128
    assert peak < 1.5 * 16 * real.size


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
    prod, leaked = st_triple_product(w, w, w)
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


def test_prebuilt_lattice_tables_change_no_bit(st_lattice):
    grid, M, T_win = st_lattice
    w = random_decaying(grid, M, T_win, np.random.default_rng(8))
    again = random_decaying(grid, M, T_win, np.random.default_rng(8),
                            envelope=_decay_envelope(grid, M))
    assert again.coeffs.tobytes() == w.coeffs.tobytes()  # signed zeros too
    for spec in ((0.0, 0.0, -0.55), (0.0, 1.0, 0.55), (0.3, 1.0, 0.0)):
        weight = dispersive_weight(grid, M, T_win, *spec)
        assert xsb_norm(w, *spec, weight=weight) == xsb_norm(w, *spec)


def test_random_decaying_band_restriction(st_lattice):
    grid, M, T_win = st_lattice
    w = random_decaying(grid, M, T_win, np.random.default_rng(6))
    k_idx = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N))
    m_idx = np.abs(np.fft.fftfreq(M, d=1.0 / M))
    outside = (k_idx[None, :] > grid.N // 6) | (m_idx[:, None] > M // 6)
    assert np.all(w.coeffs[outside] == 0.0)


@pytest.mark.parametrize("d,N,M", [(1, 18, 16), (2, 18, 16), (1, 24, 18),
                                   (3, 12, 12)])
def test_products_of_draws_stay_in_the_coarse_band_when_6_divides_it(d, N, M):
    # with |k| <= N/6 a cubic product of draws reaches +N/2, which the
    # coarse band [-N/2, N/2) holds only as -N/2: three draws at d = 1,
    # N = 18, M = 16 leaked 2e-4 of their energy; only round-off is left
    grid = FourierGrid(d=d, N=N, L=5.0)
    rng = np.random.default_rng(N + M)
    for _ in range(4):
        ws = [random_decaying(grid, M, 1.0, rng) for _ in range(3)]
        assert st_triple_product(*ws)[1] < 1e-15
    # the band is strictly inside N/6 and M/6 on every axis
    mask, _ = _decay_envelope(grid, M)
    m_idx = np.abs(np.fft.fftfreq(M, d=1.0 / M))
    assert 6 * m_idx[np.any(mask.reshape(M, -1), axis=1)].max() < M
    assert 6 * grid.k_max[mask[0]].max() < N


@pytest.mark.parametrize("N,M", [(98, 98), (98, 16), (32, 196)])
def test_the_envelope_keeps_its_edge_where_fftfreq_rounds_off(N, M):
    # fftfreq(98, d=1/98) gives 16.000000000000004 for 16 = (98 - 1) // 6,
    # which dropped the edge of the band from the mask, in k and in m
    grid = FourierGrid(d=1, N=N, L=5.0)
    mask, damp = _decay_envelope(grid, M)
    assert np.flatnonzero(mask[0]).size == 2 * ((N - 1) // 6) + 1
    assert np.flatnonzero(mask[:, 0]).size == 2 * ((M - 1) // 6) + 1
    assert damp[0, (N - 1) // 6] == np.exp(-0.5 * ((N - 1) // 6))


def _st_product_reference(ws, conjugate):
    """The seed formula: fftshift-pad, full ifftn, product, forward
    transform checked as a spectrum on the fine lattice, fftshift-truncate."""
    grid, M, T_win = ws[0].grid, ws[0].M, ws[0].T_win
    fine = grid.refined(2)
    factor = (np.sqrt(T_win) / (2 * M)) * (np.sqrt(fine.L) / fine.N) ** fine.d
    phys = []
    for w, c in zip(ws, conjugate):
        shifted = np.fft.fftshift(w.coeffs)
        big = np.zeros(tuple(2 * n for n in shifted.shape), dtype=complex)
        big[tuple(slice(n // 2, n // 2 + n) for n in shifted.shape)] = shifted
        p = np.fft.ifftn(np.fft.ifftshift(big)) / factor
        phys.append(np.conj(p) if c else p)
    prod = phys[0] * phys[1] * phys[2]
    spec = SpaceTimeSpectrum(grid=fine, M=2 * M, T_win=T_win,
                             coeffs=np.fft.fftn(prod) * factor)
    shifted = np.fft.fftshift(spec.coeffs)
    small = shifted[tuple(slice(n // 2, n // 2 + n)
                          for n in (M,) + grid.shape)]
    total = float(np.sum(np.abs(shifted) ** 2))
    kept = float(np.sum(np.abs(small) ** 2))
    leaked = 0.0 if total == 0.0 else max(total - kept, 0.0) / total
    return np.fft.ifftshift(small), leaked


# the pattern of st_triple_product, spelt out for the reference
@pytest.mark.parametrize("conjugate", [(False, True, True)])
@pytest.mark.parametrize("d,N,M", [(1, 64, 64), (2, 16, 16), (3, 8, 8),
                                   (1, 32, 16)])
def test_st_triple_product_is_exactly_the_seed_formula(d, N, M, conjugate):
    grid = FourierGrid(d=d, N=N, L=7.0)
    T_win = 2.0
    rng = np.random.default_rng(100 * d + N + M)
    shape = (M,) + grid.shape
    # band-limited ensemble factors, and a full-band factor (Nyquist modes
    # included) that leaks beyond the padded band
    full = SpaceTimeSpectrum(grid=grid, M=M, T_win=T_win,
                             coeffs=rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape))
    ws = [random_decaying(grid, M, T_win, rng) for _ in range(2)] + [full]
    for factors in (ws, ws[::-1]):
        prod, leaked = st_triple_product(*factors)
        ref, ref_leaked = _st_product_reference(factors, conjugate)
        assert np.array_equal(prod.coeffs, ref)
        # the band energy is summed in FFT order, the reference's centred
        assert leaked == pytest.approx(ref_leaked, rel=1e-14)
    assert leaked > 0.0
