"""Mass, energy, Gevrey norms, A_sigma, and the radius estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gnls.data import gaussian, periodized_sech
from gnls.errors import EmptySpectrumError, MultiplierOverflowError
from gnls.grid import Field, FourierGrid, SPECTRAL
from gnls.norms import (a_sigma, energy, gevrey_norm, l4_gevrey, mass,
                        norm_report, radius_estimate, resolved_spectrum)
from gnls.spectral import to_physical, to_spectral

from conftest import random_field, single_mode_field
from oracles import zero_field


# ---------------------------------------------------------------------------
# mass and energy
# ---------------------------------------------------------------------------

def test_mass_zero_field(grid1d):
    assert mass(zero_field(grid1d)) == 0.0


@pytest.mark.parametrize("d,N,L", [(1, 64, 2 * np.pi), (2, 32, 5.0)])
def test_mass_plane_wave(d, N, L):
    g = FourierGrid(d=d, N=N, L=L)
    A = 0.8
    u = single_mode_field(g, (2,) * d, amplitude=A)
    assert mass(u) == pytest.approx(A ** 2 * L ** d, rel=1e-12)


def test_mass_agrees_between_representations(grid1d):
    u = random_field(grid1d, seed=1)
    assert mass(u) == pytest.approx(mass(to_physical(u)), rel=1e-12)


def test_mass_gaussian_fine_grid_oracle():
    g = FourierGrid(d=1, N=128, L=40.0)
    u = gaussian(g, A=1.0, w=1.5)
    fine = gaussian(g.refined(8), A=1.0, w=1.5)
    assert mass(u) == pytest.approx(mass(fine), rel=1e-10)


def test_energy_zero_field(grid1d):
    assert energy(zero_field(grid1d)) == 0.0


def test_energy_plane_wave():
    g = FourierGrid(d=1, N=64, L=2 * np.pi)
    A, k = 0.5, 3
    u = single_mode_field(g, k, amplitude=A)
    xi = 2 * np.pi * k / g.L
    expect = A ** 2 * xi ** 2 * g.L + 0.5 * A ** 4 * g.L
    assert energy(u) == pytest.approx(expect, rel=1e-12)


def test_energy_gaussian_fine_grid_oracle():
    g = FourierGrid(d=1, N=128, L=40.0)
    u = gaussian(g, A=1.0, w=1.5)
    fine = gaussian(g.refined(8), A=1.0, w=1.5)
    assert energy(u) == pytest.approx(energy(fine), rel=1e-10)


# ---------------------------------------------------------------------------
# Gevrey norms
# ---------------------------------------------------------------------------

def test_gevrey_params_reject_negative_sigma(grid1d):
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        gevrey_norm(random_field(grid1d), -0.1, 1.0)


def test_gevrey_collapse_to_mass(grid1d):
    for seed in range(20):
        u = random_field(grid1d, seed=seed)
        g = gevrey_norm(u, 0.0, 0.0)
        assert abs(g - np.sqrt(mass(u))) <= 1e-12 * max(g, 1.0)


def test_gevrey_plane_wave_closed_form(grid1d):
    A, k, sigma, s = 0.6, 4, 0.3, 1.5
    u = single_mode_field(grid1d, k, amplitude=A)
    xi = abs(float(grid1d.xi_axis[k]))
    expect = A * np.sqrt(grid1d.L) * np.exp(sigma * xi) * (1 + xi * xi) ** (s / 2)
    assert gevrey_norm(u, sigma, s) == pytest.approx(expect, rel=1e-12)


def test_gevrey_sech_refined_grid_oracle():
    # direct weighted summation at 4x resolution, round-off floor masked on
    # both grids (e^{sigma|xi|} amplifies floor modes unboundedly)
    sigma, s = 0.5, 1.0
    L = 40.0

    def masked_norm(N):
        u = to_spectral(periodized_sech(FourierGrid(d=1, N=N, L=L), a=1.0))
        magmax = np.abs(u.values).max()
        clean = np.where(np.abs(u.values) > 1e-14 * magmax, u.values, 0.0)
        xi = u.grid.xi_abs
        w2 = np.exp(2 * sigma * xi) * (1 + xi * xi) ** s
        return float(np.sqrt(np.sum(w2 * np.abs(clean) ** 2)))

    assert masked_norm(256) == pytest.approx(masked_norm(1024), rel=1e-8)


def test_gevrey_overflow_error_names_quantities():
    g = FourierGrid(d=1, N=1024, L=1.0)
    u = Field(g, np.ones(g.shape, dtype=complex))
    with pytest.raises(MultiplierOverflowError, match="multiplier overflow"):
        gevrey_norm(u, 5.0, 1.0)


def test_a_sigma_overflow_bound_is_on_twice_sigma():
    # A_sigma weighs |u^|^2 by e^{2 sigma |xi|}: it is refused exactly when
    # 2 sigma |xi|_max exceeds the overflow exponent
    g = FourierGrid(d=1, N=64, L=1.0)
    u = random_field(g, seed=1)
    edge = 300.0 / g.xi_max
    assert np.isfinite(a_sigma(u, edge * (1 - 1e-9)))
    for f in (a_sigma, lambda v, s: gevrey_norm(v, s, 1.0)):
        with pytest.raises(MultiplierOverflowError, match="multiplier overflow"):
            f(u, edge * (1 + 1e-9))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 50),
       sigma=st.floats(0.0, 0.5), dsigma=st.floats(0.0, 0.5),
       s=st.floats(-2.0, 2.0), ds=st.floats(0.0, 2.0))
def test_embedding_monotonicity(seed, sigma, dsigma, s, ds):
    g = FourierGrid(d=1, N=64, L=2 * np.pi)
    u = random_field(g, seed=seed)
    lo = gevrey_norm(u, sigma, s)
    hi = gevrey_norm(u, sigma + dsigma, s + ds)
    assert lo <= hi * (1 + 1e-12)


# ---------------------------------------------------------------------------
# A_sigma
# ---------------------------------------------------------------------------

def test_a_sigma_collapse(grid1d):
    for seed in range(10):
        u = random_field(grid1d, seed=seed)
        me = mass(u) + energy(u)
        assert abs(a_sigma(u, 0.0) - me) <= 1e-12 * max(me, 1.0)


def test_a_sigma_zero_field(grid1d):
    assert a_sigma(zero_field(grid1d), 0.2) == 0.0


def test_a_sigma_plane_wave_closed_form(grid1d):
    A, k, sigma = 0.5, 3, 0.2
    u = single_mode_field(grid1d, k, amplitude=A)
    xi = abs(float(grid1d.xi_axis[k]))
    L = grid1d.L
    expect = (A ** 2 * L * np.exp(2 * sigma * xi) * (1 + xi * xi)
              + 0.5 * A ** 4 * L * np.exp(4 * sigma * xi))
    assert a_sigma(u, sigma) == pytest.approx(expect, rel=1e-12)


def test_a_sigma_nondecreasing_in_sigma(grid1d):
    u = random_field(grid1d, seed=3)
    values = [a_sigma(u, s) for s in np.linspace(0.0, 0.5, 8)]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))


def test_norm_report_consistency(grid1d):
    u = random_field(grid1d, seed=4)
    rep = norm_report(u, 0.25)
    assert rep.a_sigma == pytest.approx(
        rep.gevrey_s1_sq + 0.5 * rep.l4_gevrey ** 4, rel=1e-14)
    assert rep.mass == pytest.approx(mass(u), rel=1e-14)
    assert rep.sigma == 0.25


def test_translation_invariance(grid1d):
    u = to_physical(random_field(grid1d, seed=5))
    shifted = Field(grid1d, np.roll(u.values, 13))
    for fn in (mass, energy, lambda v: gevrey_norm(v, 0.2, 1.0),
               lambda v: a_sigma(v, 0.2)):
        assert fn(shifted) == pytest.approx(fn(u), rel=1e-12)


def test_l4_gevrey_reduces_to_l4(grid1d):
    from gnls.spectral import l4_norm
    u = random_field(grid1d, seed=6)
    assert l4_gevrey(u, 0.0) == pytest.approx(l4_norm(u), rel=1e-13)


# ---------------------------------------------------------------------------
# the resolved spectrum
# ---------------------------------------------------------------------------

#: A_sigma of the d = 1 sech (A = 1, a = 1, L = 40) on its resolved band
SECH_A_SIGMA = {0.1: 3.86725307526898, 0.5: 8.40835151134639}


def _sech(N):
    return periodized_sech(FourierGrid(d=1, N=N, L=40.0), A=1.0, a=1.0)


@pytest.mark.parametrize("sigma", sorted(SECH_A_SIGMA))
def test_a_sigma_of_the_resolved_sech_is_independent_of_N(sigma):
    # unmasked, e^{sigma|xi|} lifts the round-off plateau: at sigma = 0.1
    # the column read 18.97 at N = 4096 and 4.2e46 at N = 8192
    values = [norm_report(_sech(N), sigma).a_sigma
              for N in (1024, 2048, 4096, 8192)]
    assert max(values) - min(values) <= 1e-12 * min(values)
    assert values[0] == pytest.approx(SECH_A_SIGMA[sigma], rel=1e-12)


def test_overflow_guard_checks_the_resolved_band():
    # refused on both whole lattices, where 2 sigma |xi|_max = 643 > 600,
    # and finite on the band
    assert a_sigma(resolved_spectrum(_sech(8192)), 0.5) == pytest.approx(
        SECH_A_SIGMA[0.5], rel=1e-12)
    assert a_sigma(resolved_spectrum(_sech(4096)), 1.0) == pytest.approx(
        49.2988, rel=1e-5)
    with pytest.raises(MultiplierOverflowError):
        a_sigma(_sech(4096), 1.0)


def test_resolved_spectrum_cuts_to_the_smallest_power_of_two_band():
    g = FourierGrid(d=1, N=4096, L=40.0)
    u = to_spectral(_sech(4096))
    r = resolved_spectrum(u)
    assert r.is_spectral and r.grid == FourierGrid(d=1, N=512, L=40.0)
    mag = np.abs(u.values)
    kept = mag > 1e-14 * mag.max()
    k = np.fft.fftfreq(g.N, d=1.0 / g.N)
    assert np.abs(k[kept]).max() < 256
    # the band's modes, in FFT order, are the kept coefficients and zeros
    band = np.r_[0:256, g.N - 256:g.N]
    assert np.array_equal(r.values, np.where(kept, u.values, 0.0)[band])


@pytest.mark.parametrize("N,k,band_N", [
    (64, 3, 8), (64, 4, 16), (64, -4, 16), (64, 15, 32), (64, 31, 64),
    (64, -32, 64), (18, 5, 16), (18, 7, 16), (18, 8, 18)])
def test_resolved_band_of_one_mode(N, k, band_N):
    # modes -n/2 ... n/2 - 1 of the band grid must hold |k|; n >= 8 and
    # never above N, which need not be a power of two
    g = FourierGrid(d=2, N=N, L=5.0)
    u = single_mode_field(g, (k, 1), amplitude=0.5)
    r = resolved_spectrum(u)
    assert r.grid == FourierGrid(d=2, N=band_N, L=5.0)
    assert np.count_nonzero(r.values) == 1
    assert r.values[k % band_N, 1] == u.values[k % N, 1]
    assert norm_report(u, 0.3).a_sigma == pytest.approx(a_sigma(u, 0.3),
                                                        rel=1e-13)


def test_resolved_spectrum_passes_a_resolved_or_zero_slice_through():
    u = to_spectral(periodized_sech(FourierGrid(d=2, N=32, L=20.0)))
    assert resolved_spectrum(u) is u
    z = to_spectral(zero_field(FourierGrid(d=1, N=64, L=10.0)))
    assert resolved_spectrum(z) is z
    phys = to_physical(u)
    assert np.array_equal(resolved_spectrum(phys).values,
                          to_spectral(phys).values)


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resolved_slice_is_scanned_without_grid_temporaries():
    g = FourierGrid(d=3, N=64, L=20.0)
    uh = to_spectral(periodized_sech(g))
    grid_bytes = 16 * g.N ** 3
    # one slab buffer: |u^| of the grid would take half a grid
    assert _traced_peak(lambda: resolved_spectrum(uh)) < 0.1 * grid_bytes


def test_norm_report_of_a_resolved_slice_keeps_its_memory_peak():
    # nothing of the 64^3 sech is below the floor: building |u^|, the mask
    # or a grid of mode indices would only add to the peak, 6.19 grids
    g = FourierGrid(d=3, N=64, L=20.0)
    u = periodized_sech(g)
    g.xi_abs
    norm_report(u, 0.1)
    assert _traced_peak(lambda: norm_report(u, 0.1)) < 6.2 * 16 * g.N ** 3


# ---------------------------------------------------------------------------
# radius estimator
# ---------------------------------------------------------------------------

def _synthetic_exponential(sigma0, N=1024, L=40.0):
    g = FourierGrid(d=1, N=N, L=L)
    coeffs = np.exp(-sigma0 * g.xi_abs).astype(complex)
    return Field(g, coeffs, rep=SPECTRAL)


def test_radius_synthetic_exponential():
    est = radius_estimate(_synthetic_exponential(0.7))
    assert 0.693 <= est.sigma_hat <= 0.707
    assert not est.entire_flag and not est.floor_flag


@pytest.mark.parametrize("sigma0", [0.1, 0.25, 0.5, 1.0, 1.5, 2.0])
def test_radius_recovery_within_one_percent(sigma0):
    est = radius_estimate(_synthetic_exponential(sigma0))
    assert abs(est.sigma_hat - sigma0) <= 0.01 * sigma0


def test_radius_sech_pi_over_two():
    g = FourierGrid(d=1, N=1024, L=40.0)
    est = radius_estimate(periodized_sech(g, a=1.0))
    assert abs(est.sigma_hat - np.pi / 2) <= 0.02 * (np.pi / 2)
    assert not est.entire_flag


def test_radius_gaussian_entire():
    g = FourierGrid(d=1, N=1024, L=40.0)
    est = radius_estimate(gaussian(g, w=1.0))
    assert est.entire_flag


def test_radius_zero_field_rejected(grid1d):
    with pytest.raises(EmptySpectrumError, match="empty spectrum"):
        radius_estimate(zero_field(grid1d))


def test_radius_floor_flag_on_single_mode(grid1d):
    est = radius_estimate(single_mode_field(grid1d, 3))
    assert est.floor_flag
    assert est.sigma_hat == 0.0


def test_radius_shell_envelope_2d_slowest_direction():
    # anisotropic decay: the envelope must track the slow axis
    g = FourierGrid(d=2, N=256, L=40.0)
    ax = np.abs(g.xi_axis)
    coeffs = np.exp(-1.0 * ax)[:, None] * np.exp(-3.0 * ax)[None, :]
    est = radius_estimate(Field(g, coeffs.astype(complex), rep=SPECTRAL))
    # shell binning near the axis edge biases the fit slightly upward
    assert abs(est.sigma_hat - 1.0) <= 0.1
