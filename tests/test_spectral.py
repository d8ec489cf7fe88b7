"""Transforms, the Gevrey weight, padding, and dealiased products."""

import numpy as np
import pytest

from gnls.errors import MultiplierOverflowError, NonFiniteFieldError
from gnls.grid import Field, FourierGrid, PHYSICAL, SPECTRAL
from gnls.integrator import linear_half_step
from gnls.norms import GevreyParams, gevrey_norm
from gnls.spectral import (apply_exp_gevrey, dealiased_triple_product,
                           forward_transform, inverse_transform, l4_norm,
                           pad_spectrum, truncate_spectrum, to_physical,
                           to_spectral)

from conftest import random_field, rel_err, single_mode_field


# ---------------------------------------------------------------------------
# grid and field validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,N,L", [(0, 64, 1.0), (4, 64, 1.0),
                                   (1, 6, 1.0), (1, 65, 1.0),
                                   (1, 64, 0.0), (1, 64, -1.0)])
def test_grid_rejects_bad_parameters(d, N, L):
    with pytest.raises(ValueError):
        FourierGrid(d=d, N=N, L=L)


def test_grid_lattice_convention():
    g = FourierGrid(d=1, N=8, L=2.0 * np.pi)
    # xi_k = 2*pi*k/L = k here; FFT ordering 0..3, -4..-1
    assert np.allclose(g.xi_axis, [0, 1, 2, 3, -4, -3, -2, -1])
    assert g.xi_max == pytest.approx(np.sqrt(1) * np.pi * 8 / (2 * np.pi))


def test_grid_lattice_symmetric_except_nyquist():
    g = FourierGrid(d=1, N=16, L=5.0)
    ax = g.xi_axis
    positive = sorted(x for x in ax if x > 0)
    negative = sorted(-x for x in ax if x < 0)
    # every positive frequency has a negative partner except the Nyquist mode
    assert np.allclose(positive, negative[:-1])
    assert len(negative) == len(positive) + 1


def test_field_rejects_nonfinite_and_shape_mismatch(grid1d):
    bad = np.ones(grid1d.shape, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(NonFiniteFieldError):
        Field(grid1d, bad)
    with pytest.raises(ValueError):
        Field(grid1d, np.ones(grid1d.N + 2, dtype=complex))
    with pytest.raises(ValueError):
        Field(grid1d, np.ones(grid1d.shape), rep="fourier")


def test_field_values_read_only(grid1d):
    f = Field(grid1d, np.ones(grid1d.shape, dtype=complex))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,N,L", [(1, 64, 2 * np.pi), (1, 128, 17.0),
                                   (2, 32, 5.0), (3, 16, 3.0)])
def test_parseval(d, N, L):
    g = FourierGrid(d=d, N=N, L=L)
    rng = np.random.default_rng(d * 100 + N)
    f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    fh = forward_transform(f)
    quad = np.sum(np.abs(f.values) ** 2) * (L / N) ** d
    spec = np.sum(np.abs(fh.values) ** 2)
    assert abs(quad - spec) <= 1e-12 * quad


@pytest.mark.parametrize("d,N,L", [(1, 64, 2 * np.pi), (2, 32, 5.0)])
def test_round_trip_identity(d, N, L):
    g = FourierGrid(d=d, N=N, L=L)
    rng = np.random.default_rng(7)
    f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    back = inverse_transform(forward_transform(f))
    assert rel_err(back.values, f.values) < 1e-12


def test_transform_linearity(grid1d):
    rng = np.random.default_rng(11)
    f = Field(grid1d, rng.standard_normal(grid1d.shape) + 0j)
    g = Field(grid1d, rng.standard_normal(grid1d.shape) + 0j)
    a, b = 2.5 - 1j, -0.75 + 3j
    combo = forward_transform(Field(grid1d, a * f.values + b * g.values))
    parts = a * forward_transform(f).values + b * forward_transform(g).values
    assert rel_err(combo.values, parts) < 1e-12


def test_constant_field_single_coefficient(grid1d):
    c = 1.5 - 0.5j
    f = Field(grid1d, np.full(grid1d.shape, c))
    fh = forward_transform(f)
    expect = c * grid1d.L ** 0.5
    assert abs(fh.values[0] - expect) < 1e-12 * abs(expect)
    assert np.max(np.abs(fh.values[1:])) < 1e-12 * abs(expect)


def test_plane_wave_single_coefficient():
    g = FourierGrid(d=1, N=64, L=2 * np.pi)
    k, A = 5, 0.8
    f = Field(g, A * np.exp(1j * k * g.x))
    fh = forward_transform(f)
    assert abs(fh.values[k] - A * np.sqrt(g.L)) < 1e-12
    rest = np.abs(fh.values)
    rest[k] = 0.0
    assert rest.max() < 1e-12


def test_inverse_of_delta_is_constant(grid1d):
    coeffs = np.zeros(grid1d.shape, dtype=complex)
    coeffs[0] = 2.0
    f = inverse_transform(Field(grid1d, coeffs, rep=SPECTRAL))
    assert np.allclose(f.values, 2.0 / np.sqrt(grid1d.L))


def test_zero_spectrum_round_trip(grid1d):
    z = Field.zero(grid1d, rep=SPECTRAL)
    assert np.all(inverse_transform(z).values == 0.0)


def test_transform_rejects_wrong_representation(grid1d):
    f = Field(grid1d, np.ones(grid1d.shape, dtype=complex))
    with pytest.raises(ValueError):
        inverse_transform(f)
    with pytest.raises(ValueError):
        forward_transform(to_spectral(f))


# ---------------------------------------------------------------------------
# Gevrey weight e^{sigma |xi|}
# ---------------------------------------------------------------------------

def test_identity_multipliers(grid1d):
    f = to_spectral(random_field(grid1d, seed=1))
    out = apply_exp_gevrey(f, 0.0)
    assert np.array_equal(out.values, f.values)


def test_exp_gevrey_inverse_pair(grid1d):
    f = to_spectral(random_field(grid1d, seed=2))
    out = apply_exp_gevrey(apply_exp_gevrey(f, 0.3), -0.3)
    assert rel_err(out.values, f.values) < 1e-12


def test_multiplier_composition_law(grid1d):
    f = to_spectral(random_field(grid1d, seed=3))
    two_step = apply_exp_gevrey(apply_exp_gevrey(f, 0.2), 0.15)
    one_step = apply_exp_gevrey(f, 0.35)
    assert rel_err(two_step.values, one_step.values) < 1e-13


def test_exp_gevrey_on_plane_wave(grid1d):
    k, sigma = 4, 0.7
    f = to_spectral(single_mode_field(grid1d, k))
    out = apply_exp_gevrey(f, sigma)
    scale = np.exp(sigma * abs(float(grid1d.xi_axis[k])))
    assert abs(out.values[k] / f.values[k] - scale) < 1e-13 * scale
    assert np.count_nonzero(out.values) == 1


def test_exp_gevrey_rejects_physical_field(grid1d):
    with pytest.raises(ValueError, match="spectral"):
        apply_exp_gevrey(to_physical(random_field(grid1d, seed=4)), 0.1)


def test_overflow_guard():
    g = FourierGrid(d=1, N=1024, L=1.0)   # xi_max ~ 3217
    f = Field.zero(g, rep=SPECTRAL)
    with pytest.raises(MultiplierOverflowError, match="multiplier overflow"):
        apply_exp_gevrey(f, 1.0)


def test_overflow_guard_non_finite_weight(monkeypatch):
    # with the exponent bound raised out of the way, exp(sigma |xi|) itself
    # overflows and the second check must catch it
    import gnls.spectral as spectral

    monkeypatch.setattr(spectral, "OVERFLOW_EXPONENT", 1e6)
    g = FourierGrid(d=1, N=64, L=1.0)     # xi_max ~ 201
    f = Field.zero(g, rep=SPECTRAL)
    with np.errstate(over="ignore"), \
            pytest.raises(MultiplierOverflowError, match="non-finite on lattice"):
        apply_exp_gevrey(f, 5.0)


def test_bracket_on_plane_wave(grid1d):
    # the Japanese bracket <xi>^s of the Gevrey norm, at sigma = 0
    k, s = 4, 1.7
    f = to_spectral(single_mode_field(grid1d, k))
    scale = (1.0 + float(grid1d.xi_axis[k]) ** 2) ** (s / 2.0)
    norm = gevrey_norm(f, GevreyParams(0.0, s))
    assert abs(norm / abs(f.values[k]) - scale) < 1e-13 * scale


def test_free_propagator_unimodular(grid1d):
    # the solver's linear substep is the free propagator e^{-i t |xi|^2}
    f = to_spectral(random_field(grid1d, seed=4))
    out = linear_half_step(f, 0.37)
    assert rel_err(np.abs(out.values), np.abs(f.values)) < 1e-13


# ---------------------------------------------------------------------------
# padding and dealiased products
# ---------------------------------------------------------------------------

def test_pad_truncate_round_trip(grid1d):
    f = to_spectral(random_field(grid1d, seed=5))
    back = truncate_spectrum(pad_spectrum(f), grid1d)
    assert rel_err(back.values, f.values) < 1e-13


def test_pad_preserves_coefficients(grid1d):
    # with the unitary convention, padding is a pure index embedding
    f = to_spectral(single_mode_field(grid1d, 3, amplitude=2.0))
    big = pad_spectrum(f)
    assert big.grid.N == 2 * grid1d.N
    assert abs(big.values[3] - f.values[3]) < 1e-14
    assert np.sum(np.abs(big.values) > 0) == 1


def test_triple_product_plane_wave(grid1d):
    u = single_mode_field(grid1d, 3)
    prod = dealiased_triple_product(u, u, u, conjugate=(False, True, False))
    # |u|^2 u with |u| = 1 pointwise
    assert rel_err(prod.values, to_physical(u).values) < 1e-12


def test_triple_product_zero_factor(grid1d):
    u = random_field(grid1d, seed=6)
    z = Field.zero(grid1d)
    prod = dealiased_triple_product(u, z, u)
    assert np.max(np.abs(prod.values)) < 1e-15


def test_triple_product_grid_mismatch(grid1d):
    other = FourierGrid(d=1, N=128, L=grid1d.L)
    u = random_field(grid1d, seed=7)
    v = random_field(other, seed=7)
    with pytest.raises(ValueError):
        dealiased_triple_product(u, v, u)


def _direct_convolution_triple(f, g, h, conjugate):
    """O(N^3) spectral convolution oracle for d=1 fields."""
    grid = f.grid
    N, L = grid.N, grid.L
    spectra = []
    for u, c in zip((f, g, h), conjugate):
        uh = to_spectral(u).values.copy()
        if c:
            # conj in physical space flips and conjugates the spectrum
            idx = (-np.arange(N)) % N
            uh = np.conj(uh[idx])
        spectra.append(uh)
    # unitary coefficients multiply with a 1/sqrt(L) factor per product
    out = np.zeros(N, dtype=complex)
    ks = np.arange(N)
    half = N // 2
    def wrap(k):
        return ((k + half) % N) - half
    kk = wrap(ks)
    for i in range(N):
        if spectra[0][i] == 0:
            continue
        for j in range(N):
            if spectra[1][j] == 0:
                continue
            for m in range(N):
                if spectra[2][m] == 0:
                    continue
                tot = kk[i] + kk[j] + kk[m]
                if tot > half - 1 or tot < -half:
                    continue  # outside the truncated band
                out[tot % N] += spectra[0][i] * spectra[1][j] * spectra[2][m]
    return out / L


def test_triple_product_matches_direct_convolution():
    g = FourierGrid(d=1, N=32, L=7.0)
    # two-mode inputs, well inside the dealias-safe band
    coeffs = np.zeros(g.shape, dtype=complex)
    coeffs[2] = 1.3 - 0.2j
    coeffs[-3 % g.N] = 0.4 + 0.9j
    u = Field(g, coeffs, rep=SPECTRAL)
    conj = (False, True, False)
    prod = to_spectral(dealiased_triple_product(u, u, u, conjugate=conj))
    oracle = _direct_convolution_triple(u, u, u, conj)
    assert rel_err(prod.values, oracle) < 1e-12


def test_dealiased_product_exact_for_bandlimited():
    g = FourierGrid(d=1, N=48, L=11.0)
    u = random_field(g, seed=8, band=g.N // 6)
    conj = (False, True, False)
    prod = to_spectral(dealiased_triple_product(u, u, u, conjugate=conj))
    oracle = _direct_convolution_triple(u, u, u, conj)
    assert rel_err(prod.values, oracle) < 1e-12


def test_l4_norm_constant_field(grid1d):
    c = 0.7
    f = Field(grid1d, np.full(grid1d.shape, c, dtype=complex))
    # ||c||_{L4} = c * L^{1/4}
    assert l4_norm(f) == pytest.approx(c * grid1d.L ** 0.25, rel=1e-12)


def test_l4_norm_padded_matches_fine_quadrature():
    g = FourierGrid(d=1, N=64, L=9.0)
    u = random_field(g, seed=9)
    fine = to_physical(pad_spectrum(to_spectral(u), factor=4))
    q = (fine.grid.L / fine.grid.N) ** fine.grid.d
    oracle = float((np.sum(np.abs(fine.values) ** 4) * q) ** 0.25)
    assert l4_norm(u) == pytest.approx(oracle, rel=1e-12)
