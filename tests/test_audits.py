"""Remainder f(v), pointwise multiplier inequality, trilinear and GN audits."""

import numpy as np
import pytest

from gnls.audits import (audit_f_estimate, audit_gagliardo_nirenberg,
                         audit_multiplier_inequality, audit_trilinear, f_of_v,
                         sigma_halving_ratio, trilinear_sides,
                         trilinear_single_mode_oracle)
from gnls.errors import EmptySpectrumError
from gnls.grid import Field, FourierGrid, SPECTRAL
from gnls.norms import mass
from gnls.spacetime import single_mode
from gnls.spectral import to_physical, to_spectral

from conftest import random_field, rel_err, single_mode_field
from test_spectral import _direct_convolution_triple


# ---------------------------------------------------------------------------
# f(v)
# ---------------------------------------------------------------------------

def test_f_vanishes_at_sigma_zero(grid1d):
    v = to_physical(random_field(grid1d, seed=0))
    fv = f_of_v(v, 0.0)
    scale = np.sqrt(mass(v)) ** 3
    assert np.sqrt(mass(fv)) < 1e-13 * scale


def test_f_vanishes_on_constant_field(grid1d):
    # the zero-frequency plane wave: both terms are the same constant cubic
    v = Field(grid1d, np.full(grid1d.shape, 0.8 - 0.3j))
    fv = f_of_v(v, 0.05)
    assert np.max(np.abs(fv.values)) < 1e-13


def test_f_plane_wave_closed_form(grid1d):
    # for a single mode at xi != 0 the inner weights cancel only partially:
    # |e^{-sigma|D|}v|^2 e^{-sigma|D|}v carries e^{-3 sigma|xi|} ... wait
    # the product mode sits back at xi, lifted by e^{+sigma|xi|}, leaving a
    # net e^{-2 sigma |xi|}; hence f = -(1 - e^{-2 sigma|xi|}) |A|^2 A e^{ikx}
    A, k, sigma = 0.7 + 0.2j, 4, 0.3
    v = single_mode_field(grid1d, k, amplitude=A)
    xi = abs(float(grid1d.xi_axis[k]))
    fv = f_of_v(to_physical(v), sigma)
    expect = -(1.0 - np.exp(-2.0 * sigma * xi)) * abs(A) ** 2 * A \
        * np.exp(1j * xi * grid1d.x)
    assert rel_err(fv.values, expect) < 1e-12


def test_f_two_mode_direct_convolution_oracle():
    g = FourierGrid(d=1, N=32, L=7.0)
    sigma = 0.15
    coeffs = np.zeros(g.shape, dtype=complex)
    coeffs[2] = 1.0 - 0.4j
    coeffs[-3 % g.N] = 0.6 + 0.2j
    v = Field(g, coeffs, rep=SPECTRAL)
    conj = (False, True, False)

    def weighted(c, sign):
        return c * np.exp(sign * sigma * g.xi_abs)

    direct = _direct_convolution_triple(v, v, v, conj)
    vm = Field(g, weighted(coeffs, -1.0), rep=SPECTRAL)
    inner = _direct_convolution_triple(vm, vm, vm, conj)
    oracle_spec = -(direct - weighted(inner, +1.0))
    fv = to_spectral(f_of_v(to_physical(v), sigma))
    assert rel_err(fv.values, oracle_spec) < 1e-10


def test_f_norm_nondecreasing_in_sigma(grid1d):
    # not proved in the source analysis; kept as a regression check on
    # fixed seeds rather than a general assertion
    for seed in (1, 2, 3):
        v = to_physical(random_field(grid1d, seed=seed))
        norms = [np.sqrt(mass(f_of_v(v, s)))
                 for s in (0.01, 0.05, 0.1, 0.2)]
        assert all(b >= a * (1 - 1e-10) for a, b in zip(norms, norms[1:]))


def test_sigma_halving_ratio_linear_regime(grid1d):
    v = to_physical(random_field(grid1d, seed=4))
    for sigma in (1e-2, 5e-3):
        assert 1.9 <= sigma_halving_ratio(v, sigma) <= 2.1


def test_audit_f_estimate_constant_field_ratio_zero(grid1d):
    v = Field(grid1d, np.full(grid1d.shape, 0.5 + 0.0j))
    rep = audit_f_estimate(v, 0.05)
    assert rep.ratio < 1e-12


def test_audit_f_estimate_ensemble_stability(grid1d):
    ensemble = [to_physical(random_field(grid1d, seed=s)) for s in range(30)]
    rep = audit_f_estimate(ensemble[0], 0.05, ensemble=ensemble)
    assert rep.count == 30
    assert np.isfinite(rep.max_ratio)
    assert rep.max_ratio >= rep.median_ratio > 0
    assert rep.max_ratio / rep.median_ratio < 10


# ---------------------------------------------------------------------------
# pointwise multiplier inequality
# ---------------------------------------------------------------------------

def test_multiplier_inequality_collinear_cancellation():
    # xi1=1, xi2=-1, xi3=0: xi = 2, gap = 0, lhs = 0
    sigma = 0.5
    gap = 1.0 + 1.0 + 0.0 - 2.0
    assert gap == 0.0
    assert 1.0 - np.exp(-sigma * gap) == 0.0


def test_multiplier_inequality_symmetric_point():
    # xi1=xi2=xi3=1: xi = -1, gap = 2, xi_med = 1
    for sigma in (1e-3, 1e-1, 1.0, 10.0):
        lhs = 1.0 - np.exp(-2.0 * sigma)
        assert lhs <= 12.0 * sigma * 1.0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("sigma", [1e-3, 1e-1, 1.0])
def test_multiplier_inequality_random_ensemble(d, sigma):
    rng = np.random.default_rng(d * 17 + int(1000 * sigma))
    rep = audit_multiplier_inequality(sigma, 20_000, d, rng)
    assert rep.violations == 0
    assert rep.max_ratio <= 1.0
    assert rep.median_ratio <= rep.max_ratio


def test_multiplier_inequality_rejects_bad_sigma():
    with pytest.raises(ValueError):
        audit_multiplier_inequality(0.0, 10, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# trilinear audits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", [1, 2, 3])
def test_trilinear_single_mode_matches_oracle(kind):
    grid = FourierGrid(d=1, N=64, L=2 * np.pi)
    M, T_win, b, sigma = 64, 1.0, 0.55, 0.1
    m0, k0 = 2, 3
    w = single_mode(grid, M, T_win, m0, k0)
    lhs, rhs, leaked = trilinear_sides(kind, (w, w, w), b, sigma)
    o_lhs, o_rhs = trilinear_single_mode_oracle(kind, grid, M, T_win, m0, k0,
                                                b, sigma)
    assert leaked == 0.0
    assert lhs == pytest.approx(o_lhs, rel=1e-10)
    assert rhs == pytest.approx(o_rhs, rel=1e-10)


def test_trilinear_zero_factor():
    grid = FourierGrid(d=1, N=32, L=5.0)
    M, T_win = 16, 1.0
    w = single_mode(grid, M, T_win, 1, 1)
    z = single_mode(grid, M, T_win, 0, 0, amplitude=0.0)
    lhs, rhs, _ = trilinear_sides(2, (w, z, w), 0.55)
    assert lhs == 0.0


def test_trilinear_bad_kind():
    grid = FourierGrid(d=1, N=32, L=5.0)
    w = single_mode(grid, 16, 1.0, 0, 0)
    with pytest.raises(ValueError):
        trilinear_sides(4, (w, w, w), 0.55)
    with pytest.raises(ValueError):
        trilinear_single_mode_oracle(0, grid, 16, 1.0, 0, 0, 0.55)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_trilinear_ensemble_stability(kind):
    grid = FourierGrid(d=1, N=64, L=2 * np.pi)
    rep = audit_trilinear(kind, grid, 64, 1.0, n_members=20, seed=100 + kind)
    assert rep.rejected == 0
    assert np.all(np.isfinite(rep.members))
    assert rep.max_ratio / rep.median_ratio < 10


def test_trilinear_deterministic_and_thread_invariant():
    grid = FourierGrid(d=1, N=32, L=5.0)
    a = audit_trilinear(2, grid, 16, 1.0, n_members=6, seed=7)
    b = audit_trilinear(2, grid, 16, 1.0, n_members=6, seed=7)
    c = audit_trilinear(2, grid, 16, 1.0, n_members=6, seed=7, threads=2)
    assert a.members == b.members == c.members


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg
# ---------------------------------------------------------------------------

def test_gn_plane_wave_ratio():
    g = FourierGrid(d=1, N=64, L=2 * np.pi)
    k = 3
    u = single_mode_field(g, k)
    rep = audit_gagliardo_nirenberg(u)
    xi = 2 * np.pi * k / g.L
    assert rep.ratio == pytest.approx(1.0 / (xi * g.L), rel=1e-10)


def test_gn_dilation_family_bounded():
    g = FourierGrid(d=1, N=512, L=80.0)
    x = g.x - g.L / 2
    ratios = []
    for lam in (1, 2, 4, 8):
        u = Field(g, np.exp(-(lam * x) ** 2).astype(complex))
        ratios.append(audit_gagliardo_nirenberg(u).ratio)
    assert max(ratios) < 10 * min(ratios)  # scale-invariance up to quadrature


def test_gn_zero_field_rejected(grid1d):
    with pytest.raises(EmptySpectrumError):
        audit_gagliardo_nirenberg(Field.zero(grid1d))
