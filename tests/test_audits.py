"""Remainder f(v), pointwise multiplier inequality, trilinear and GN audits."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from gnls import _kernels
from gnls.audits import (audit_f_estimate, audit_gagliardo_nirenberg,
                         audit_multiplier_inequality, audit_trilinear, f_of_v,
                         sigma_halving_ratio, trilinear_sides)
from gnls.errors import EmptySpectrumError
from gnls.grid import Field, FourierGrid, SPECTRAL
from gnls.norms import mass
from gnls.spectral import to_physical, to_spectral

from conftest import random_field, rel_err, single_mode_field
from oracles import (audit_multiplier_whole, direct_convolution_cubic,
                     single_mode, trilinear_single_mode_oracle, zero_field)


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

    def weighted(c, sign):
        return c * np.exp(sign * sigma * g.xi_abs)

    direct = direct_convolution_cubic(v)
    vm = Field(g, weighted(coeffs, -1.0), rep=SPECTRAL)
    inner = direct_convolution_cubic(vm)
    oracle_spec = -(direct - weighted(inner, +1.0))
    fv = to_spectral(f_of_v(to_physical(v), sigma))
    assert rel_err(fv.values, oracle_spec) < 1e-10


def test_f_of_v_transforms_and_synthesises_each_factor_once(monkeypatch):
    g = FourierGrid(d=2, N=32, L=5.0)
    v = to_physical(random_field(g, seed=1))
    calls = {"fftn": [], "ifftn": []}
    for name, log in calls.items():
        def counted(a, *args, _transform=getattr(np.fft, name), _log=log,
                    **kwargs):
            _log.append((a, kwargs.get("axes")))
            return _transform(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    f_of_v(v, 0.05)
    # two padded syntheses, one per cubic product, of one whole transform
    # each on the doubled grid, and the one transform back of f(v)
    assert [(a.shape, axes) for a, axes in calls["ifftn"]] == \
        [((64, 64), None)] * 2 + [((32, 32), None)]
    # v is transformed once; each product transforms once more
    assert sum(a is v.values for a, _ in calls["fftn"]) == 1
    assert len(calls["fftn"]) == 3


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
    rep = audit_f_estimate([v], 0.05)
    assert rep.ratio < 1e-12


def test_audit_f_estimate_ensemble_stability(grid1d):
    ensemble = [to_physical(random_field(grid1d, seed=s)) for s in range(30)]
    rep = audit_f_estimate(ensemble, 0.05)
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


B = _kernels._BLOCK


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
def test_streamed_multiplier_audit_equals_the_whole_array_audit(d, n):
    # two audits back to back: the second one's seed comes from the state
    # the first one leaves in the caller's rng
    rng_a = np.random.default_rng(100 * d + n)
    rng_b = np.random.default_rng(100 * d + n)
    for sigma in (1e-3, 1.0):
        got = audit_multiplier_inequality(sigma, n, d, rng_a)
        want = audit_multiplier_whole(sigma, n, d, rng_b)
        for field in dataclasses.fields(got):
            assert getattr(got, field.name) == getattr(want, field.name), \
                field.name
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_multiplier_audit_holds_no_whole_ensemble():
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        audit_multiplier_inequality(0.1, 1_000_000, 3, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MB ratios plus a few block-sized draws and temporaries; the
    # whole (3, 10^6, 3) ensemble alone is 72 MB
    assert peak < 16e6


def _audit_of_ratios(ratios, monkeypatch):
    """A multiplier audit whose kernel hands back a copy of ``ratios``."""
    monkeypatch.setattr(_kernels, "triple_gap_ratios",
                        lambda source, n, sigma: (0, ratios.copy()))
    return audit_multiplier_inequality(0.1, ratios.size, 1,
                                       np.random.default_rng(0))


@pytest.mark.parametrize("values", ["sprinkled-zeros", "ties"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, B - 1, B, B + 1, 1_000_000])
def test_multiplier_median_is_np_median(n, values, monkeypatch):
    rng = np.random.default_rng(n)
    if values == "ties":
        ratios = rng.integers(0, 4, n) / 3.0  # four values, one of them 0
    else:
        ratios = rng.random(n)
        ratios[rng.random(n) < 0.2] = 0.0
    rep = _audit_of_ratios(ratios, monkeypatch)
    assert repr(rep.median_ratio) == repr(float(np.median(ratios)))
    assert repr(rep.max_ratio) == repr(float(ratios.max()))


@pytest.mark.parametrize("n", [1, 2, 7, 8, B + 1])
def test_multiplier_median_of_ratios_with_a_nan_is_nan(n, monkeypatch):
    for where in {0, n // 2, n - 1}:
        ratios = np.random.default_rng(n).random(n)
        ratios[where] = np.nan
        rep = _audit_of_ratios(ratios, monkeypatch)
        assert repr(float(np.median(ratios))) == "nan"
        assert repr(rep.median_ratio) == "nan"


def test_multiplier_inequality_rejects_bad_sigma():
    with pytest.raises(ValueError):
        audit_multiplier_inequality(0.0, 10, 1, np.random.default_rng(0))


def test_multiplier_inequality_rejects_an_empty_ensemble():
    with pytest.raises(ValueError, match="n_triples must be >= 1, got 0"):
        audit_multiplier_inequality(0.1, 0, 1, np.random.default_rng(0))


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


def test_trilinear_keeps_every_member_when_6_divides_N():
    # the draws' band stops short of N/6, so no product leaks past the
    # coarse band: at N = 18 every member was rejected
    grid = FourierGrid(d=1, N=18, L=10.0)
    for kind in (1, 2, 3):
        assert audit_trilinear(kind, grid, 16, 1.0, n_members=3,
                               seed=7).rejected == 0


def test_trilinear_rejects_an_empty_ensemble():
    grid = FourierGrid(d=1, N=32, L=5.0)
    with pytest.raises(ValueError, match="n_members"):
        audit_trilinear(1, grid, 16, 1.0, n_members=0, seed=7)


@pytest.mark.parametrize("M,T_win,match", [(6, 1.0, "M must be even"),
                                           (16, 0.0, "T_win must be positive")])
def test_trilinear_rejects_a_bad_lattice_before_its_tables(M, T_win, match):
    grid = FourierGrid(d=1, N=32, L=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by T_win = 0 first
        with pytest.raises(ValueError, match=match):
            audit_trilinear(1, grid, M, T_win, n_members=2, seed=7)


def test_trilinear_with_every_member_rejected_raises(monkeypatch):
    # no member survives, so there is no ratio to report, not a made-up 0.0
    import gnls.audits as audits

    monkeypatch.setattr(audits, "LEAK_TOLERANCE", -1.0)
    grid = FourierGrid(d=1, N=32, L=5.0)
    with pytest.raises(ValueError, match="trilinear-2: all 3 members rejected"):
        audit_trilinear(2, grid, 16, 1.0, n_members=3, seed=7)


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
        audit_gagliardo_nirenberg(zero_field(grid1d))
