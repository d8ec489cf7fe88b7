"""Transforms, the Gevrey weight, padding, and dealiased products."""

import numpy as np
import pytest

from gnls import _kernels
from gnls.errors import MultiplierOverflowError, NonFiniteFieldError
from gnls.grid import Field, FourierGrid, SPECTRAL
from gnls.integrator import SolverConfig, evolve
from gnls.norms import gevrey_norm
from gnls.spectral import (apply_exp_gevrey, dealiased_cubic,
                           forward_transform, inverse_transform, l4_norm,
                           truncate_spectrum, to_physical, to_spectral)

from conftest import (L4_SLABS, l4_slab_points, random_field, rel_err,
                      single_mode_field)
from oracles import (apply_exp_gevrey_whole, direct_convolution_cubic,
                     l4_norm_whole, pad_spectrum, xi_abs_whole, zero_field)


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_k_max_is_the_largest_mode_index_over_the_axes(d):
    g = FourierGrid(d=d, N=8, L=3.0)
    k = np.abs(np.fft.fftfreq(8, d=1.0 / 8))
    assert g.k_max.shape == g.shape
    for idx in np.ndindex(g.shape):
        assert g.k_max[idx] == max(k[i] for i in idx)


@pytest.mark.parametrize("slab", [None, 7, 5], ids=["default-slab", "slab-7",
                                                   "slab-5-rows"])
@pytest.mark.parametrize("d,N,L", [(1, 4096, 40.0), (1, 64, 2.0), (2, 18, 3.0),
                                   (2, 256, 20.0), (3, 10, 5.0), (3, 64, 20.0)])
def test_xi_abs_is_bytes_equal_to_the_whole_grid_sum(d, N, L, slab, monkeypatch):
    # 7 points make one-row slabs in d >= 2; 5 rows leave a partial slab
    if slab is not None:
        monkeypatch.setattr(_kernels, "_SLAB",
                            7 if slab == 7 else 5 * N ** (d - 1))
    g = FourierGrid(d=d, N=N, L=L)
    assert g.xi_abs.tobytes() == xi_abs_whole(g).tobytes()


def test_xi_abs_is_filled_without_grid_temporaries():
    import tracemalloc

    g = FourierGrid(d=3, N=128, L=20.0)
    tracemalloc.start()
    try:
        g.xi_abs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one real output; the whole-grid sum peaks at 2 real grids
    assert peak < 1.1 * 8 * g.N ** 3


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
    z = zero_field(grid1d, rep=SPECTRAL)
    assert np.all(inverse_transform(z).values == 0.0)


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("d,N", [(1, 64), (2, 18), (3, 10)])
def test_inverse_transform_equals_division_by_the_forward_factor(
        d, N, split, monkeypatch):
    # the real view is scaled by 1/factor: the same numbers as numpy's
    # complex division by the factor, up to the sign of zeros
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 2 if split else float("inf"))
    g = FourierGrid(d=d, N=N, L=7.3)
    factor = (np.sqrt(g.L) / g.N) ** g.d
    for uh in (to_spectral(random_field(g, seed=N + d, band=N // 2)),
               Field(g, np.zeros(g.shape), rep=SPECTRAL)):
        want = np.fft.ifftn(uh.values) / factor
        assert np.all(inverse_transform(uh).values == want)


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


def test_inverse_transform_keeps_its_samples_without_a_copy():
    import tracemalloc

    g = FourierGrid(d=3, N=64, L=8.0)
    f = to_spectral(random_field(g, seed=5))
    inverse_transform(f)  # any first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        out = inverse_transform(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.values.flags.writeable
    # the one array the transform writes; a copy of it makes two grids
    assert peak < 1.1 * 16 * g.N ** 3


def test_multiplier_composition_law(grid1d):
    f = to_spectral(random_field(grid1d, seed=3))
    two_step = apply_exp_gevrey(apply_exp_gevrey(f, 0.2), 0.15)
    one_step = apply_exp_gevrey(f, 0.35)
    assert rel_err(two_step.values, one_step.values) < 1e-13


def test_exp_gevrey_keeps_its_product_without_a_copy():
    import tracemalloc

    g = FourierGrid(d=3, N=64, L=8.0)
    f = to_spectral(random_field(g, seed=5))
    apply_exp_gevrey(f, 0.1)  # any first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        out = apply_exp_gevrey(f, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = apply_exp_gevrey_whole(f, 0.1).values
    assert out.values.tobytes() == want.tobytes()
    complex_bytes = 16 * g.N ** 3
    # the product and one slab's real weights, with numpy's buffer for a
    # row of them cast to complex: 1.08 complex grids measured.  The
    # whole-grid weights took 1.53, and a copy of the product makes it two
    assert peak < 1.1 * complex_bytes


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
    f = zero_field(g, rep=SPECTRAL)
    with pytest.raises(MultiplierOverflowError, match="multiplier overflow"):
        apply_exp_gevrey(f, 1.0)


def test_overflow_guard_non_finite_weight(monkeypatch):
    # with the exponent bound raised out of the way, exp(sigma |xi|) itself
    # overflows and the second check must catch it
    import gnls.spectral as spectral

    monkeypatch.setattr(spectral, "OVERFLOW_EXPONENT", 1e6)
    g = FourierGrid(d=1, N=64, L=1.0)     # xi_max ~ 201
    f = zero_field(g, rep=SPECTRAL)
    with np.errstate(over="ignore"), \
            pytest.raises(MultiplierOverflowError, match="non-finite on lattice"):
        apply_exp_gevrey(f, 5.0)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("split", [False, True], ids=["one-thread", "split"])
def test_both_overflow_paths_raise_from_the_one_guard(split, monkeypatch):
    # the weight is made slab by slab, and each slab goes through the one
    # guard: the exponent bound, and with it raised out of the way, a
    # weight that overflows in a slab
    import gnls.spectral as spectral
    from gnls.norms import l4_gevrey

    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 2 if split else float("inf"))
    g = FourierGrid(d=2, N=64, L=1.0)     # xi_max ~ 284
    f = zero_field(g, rep=SPECTRAL)
    weighted = (lambda s: apply_exp_gevrey(f, s), lambda s: l4_gevrey(f, s))
    for run in weighted:
        with pytest.raises(MultiplierOverflowError, match="exceeds") as exc:
            run(3.0)
        assert exc.traceback[-1].name == "_guarded_exp"
    monkeypatch.setattr(spectral, "OVERFLOW_EXPONENT", 1e6)
    for run in weighted:
        with np.errstate(over="ignore"), pytest.raises(
                MultiplierOverflowError, match="non-finite on lattice") as exc:
            run(5.0)
        assert exc.traceback[-1].name == "_guarded_exp"


def test_bracket_on_plane_wave(grid1d):
    # the Japanese bracket <xi>^s of the Gevrey norm, at sigma = 0
    k, s = 4, 1.7
    f = to_spectral(single_mode_field(grid1d, k))
    scale = (1.0 + float(grid1d.xi_axis[k]) ** 2) ** (s / 2.0)
    norm = gevrey_norm(f, 0.0, s)
    assert abs(norm / abs(f.values[k]) - scale) < 1e-13 * scale


def test_free_propagator_unimodular(grid1d):
    # a linear-only step is the free propagator e^{-i t |xi|^2}
    f = to_spectral(random_field(grid1d, seed=4))
    traj = evolve(f, SolverConfig(dt=0.37, t_end=0.37, linear_only=True))
    out = to_spectral(traj.snapshots[-1][1])
    assert rel_err(np.abs(out.values), np.abs(f.values)) < 1e-13


# ---------------------------------------------------------------------------
# padding and dealiased products
# ---------------------------------------------------------------------------

def test_pad_truncate_round_trip(grid1d):
    f = to_spectral(random_field(grid1d, seed=5))
    back = truncate_spectrum(pad_spectrum(f), grid1d)
    assert rel_err(back.values, f.values) < 1e-13


@pytest.mark.parametrize("d,N,n", [(1, 64, 8), (1, 18, 10), (2, 18, 8),
                                   (2, 32, 32), (3, 16, 8), (3, 10, 8)])
def test_truncate_is_exactly_the_centred_block(d, N, n):
    g = FourierGrid(d=d, N=N, L=3.0)
    f = to_spectral(random_field(g, seed=d, band=N // 2, decay=0.01))
    centred = np.fft.fftshift(f.values)
    block = tuple(slice((N - n) // 2, (N - n) // 2 + n) for _ in range(d))
    cut = truncate_spectrum(f, FourierGrid(d=d, N=n, L=3.0))
    assert cut.values.tobytes() == np.fft.ifftshift(centred[block]).tobytes()
    assert not cut.values.flags.writeable and cut.t == f.t


def test_truncate_makes_only_the_band():
    import tracemalloc

    g = FourierGrid(d=3, N=128, L=20.0)
    f = to_spectral(random_field(g, seed=1, band=40))
    coarse = FourierGrid(d=3, N=64, L=20.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cut = truncate_spectrum(f, coarse)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the band itself, 4.2 MB, kept by the field uncopied; shifting the
    # fine array first peaked at 42 MB
    assert peak < 1.1 * cut.values.nbytes


def test_pad_preserves_coefficients(grid1d):
    # with the unitary convention, padding is a pure index embedding
    f = to_spectral(single_mode_field(grid1d, 3, amplitude=2.0))
    big = pad_spectrum(f)
    assert big.grid.N == 2 * grid1d.N
    assert abs(big.values[3] - f.values[3]) < 1e-14
    assert np.sum(np.abs(big.values) > 0) == 1


def test_a_pad_along_one_axis_has_two_corners():
    # an axis both lattices share is one whole slice, not two halves
    from gnls.spectral import _corners

    corners = _corners((4, 6), (8, 6))
    assert len(corners) == 2
    assert all(small[1] == big[1] == slice(None) for small, big in corners)
    assert [(small[0], big[0]) for small, big in corners] == [
        (slice(0, 2), slice(0, 2)), (slice(2, 4), slice(6, 8))]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pad_along_any_axes_is_the_centred_embedding_and_band_undoes_it(d):
    from itertools import combinations

    from gnls.spectral import _band, _pad

    rng = np.random.default_rng(d)
    shape = (6, 4, 8)[:d]
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for k in range(1, d + 1):
        for axes in combinations(range(d), k):
            big = tuple(2 * n if a in axes else n for a, n in enumerate(shape))
            padded = _pad(c, big)
            widths = [((nb - n) // 2,) * 2 for n, nb in zip(shape, big)]
            centred = np.pad(np.fft.fftshift(c), widths)
            assert padded.tobytes() == np.fft.ifftshift(centred).tobytes()
            assert _band(padded, shape).tobytes() == c.tobytes()


def test_triple_product_plane_wave(grid1d):
    u = single_mode_field(grid1d, 3)
    prod = to_physical(dealiased_cubic(u))
    # |u|^2 u with |u| = 1 pointwise
    assert rel_err(prod.values, to_physical(u).values) < 1e-12


def test_triple_product_zero_factor(grid1d):
    prod = dealiased_cubic(zero_field(grid1d))
    assert np.max(np.abs(prod.values)) < 1e-15


def test_triple_product_matches_direct_convolution():
    g = FourierGrid(d=1, N=32, L=7.0)
    # two-mode inputs, well inside the dealias-safe band
    coeffs = np.zeros(g.shape, dtype=complex)
    coeffs[2] = 1.3 - 0.2j
    coeffs[-3 % g.N] = 0.4 + 0.9j
    u = Field(g, coeffs, rep=SPECTRAL)
    prod = dealiased_cubic(u)
    oracle = direct_convolution_cubic(u)
    assert rel_err(prod.values, oracle) < 1e-12


def test_dealiased_product_exact_for_bandlimited():
    g = FourierGrid(d=1, N=48, L=11.0)
    u = random_field(g, seed=8, band=g.N // 6)
    prod = dealiased_cubic(u)
    oracle = direct_convolution_cubic(u)
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



@pytest.mark.parametrize("d,N,bound", [(3, 32, 8.5), (2, 128, 4.5)])
def test_padded_synthesis_holds_one_padded_array(d, N, bound):
    # the zero-padded samples, 2^d field grids, and nothing beside them:
    # the pad is written into the array the transform then runs in
    import tracemalloc

    from gnls.spectral import _forward_factor, _synthesise

    g = FourierGrid(d=d, N=N, L=5.0)
    fine = g.refined(2)
    coeffs = random_field(g, seed=d, band=N // 4).values
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _synthesise(coeffs, _forward_factor(fine), fine.shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * coeffs.nbytes

def _padded_l4_reference(uh):
    """The quadrature's arithmetic in the order it runs: pad_spectrum, one
    full ifftn along axes d-1, ..., 0 (axis 0 first), division by the
    forward factor, |u|^4, one sum per x0-row, then one sum of the row
    sums."""
    fine = pad_spectrum(uh)
    g = fine.grid
    vals = np.fft.ifftn(fine.values, axes=tuple(reversed(range(g.d))))
    vals = vals / (np.sqrt(g.L) / g.N) ** g.d
    mag2 = vals.real ** 2 + vals.imag ** 2
    rows = np.array([np.sum(row) for row in mag2 * mag2])
    return float((np.sum(rows) * (g.L / g.N) ** g.d) ** 0.25)


@pytest.mark.parametrize("d,N,L", [(1, 256, 40.0), (2, 64, 10.0), (3, 32, 8.0)])
def test_padded_l4_is_exactly_the_full_transform(d, N, L):
    from gnls.data import periodized_sech
    from gnls.norms import l4_gevrey
    from gnls.spectral import _forward_factor, _synthesise

    g = FourierGrid(d=d, N=N, L=L)
    fine = g.refined(2)
    # a full-band random field (Nyquist modes included) and sech data
    for u in (random_field(g, seed=d, band=N // 2, decay=0.05),
              periodized_sech(g, A=1.02)):
        uh = to_spectral(u)
        assert np.array_equal(_synthesise(uh.values, _forward_factor(fine),
                                          fine.shape),
                              inverse_transform(pad_spectrum(uh)).values)
        assert l4_norm(u) == _padded_l4_reference(uh)
        for sigma in (0.05, 0.3):
            assert l4_gevrey(u, sigma) == _padded_l4_reference(
                apply_exp_gevrey(uh, sigma))


def _l4_long_double(uh, sigma=0.0):
    """||e^{sigma|D|} u||_{L4} in long double: the weight, the zero-padded
    spectrum and its one ifftn in np.clongdouble, |u|^4 and its one sum in
    np.longdouble."""
    g, fine = uh.grid, uh.grid.refined(2)
    xi = g.xi_abs.astype(np.longdouble)
    coeffs = uh.values.astype(np.clongdouble) * np.exp(sigma * xi)
    big = np.zeros(fine.shape, np.clongdouble)
    big[tuple(slice(n // 2, n // 2 + n) for n in g.shape)] = \
        np.fft.fftshift(coeffs)
    vals = np.fft.ifftn(np.fft.ifftshift(big))
    vals /= (np.sqrt(np.longdouble(g.L)) / fine.N) ** g.d
    mag2 = vals.real ** 2 + vals.imag ** 2
    q = (np.longdouble(g.L) / fine.N) ** g.d
    return (np.sum(mag2 * mag2) * q) ** np.longdouble(0.25)


@pytest.mark.parametrize("d,N,L", [(1, 256, 40.0), (2, 64, 10.0), (3, 32, 8.0)])
def test_l4_quadrature_is_within_1e_15_of_long_double(d, N, L):
    from gnls.data import periodized_sech
    from gnls.norms import l4_gevrey

    g = FourierGrid(d=d, N=N, L=L)
    # worst measured: 2.9e-16 relative, against 2.8e-16 for the quadrature
    # of one pairwise sum over the whole padded |u|^4 array
    for u in (random_field(g, seed=d, band=N // 2, decay=0.05),
              periodized_sech(g, A=1.02)):
        uh = to_spectral(u)
        ref = _l4_long_double(uh)
        assert ref.dtype == np.longdouble
        assert abs(l4_norm(u) - ref) <= 1e-15 * ref
        for sigma in (0.05, 0.3):
            ref = _l4_long_double(uh, sigma)
            assert abs(l4_gevrey(u, sigma) - ref) <= 1e-15 * ref


@pytest.mark.parametrize("slab", **L4_SLABS)
@pytest.mark.parametrize("d,N,L", [(1, 10, 3.0), (1, 4096, 40.0),
                                   (2, 10, 3.0), (2, 18, 5.0), (2, 300, 30.0),
                                   (3, 10, 3.0), (3, 18, 4.0), (3, 32, 8.0)])
def test_slab_l4_equals_the_whole_array_quadrature(d, N, L, slab, monkeypatch):
    import gnls.spectral as spectral
    from gnls.data import periodized_sech

    g = FourierGrid(d=d, N=N, L=L)
    if slab is not None:
        monkeypatch.setattr(spectral, "_SLAB", l4_slab_points(slab, g))
    for u in (random_field(g, seed=N + d, band=N // 2, decay=0.05),
              periodized_sech(g, A=1.02)):
        assert l4_norm(u) == l4_norm_whole(u)
        weighted = apply_exp_gevrey(to_spectral(u), 0.2)
        assert l4_norm(weighted) == l4_norm_whole(weighted)


@pytest.mark.parametrize("split", [False, True], ids=["one-thread", "split"])
@pytest.mark.parametrize("slab", **L4_SLABS)
@pytest.mark.parametrize("d,N,L", [(1, 10, 3.0), (1, 64, 5.0), (2, 10, 3.0),
                                   (2, 18, 5.0), (3, 10, 3.0), (3, 18, 4.0)])
def test_the_slab_gevrey_weight_is_the_whole_grid_weight(d, N, L, slab, split,
                                                        monkeypatch):
    # the quadrature's blocks at each L4_SLABS width, with the weight's
    # slabs of one row (7 points) or of three rows, which leave a partial
    # slab in the coefficient lines' halves
    import gnls.spectral as spectral
    from gnls.data import periodized_sech
    from gnls.norms import l4_gevrey

    g = FourierGrid(d=d, N=N, L=L)
    if slab is not None:
        monkeypatch.setattr(spectral, "_SLAB", l4_slab_points(slab, g))
        monkeypatch.setattr(_kernels, "_SLAB",
                            7 if slab == 7 else 3 * N ** (d - 1))
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 2 if split else float("inf"))
    for u in (random_field(g, seed=N + d, band=N // 2, decay=0.05),
              periodized_sech(g, A=1.02)):
        uh = to_spectral(u)
        for sigma in (0.2, -0.3):
            assert apply_exp_gevrey(uh, sigma).values.tobytes() == \
                apply_exp_gevrey_whole(uh, sigma).values.tobytes()
        for sigma in (0.2, 1.5):
            assert l4_gevrey(u, sigma) == l4_norm_whole(u, sigma)


@pytest.mark.parametrize("split", [False, True], ids=["one-thread", "split"])
@pytest.mark.parametrize("slab", **L4_SLABS)
@pytest.mark.parametrize("d,N,L", [(3, 64, 20.0), (2, 256, 20.0)],
                         ids=["d3-n64", "d2-n256"])
def test_slab_l4_on_the_benchmark_grids(d, N, L, slab, split, monkeypatch):
    import gnls.spectral as spectral
    from gnls import _kernels
    from gnls.data import periodized_sech

    g = FourierGrid(d=d, N=N, L=L)
    if slab is not None:
        monkeypatch.setattr(spectral, "_SLAB", l4_slab_points(slab, g))
    # both grids reach the real threshold of 2^16 points; take each path
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 2 if split else float("inf"))
    for u in (random_field(g, seed=N + d, band=N // 2, decay=0.05),
              periodized_sech(g, A=1.02)):
        uh = to_spectral(u)
        assert l4_norm(uh) == l4_norm_whole(uh)
        weighted = apply_exp_gevrey(uh, 0.2)
        assert l4_norm(weighted) == l4_norm_whole(weighted)


def test_slab_l4_makes_no_padded_complex_grid(monkeypatch):
    import tracemalloc
    from gnls import _kernels
    from gnls.data import periodized_sech

    g = FourierGrid(d=3, N=32, L=8.0)
    u = to_spectral(periodized_sech(g, A=1.02))
    field_grid = g.N ** 3 * 16
    # one thread, then two halves, each with its own block buffers
    for split_min in (float("inf"), 2):
        monkeypatch.setattr(_kernels, "_SPLIT_MIN", split_min)
        l4_norm(u)  # any first-call set-up stays out of the measurement
        tracemalloc.start()
        try:
            l4_norm(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the first pass's 2N x N^2 complex array, 2 field grids, and the
        # block buffers, at most 5/8 of one: 2.57 measured on one thread,
        # 2.39 as two halves.  A padded complex grid is 8 field grids, the padded
        # real |u|^4 array was 4, and the whole-array quadrature peaks at 16
        assert peak < 2.7 * field_grid


def _dealiased_cubic_reference(u):
    """The seed formula: pad_spectrum, to_physical, u * conj(u) * u,
    forward_transform, truncate_spectrum."""
    fine = to_physical(pad_spectrum(to_spectral(u)))
    vals, conj = fine.values, np.conj(fine.values)
    prod = Field(fine.grid, vals * conj * vals)
    return truncate_spectrum(forward_transform(prod), u.grid)


@pytest.mark.parametrize("d,N,L", [(1, 64, 9.0), (2, 32, 5.0), (3, 16, 3.0)])
def test_dealiased_product_is_exactly_the_seed_formula(d, N, L):
    g = FourierGrid(d=d, N=N, L=L)
    # a full-band field (Nyquist modes included), a band-limited one, and
    # one given by its physical samples
    for u in (random_field(g, seed=d, band=N // 2, decay=0.05),
              random_field(g, seed=d + 10, band=N // 6),
              to_physical(random_field(g, seed=d + 20))):
        prod = dealiased_cubic(u)
        assert prod.is_spectral
        assert np.array_equal(prod.values, _dealiased_cubic_reference(u).values)


def test_field_from_real_array_allocates_one_complex_array():
    import tracemalloc

    g = FourierGrid(d=3, N=64, L=1.0)
    real = np.ones(g.shape)
    complex_bytes = 16 * real.size
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        f = Field(g, real)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.values.dtype == np.complex128 and not f.values.flags.writeable
    assert peak < 1.5 * complex_bytes


def test_field_copies_the_callers_complex_array(grid1d):
    own = np.ones(grid1d.shape, dtype=complex)
    f = Field(grid1d, own)
    own[0] = 5.0
    assert f.values[0] == 1.0
    g = Field(grid1d, own[:])    # a view of the caller's array
    own[1] = 7.0
    assert g.values[1] == 1.0
