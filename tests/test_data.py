"""Initial-data library."""

import tracemalloc

import numpy as np
import pytest

import gnls.data as data
from gnls import _kernels
from gnls.data import (KINDS, gaussian, make_initial_data, periodized_sech,
                       plane_wave, random_bandlimited)
from gnls.grid import FourierGrid
from gnls.spectral import to_spectral
from oracles import (gaussian_whole, periodized_sech_whole, plane_wave_whole,
                     random_bandlimited_whole)


@pytest.fixture
def grid():
    return FourierGrid(d=1, N=256, L=40.0)


def test_gaussian_profile(grid):
    u = gaussian(grid, A=2.0, w=1.5)
    peak_idx = np.argmax(np.abs(u.values))
    assert grid.x[peak_idx] == pytest.approx(grid.L / 2)
    assert abs(u.values[peak_idx]) == pytest.approx(2.0, rel=1e-12)
    assert np.all(u.values.imag == 0.0)


def test_periodized_sech_profile(grid):
    u = periodized_sech(grid, A=1.0, a=1.0)
    peak_idx = np.argmax(np.abs(u.values))
    assert grid.x[peak_idx] == pytest.approx(grid.L / 2)
    # sech(0) = 1 plus exponentially small images
    assert abs(u.values[peak_idx]) == pytest.approx(1.0, abs=1e-12)
    assert np.all(u.values.real > 0.0)


def test_periodized_sech_small_torus_no_overflow():
    # many image terms; the overflow-safe sech form must stay finite
    g = FourierGrid(d=1, N=64, L=2.0)
    u = periodized_sech(g, a=1.0)
    assert np.all(np.isfinite(u.values))


def test_plane_wave_unit_modulus(grid):
    u = plane_wave(grid, A=0.5, k=3)
    assert np.allclose(np.abs(u.values), 0.5)
    uh = to_spectral(u)
    assert np.sum(np.abs(uh.values) > 1e-10) == 1


def test_random_bandlimited_band_and_determinism(grid):
    u1 = random_bandlimited(grid, seed=5, band=10)
    u2 = random_bandlimited(grid, seed=5, band=10)
    assert np.array_equal(u1.values, u2.values)
    k_idx = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N))
    assert np.all(u1.values[k_idx > 10] == 0.0)
    u3 = random_bandlimited(grid, seed=6, band=10)
    assert not np.array_equal(u1.values, u3.values)


@pytest.mark.parametrize("d,N", [(1, 48), (2, 24), (3, 12)])
def test_random_bandlimited_is_exactly_the_per_axis_formula(d, N):
    g = FourierGrid(d=d, N=N, L=5.0)
    band, decay = N // 6, 0.3
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    k_idx = np.abs(np.fft.fftfreq(N, d=1.0 / N))
    kmax, ksum2 = np.zeros(g.shape), np.zeros(g.shape)
    for axis in range(d):
        sh = [1] * d
        sh[axis] = N
        kax = k_idx.reshape(sh) * np.ones(g.shape)
        kmax = np.maximum(kmax, kax)
        ksum2 = ksum2 + kax ** 2
    expect = np.where(kmax <= band, coeffs * np.exp(-decay * np.sqrt(ksum2)),
                      0.0)
    u = random_bandlimited(g, seed=4, band=band, decay=decay)
    assert np.array_equal(u.values, expect)


@pytest.mark.parametrize("d,N,L", [(1, 4096, 40.0), (1, 64, 2.0), (2, 18, 3.0),
                                   (3, 10, 5.0), (3, 64, 20.0)])
def test_radial_builders_are_bytes_equal_to_the_whole_grid_formulas(d, N, L):
    g = FourierGrid(d=d, N=N, L=L)
    for build, whole in ((gaussian, gaussian_whole),
                         (periodized_sech, periodized_sech_whole)):
        for A, p in ((1.0, 1.0), (0.97, 2.0), (3.0, 0.3)):
            assert (build(g, A, p).values.tobytes()
                    == whole(g, A, p).values.tobytes())


@pytest.mark.parametrize("slab", [None, 7, 5], ids=["default-slab", "slab-7",
                                                   "slab-5-rows"])
@pytest.mark.parametrize("d,N,L", [(1, 4096, 40.0), (1, 64, 2.0), (2, 18, 3.0),
                                   (3, 10, 5.0), (3, 64, 20.0)])
def test_plane_wave_and_random_data_are_bytes_equal_to_the_whole_grid_formulas(
        d, N, L, slab, monkeypatch):
    # 7 points make one-row slabs in d >= 2; 5 rows leave a partial slab
    if slab is not None:
        monkeypatch.setattr(data, "_SLAB", 7 if slab == 7 else 5 * N ** (d - 1))
    g = FourierGrid(d=d, N=N, L=L)
    for A, k in ((1.0, 1), (0.3, -3), (-2.0, 5)):
        assert (plane_wave(g, A, k).values.tobytes()
                == plane_wave_whole(g, A, k).values.tobytes())
    for seed, band, decay, amp in ((4, None, 0.3, 1.0), (9, 2, 0.05, -0.7),
                                   (1, N, 1.0, 3.0)):
        assert (random_bandlimited(g, seed, band, decay, amp).values.tobytes()
                == random_bandlimited_whole(g, seed, band, decay,
                                            amp).values.tobytes())


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
@pytest.mark.parametrize("kind", KINDS)
def test_data_builders_make_no_grid_temporaries(kind, split, monkeypatch):
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 2 if split else float("inf"))
    g = FourierGrid(d=3, N=64, L=20.0)
    tracemalloc.start()
    try:
        make_initial_data(g, kind, {}, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus slab buffers; the whole-grid plane_wave and
    # random_bandlimited peak at 3.56 and 4.09 complex grids
    assert peak < 2.1 * 16 * g.N ** 3


def test_make_initial_data_dispatch(grid):
    for kind in KINDS:
        u = make_initial_data(grid, kind, {}, seed=1)
        assert u.grid == grid
    with pytest.raises(ValueError, match="unknown data kind"):
        make_initial_data(grid, "soliton", {})


def test_make_initial_data_params(grid):
    u = make_initial_data(grid, "plane_wave", {"A": 0.3, "k": 2})
    assert np.allclose(np.abs(u.values), 0.3)


def _sech_all_images(grid, A, a):
    """The image sum over every image that does not underflow."""
    n_images = int(np.ceil(745.0 * a / grid.L)) + 1
    r = np.sqrt(sum((x - grid.L / 2.0) ** 2 for x in grid.meshgrid()))
    vals = np.zeros(grid.shape)
    for j in range(-n_images, n_images + 1):
        e = np.exp(-np.abs(r - j * grid.L) / a)
        vals = vals + 2.0 * e / (1.0 + e * e)
    return A * vals


@pytest.mark.parametrize("d,N,L,a", [(3, 64, 20.0, 1.0), (1, 4096, 40.0, 1.0),
                                     (2, 64, 10.0, 2.0), (1, 64, 2.0, 1.0)])
def test_periodized_sech_equals_the_sum_over_all_images(d, N, L, a):
    g = FourierGrid(d=d, N=N, L=L)
    u = periodized_sech(g, A=0.97, a=a)
    assert np.array_equal(u.values, _sech_all_images(g, 0.97, a))
