"""Pointwise kernels against closed forms and plain-Python loop oracles."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gnls import _kernels, data
from gnls.audits import audit_multiplier_inequality
from gnls.errors import SimulationAbort
from gnls.grid import FourierGrid
from gnls.integrator import SolverConfig, evolve
from oracles import (phase_product_whole, rotate_whole,
                     triple_gap_ratios_oneshot)


def _slices(xi):
    """A ``triple_gap_ratios`` source whose draws hand out views of the
    next rows of the fixed (3, n, d) array ``xi``, from the row it is asked
    for on."""
    def source(lo, size):
        pos = lo

        def draw(m):
            nonlocal pos
            blk = slice(pos, pos + m)
            pos += m
            return xi[:, blk]
        return draw
    return source


def _rotate(vals, dt):
    out = vals.copy()
    _kernels.phase_rotate(out, dt, _kernels._workspace(out))
    return out


def test_phase_rotate_matches_closed_form():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(257) + 1j * rng.standard_normal(257)
    a = _rotate(vals, 0.37)
    b = vals * np.exp(-0.37j * np.abs(vals) ** 2)
    assert np.max(np.abs(a - b)) < 1e-14 * np.max(np.abs(vals))


def test_phase_rotate_preserves_shape_and_modulus():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    out = _rotate(vals, 0.5)
    assert out.shape == vals.shape
    assert np.max(np.abs(np.abs(out) - np.abs(vals))) < 1e-15


#: (d, N, split) of the in-place rotation's tests: 258 and 18 rows split
#: into odd halves, and a 1-D grid is never split
SLAB_CASES = [(1, 258, False), (2, 18, False), (2, 18, True), (3, 10, False),
              (3, 10, True)]

#: slab widths, in rows along axis 0: the default, one row (a slab of 7
#: points), and 4 rows, which leaves a partial last slab in every half and,
#: on one thread, a slab across the cut of the two halves
SLAB_ROWS = {"default-slab": None, "slab-7": 1, "slab-4-rows": 4}

DEFAULT_SLAB = _kernels._SLAB


def _slab_grid(monkeypatch, d, N, split, rows) -> FourierGrid:
    """The grid of ``d`` and ``N``, split into halves or not and cut into
    slabs of ``rows`` rows along axis 0 (7 points for one row)."""
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 2 if split else float("inf"))
    monkeypatch.setattr(_kernels, "_SLAB", DEFAULT_SLAB if rows is None else
                        7 if rows == 1 else rows * N ** (d - 1))
    return FourierGrid(d=d, N=N, L=7.3)


def _samples(shape, seed=0):
    rng = np.random.default_rng(seed)
    return 1.7 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("rows", list(SLAB_ROWS))
@pytest.mark.parametrize("d,N,split", SLAB_CASES)
def test_phase_rotate_is_bytes_equal_to_the_whole_grid_rotation(
        d, N, split, rows, monkeypatch):
    g = _slab_grid(monkeypatch, d, N, split, SLAB_ROWS[rows])
    vals = _samples(g.shape)
    want, want_peak = rotate_whole(vals, 0.37)
    got = vals.copy()
    work = _kernels._workspace(got)
    assert len(work) == (2 if split else 1)
    peak = _kernels.phase_rotate(got, 0.37, work)
    assert got.tobytes() == want.tobytes()
    assert np.float64(peak).tobytes() == np.float64(want_peak).tobytes()
    # the guard alone reads the same peak and leaves the samples unchanged
    assert _kernels._guard(got, work) == peak
    assert got.tobytes() == want.tobytes()


#: the slab cases, and more grids of N = 10, 18 and 258, where fftfreq's
#: 1/N is inexact
TABLE_CASES = SLAB_CASES + [(1, 10, False), (1, 18, False), (2, 10, True),
                            (2, 258, False), (2, 258, True), (3, 18, False),
                            (3, 18, True)]

#: the scales of the half and the full linear step's phase
TABLE_SCALES = (-0.5j * 0.013, -1.0j * 0.013)


def _phase_product(vals, scale, g):
    """``vals`` multiplied in place by the linear step's phase of ``g``."""
    _kernels._phase_product(vals, scale, g.xi_axis,
                            _kernels._workspace(vals))()
    return vals


@pytest.mark.parametrize("d,N,split", TABLE_CASES)
def test_phase_products_are_bytes_equal_to_the_whole_grid_product(
        d, N, split, monkeypatch):
    for rows in SLAB_ROWS.values():
        g = _slab_grid(monkeypatch, d, N, split, rows)
        for scale in TABLE_SCALES:
            vals = _samples(g.shape, seed=N + d)
            if d == 1:
                # values times the whole-grid formula, in the solver's
                # operand order: numpy's complex multiply rounds a * b and
                # b * a differently
                want = np.multiply(vals, np.exp(scale * (g.xi_abs * g.xi_abs)))
            else:
                want = phase_product_whole(vals, scale, g.xi_axis)
            assert _phase_product(vals, scale, g).tobytes() == want.tobytes()


@pytest.mark.parametrize("d,N,L", [(2, 10, 7.3), (2, 18, 7.3), (3, 10, 7.3),
                                   (3, 18, 7.3), (3, 64, 20.0)])
def test_the_factorised_phase_is_the_whole_grid_formula(d, N, L):
    # phases up to a few radians: the factors' round-off and the formula's
    # are both a few ulps of the phase
    g = FourierGrid(d=d, N=N, L=L)
    for scale in TABLE_SCALES:
        got = _phase_product(np.ones(g.shape, np.complex128), scale, g)
        want = np.exp(scale * g.xi_abs ** 2)
        assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("N", [8, 10, 18, 64, 258])
def test_wavenumbers_mirror_exactly(N):
    g = FourierGrid(d=2, N=N, L=7.3)
    k = np.arange(1, N // 2)
    assert (-g.xi_axis[N - k]).tobytes() == g.xi_axis[k].tobytes()
    assert g.xi_abs[N - k][:, N - k].tobytes() == g.xi_abs[k][:, k].tobytes()


#: rows holding a non-finite sample: in the first, a middle and the last
#: slab of 4 rows (of 10), and in the helper's half only
POISON_ROWS = {"first-slab": 0, "middle-slab": 5, "last-slab": 9,
               "helper-half": 7}


#: the cosine and sine of an infinite phase, on either thread
NAN_PHASE = "ignore:invalid value encountered:RuntimeWarning"


@pytest.mark.filterwarnings(NAN_PHASE)
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", list(POISON_ROWS))
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_a_non_finite_sample_anywhere_is_the_peak(split, where, bad,
                                                  monkeypatch):
    g = _slab_grid(monkeypatch, 3, 10, split, 4)
    vals = _samples(g.shape, seed=3)
    vals[POISON_ROWS[where], 3, 6] = bad
    work = _kernels._workspace(vals)
    guard = _kernels._guard(vals, work)
    assert (guard == np.inf) if np.isinf(bad) else np.isnan(guard)
    # the rotation of an infinite sample is NaN
    assert np.isnan(_kernels.phase_rotate(vals, 0.37, work))


@pytest.mark.filterwarnings(NAN_PHASE)
@pytest.mark.parametrize("linear_only", [False, True],
                         ids=["rotation", "linear-only"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", list(POISON_ROWS))
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_evolve_aborts_on_a_non_finite_sample_in_any_slab(
        split, where, bad, linear_only, monkeypatch):
    # the pass that computes step 3's peak finds a non-finite sample in
    # the step array
    g = _slab_grid(monkeypatch, 3, 10, split, 4)
    name = "_guard" if linear_only else "phase_rotate"
    kernel, calls = getattr(_kernels, name), []

    def poisoned(values, *args):
        calls.append(1)
        # the guard's first call reads the initial data
        if len(calls) == (4 if linear_only else 3):
            values[POISON_ROWS[where], 3, 6] = bad
        return kernel(values, *args)

    monkeypatch.setattr(_kernels, name, poisoned)
    u0 = data.periodized_sech(g, A=1.02)
    with pytest.raises(SimulationAbort) as exc:
        evolve(u0, SolverConfig(dt=0.02, t_end=0.1, linear_only=linear_only))
    assert exc.value.step == 3
    assert str(exc.value) == "non-finite state at step 3 (t=0.06)"
    t, last = exc.value.last_good
    assert t == pytest.approx(0.04) and np.all(np.isfinite(last.values))


def _triple_gap_loop(xi1, xi2, xi3, sigma):
    """One member at a time: norms, gap, min/max median of three."""
    violations = 0
    ratios = []
    for x1, x2, x3 in zip(xi1, xi2, xi3):
        a1 = math.sqrt(sum(v * v for v in x1))
        a2 = math.sqrt(sum(v * v for v in x2))
        a3 = math.sqrt(sum(v * v for v in x3))
        ao = math.sqrt(sum((p - q - r) ** 2 for p, q, r in zip(x1, x2, x3)))
        lhs = -math.expm1(-sigma * (a1 + a2 + a3 - ao))
        med = min(max(min(a1, a2), a3), max(a1, a2))
        rhs = 12.0 * sigma * med
        if rhs > 0.0:
            ratios.append(lhs / rhs)
            violations += lhs > rhs
        else:
            ratios.append(0.0)
            violations += lhs > 0.0
    return violations, np.array(ratios)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_triple_gap_ratios_matches_loop_oracle(d):
    rng = np.random.default_rng(d)
    xi = rng.uniform(-100, 100, size=(3, 500, d))
    xi[:, 0] = 0.0            # degenerate member: rhs == 0 and lhs == 0
    xi[1, 1] = xi[0, 1]       # two equal frequencies: a tie in the median
    va, ra = _kernels.triple_gap_ratios(_slices(xi), 500, 0.1)
    vb, rb = _triple_gap_loop(xi[0].tolist(), xi[1].tolist(), xi[2].tolist(), 0.1)
    assert va == vb == 0
    assert ra[0] == 0.0
    assert np.max(np.abs(ra - rb)) < 1e-14


B = _kernels._BLOCK


def _edged_ensemble(n, d):
    """A (3, n, d) ensemble with degenerate members (rhs == 0) and median
    ties on both sides of every block edge, the cut of two halves included."""
    xi = np.random.default_rng(10 * d + n).uniform(-1e3, 1e3, size=(3, n, d))
    for edge in range(B, n, B):
        xi[:, edge - 1] = 0.0
        xi[:, edge] = 0.0
        xi[1, edge - 2] = xi[0, edge - 2]
        if edge + 1 < n:
            xi[2, edge + 1] = -xi[0, edge + 1]
    xi[:, 0] = 0.0
    return xi


def _assert_equals_oneshot(xi, n):
    for sigma in (1e-3, 1.0):
        va, ra = _kernels.triple_gap_ratios(_slices(xi), n, sigma)
        vb, rb = triple_gap_ratios_oneshot(xi[0], xi[1], xi[2], sigma)
        assert va == vb == 0
        assert np.array_equal(ra, rb)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
def test_triple_gap_ratios_equals_oneshot_at_block_edges(d, n):
    _assert_equals_oneshot(_edged_ensemble(n, d), n)


def _record_runs(monkeypatch) -> list:
    """The threads that check a run of members of ``triple_gap_ratios``,
    one entry per run."""
    threads = []
    run = _kernels._gap_run

    def recorded(*args):
        threads.append(threading.get_ident())
        return run(*args)
    monkeypatch.setattr(_kernels, "_gap_run", recorded)
    return threads


def _record_slabs(monkeypatch, name="_radial_slabs") -> list:
    """The threads that run a run of slabs of the pass ``name``: by
    default the pass of a function of the per-axis squares, a radial data
    builder or |xi|."""
    threads = []
    slabs = getattr(_kernels, name)

    def recorded(*args):
        threads.append(threading.get_ident())
        return slabs(*args)
    monkeypatch.setattr(_kernels, name, recorded)
    return threads


@pytest.mark.parametrize("halves", [False, True], ids=["one-run", "two-halves"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 7])
def test_split_triple_gap_ratios_equals_oneshot(n, d, halves, monkeypatch):
    monkeypatch.setattr(_kernels, "_TWO_CPUS", halves)
    threads = _record_runs(monkeypatch)
    _assert_equals_oneshot(_edged_ensemble(n, d), n)
    # two calls, each one run or two halves, one of them on the caller
    assert len(threads) == (4 if halves else 2)
    assert threads.count(threading.get_ident()) == 2


def test_split_triple_gap_ratios_counts_violations_in_both_halves(monkeypatch):
    monkeypatch.setattr(_kernels, "_TWO_CPUS", True)
    n = 2 * B + 1
    xi = _edged_ensemble(n, 2)
    # a negative sigma turns the bound round: most members violate it
    va, _ = _kernels.triple_gap_ratios(_slices(xi), n, -1e-3)
    vb, _ = triple_gap_ratios_oneshot(xi[0], xi[1], xi[2], -1e-3)
    assert va == vb > B


def test_one_cpu_never_starts_the_helper(monkeypatch):
    def refuse(left, right):
        raise AssertionError("helper started with one CPU")

    monkeypatch.setattr(_kernels, "_TWO_CPUS", False)
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", float("inf"))
    monkeypatch.setattr(_kernels, "_both", refuse)
    threads = _record_runs(monkeypatch)
    slab_threads = _record_slabs(monkeypatch)
    phase_threads = _record_slabs(monkeypatch, "_phase_slabs")
    rep = audit_multiplier_inequality(0.1, 3 * B + 7, 3,
                                      np.random.default_rng(0))
    assert rep.violations == 0 and threads == [threading.get_ident()]
    # a data build on a grid that two CPUs would split, and the data build
    # and the four linear half steps of a two-step run
    data.gaussian(FourierGrid(d=2, N=256, L=5.0))
    evolve(data.periodized_sech(FourierGrid(d=3, N=10, L=5.0), A=1.02),
           SolverConfig(dt=0.02, t_end=0.04))
    assert slab_threads == [threading.get_ident()] * 2
    assert phase_threads == [threading.get_ident()] * 4


def test_concurrent_split_audits_are_each_bit_identical(monkeypatch):
    # more calling threads than cores, each handing its second half to a
    # helper of its own
    monkeypatch.setattr(_kernels, "_TWO_CPUS", True)
    seeds = range(5)

    def audit(seed):
        return audit_multiplier_inequality(0.1, 3 * B + 7, 2,
                                           np.random.default_rng(seed))

    want = [audit(seed) for seed in seeds]
    got, errors = {}, []

    def caller(seed):
        try:
            got[seed] = audit(seed)
        except BaseException as exc:  # reported below, after the joins
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert [got[seed] for seed in seeds] == want


def test_wrapped_calls_stay_on_the_calling_thread(monkeypatch):
    # what a tracer wraps: the kernel, np.fft.fftn and np.fft.ifftn
    calls = []
    for owner, name in ((_kernels, "triple_gap_ratios"), (np.fft, "fftn"),
                        (np.fft, "ifftn"), (data, "periodized_sech"),
                        (data, "gaussian")):
        def recorded(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.append((_name, threading.get_ident()))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, recorded)
    monkeypatch.setattr(_kernels, "_TWO_CPUS", True)
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 2)
    runs = _record_runs(monkeypatch)
    slab_threads = _record_slabs(monkeypatch)
    phase_threads = _record_slabs(monkeypatch, "_phase_slabs")
    audit_multiplier_inequality(0.1, 1_000_000, 3, np.random.default_rng(0))
    data.gaussian(FourierGrid(d=2, N=16, L=5.0))
    evolve(data.periodized_sech(FourierGrid(d=3, N=10, L=5.0), A=1.02),
           SolverConfig(dt=0.02, t_end=0.06))
    main = threading.get_ident()
    # the audit ran as two halves, one on the calling thread
    assert len(runs) == 2 and runs.count(main) == 1
    # each build, and each of the run's six half steps, as two halves
    assert len(slab_threads) == 4 and slab_threads.count(main) == 2
    assert len(phase_threads) == 12 and phase_threads.count(main) == 6
    assert {name for name, _ in calls} == {"triple_gap_ratios", "fftn", "ifftn",
                                           "periodized_sech", "gaussian"}
    assert [name for name, _ in calls].count("triple_gap_ratios") == 1
    assert [c for c in calls if c[1] != main] == []


def test_triple_gap_ratios_keeps_its_temporaries_blocked():
    xi = np.random.default_rng(0).uniform(-1e3, 1e3, size=(3, 1_000_000, 3))
    tracemalloc.start()
    try:
        _kernels.triple_gap_ratios(_slices(xi), 1_000_000, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MB output plus a few block-sized temporaries
    assert peak < 16e6


def test_shell_envelope_matches_loop_oracle():
    rng = np.random.default_rng(2)
    mag = rng.uniform(0, 1, 1000)
    shell = rng.integers(0, 20, 1000)
    expect = [0.0] * 20
    for m, s in zip(mag.tolist(), shell.tolist()):
        expect[s] = max(expect[s], m)
    got = _kernels.shell_envelope(mag, shell, 20)
    assert np.array_equal(got, np.array(expect))
