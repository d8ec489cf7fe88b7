"""Pointwise kernels against closed forms and plain-Python loop oracles."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gnls import _kernels, data
from gnls.audits import audit_multiplier_inequality
from gnls.grid import FourierGrid
from gnls.integrator import SolverConfig, evolve
from oracles import triple_gap_ratios_oneshot


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
    return _kernels.phase_rotate(vals, dt, np.empty(vals.shape),
                                 np.empty(vals.shape, np.complex128))


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


def _record_runs(monkeypatch) -> set:
    """The threads that check a run of members of ``triple_gap_ratios``."""
    threads = set()
    run = _kernels._gap_run

    def recorded(*args):
        threads.add(threading.get_ident())
        return run(*args)
    monkeypatch.setattr(_kernels, "_gap_run", recorded)
    return threads


def _record_slabs(monkeypatch) -> list:
    """The threads that fill a run of slabs of a radial data builder."""
    threads = []
    slabs = data._slabs

    def recorded(*args):
        threads.append(threading.get_ident())
        return slabs(*args)
    monkeypatch.setattr(data, "_slabs", recorded)
    return threads


@pytest.mark.parametrize("halves", [False, True], ids=["one-run", "two-halves"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 7])
def test_split_triple_gap_ratios_equals_oneshot(n, d, halves, monkeypatch):
    monkeypatch.setattr(_kernels, "_TWO_CPUS", halves)
    threads = _record_runs(monkeypatch)
    _assert_equals_oneshot(_edged_ensemble(n, d), n)
    assert len(threads) == (2 if halves else 1)


def test_split_triple_gap_ratios_counts_violations_in_both_halves(monkeypatch):
    monkeypatch.setattr(_kernels, "_TWO_CPUS", True)
    n = 2 * B + 1
    xi = _edged_ensemble(n, 2)
    # a negative sigma turns the bound round: most members violate it
    va, _ = _kernels.triple_gap_ratios(_slices(xi), n, -1e-3)
    vb, _ = triple_gap_ratios_oneshot(xi[0], xi[1], xi[2], -1e-3)
    assert va == vb > B


def test_one_cpu_never_starts_the_helper(monkeypatch):
    def refuse():
        raise AssertionError("helper started with one CPU")

    monkeypatch.setattr(_kernels, "_TWO_CPUS", False)
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", float("inf"))
    monkeypatch.setattr(_kernels, "_helper", None)
    monkeypatch.setattr(_kernels, "_start_helper", refuse)
    threads = _record_runs(monkeypatch)
    slab_threads = _record_slabs(monkeypatch)
    rep = audit_multiplier_inequality(0.1, 3 * B + 7, 3,
                                      np.random.default_rng(0))
    assert rep.violations == 0 and threads == {threading.get_ident()}
    # a data build on a grid that two CPUs would split
    data.gaussian(FourierGrid(d=2, N=256, L=5.0))
    evolve(data.periodized_sech(FourierGrid(d=3, N=10, L=5.0), A=1.02),
           SolverConfig(dt=0.02, t_end=0.04))
    assert slab_threads == [threading.get_ident()] * 2


def test_concurrent_split_audits_are_each_bit_identical(monkeypatch):
    # more calling threads than cores, each handing its second half to the
    # one helper
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
    audit_multiplier_inequality(0.1, 1_000_000, 3, np.random.default_rng(0))
    data.gaussian(FourierGrid(d=2, N=16, L=5.0))
    evolve(data.periodized_sech(FourierGrid(d=3, N=10, L=5.0), A=1.02),
           SolverConfig(dt=0.02, t_end=0.06))
    main = threading.get_ident()
    assert len(runs) == 2  # the audit ran as two halves
    assert len(slab_threads) == 4 and len(set(slab_threads)) == 2  # each build
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
