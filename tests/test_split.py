"""Grid passes as two halves on two threads (gnls._kernels): bit-identical
to one thread, every wrapped call on the calling thread, failures raised
after both halves."""

import importlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import gnls
import gnls.integrator as integrator
import gnls.spectral as spectral
from gnls import _kernels
from gnls.data import gaussian, periodized_sech
from gnls.errors import SimulationAbort
from gnls.grid import FourierGrid
from gnls.integrator import SolverConfig, evolve
from gnls.norms import l4_gevrey, norm_report

from conftest import L4_SLABS, l4_slab_points, random_field
from oracles import gaussian_whole, periodized_sech_whole, xi_abs_whole

#: grids far below the real threshold, which the tests lower to 2 points
SPLIT_GRIDS = [(2, 10), (2, 18), (3, 10)]


def _serial_and_split(monkeypatch, fn):
    """``fn()`` on the one-thread path, then on the split path."""
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", float("inf"))
    serial = fn()
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 2)
    return serial, fn()


EVOLVE_RUNS = {
    "stride-1": dict(dt=0.02, t_end=0.2),
    "stride-3": dict(dt=0.02, t_end=0.2, snapshot_stride=3),
    "linear-only": dict(dt=0.02, t_end=0.2, snapshot_stride=2, linear_only=True),
    "focusing-blowup": dict(dt=0.02, t_end=0.6, snapshot_stride=2,
                            defocusing=False),
}


@pytest.mark.parametrize("d,N", SPLIT_GRIDS)
@pytest.mark.parametrize("run", list(EVOLVE_RUNS))
def test_split_evolve_is_bit_identical(run, d, N, monkeypatch):
    # the focusing run trips the blow-up guard after a few snapshots
    monkeypatch.setattr(integrator, "BLOWUP_FACTOR", 1.2)
    u0 = periodized_sech(FourierGrid(d=d, N=N, L=10.0), A=3.0)
    cfg = SolverConfig(**EVOLVE_RUNS[run])

    def snapshots():
        try:
            return evolve(u0, cfg).snapshots
        except SimulationAbort as exc:
            return exc

    serial, split = _serial_and_split(monkeypatch, snapshots)
    if run == "focusing-blowup":
        assert isinstance(serial, SimulationAbort) and serial.step > 4
        assert split.step == serial.step and str(split) == str(serial)
        serial, split = [serial.last_good], [split.last_good]
    assert len(split) == len(serial)
    for (t, u), (ts, us) in zip(serial, split):
        assert ts == t and np.array_equal(us.values, u.values)


@pytest.mark.parametrize("slab", **L4_SLABS)
@pytest.mark.parametrize("d,N", SPLIT_GRIDS)
def test_split_transforms_and_l4_are_bit_identical(d, N, slab, monkeypatch):
    g = FourierGrid(d=d, N=N, L=5.0)
    if slab is not None:
        monkeypatch.setattr(spectral, "_SLAB", l4_slab_points(slab, g))
    for u in (random_field(g, seed=N + d, band=N // 2, decay=0.05),
              periodized_sech(g, A=1.02)):
        uh = spectral.to_spectral(u)
        x = spectral.to_physical(u)

        def outputs():
            return (spectral.forward_transform(x).values,
                    spectral.inverse_transform(uh).values,
                    spectral.dealiased_cubic(u).values,
                    spectral.l4_norm(u), l4_gevrey(u, 0.2))

        serial, split = _serial_and_split(monkeypatch, outputs)
        for a, b in zip(serial, split):
            assert np.array_equal(a, b)


#: grids of at least the real threshold of 2^16 points
DATA_GRIDS = [(2, 256), (3, 42)]


@pytest.mark.parametrize("slab", [None, 7, 5], ids=["default-slab", "slab-7",
                                                   "slab-5-rows"])
@pytest.mark.parametrize("d,N", DATA_GRIDS)
def test_split_data_builds_are_bit_identical(d, N, slab, monkeypatch):
    # 7 points, under one row, make one-row slabs; 5 rows a slab leave a
    # partial slab at the end of each half, and one slab of the serial
    # build that straddles the cut
    if slab is not None:
        monkeypatch.setattr(_kernels, "_SLAB",
                            7 if slab == 7 else 5 * N ** (d - 1))
    g = FourierGrid(d=d, N=N, L=7.3)
    for build, whole, args in ((gaussian, gaussian_whole, (0.9, 1.7)),
                               (periodized_sech, periodized_sech_whole,
                                (1.02, 0.6))):
        serial, split = _serial_and_split(monkeypatch,
                                          lambda: build(g, *args).values)
        assert np.array_equal(serial, split)
        assert split.tobytes() == whole(g, *args).values.tobytes()
    # |xi|, made afresh at each read
    serial, split = _serial_and_split(
        monkeypatch, lambda: FourierGrid(d=d, N=N, L=7.3).xi_abs)
    assert serial.tobytes() == split.tobytes() == xi_abs_whole(g).tobytes()


def test_periodized_sech_builds_without_full_grid_temporaries(monkeypatch):
    g = FourierGrid(d=3, N=128, L=20.0)

    def peak():
        tracemalloc.start()
        try:
            periodized_sech(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the output grid plus one slab's buffers per half; the whole-grid
    # formula peaks at 3.56 complex grids
    for p in _serial_and_split(monkeypatch, peak):
        assert p < 1.25 * 16 * g.N ** 3


def test_xi_abs_holds_its_output_and_one_slab_per_half(monkeypatch):
    def peak():
        FourierGrid(d=3, N=128, L=20.0).xi_abs  # first-call set-up
        g = FourierGrid(d=3, N=128, L=20.0)
        tracemalloc.start()
        try:
            g.xi_abs
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the real output and, on each thread, at most one real slab buffer and
    # the buffer numpy's ufuncs take to add a broadcast axis, besides the
    # per-axis squares and a few small objects
    per_thread = 8 * (_kernels._SLAB + np.getbufsize())
    for p in _serial_and_split(monkeypatch, peak):
        assert p < 8 * 128 ** 3 + 2 * per_thread + 32768


def _evolve_peak(u0, cfg, on_snapshot=None) -> int:
    """Peak bytes traced while ``evolve(u0, cfg, on_snapshot)`` runs."""
    tracemalloc.start()
    try:
        evolve(u0, cfg, on_snapshot)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sech_64():
    g = FourierGrid(d=3, N=64, L=20.0)
    return periodized_sech(g), 16 * g.N ** 3


def test_an_evolve_step_makes_no_grid_temporaries(monkeypatch):
    u0, grid = _sech_64()
    cfg = SolverConfig(dt=0.01, t_end=0.01)
    # the step array that becomes the snapshot, one slab's buffers (0.19
    # grids) and the phase factors, N^2 entries (0.016 grids); the phase
    # table on the half lattice took 1.46 grids in all, the whole-lattice
    # table 2.19, and rotating out of place into a spare, with a real array
    # for the phase and the guard, 3.5
    for p in _serial_and_split(monkeypatch, lambda: _evolve_peak(u0, cfg)):
        assert p < 1.3 * grid


def test_a_fused_run_holds_no_phase_table(monkeypatch):
    u0, grid = _sech_64()
    cfg = SolverConfig(dt=0.01, t_end=0.03, snapshot_stride=3)
    # one step array, one slab's buffers and the half- and the full-step
    # phase factors; the two tables on the half lattice took 1.73 grids in
    # all, two whole-lattice tables 3.19
    for p in _serial_and_split(monkeypatch, lambda: _evolve_peak(u0, cfg)):
        assert p < 1.3 * grid


@pytest.mark.parametrize("stride", [1, 2], ids=["stride-1", "fused"])
def test_the_last_callback_sees_only_the_step_array(stride, monkeypatch):
    u0, grid = _sech_64()
    cfg = SolverConfig(dt=0.01, t_end=0.04, snapshot_stride=stride)

    def held():
        """Traced bytes at each snapshot's callback."""
        seen = []
        _evolve_peak(u0, cfg, lambda t, u: seen.append(
            tracemalloc.get_traced_memory()[0]))
        return seen

    # the phase factors and the slab buffers are freed before the last
    # snapshot, the step array itself, is handed out
    for seen in _serial_and_split(monkeypatch, held):
        assert len(seen) == 1 + 4 // stride and seen[-1] < 1.05 * grid


def test_norm_report_peak_is_bounded(monkeypatch):
    # a guard on a slice's diagnostics, which set a simulate run's peak:
    # no buffer may outlive one quadrature, as one shared by the slice's
    # two quadratures would, holding a first pass's array (2 field grids)
    # through the second quadrature
    g = FourierGrid(d=3, N=32, L=8.0)
    uh = spectral.to_spectral(periodized_sech(g, A=1.02))
    field_grid = g.N ** 3 * 16
    # measured: 2.60 field grids under tracemalloc on one thread, 2.52 as
    # two halves (one quadrature; its first pass weighs the coefficient
    # lines slab by slab); the bound leaves 0.1 field grids for the
    # allocator.  With a weighted field it peaked at 3.59 and 3.40, and
    # while the quadrature held the padded real |u|^4 array, at 5.40 and
    # 5.77
    for split_min in (float("inf"), 2):
        monkeypatch.setattr(_kernels, "_SPLIT_MIN", split_min)
        norm_report(uh, 0.2)  # any first-call set-up stays out of it
        tracemalloc.start()
        try:
            norm_report(uh, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.7 * field_grid


def _traced_peak(fn) -> int:
    """The tracemalloc peak of a second call of ``fn``, in bytes: any
    first-call set-up stays out of it."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("N", [64, 32], ids=["d3-n64", "d3-n32"])
def test_the_quadrature_holds_its_first_pass_and_one_block_per_piece(
        N, monkeypatch):
    # the first pass's array, the coefficient lines synthesised along axis
    # 0, 2 field grids, is the one grid-sized array of a quadrature; on top
    # come each piece's block buffers, at most 5/8 of a field grid in all.
    # Measured on one thread and as two halves: 2.56 field grids (64^3),
    # 2.57 and 2.39 (32^3); norm_report, whose weighted quadrature weighs
    # the lines as its first pass embeds them, 2.57 (64^3), 2.60 and 2.52
    # (32^3), where a weighted field made it 3.56, 3.59 and 3.40.  The
    # quadrature that held the padded real |u|^4 array, 4 grids, peaked at
    # 4.09-4.19 (64^3) and 4.38-4.76 (32^3)
    g = FourierGrid(d=3, N=N, L=8.0)
    uh = spectral.to_spectral(periodized_sech(g, A=1.02))
    field_grid = g.N ** 3 * 16
    for split_min in (float("inf"), 2):
        monkeypatch.setattr(_kernels, "_SPLIT_MIN", split_min)
        assert _traced_peak(lambda: spectral.l4_norm(uh)) < 2.7 * field_grid
        assert _traced_peak(lambda: norm_report(uh, 0.2)) < 2.7 * field_grid


def test_threshold_leaves_one_dimension_and_small_grids_whole(monkeypatch):
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 64)
    assert not _kernels._splits(np.empty(1 << 20))
    assert not _kernels._splits(np.empty((2, 31)))
    assert _kernels._splits(np.empty((2, 32)))


# ---------------------------------------------------------------------------
# thread discipline
# ---------------------------------------------------------------------------

GNLS_MODULES = ("grid", "spectral", "norms", "integrator", "bookkeeper",
                "spacetime", "audits", "data", "storage", "harness", "cli",
                "_kernels")


def _record_threads(monkeypatch) -> list:
    """Wrap np.fft.fftn, np.fft.ifftn and every public gnls function, in
    every namespace where a caller looks it up, to record (name, thread)."""
    calls = []

    def wrap(fn, name):
        def recorded(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return recorded

    modules = [importlib.import_module(f"gnls.{m}") for m in GNLS_MODULES]
    wrappers = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, wrap(obj, f"{mod.__name__}.{attr}"))
    for attr in ("fftn", "ifftn"):
        obj = getattr(np.fft, attr)
        wrappers[id(obj)] = (obj, wrap(obj, f"numpy.fft.{attr}"))
    for ns in [gnls, *modules, np.fft]:
        for attr, obj in list(vars(ns).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                monkeypatch.setattr(ns, attr, hit[1])
    return calls


def test_every_wrapped_call_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", 2)
    u0 = periodized_sech(FourierGrid(d=3, N=10, L=5.0), A=1.02)
    calls = _record_threads(monkeypatch)
    main = threading.get_ident()
    traj = integrator.evolve(u0, SolverConfig(dt=0.02, t_end=0.06))
    norm_report(traj.snapshots[-1][1], 0.2)
    # the one slab pass of the per-axis squares, on a fresh grid
    FourierGrid(d=3, N=10, L=5.0).xi_abs
    # the quadrature's ifftn calls, seen inside the recorder's wrapper
    ifftn, slabs = np.fft.ifftn, []

    def seen(a, *args, **kwargs):
        slabs.append((a.shape, kwargs.get("axes"), threading.get_ident()))
        return ifftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", seen)
    spectral.l4_norm(u0)
    names = {name for name, _ in calls}
    assert {"numpy.fft.fftn", "numpy.fft.ifftn", "gnls._kernels.phase_rotate",
            "gnls.spectral.l4_norm", "gnls.norms.l4_gevrey"} <= names
    assert [c for c in calls if c[1] != main] == []
    # the last pass transforms the calling thread's half of the 20^2 lines
    # along axis 0 as slabs of contiguous rows, through np.fft.ifftn
    last = [(shape, t) for shape, axes, t in slabs
            if len(shape) == 2 and axes == (1,)]
    assert sum(shape[0] for shape, _ in last) == 20 * 20 // 2
    assert {shape[1] for shape, _ in last} == {20}
    assert {t for _, t in last} == {main}


def test_helper_failure_is_raised_after_both_halves():
    finished = []

    def slow_left():
        time.sleep(0.05)
        finished.append("left")

    def failing_right():
        raise ZeroDivisionError("right half")

    with pytest.raises(ZeroDivisionError, match="right half"):
        _kernels._both(slow_left, failing_right)
    assert finished == ["left"]

    def failing_left():
        raise KeyError("left half")

    def slow_right():
        time.sleep(0.05)
        finished.append("right")

    with pytest.raises(KeyError, match="left half"):
        _kernels._both(failing_left, slow_right)
    assert finished == ["left", "right"]
    # the next hand-off runs as before
    assert _kernels._both(lambda: 1, lambda: 2) == (1, 2)


def test_import_starts_no_thread():
    src = str(Path(gnls.__file__).resolve().parents[1])
    probe = ("import sys, threading, gnls.cli; "
             "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["1", "False"]


def test_concurrent_callers_each_get_their_own_halves():
    # more calling threads than cores, each handing off to helpers of its
    # own
    results, errors = {}, []

    def caller(k):
        try:
            results[k] = [_kernels._both(lambda: (k, i), lambda: (i, k))
                          for i in range(200)]
        except BaseException as exc:  # reported below, after the joins
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for k in range(6):
        assert results[k] == [((k, i), (i, k)) for i in range(200)]


def test_forked_child_starts_its_own_helper():
    src = str(Path(gnls.__file__).resolve().parents[1])
    # no thread of the parent survives a fork: the child's hand-off starts
    # a helper of its own
    probe = ("import multiprocessing as mp\n"
             "from gnls import _kernels\n"
             "assert _kernels._both(lambda: 1, lambda: 2) == (1, 2)\n"
             "def child(q):\n"
             "    q.put(_kernels._both(lambda: 3, lambda: 4))\n"
             "ctx = mp.get_context('fork')\n"
             "q = ctx.Queue()\n"
             "p = ctx.Process(target=child, args=(q,), daemon=True)\n"
             "p.start()\n"
             "print(q.get(timeout=10))\n"
             "p.join(timeout=20)\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["(3,", "4)"]
