"""Strang-split stepping: exactness, conservation, reversibility, guards."""

import numpy as np
import pytest

import gnls.integrator as integrator
from gnls.data import gaussian, periodized_sech, plane_wave
from gnls.errors import SimulationAbort
from gnls.grid import Field, FourierGrid
from gnls.integrator import SolverConfig, evolve
from gnls.norms import energy, mass
from gnls.spectral import to_physical, to_spectral

from conftest import random_field, rel_err
from oracles import linear_half_step, nonlinear_step, strang_step, zero_field


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, snapshot_stride=0)
    assert SolverConfig(dt=0.1, t_end=1.0).n_steps == 10


def test_solver_config_rejects_unreachable_t_end():
    with pytest.raises(ValueError, match=r"t_end = 1\.0 .* dt = 0\.3"):
        SolverConfig(dt=0.3, t_end=1.0)
    with pytest.raises(ValueError, match="t_end"):
        SolverConfig(dt=0.1, t_end=0.01)
    # whole numbers of steps pass, also where t_end / dt is not exact
    assert SolverConfig(dt=0.1, t_end=0.3).n_steps == 3
    assert SolverConfig(dt=1e-4, t_end=1.0).n_steps == 10_000
    assert SolverConfig(dt=0.3, t_end=0.0).n_steps == 0


# ---------------------------------------------------------------------------
# substeps
# ---------------------------------------------------------------------------

def test_linear_half_step_dt_zero_identity(grid1d):
    u = to_spectral(random_field(grid1d, seed=0))
    out = linear_half_step(u, 0.0)
    assert np.array_equal(out.values, u.values)


def test_linear_half_step_plane_wave_phase(grid1d):
    k, dt = 3, 0.1
    u = to_spectral(plane_wave(grid1d, A=1.0, k=k))
    out = linear_half_step(u, dt)
    xi = 2 * np.pi * k / grid1d.L
    expect = u.values[k] * np.exp(-0.5j * dt * xi * xi)
    assert abs(out.values[k] - expect) < 1e-14


def test_linear_half_steps_compose(grid1d):
    u = to_spectral(random_field(grid1d, seed=1))
    two = linear_half_step(linear_half_step(u, 0.2), 0.2)
    one = Field(u.grid, u.values * np.exp(-1j * 0.2 * u.grid.xi_abs ** 2),
                rep="spectral")
    assert rel_err(two.values, one.values) < 1e-14


def test_linear_half_step_unitary(grid1d):
    u = to_spectral(random_field(grid1d, seed=2))
    out = linear_half_step(u, 0.7)
    assert rel_err(np.abs(out.values), np.abs(u.values)) < 1e-14


def test_nonlinear_step_dt_zero_identity(grid1d):
    u = to_physical(random_field(grid1d, seed=3))
    assert np.allclose(nonlinear_step(u, 0.0).values, u.values, atol=1e-16)


def test_nonlinear_step_constant_field(grid1d):
    A, dt = 1.3 - 0.4j, 0.25
    u = Field(grid1d, np.full(grid1d.shape, A))
    out = nonlinear_step(u, dt)
    assert np.allclose(out.values, A * np.exp(-1j * abs(A) ** 2 * dt), atol=1e-14)


def test_nonlinear_step_preserves_modulus(grid1d):
    u = to_physical(random_field(grid1d, seed=4))
    out = nonlinear_step(u, 0.3)
    assert np.max(np.abs(np.abs(out.values) - np.abs(u.values))) < 1e-15


def test_substeps_reject_wrong_representation(grid1d):
    u = random_field(grid1d, seed=5)
    with pytest.raises(ValueError):
        linear_half_step(to_physical(u), 0.1)
    with pytest.raises(ValueError):
        nonlinear_step(to_spectral(u), 0.1)


# ---------------------------------------------------------------------------
# strang step and evolve
# ---------------------------------------------------------------------------

def _plane_wave_exact(grid, A, k, t):
    xi = 2 * np.pi * k / grid.L
    mesh = grid.meshgrid()
    return A * np.exp(1j * (xi * mesh[0] - (xi * xi + A * A) * t))


def test_strang_plane_wave_one_step():
    g = FourierGrid(d=1, N=64, L=2 * np.pi)
    A, k, dt = 0.5, 3, 1e-2
    traj = evolve(plane_wave(g, A=A, k=k), SolverConfig(dt=dt, t_end=dt))
    u1 = traj.snapshots[-1][1]
    assert rel_err(u1.values, _plane_wave_exact(g, A, k, dt)) < 1e-14


def test_zero_data_stays_zero(grid1d):
    traj = evolve(zero_field(grid1d), SolverConfig(dt=0.1, t_end=1.0))
    assert all(np.all(u.values == 0.0) for _, u in traj.snapshots)


def test_evolve_matches_repeated_strang_step(grid1d):
    cfg = SolverConfig(dt=0.05, t_end=0.5, snapshot_stride=10)
    u0 = to_physical(random_field(grid1d, seed=6))
    traj = evolve(u0, cfg)
    u = u0
    for _ in range(cfg.n_steps):
        u = strang_step(u, cfg.dt, cfg)
    assert rel_err(traj.snapshots[-1][1].values, u.values) < 1e-12


def test_time_reversibility(grid1d):
    u0 = to_physical(random_field(grid1d, seed=7))
    back = strang_step(strang_step(u0, 0.05), -0.05)
    assert rel_err(back.values, u0.values) < 1e-12


def test_mass_conservation():
    g = FourierGrid(d=1, N=256, L=40.0)
    u0 = gaussian(g, A=1.0, w=1.0)
    m0 = mass(u0)
    traj = evolve(u0, SolverConfig(dt=5e-4, t_end=1.0, snapshot_stride=400))
    drifts = [abs(mass(u) - m0) / m0 for _, u in traj.snapshots]
    assert max(drifts) < 1e-12


def test_energy_drift_second_order():
    g = FourierGrid(d=1, N=256, L=40.0)
    u0 = gaussian(g, A=1.0, w=1.0)
    e0 = energy(u0)

    def drift(dt):
        traj = evolve(u0, SolverConfig(dt=dt, t_end=0.5, snapshot_stride=10))
        return max(abs(energy(u) - e0) for _, u in traj.snapshots)

    ratio = drift(1e-2) / drift(5e-3)
    assert 3.5 <= ratio <= 4.5


def test_linear_only_gaussian_free_evolution():
    g = FourierGrid(d=1, N=512, L=80.0)
    w, t_end = 1.0, 1.0
    u0 = gaussian(g, A=1.0, w=w)
    traj = evolve(u0, SolverConfig(dt=0.05, t_end=t_end, snapshot_stride=20,
                                   linear_only=True))
    x = g.x - g.L / 2
    # free Schroedinger evolution of exp(-x^2/w^2)
    denom = w * w + 4j * t_end
    exact = w / np.sqrt(denom) * np.exp(-x * x / denom)
    err = np.sqrt(mass(Field(g, traj.snapshots[-1][1].values - exact)))
    assert err < 1e-10


def test_snapshot_times_and_stride(grid1d):
    u0 = to_physical(random_field(grid1d, seed=8))
    traj = evolve(u0, SolverConfig(dt=0.1, t_end=1.0, snapshot_stride=3))
    ts = np.array([t for t, _ in traj.snapshots])
    assert ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    # strides of 3 plus the forced final step
    assert list(np.round(ts / 0.1).astype(int)) == [0, 3, 6, 9, 10]
    assert traj.snapshots[0][1] is not None
    assert rel_err(traj.snapshots[0][1].values, u0.values) == 0.0


def test_evolve_t_end_zero_single_snapshot(grid1d):
    u0 = to_physical(random_field(grid1d, seed=9))
    traj = evolve(u0, SolverConfig(dt=0.1, t_end=0.0))
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0][0] == 0.0


def test_on_snapshot_callback(grid1d):
    seen = []
    u0 = to_physical(random_field(grid1d, seed=10))
    evolve(u0, SolverConfig(dt=0.1, t_end=0.5, snapshot_stride=2),
           on_snapshot=lambda t, u: seen.append(t))
    assert seen == [0.0, pytest.approx(0.2), pytest.approx(0.4),
                    pytest.approx(0.5)]


def test_callback_run_keeps_only_the_latest_snapshot(grid1d):
    u0 = to_physical(random_field(grid1d, seed=13))
    cfg = SolverConfig(dt=0.01, t_end=0.49, snapshot_stride=1)
    seen = []
    traj = evolve(u0, cfg, on_snapshot=lambda t, u: seen.append((t, u)))
    assert len(seen) == 50
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0][1] is seen[-1][1]
    full = evolve(u0, cfg)
    assert len(full.snapshots) == 50
    assert np.array_equal(full.snapshots[-1][1].values, seen[-1][1].values)


def test_abort_in_callback_run_carries_last_recorded_slice(grid1d, monkeypatch):
    rotate = integrator._kernels.phase_rotate
    calls = []

    def poisoned(values, dt, work):
        calls.append(1)
        if len(calls) == 5:
            values *= np.nan
        return rotate(values, dt, work)

    monkeypatch.setattr(integrator._kernels, "phase_rotate", poisoned)
    seen = []
    u0 = to_physical(random_field(grid1d, seed=14))
    with pytest.raises(SimulationAbort) as exc:
        evolve(u0, SolverConfig(dt=0.1, t_end=1.0),
               on_snapshot=lambda t, u: seen.append((t, u)))
    assert exc.value.step == 5
    assert len(seen) == 5
    t, last = exc.value.last_good
    assert last is seen[-1][1] and t == pytest.approx(0.4)


def test_blowup_guard_aborts(grid1d, monkeypatch):
    # lower the guard so any growth of max|u| trips it immediately
    monkeypatch.setattr(integrator, "BLOWUP_FACTOR", 1e-3)
    u0 = to_physical(random_field(grid1d, seed=11))
    with pytest.raises(SimulationAbort) as exc:
        evolve(u0, SolverConfig(dt=0.1, t_end=1.0))
    assert exc.value.step == 1
    assert exc.value.last_good is not None
    t, last = exc.value.last_good
    assert t == 0.0 and rel_err(last.values, u0.values) == 0.0


def test_focusing_sign_flag(grid1d):
    u0 = to_physical(random_field(grid1d, seed=12))
    defoc = evolve(u0, SolverConfig(dt=0.1, t_end=0.1)).snapshots[-1][1]
    foc = evolve(u0, SolverConfig(dt=0.1, t_end=0.1,
                                  defocusing=False)).snapshots[-1][1]
    assert rel_err(defoc.values, foc.values) > 1e-6


# ---------------------------------------------------------------------------
# buffer reuse: what evolve hands out is never written again
# ---------------------------------------------------------------------------

def _record_writes(monkeypatch) -> list:
    """Every array the transforms and the rotation write, in call order."""
    writes = []

    def recorded(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            writes.append(out)
            return out
        return wrapped

    monkeypatch.setattr(np.fft, "fftn", recorded(np.fft.fftn))
    monkeypatch.setattr(np.fft, "ifftn", recorded(np.fft.ifftn))
    rotate = integrator._kernels.phase_rotate

    def rotate_recorded(values, dt, work):
        # the rotation writes the samples in place and its slab buffers
        writes.extend([values, *(buf for pair in work for buf in pair)])
        return rotate(values, dt, work)

    monkeypatch.setattr(integrator._kernels, "phase_rotate", rotate_recorded)
    return writes


ALIASING_RUNS = {
    "stride-1": dict(dt=0.02, t_end=0.2),
    "fused-stride-3": dict(dt=0.02, t_end=0.2, snapshot_stride=3),
    "linear-only": dict(dt=0.02, t_end=0.2, snapshot_stride=2,
                        linear_only=True),
    "focusing-blowup": dict(dt=0.02, t_end=0.6, snapshot_stride=2,
                            defocusing=False),
}


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
@pytest.mark.parametrize("run", list(ALIASING_RUNS))
def test_handed_out_arrays_are_never_written_again(run, d, N, monkeypatch):
    # the focusing run trips the blow-up guard after a few snapshots
    monkeypatch.setattr(integrator, "BLOWUP_FACTOR", 1.2)
    u0 = periodized_sech(FourierGrid(d=d, N=N, L=10.0), A=3.0)
    cfg = SolverConfig(**ALIASING_RUNS[run])
    writes = _record_writes(monkeypatch)
    handed = []  # (writes so far, field, its values when handed out)

    def on_snapshot(t, u):
        handed.append((len(writes), u, u.values.copy()))

    try:
        kept = evolve(u0, cfg, on_snapshot=on_snapshot).snapshots
    except SimulationAbort as exc:
        assert run == "focusing-blowup" and exc.step > 4
        kept = [exc.last_good]
    else:
        assert run != "focusing-blowup"
    assert kept[-1][1] is handed[-1][1]
    for i, (n_writes, u, at_hand_out) in enumerate(handed):
        assert np.array_equal(u.values, at_hand_out)
        assert not any(np.shares_memory(u.values, w) for w in writes[n_writes:])
        assert not any(np.shares_memory(u.values, v.values)
                       for _, v, _ in handed[i + 1:])
    # without a callback the trajectory keeps every slice, each unchanged
    # since it was handed out, none sharing memory with another
    monkeypatch.setattr(integrator, "BLOWUP_FACTOR", 1e6)
    if run != "focusing-blowup":
        full = [u for _, u in evolve(u0, cfg).snapshots]
        assert len(full) == len(handed)
        for i, (u, (_, _, at_hand_out)) in enumerate(zip(full, handed)):
            assert np.array_equal(u.values, at_hand_out)
            assert not any(np.shares_memory(u.values, v.values)
                           for v in full[i + 1:])


@pytest.mark.parametrize("d,N", [(2, 16), (3, 10)])
@pytest.mark.parametrize("run", list(ALIASING_RUNS))
def test_split_handed_out_arrays_are_never_written_again(run, d, N, monkeypatch):
    # every pass as two halves on two threads (gnls._kernels)
    monkeypatch.setattr(integrator._kernels, "_SPLIT_MIN", 2)
    test_handed_out_arrays_are_never_written_again(run, d, N, monkeypatch)
