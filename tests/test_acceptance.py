"""Acceptance gate: the twelve verification criteria.

Each test evaluates one criterion at its stated tolerance, records a
single pass/fail line (echoed in the terminal summary), and asserts.
"""

import time

import numpy as np

import conftest
from conftest import random_field, rel_err

from gnls.audits import (audit_multiplier_inequality, audit_trilinear, f_of_v,
                         sigma_halving_ratio, trilinear_sides)
from gnls.bookkeeper import BookkeeperParams, run_induction, sigma_for_T
from gnls.data import gaussian, periodized_sech, plane_wave
from gnls.grid import Field, FourierGrid, SPECTRAL
from gnls.harness import ExperimentConfig, fit_conservation_constant, \
    run_radius_tracking
from gnls.integrator import SolverConfig, evolve
from gnls.norms import a_sigma, energy, gevrey_norm, mass, radius_estimate
from gnls.spectral import to_physical

from oracles import single_mode, trilinear_single_mode_oracle


def check(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    conftest.ACCEPTANCE_LINES.append(f"[{tag}] criterion {num:2d}: {desc}{suffix}")
    print(f"[{tag}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_01_plane_wave_exactness():
    g = FourierGrid(d=1, N=64, L=2 * np.pi)
    A, k, dt, T = 0.5, 3, 1e-3, 1.0
    u0 = plane_wave(g, A=A, k=k)
    t0 = time.perf_counter()
    traj = evolve(u0, SolverConfig(dt=dt, t_end=T, snapshot_stride=1000))
    runtime = time.perf_counter() - t0
    xi = 2 * np.pi * k / g.L
    exact = A * np.exp(1j * (xi * g.x - (xi * xi + A * A) * T))
    err = rel_err(traj.snapshots[-1][1].values, exact)
    check(1, "plane-wave exactness", err < 1e-10 and runtime < 1.0,
          f"rel err {err:.2e}, runtime {runtime:.2f}s")


def test_criterion_02_mass_conservation():
    g = FourierGrid(d=1, N=256, L=40.0)
    u0 = gaussian(g, A=1.0, w=1.0)
    m0 = mass(u0)
    drifts = []
    cfg = SolverConfig(dt=1e-4, t_end=1.0, snapshot_stride=500)
    evolve(u0, cfg, on_snapshot=lambda t, u: drifts.append(abs(mass(u) - m0) / m0))
    assert cfg.n_steps == 10_000
    drift = max(drifts)
    check(2, "mass drift over 1e4 steps", drift < 1e-12, f"rel drift {drift:.2e}")


def test_criterion_03_energy_drift_order():
    g = FourierGrid(d=1, N=256, L=40.0)
    u0 = gaussian(g, A=1.0, w=1.0)
    e0 = energy(u0)

    def drift(dt):
        worst = [0.0]
        evolve(u0, SolverConfig(dt=dt, t_end=1.0, snapshot_stride=10),
               on_snapshot=lambda t, u: worst.__setitem__(
                   0, max(worst[0], abs(energy(u) - e0))))
        return worst[0]

    ratio = drift(1e-2) / drift(5e-3)
    check(3, "energy drift ratio dt vs dt/2", 3.5 <= ratio <= 4.5,
          f"ratio {ratio:.3f}")


def test_criterion_04_sigma_zero_collapse():
    g = FourierGrid(d=1, N=128, L=20.0)
    worst = 0.0
    for seed in range(100):
        u = random_field(g, seed=seed)
        gn = gevrey_norm(u, 0.0, 0.0)
        m = mass(u)
        asig = a_sigma(u, 0.0)
        me = m + energy(u)
        worst = max(worst,
                    abs(gn - np.sqrt(m)) / max(np.sqrt(m), 1.0),
                    abs(asig - me) / max(me, 1.0))
    check(4, "sigma=0 collapse on 100 random fields", worst < 1e-12,
          f"worst rel dev {worst:.2e}")


def test_criterion_05_embedding_monotonicity():
    g = FourierGrid(d=1, N=128, L=20.0)
    rng = np.random.default_rng(2024)
    violations = 0
    for seed in range(100):
        u = random_field(g, seed=seed)
        for _ in range(10):
            sigma_hi = rng.uniform(0.0, 0.5)
            s_hi = rng.uniform(-2.0, 2.0)
            sigma_lo = rng.uniform(0.0, sigma_hi)
            s_lo = s_hi - rng.uniform(0.0, 2.0)
            lo = gevrey_norm(u, sigma_lo, s_lo)
            hi = gevrey_norm(u, sigma_hi, s_hi)
            if lo > hi * (1 + 1e-12):
                violations += 1
    check(5, "embedding monotonicity, 100 fields x 10 pairs", violations == 0,
          f"{violations} violations")


def test_criterion_06_multiplier_inequality():
    rng = np.random.default_rng(7)
    violations = 0
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        for sigma in (1e-3, 1e-1, 1.0):
            rep = audit_multiplier_inequality(sigma, 1_000_000, d, rng)
            violations += rep.violations
    runtime = time.perf_counter() - t0
    check(6, "multiplier inequality, 9 x 1e6 triples",
          violations == 0 and runtime < 30.0,
          f"{violations} violations, runtime {runtime:.1f}s")


def test_criterion_07_remainder_linearity():
    g = FourierGrid(d=1, N=128, L=20.0)
    v = to_physical(random_field(g, seed=11))
    ratios = [sigma_halving_ratio(v, s) for s in (1e-2, 5e-3)]
    ratios_ok = all(1.9 <= r <= 2.1 for r in ratios)

    scale = np.sqrt(mass(v)) ** 3
    f0 = np.sqrt(mass(f_of_v(v, 0.0))) / scale
    # the cancellation f(plane wave) = 0 holds at the zero frequency, where
    # the exponential weights drop out of every term of the cubic product
    const = Field(g, np.full(g.shape, 0.7 - 0.2j))
    fp = np.max(np.abs(f_of_v(const, 5e-3).values))
    check(7, "remainder linearity and cancellations",
          ratios_ok and f0 < 1e-13 and fp < 1e-13,
          f"halving {ratios[0]:.3f}/{ratios[1]:.3f}, f(v;0) {f0:.1e}, "
          f"f(const) {fp:.1e}")


def test_criterion_08_almost_conservation_sweep():
    cfg = ExperimentConfig(kind="sweep", N=256, L=40.0, dt=1e-3,
                           sigma_grid=tuple(np.geomspace(1e-3, 1e-1, 8)))
    fit = fit_conservation_constant(cfg, cfg.initial_data())
    slope = fit["slope"]
    floor = fit["noise_floor"]
    above = [(s, gr) for s, gr in sorted(fit["growth"].items())
             if s > 0 and gr > floor]
    monotone = all(b[1] >= a[1] * (1 - 1e-9) for a, b in zip(above, above[1:]))
    check(8, "almost-conservation slope and monotonicity",
          0.8 <= slope <= 1.2 and monotone,
          f"slope {slope:.3f}, floor {floor:.1e}, {len(above)} usable sigmas")


def test_criterion_09_radius_estimator():
    g = FourierGrid(d=1, N=1024, L=40.0)
    synth = Field(g, np.exp(-0.7 * g.xi_abs).astype(complex), rep=SPECTRAL)
    e1 = radius_estimate(synth)
    ok1 = 0.693 <= e1.sigma_hat <= 0.707

    e2 = radius_estimate(periodized_sech(g, a=1.0))
    ok2 = abs(e2.sigma_hat - np.pi / 2) <= 0.02 * (np.pi / 2)

    e3 = radius_estimate(gaussian(g, w=1.0))
    check(9, "radius estimator on synthetic/sech/gaussian",
          ok1 and ok2 and e3.entire_flag,
          f"synthetic {e1.sigma_hat:.4f}, sech {e2.sigma_hat:.4f} "
          f"(pi/2 = {np.pi / 2:.4f}), gaussian entire {e3.entire_flag}")


def test_criterion_10_radius_floor_consistency():
    cfg = ExperimentConfig(kind="radius", N=1024, L=40.0,
                           data_kind="periodized_sech",
                           data_params={"A": 1.0, "a": 1.0},
                           dt=0.01, t_end=10.0, snapshot_stride=50,
                           sigma0=0.5)
    record = run_radius_tracking(cfg)
    failures = record.fits["failures"]
    c_hat = record.fits["c_hat"]
    check(10, "sigma_hat(t) above the fitted floor, positive tail constant",
          failures == 0 and c_hat > 0.0,
          f"failures {failures}, c_hat {c_hat:.3f}, "
          f"C_fit {record.fits['C_fit']:.3g}")


def test_criterion_11_bookkeeper_arithmetic():
    p = BookkeeperParams(sigma0=1.0, A0=1.0, c0=1.0, C=1.0, eps=0.0, T=1.0)
    tr = run_induction(p)
    exact_ok = tr.delta == 0.0625 and tr.c1 == 1.0 / 512.0 and tr.all_ok

    rng = np.random.default_rng(512)
    worst = 0.0
    all_ok = True
    for _ in range(10_000):
        q = BookkeeperParams(sigma0=1.0,
                             A0=rng.uniform(0.01, 50.0),
                             c0=rng.uniform(0.01, 10.0),
                             C=rng.uniform(0.01, 10.0),
                             eps=rng.uniform(0.0, 0.99),
                             T=rng.uniform(1e-3, 100.0))
        sigma, c1 = sigma_for_T(q)
        worst = max(worst, abs(sigma - c1 / q.T) / max(sigma, c1 / q.T))
        if not run_induction(q).all_ok:
            all_ok = False
    check(11, "bookkeeper exact values and 1e4 random draws",
          exact_ok and worst <= 1e-15 and all_ok,
          f"delta {tr.delta}, c1 {tr.c1}, branch dev {worst:.1e}")


def test_criterion_12_trilinear_stability():
    grid = FourierGrid(d=1, N=64, L=2 * np.pi)
    M, T_win, b, sigma = 64, 1.0, 0.55, 0.1
    t0 = time.perf_counter()

    oracle_ok = True
    for kind in (1, 2, 3):
        w = single_mode(grid, M, T_win, 2, 3)
        lhs, rhs, _ = trilinear_sides(kind, (w, w, w), b, sigma)
        o_lhs, o_rhs = trilinear_single_mode_oracle(kind, grid, M, T_win,
                                                    2, 3, b, sigma)
        if abs(lhs - o_lhs) > 1e-10 * max(o_lhs, 1.0) or \
           abs(rhs - o_rhs) > 1e-10 * max(o_rhs, 1.0):
            oracle_ok = False

    stats = {}
    stable = True
    for kind in (1, 2, 3):
        rep = audit_trilinear(kind, grid, M, T_win, n_members=200,
                              seed=3000 + kind, b=b, sigma=sigma)
        finite = bool(np.all(np.isfinite(rep.members)))
        spread = rep.max_ratio / rep.median_ratio
        stats[kind] = spread
        if not finite or spread >= 10:
            stable = False
    runtime = time.perf_counter() - t0
    check(12, "trilinear ensembles stable, single-mode oracle match",
          oracle_ok and stable and runtime < 120.0,
          "max/median " + ", ".join(f"k{k}={v:.2f}" for k, v in stats.items())
          + f", runtime {runtime:.0f}s")
