"""Config ingestion and the named experiments."""

import numpy as np
import pytest

from gnls.harness import (ConfigError, ExperimentConfig,
                          fit_conservation_constant, load_config,
                          run_almost_conservation_sweep, run_bookkeeper,
                          run_radius_tracking, run_simulate)


CONFIG_TEXT = """
[grid]
d = 1
N = 128
L = 40.0

[data]
kind = gaussian
A = 1.0
w = 1.0
seed = 3

[solver]
dt = 0.01
t_end = 0.1
snapshot_stride = 5

[sweep]
sigma_min = 1e-3
sigma_max = 1e-1
n_sigma = 6
spacing = log

[fit]
sigma0 = 0.1
c0 = 1.0
eps = 0.05
"""


def write_config(tmp_path, text=CONFIG_TEXT, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path), kind="simulate")
    assert cfg.d == 1 and cfg.N == 128 and cfg.L == 40.0
    assert cfg.data_kind == "gaussian"
    assert cfg.data_params == {"A": 1.0, "w": 1.0}
    assert cfg.seed == 3
    assert cfg.dt == 0.01 and cfg.t_end == 0.1
    assert len(cfg.sigma_grid) == 6
    assert cfg.sigma_grid[0] == pytest.approx(1e-3)
    assert list(cfg.sigma_grid) == sorted(cfg.sigma_grid)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_unknown_data_kind(tmp_path):
    path = write_config(tmp_path, "[data]\nkind = soliton\n")
    with pytest.raises(ConfigError, match=r"\[data\] kind"):
        load_config(path)


def test_load_config_bad_value_names_field(tmp_path):
    path = write_config(tmp_path, "[grid]\nN = many\n")
    with pytest.raises(ConfigError, match=r"\[grid\] N"):
        load_config(path)


def test_load_config_bad_sweep_spacing(tmp_path):
    path = write_config(tmp_path, "[sweep]\nspacing = cubic\n")
    with pytest.raises(ConfigError, match="spacing"):
        load_config(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_run_simulate_t_end_zero(tmp_path):
    cfg = ExperimentConfig(kind="simulate", N=64, L=10.0, t_end=0.0,
                           out_dir=tmp_path)
    record = run_simulate(cfg)
    assert len(record.rows) == 1
    assert record.rows[0][0] == 0.0
    assert (tmp_path / "norms.csv").exists()
    assert (tmp_path / "run.meta").exists()


def test_run_simulate_plane_wave_drift():
    cfg = ExperimentConfig(kind="simulate", N=64, L=2 * np.pi,
                           data_kind="plane_wave",
                           data_params={"A": 0.5, "k": 3.0},
                           dt=1e-3, t_end=0.2, snapshot_stride=50)
    record = run_simulate(cfg)
    assert record.fits["mass_drift_rel"] < 1e-12


def test_run_simulate_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = ExperimentConfig(kind="simulate", N=64, L=10.0,
                               data_kind="random_bandlimited", seed=9,
                               dt=0.01, t_end=0.1, snapshot_stride=2,
                               out_dir=out)
        run_simulate(cfg)
    assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()


def test_run_simulate_save_fields(tmp_path):
    cfg = ExperimentConfig(kind="simulate", N=64, L=10.0, dt=0.05, t_end=0.1,
                           snapshot_stride=1, out_dir=tmp_path,
                           save_fields=True)
    run_simulate(cfg)
    assert sorted(p.name for p in tmp_path.glob("*.gnls")) == \
        ["snapshot_00000.gnls", "snapshot_00001.gnls", "snapshot_00002.gnls"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_gaussian_slope(tmp_path):
    cfg = ExperimentConfig(kind="sweep", N=128, L=40.0, dt=5e-3,
                           sigma_grid=tuple(np.geomspace(1e-3, 1e-1, 6)),
                           out_dir=tmp_path)
    record = run_almost_conservation_sweep(cfg)
    assert record.fits["noise_floor"] >= 0.0
    assert np.isfinite(record.fits["C_fit"]) and record.fits["C_fit"] > 0
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "sweep.summary").exists()
    sigmas = [r[0] for r in record.rows]
    assert sigmas == sorted(sigmas) and sigmas[0] == 0.0


def test_sweep_plane_wave_growth_at_round_off():
    # the exact solution stays a single mode, so A_sigma is t-independent
    cfg = ExperimentConfig(kind="sweep", N=64, L=2 * np.pi,
                           data_kind="plane_wave",
                           data_params={"A": 0.5, "k": 3.0}, dt=1e-2,
                           sigma_grid=(1e-3, 1e-2, 1e-1))
    fit = fit_conservation_constant(cfg)
    a0 = 0.25 * 2 * np.pi  # A^2 L, scale of A_sigma
    for sigma, growth in fit["growth"].items():
        assert growth < 1e-9 * a0


# ---------------------------------------------------------------------------
# radius tracking
# ---------------------------------------------------------------------------

def test_radius_tracking_sech(tmp_path):
    cfg = ExperimentConfig(kind="radius", N=512, L=40.0,
                           data_kind="periodized_sech",
                           data_params={"A": 1.0, "a": 1.0},
                           dt=0.01, t_end=0.5, snapshot_stride=10,
                           sigma0=0.5, C=1.0, out_dir=tmp_path, svg=True)
    record = run_radius_tracking(cfg)
    assert record.violations == 0
    assert record.fits["failures"] == 0
    assert record.fits["c_hat"] > 0.0
    assert abs(record.fits["sigma0_hat"] - 0.5) < 0.5  # capped by sigma_hat(0)
    assert (tmp_path / "radius.csv").exists()
    assert (tmp_path / "radius.summary").exists()
    svg = (tmp_path / "radius.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_radius_tracking_linear_only_constant_radius():
    cfg = ExperimentConfig(kind="radius", N=512, L=40.0,
                           data_kind="periodized_sech",
                           data_params={"A": 1.0, "a": 1.0},
                           dt=0.02, t_end=0.4, snapshot_stride=5,
                           sigma0=0.5, C=1.0, linear_only=True)
    record = run_radius_tracking(cfg)
    hats = [r[7] for r in record.rows]
    # free evolution leaves |u^| invariant, so sigma_hat(t) is constant up
    # to fit noise from round-off near the band floor
    assert max(hats) - min(hats) < 1e-4 * max(hats)


def test_radius_tracking_entire_data_verdict():
    cfg = ExperimentConfig(kind="radius", N=256, L=40.0,
                           data_kind="gaussian", data_params={"w": 1.0},
                           dt=0.05, t_end=0.1, snapshot_stride=1,
                           sigma0=0.1, C=1.0)
    record = run_radius_tracking(cfg)
    assert record.rows[0][-1] == "entire"
    assert record.violations == 0


# ---------------------------------------------------------------------------
# bookkeeper driver
# ---------------------------------------------------------------------------

def test_run_bookkeeper_defaults(tmp_path):
    cfg = ExperimentConfig(kind="bookkeeper", sigma0=1.0, A0=1.0, C=1.0,
                           eps=0.0, T=1.0, out_dir=tmp_path)
    record = run_bookkeeper(cfg)
    assert record.violations == 0
    assert record.fits["delta"] == 0.0625
    assert record.fits["sigma"] == 1.0 / 512.0
    lines = (tmp_path / "bookkeeper.csv").read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "k,bound_k,ok_k"
    assert len(lines) - header_idx - 1 == 17  # k = 1..n+1 with n = 16


def test_norm_row_empty_spectrum_sets_floor_flag():
    from gnls.grid import Field, FourierGrid
    from gnls.harness import _norm_row

    row = _norm_row(0.0, Field.zero(FourierGrid(1, 64, 10.0)), 0.1)
    assert row[7:] == [0.0, False, True]


def test_norm_row_propagates_other_radius_errors(monkeypatch):
    import gnls.harness as harness

    def broken(u):
        raise RuntimeError("radius fit broke")

    monkeypatch.setattr(harness, "radius_estimate", broken)
    cfg = ExperimentConfig(kind="simulate", N=64, L=10.0, dt=0.05, t_end=0.1,
                           snapshot_stride=1)
    with pytest.raises(RuntimeError, match="radius fit broke"):
        run_simulate(cfg)
