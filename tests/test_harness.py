"""Config ingestion and the named experiments."""

import numpy as np
import pytest

import gnls.harness as harness
from gnls.norms import a_sigma, resolved_spectrum
from gnls.harness import (CONFIG_KEYS, ConfigError, ExperimentConfig,
                          SWEEP_DEFAULTS, finite_float,
                          fit_conservation_constant, load_config,
                          run_almost_conservation_sweep, run_audit_f,
                          run_bookkeeper, run_radius_tracking, run_simulate)


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


@pytest.mark.parametrize("raw,value", [
    ("1", True), ("yes", True), ("true", True), ("On", True),
    ("0", False), ("no", False), ("False", False), ("off", False)])
def test_load_config_boolean_states(tmp_path, raw, value):
    path = write_config(tmp_path, f"[solver]\nlinear_only = {raw}\n")
    assert load_config(path).linear_only is value


@pytest.mark.parametrize("raw", ["banana", "2", "y"])
def test_load_config_rejects_a_bad_boolean(tmp_path, raw):
    path = write_config(tmp_path, f"[solver]\nlinear_only = {raw}\n")
    with pytest.raises(ConfigError,
                       match=rf"bad value for \[solver\] linear_only: '{raw}'"):
        load_config(path)


#: every float key of the config table
FLOAT_KEYS = [(name, key) for name, keys in CONFIG_KEYS.items()
              for key, (_, cast) in keys.items() if cast is finite_float]


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("name,key", FLOAT_KEYS + [("data", "A")])
def test_load_config_rejects_non_finite_numbers(tmp_path, name, key, raw):
    path = write_config(tmp_path, f"[{name}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError,
                       match=rf"bad value for \[{name}\] {key}: '{raw}'"):
        load_config(path)


def test_no_key_parses_with_the_bare_float_cast():
    assert not [key for keys in CONFIG_KEYS.values()
                for key, (_, cast) in keys.items() if cast is float]
    assert ("solver", "dt") in FLOAT_KEYS and ("fit", "A0") in FLOAT_KEYS


@pytest.mark.parametrize("text,where", [
    ("[solver]\nsnapshot_strid = 1\n", r"unknown key \[solver\] snapshot_strid"),
    ("[solver]\ndealias = true\n", r"unknown key \[solver\] dealias"),
    ("[grid]\nn = 64\n", r"unknown key \[grid\] n"),
    ("[fit]\nsigma_0 = 0.1\n", r"unknown key \[fit\] sigma_0"),
    ("[sweep]\nnsigma = 4\n", r"unknown key \[sweep\] nsigma"),
    ("[audit]\nmember = 4\n", r"unknown key \[audit\] member"),
    ("[solve]\ndt = 0.1\n", r"unknown section \[solve\]"),
    ("[DEFAULT]\ndt = 0.1\n", r"unknown section \[DEFAULT\]"),
])
def test_load_config_rejects_unknown_names(tmp_path, text, where):
    with pytest.raises(ConfigError, match=where):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("text,key", [("members = 0", "members"),
                                      ("members = -3", "members"),
                                      ("triples = 0", "triples")])
def test_load_config_rejects_empty_audit_ensembles(tmp_path, text, key):
    with pytest.raises(ConfigError, match=rf"\[audit\] {key}"):
        load_config(write_config(tmp_path, f"[audit]\n{text}\n"))


@pytest.mark.parametrize("text,key", [
    ("n_sigma = 0", "n_sigma"),
    ("n_sigma = -2", "n_sigma"),
    ("sigma_min = 0.01\nsigma_max = 0.01\nn_sigma = 3", "sigma_min"),
    ("sigma_min = 0.01\nsigma_max = 0.01\nn_sigma = 2\nspacing = linear",
     "sigma_min"),
    ("sigma_min = 0.1\nsigma_max = 0.01", "sigma_min"),
], ids=["none", "negative", "tied-log", "tied-linear", "decreasing"])
def test_load_config_rejects_an_empty_or_tied_sigma_grid(tmp_path, text, key):
    with pytest.raises(ConfigError, match=rf"\[sweep\] {key}"):
        load_config(write_config(tmp_path, f"[sweep]\n{text}\n"))


def test_load_config_takes_a_one_sigma_grid(tmp_path):
    text = "[sweep]\nsigma_min = 0.01\nsigma_max = 0.01\nn_sigma = 1\n"
    assert load_config(write_config(tmp_path, text)).sigma_grid == (0.01,)


def test_load_config_data_takes_any_numeric_parameter(tmp_path):
    path = write_config(tmp_path, "[data]\nkind = gaussian\nwidth_2 = 3\n")
    assert load_config(path).data_params == {"width_2": 3.0}


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


def test_sweep_default_grid_is_the_config_default(tmp_path):
    # an empty [sweep] section and no sweep at all run the same grid
    cfg = ExperimentConfig(kind="sweep", N=32, L=2 * np.pi,
                           data_kind="plane_wave",
                           data_params={"A": 0.5, "k": 3.0}, dt=1e-2)
    default = load_config(write_config(tmp_path, "[sweep]\n")).sigma_grid
    fit = fit_conservation_constant(cfg, cfg.initial_data())
    assert fit["sigma_grid"] == list(default)
    assert default == tuple(np.geomspace(SWEEP_DEFAULTS["sigma_min"],
                                         SWEEP_DEFAULTS["sigma_max"],
                                         SWEEP_DEFAULTS["n_sigma"]))


def test_sweep_plane_wave_growth_at_round_off():
    # the exact solution stays a single mode, so A_sigma is t-independent
    cfg = ExperimentConfig(kind="sweep", N=64, L=2 * np.pi,
                           data_kind="plane_wave",
                           data_params={"A": 0.5, "k": 3.0}, dt=1e-2,
                           sigma_grid=(1e-3, 1e-2, 1e-1))
    fit = fit_conservation_constant(cfg, cfg.initial_data())
    a0 = 0.25 * 2 * np.pi  # A^2 L, scale of A_sigma
    for sigma, growth in fit["growth"].items():
        assert growth < 1e-9 * a0


def _windowed_sweep(tmp_path):
    """A sweep of a small gaussian over a window (c0 = 50) long enough that
    A_sigma(t) turns over inside it, with every A_sigma it computes recorded
    per sigma: ``(cfg, record, columns)``."""
    columns = {}

    def recorded(u, sigma, _a_sigma=harness.a_sigma):
        columns.setdefault(sigma, []).append(_a_sigma(u, sigma))
        return columns[sigma][-1]

    cfg = ExperimentConfig(kind="sweep", N=64, L=20.0, dt=1e-2, c0=50.0,
                           data_params={"A": 0.5, "w": 1.0},
                           sigma_grid=tuple(np.geomspace(1e-3, 1e-1, 6)),
                           out_dir=tmp_path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "a_sigma", recorded)
        record = run_almost_conservation_sweep(cfg)
    # the top sigma's first value is A_top, measured before the run
    columns[max(columns)].pop(0)
    return cfg, record, columns


def test_sweep_growth_is_the_sup_over_every_snapshot(tmp_path):
    _, record, columns = _windowed_sweep(tmp_path)
    interior = 0
    for sigma, growth, _ in record.rows:
        col = columns[sigma]
        assert len(col) == 34
        assert growth == max(max(col) - col[0], 0.0)
        interior += max(col[1:-1]) > col[-1]
    # most sigmas peak before the window's end: the endpoints alone
    # would read a smaller growth
    assert interior >= 6


def test_sweep_C_fit_is_the_law_on_the_growth_column(tmp_path):
    # D(sigma) = C sigma A_sigma(u0)^2 (1 + A_sigma(u0)), solved for C per
    # sigma that grew above the sigma = 0 floor, and the median taken
    cfg, record, _ = _windowed_sweep(tmp_path)
    u0 = resolved_spectrum(cfg.initial_data())
    floor = record.fits["noise_floor"]
    c_values = []
    for sigma, growth, _ in record.rows:
        if sigma > 0 and growth > floor:
            a0 = a_sigma(u0, sigma)
            c_values.append(growth / (sigma * a0 * a0 * (1.0 + a0)))
    assert len(c_values) == 6
    assert record.fits["C_fit"] == pytest.approx(np.median(c_values),
                                                 rel=1e-12)


def _sech_config(kind, N, **kw):
    return ExperimentConfig(kind=kind, N=N, L=40.0, dt=0.01,
                            data_kind="periodized_sech",
                            data_params={"A": 1.0, "a": 1.0}, **kw)


def test_sweep_C_fit_is_independent_of_N():
    # the sweep's A_sigma reads the resolved band: unmasked, N = 4096 fitted
    # C = 1.548e-12 from A_top = 18.97 where N = 1024 fits 1.313e-7
    configs = _sech_config("sweep", 1024), _sech_config("sweep", 4096)
    fits = [fit_conservation_constant(cfg, cfg.initial_data())
            for cfg in configs]
    assert fits[1]["C_fit"] == pytest.approx(fits[0]["C_fit"], rel=1e-3)
    assert fits[0]["C_fit"] == pytest.approx(1.313e-7, rel=1e-3)
    assert fits[1]["A0"] == pytest.approx(3.86725307526898, rel=1e-12)


def test_radius_A0_reads_the_resolved_band():
    cfg = _sech_config("radius", 4096, t_end=0.02, sigma0=0.5, C=1.0)
    assert run_radius_tracking(cfg).fits["A0"] == pytest.approx(
        8.40835151134639, rel=1e-12)


def _random_field_1d():
    from conftest import random_field
    from gnls.grid import FourierGrid

    return random_field(FourierGrid(1, 32, 10.0), seed=2)


def _overflowing_from(call):
    """A row function that refuses its ``call``-th slice as the overflow
    guard would, and returns t otherwise."""
    from gnls.errors import MultiplierOverflowError

    seen = []

    def row_of(u):
        seen.append(u.t)
        if len(seen) == call:
            raise MultiplierOverflowError("multiplier overflow: test")
        return u.t
    return row_of


def test_track_refuses_a_weight_that_overflows_on_the_data():
    from gnls.errors import MultiplierOverflowError
    from gnls.integrator import SolverConfig

    u0 = _random_field_1d()
    with pytest.raises(MultiplierOverflowError):
        harness._track(u0, SolverConfig(dt=0.01, t_end=0.05),
                       _overflowing_from(1))


def test_track_stops_at_a_weight_that_overflows_mid_run():
    from gnls.errors import MultiplierOverflowError
    from gnls.integrator import SolverConfig

    solver = SolverConfig(dt=0.01, t_end=0.05, snapshot_stride=2)
    rows, abort = harness._track(_random_field_1d(), solver,
                                 _overflowing_from(3))
    assert rows == [0.0, 0.02]
    assert abort.step == 4 and abort.last_good[0] == 0.04
    assert abort.last_good[1].t == 0.04
    assert str(abort).startswith("multiplier overflow: test at step 4")
    assert isinstance(abort.__cause__, MultiplierOverflowError)


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


def test_radius_tracking_builds_its_data_once(monkeypatch, tmp_path):
    # no [fit] C: the internal sweep fits C from the run's own data
    built, build = [], harness.make_initial_data

    def counted(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "make_initial_data", counted)
    cfg = load_config(write_config(tmp_path), kind="radius")
    assert cfg.C is None
    record = run_radius_tracking(cfg)
    assert np.isfinite(record.fits["C_fit"]) and len(built) == 1


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
    from gnls.grid import FourierGrid
    from gnls.norms import norm_report
    from oracles import zero_field

    row = norm_report(zero_field(FourierGrid(1, 64, 10.0)), 0.1)
    assert (row.sigma_hat, row.entire_flag, row.floor_flag) == (0.0, False, True)


def test_norm_row_transforms_a_physical_slice_once(monkeypatch):
    from gnls.data import periodized_sech
    from gnls.grid import FourierGrid
    from gnls.norms import mass, norm_report

    u = periodized_sech(FourierGrid(3, 16, 8.0))
    expected = norm_report(u, 0.1)
    # the mass column is the quadrature of the physical samples
    assert expected.mass == mass(u)
    calls = []
    fftn = np.fft.fftn

    def counting_fftn(*args, **kwargs):
        calls.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    assert norm_report(u, 0.1) == expected
    assert len(calls) == 1


def test_run_audit_f_evaluates_f_of_v_once_per_field_and_sigma(monkeypatch, tmp_path):
    import gnls.audits as audits
    from gnls.data import random_bandlimited

    cfg = ExperimentConfig(kind="audit-f", d=2, N=16, L=2 * np.pi,
                           n_members=4, out_dir=tmp_path)
    f_of_v = audits.f_of_v
    fftn = np.fft.fftn
    calls = {"f_of_v": 0, "fftn": 0}

    def counting_f_of_v(*args, **kwargs):
        calls["f_of_v"] += 1
        return f_of_v(*args, **kwargs)

    def counting_fftn(*args, **kwargs):
        calls["fftn"] += 1
        return fftn(*args, **kwargs)

    monkeypatch.setattr(audits, "f_of_v", counting_f_of_v)
    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    record = run_audit_f(cfg)
    assert calls == {"f_of_v": 5, "fftn": 10}
    monkeypatch.undo()
    v0 = random_bandlimited(cfg.grid(), seed=cfg.seed)
    assert record.fits["halving_ratio"] == audits.sigma_halving_ratio(
        v0, cfg.audit_sigma)


def test_norm_row_propagates_other_radius_errors(monkeypatch):
    import gnls.norms as norms

    def broken(u):
        raise RuntimeError("radius fit broke")

    monkeypatch.setattr(norms, "radius_estimate", broken)
    cfg = ExperimentConfig(kind="simulate", N=64, L=10.0, dt=0.05, t_end=0.1,
                           snapshot_stride=1)
    with pytest.raises(RuntimeError, match="radius fit broke"):
        run_simulate(cfg)
