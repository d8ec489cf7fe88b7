"""CLI subcommands and exit codes."""

import numpy as np
import pytest

import gnls.cli as cli
from gnls import __version__
from gnls.cli import (EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, EXIT_VIOLATION,
                      main)
from gnls.errors import SimulationAbort
from gnls.grid import Field, FourierGrid
from gnls.harness import RunRecord
from gnls.storage import write_field


def test_bookkeeper_defaults_exit_ok(capsys):
    code = main(["bookkeeper", "--A0", "1.0", "--c0", "1.0", "--C", "1.0",
                 "--eps", "0.0", "--T", "1.0", "--sigma0", "1.0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "delta = 0.0625" in out
    assert "sigma = 0.001953125" in out


def test_missing_config_is_validation_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_bad_config_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[data]\nkind = soliton\n")
    code = main(["simulate", "--config", str(cfg)])
    assert code == EXIT_VALIDATION
    assert "kind" in capsys.readouterr().err


def test_simulate_subcommand_writes_outputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nd = 1\nN = 64\nL = 10.0\n"
                   "[solver]\ndt = 0.05\nt_end = 0.1\nsnapshot_stride = 1\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "norms.csv").exists()


def test_radius_svg_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nd = 1\nN = 256\nL = 40.0\n"
                   "[data]\nkind = periodized_sech\nA = 1.0\na = 1.0\n"
                   "[solver]\ndt = 0.05\nt_end = 0.1\nsnapshot_stride = 1\n"
                   "[fit]\nsigma0 = 0.5\nC = 1.0\n")
    out = tmp_path / "out"
    code = main(["radius", "--config", str(cfg), "--out", str(out), "--svg"])
    assert code == EXIT_OK
    assert (out / "radius.svg").exists()


def test_norms_subcommand(tmp_path, capsys):
    g = FourierGrid(d=1, N=64, L=2 * np.pi)
    A, k = 0.5, 3
    u = Field(g, A * np.exp(1j * k * g.x))
    snap = tmp_path / "u.gnls"
    write_field(snap, u)
    code = main(["norms", str(snap), "--sigma", "0.1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    parsed = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(parsed["mass"]) == pytest.approx(A ** 2 * g.L, rel=1e-12)
    assert float(parsed["sigma"]) == 0.1


def test_violation_exit_code(monkeypatch, capsys):
    def fake_runner(cfg):
        return RunRecord(config={}, rows=[], fits={}, violations=3)

    monkeypatch.setattr(cli, "run_bookkeeper", fake_runner)
    code = main(["bookkeeper"])
    assert code == EXIT_VIOLATION
    assert "hard violations" in capsys.readouterr().err


def test_runtime_abort_exit_code(monkeypatch, capsys):
    def fake_runner(cfg):
        raise SimulationAbort("non-finite state at step 5", step=5)

    monkeypatch.setattr(cli, "run_simulate", fake_runner)
    code = main(["simulate"])
    assert code == EXIT_RUNTIME
    assert "runtime abort" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\nkind = random_bandlimited\nseed = 1\n")
    parsed = cli._config_from_args(
        cli.build_parser().parse_args(
            ["simulate", "--config", str(cfg), "--seed", "42"]), "simulate")
    assert parsed.seed == 42


def test_norms_missing_snapshot_is_clean_error(tmp_path, capsys):
    code = main(["norms", str(tmp_path / "missing.gnls")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "missing.gnls" in err
    assert len(err.strip().splitlines()) == 1


def test_norms_oversized_header_is_clean_error(tmp_path, capsys):
    # a header claiming 4e9^3 samples must be refused before anything is
    # sized from it
    from gnls.storage import FORMAT_VERSION, MAGIC, _HEADER

    snap = tmp_path / "huge.gnls"
    snap.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 3, 4_000_000_000,
                                  1.0, 0.0) + bytes(64))
    code = main(["norms", str(snap)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "truncated payload" in err
    assert len(err.strip().splitlines()) == 1


def test_unreachable_t_end_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nd = 1\nN = 64\nL = 10.0\n"
                   "[solver]\ndt = 0.3\nt_end = 1.0\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "t_end = 1.0" in err and "dt = 0.3" in err
    assert not out.exists()


TINY_CONFIG = """
[grid]
d = 1
N = 64
L = 20.0
[data]
kind = periodized_sech
A = 1.0
a = 1.0
[solver]
dt = 0.05
t_end = 0.1
snapshot_stride = 1
[fit]
sigma0 = 0.5
[sweep]
sigma_min = 0.01
sigma_max = 0.1
n_sigma = 3
[audit]
triples = 1000
members = 2
M = 8
"""

#: config echo heading every summary (sigma_grid because [sweep] is set)
ECHO_KEYS = ["version", "experiment", "d", "N", "L", "data_kind",
             "data_params", "seed", "dt", "t_end", "snapshot_stride",
             "sigma0", "c0", "eps", "b", "sigma_grid"]

#: subcommand -> {file written: keys of a key = value file, or None}
RUN_OUTPUTS = {
    "simulate": {"norms.csv": None,
                 "run.meta": ["d", "N", "L", "dt", "t_end", "seed",
                              "data_kind", "data_params"]},
    "radius": {"radius.csv": None,
               "radius.summary": ECHO_KEYS + ["sigma0_hat", "C_fit", "A0",
                                              "c_hat", "c1", "failures"]},
    "sweep": {"sweep.csv": None,
              "sweep.summary": ECHO_KEYS + ["delta", "A0", "noise_floor",
                                            "slope", "C_fit", "dropped"]},
    "audit-multiplier": {
        "audit_multiplier.csv": None,
        "audit_multiplier.summary": ECHO_KEYS + ["max_ratio", "violations"]},
    "audit-f": {
        "audit_f.csv": None,
        "audit_f.summary": ECHO_KEYS + ["max_ratio", "median_ratio",
                                        "halving_ratio", "violations"]},
    "audit-trilinear": {
        "audit_trilinear.csv": None,
        "audit_trilinear.summary": ECHO_KEYS + [
            f"kind{k}_{s}" for k in (1, 2, 3)
            for s in ("max", "median", "rejected")] + ["violations"]},
    "audit-gn": {"audit_gn.csv": None,
                 "audit_gn.summary": ECHO_KEYS + ["ratio", "violations"]},
    "bookkeeper": {"bookkeeper.csv": None,
                   "bookkeeper.summary": ECHO_KEYS + ["delta", "n", "sigma",
                                                      "c1"]},
}


@pytest.mark.parametrize("command", sorted(RUN_OUTPUTS))
def test_run_subcommand_output_files(command, tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    expected = RUN_OUTPUTS[command]
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, keys in expected.items():
        lines = (out / name).read_text().splitlines()
        if keys is None:
            # CSV: the config echo as comments, then the column line
            assert lines[0] == f"# version = {__version__}"
            assert any(not line.startswith("#") for line in lines)
        else:
            assert [line.split(" = ")[0] for line in lines] == keys
