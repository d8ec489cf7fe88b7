"""CLI subcommands and exit codes."""

import re

import numpy as np
import pytest

import gnls.cli as cli
import gnls.harness as harness
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


def test_bookkeeper_echoes_every_constant_it_reads(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bookkeeper", "--A0", "5", "--C", "2", "--T", "7",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    summary = dict(line.split(" = ", 1) for line in
                   (out / "bookkeeper.summary").read_text().splitlines())
    assert (summary["A0"], summary["C"], summary["T"]) == ("5.0", "2.0", "7.0")
    header = (out / "bookkeeper.csv").read_text().splitlines()
    assert {"# A0 = 5.0", "# C = 2.0", "# T = 7.0"} <= set(header)


def test_echo_names_A0_when_set_and_T_only_for_the_bookkeeper():
    from gnls.harness import ExperimentConfig

    assert "A0" not in ExperimentConfig().echo()
    echo = ExperimentConfig(kind="radius", A0=3.0).echo()
    assert echo["A0"] == 3.0 and "T" not in echo
    assert ExperimentConfig(kind="bookkeeper", T=7.0).echo()["T"] == 7.0


@pytest.mark.parametrize("flags,missing", [
    ([], "[fit] A0 (--A0) and [fit] C (--C)"),
    (["--C", "1.0"], "[fit] A0 (--A0)"),
    (["--A0", "1.0"], "[fit] C (--C)"),
], ids=["neither", "no-A0", "no-C"])
def test_bookkeeper_without_A0_or_C_is_validation_error(flags, missing,
                                                        tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["bookkeeper", "--out", str(out)] + flags)
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.err == f"validation error: bookkeeper needs {missing}\n"
    assert captured.out == ""
    assert not out.exists()


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


def test_misspelt_config_key_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nd = 1\nN = 64\nL = 10.0\n"
                   "[solver]\ndt = 0.05\nt_end = 0.1\nsnapshot_strid = 1\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "[solver] snapshot_strid" in err
    assert not out.exists()


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


#: |u|^2 overflows in the first rotation: the t = 0 row is computed, the
#: first step is not finite
OVERFLOWING = ("[grid]\nd = 1\nN = 64\nL = 20.0\n"
               "[data]\nkind = gaussian\nA = 1e155\n"
               "[solver]\ndt = 0.01\nt_end = 0.1\nsnapshot_stride = 1\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,stem,summary", [
    ("simulate", "norms", "run.meta"),
    ("radius", "radius", "radius.summary"),
])
def test_aborted_run_keeps_its_rows_and_last_good_snapshot(command, stem, summary,
                                                          tmp_path, capsys):
    from gnls.storage import read_field

    cfg = tmp_path / "run.cfg"
    cfg.write_text(OVERFLOWING + "[fit]\nC = 1.0\nA0 = 1.0\n"
                   if command == "radius" else OVERFLOWING)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_RUNTIME
    assert "non-finite state at step 1" in captured.err
    rows = [line for line in (out / f"{stem}.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 2 and rows[1].startswith("0.0,")  # columns, t = 0
    kept = dict(line.split(" = ", 1)
                for line in (out / summary).read_text().splitlines())
    assert kept["abort_step"] == "1"
    assert kept["abort_reason"].startswith("non-finite state at step 1")
    last = read_field(out / "last_good.gnls")
    assert last.t == 0.0 and last.grid.N == 64


#: a sech above the soliton's amplitude: the focusing run's peak grows
#: 1.23x by step 9, the defocusing run's falls
SECH_ABOVE_SOLITON = ("[grid]\nd = 1\nN = 64\nL = 10.0\n"
                      "[data]\nkind = periodized_sech\nA = 3.0\n"
                      "[solver]\ndt = 0.02\nt_end = 0.6\nsnapshot_stride = 2\n")


def test_focusing_simulate_trips_the_blowup_guard_and_keeps_its_rows(
        tmp_path, capsys, monkeypatch):
    import gnls.integrator as integrator
    from gnls.storage import read_field

    monkeypatch.setattr(integrator, "BLOWUP_FACTOR", 1.2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SECH_ABOVE_SOLITON + "defocusing = false\n")
    out = tmp_path / "focusing"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "blow-up guard tripped at step 9" in capsys.readouterr().err
    lines = (out / "norms.csv").read_text().splitlines()
    assert "# defocusing = False" in lines
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.04, 0.08, 0.12, 0.16]
    kept = dict(line.split(" = ", 1)
                for line in (out / "run.meta").read_text().splitlines())
    assert kept["abort_step"] == "9"
    assert kept["abort_reason"].startswith("blow-up guard tripped at step 9")
    assert read_field(out / "last_good.gnls").t == 0.16
    # defocusing, by default or spelt out, the run goes through, and both
    # write the same bytes: the key is echoed only when it is false
    for name, body in (("default", SECH_ABOVE_SOLITON),
                       ("spelt-out", SECH_ABOVE_SOLITON + "defocusing = true\n")):
        cfg.write_text(body)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / name)]) == EXIT_OK
    assert ((tmp_path / "default" / "norms.csv").read_bytes()
            == (tmp_path / "spelt-out" / "norms.csv").read_bytes())


def test_sweep_that_trips_the_blowup_guard_is_runtime_abort(
        tmp_path, capsys, monkeypatch):
    import gnls.integrator as integrator
    from pathlib import Path

    # a guard below 1 trips on the first step of the sweep's run
    monkeypatch.setattr(integrator, "BLOWUP_FACTOR", 0.5)
    cfg = Path(__file__).resolve().parent / "golden" / "d1-n64.cfg"
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.startswith("runtime abort: blow-up guard tripped at step 1:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,fit", [("radius", "[fit]\nC = 1.0\n"),
                                         ("sweep", "")])
def test_non_finite_measured_A_is_validation_error(command, fit, tmp_path,
                                                   capsys):
    # A_sigma of the data overflows: radius measures A0 = inf for its floor,
    # sweep for its local step delta
    cfg = tmp_path / "run.cfg"
    cfg.write_text(OVERFLOWING + fit)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.err == "validation error: A0 must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "radius"])
def test_sweep_whose_top_sigma_overflows_exits_before_stepping(
        command, tmp_path, capsys, monkeypatch):
    # A_sigma at the top of the grid is measured before evolve runs, and the
    # overflow guard depends only on sigma and the grid, so no sigma can
    # overflow in the middle of a sweep
    def no_step(*args, **kwargs):
        raise AssertionError("evolve ran")

    monkeypatch.setattr(harness, "evolve", no_step)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nd = 1\nN = 64\nL = 20.0\n"
                   "[sweep]\nsigma_max = 50\n")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "validation error: multiplier overflow" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("body,key,raw", [
    ("[solver]\ndt = inf\nt_end = 1.0\n", "[solver] dt", "inf"),
    ("[solver]\ndt = 0.1\nt_end = inf\n", "[solver] t_end", "inf"),
    ("[fit]\nsigma0 = nan\n", "[fit] sigma0", "nan"),
    ("[sweep]\nsigma_min = nan\n", "[sweep] sigma_min", "nan"),
    ("[data]\nA = 1e400\n", "[data] A", "1e400"),
], ids=["dt", "t_end", "sigma0", "sigma_min", "A"])
def test_non_finite_config_value_is_validation_error(body, key, raw, tmp_path,
                                                     capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nd = 1\nN = 64\nL = 20.0\n" + body)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.err == f"validation error: bad value for {key}: '{raw}'\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv,raw", [
    (["bookkeeper", "--A0", "1", "--C", "inf"], "inf"),
    (["bookkeeper", "--A0", "nan", "--C", "1"], "nan"),
    (["bookkeeper", "--A0", "1", "--C", "1", "--T", "1e400"], "1e400"),
    (["bookkeeper", "--A0", "1", "--C", "1", "--sigma0=-inf"], "-inf"),
    (["norms", "snap.gnls", "--sigma", "nan"], "nan"),
], ids=["C", "A0", "T", "sigma0", "sigma"])
def test_non_finite_flag_is_usage_error(argv, raw, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "usage: gnls" in err
    assert f"invalid finite_float value: '{raw}'" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--bogus"],
    ["bookkeeper", "--threads", "7"],
    ["bookkeeper", "--seed", "3"],
    ["audit-gn", "--svg"],
    ["norms", "snap.gnls", "--out", "d"],
    ["norms", "snap.gnls", "--config", "run.cfg"],
], ids=" ".join)
def test_usage_error_exits_1(argv, capsys):
    # 2 is the runtime-abort code; a flag a subcommand does not read is a
    # usage error, not silently ignored
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert "usage: gnls" in capsys.readouterr().err


@pytest.mark.parametrize("sweep,key", [
    ("n_sigma = 0", "[sweep] n_sigma"),
    ("sigma_min = 0.01\nsigma_max = 0.01\nn_sigma = 3", "[sweep] sigma_min"),
], ids=["none", "tied"])
def test_empty_or_tied_sigma_grid_is_validation_error(tmp_path, capsys, sweep,
                                                     key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[grid]\nd = 1\nN = 32\nL = 10.0\n[sweep]\n{sweep}\n")
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert key in captured.err and captured.out == ""
    assert not out.exists()


#: d = 2 gaussian data whose A_sigma never grows above the sigma = 0 floor
D2_NO_GROWTH = "[grid]\nd = 2\nN = 64\nL = 20.0\n"


def test_sweep_with_no_usable_sigma_is_runtime_abort(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(D2_NO_GROWTH)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_RUNTIME
    assert "[fit] C" in captured.err and captured.out == ""
    # the growth rows it computed are kept
    assert (out / "sweep.csv").exists()


def test_radius_never_invents_C(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(D2_NO_GROWTH + "[solver]\ndt = 0.01\nt_end = 0.02\n")
    code = main(["radius", "--config", str(cfg), "--out", str(tmp_path / "a")])
    captured = capsys.readouterr()
    assert code == EXIT_RUNTIME
    assert "[fit] C" in captured.err and "C_fit" not in captured.out
    assert not (tmp_path / "a").exists()
    # with [fit] C the same run goes through and reports that C
    cfg.write_text(cfg.read_text() + "[fit]\nC = 2.5\n")
    code = main(["radius", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert code == EXIT_OK
    assert "C_fit = 2.5" in capsys.readouterr().out


def test_bad_boolean_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nd = 1\nN = 64\nL = 10.0\n"
                   "[solver]\ndt = 0.05\nt_end = 0.1\nlinear_only = banana\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "bad value for [solver] linear_only: 'banana'" in err
    assert not out.exists()


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("L,t,tail", [(1.0, float("nan"), b""),
                                      (float("inf"), 0.0, b""),
                                      (1.0, 0.0, bytes(16))],
                         ids=["nan-t", "inf-L", "trailing-bytes"])
def test_norms_rejects_a_header_no_snapshot_has(tmp_path, capsys, L, t, tail):
    from gnls.storage import FORMAT_VERSION, MAGIC, _HEADER

    snap = tmp_path / "odd.gnls"
    snap.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 1, 8, L, t)
                     + np.ones(8, "<c16").tobytes() + tail)
    code = main(["norms", str(snap)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "odd.gnls" in err
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
                                            "slope", "C_fit"]},
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
                   "bookkeeper.summary": ECHO_KEYS[:-1] + [
                       "C", "A0", "T", "sigma_grid", "delta", "n", "sigma",
                       "c1"]},
}

#: flags a subcommand needs beyond TINY_CONFIG: the bookkeeper has no data
#: to measure A0 on and no sweep to fit C from
RUN_FLAGS = {"bookkeeper": ["--A0", "1.0", "--C", "1.0"]}


@pytest.mark.parametrize("command", sorted(RUN_OUTPUTS))
def test_run_subcommand_output_files(command, tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)]
                + RUN_FLAGS.get(command, []))
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


@pytest.mark.parametrize("command,stem", [("sweep", "sweep"),
                                          ("audit-f", "audit_f"),
                                          ("audit-trilinear", "audit_trilinear")])
def test_csv_numbers_parse_as_floats(command, stem, tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = [line for line in (out / f"{stem}.csv").read_text().splitlines()
             if not line.startswith("#")]
    columns = lines[0].split(",")
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(columns)
        for column, cell in zip(columns, cells):
            if column != "kind":
                float(cell)


@pytest.mark.parametrize("command,key", [("audit-f", "members"),
                                         ("audit-trilinear", "members"),
                                         ("audit-multiplier", "triples")])
def test_empty_audit_ensemble_is_validation_error(command, key, tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = 0", TINY_CONFIG,
                          flags=re.M))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert f"[audit] {key}: 0" in err
    assert not out.exists()


def test_audit_f_runs_every_member_its_config_asks_for(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG.replace("N = 64", "N = 8")
                   .replace("members = 2", "members = 101"))
    out = tmp_path / "out"
    assert main(["audit-f", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = [line for line in (out / "audit_f.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert len(lines) - 1 == 101


def test_audit_trilinear_with_every_member_rejected_writes_nothing(
        tmp_path, capsys, monkeypatch):
    import gnls.audits as audits

    monkeypatch.setattr(audits, "LEAK_TOLERANCE", -1.0)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    code = main(["audit-trilinear", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "trilinear-1: all 2 members rejected" in captured.err
    assert captured.out == ""
    assert not out.exists()


#: (max_ratio, median_ratio, seed) of each report of ``gnls
#: audit-multiplier`` on ``[audit] triples = 40000``, in run order (d = 1, 2,
#: 3, each at sigma = 1e-3, 1e-1, 1), as the single whole-array draw of the
#: ensemble gave them
MULTIPLIER_REPORTS = {
    1: [("0.31232953072944525", "0.08595612720903027", 4720721261117928062),
        ("0.20838603063119226", "0.0013556003608976982", 8766480278738261042),
        ("0.04598772859775901", "0.000136547396809626", 1329637740802083942),
        ("0.23917147752001108", "0.06708444841798883", 8749746783503398888),
        ("0.013330162654970648", "0.0010414653847122552", 2876137494685333844),
        ("0.0017538715678701684", "0.00010423091506717153", 3904497331914684451),
        ("0.17671531969248613", "0.059832226266815294", 7634208958675629713),
        ("0.00672533501900622", "0.0008450153771237324", 3774195871892446564),
        ("0.0004651826733585245", "8.461072537878619e-05", 5069107050515594516)],
    7: [("0.3081646795487846", "0.0858295191857385", 5765488047046174020),
        ("0.20516730981010614", "0.0013595509704892846", 8275336682942969161),
        ("0.0288420592036178", "0.00013558275930784338", 7154437704795913392),
        ("0.25526230753741463", "0.06713573378045709", 2077169698657866656),
        ("0.019027477616241156", "0.0010425725150048585", 2768545318656780450),
        ("0.0016502775538083626", "0.0001042125730298589", 8057108420966028185),
        ("0.17316499611871114", "0.05981687983255048", 48563862895646263),
        ("0.004060232789312309", "0.0008443379661288677", 7574495229982081901),
        ("0.00041911241303291936", "8.464536843938203e-05", 7351667880583433390)],
}


@pytest.mark.parametrize("seed", sorted(MULTIPLIER_REPORTS))
def test_audit_multiplier_reports_are_bit_identical(seed, tmp_path, capsys,
                                                    monkeypatch):
    reports = []
    real = harness.audit_multiplier_inequality

    def audit(*args):
        reports.append(real(*args))
        return reports[-1]

    monkeypatch.setattr(harness, "audit_multiplier_inequality", audit)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[audit]\ntriples = 40000\n")
    code = main(["audit-multiplier", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert [(repr(r.max_ratio), repr(r.median_ratio), r.seed)
            for r in reports] == MULTIPLIER_REPORTS[seed]
    top = max((r[0] for r in MULTIPLIER_REPORTS[seed]), key=float)
    assert f"max_ratio = {top}" in out


#: seed -> (repr of max_ratio, repr of median_ratio, rejected, seed) of the
#: three trilinear kinds of ``gnls audit-trilinear`` with [audit]
#: members = 6, M = 16, recorded before the per-ensemble lattice tables
TRILINEAR_REPORTS = {
    1: [("0.0014869828290147036", "0.0009342490200052622", 0, 2),
        ("0.002330686707526335", "0.001998223791886424", 0, 3),
        ("0.002677615175122941", "0.0018493651699331443", 0, 4)],
    7: [("0.0016611137348033034", "0.00124206708592091", 0, 8),
        ("0.0019555652350874576", "0.001723067745319567", 0, 9),
        ("0.0023394801831280693", "0.001768700501176698", 0, 10)],
}


@pytest.mark.parametrize("seed", sorted(TRILINEAR_REPORTS))
def test_audit_trilinear_reports_are_bit_identical(seed, tmp_path, capsys,
                                                   monkeypatch):
    reports = []
    real = harness.audit_trilinear

    def audit(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "audit_trilinear", audit)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[audit]\nmembers = 6\nM = 16\n")
    code = main(["audit-trilinear", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert [(repr(r.max_ratio), repr(r.median_ratio), r.rejected, r.seed)
            for r in reports] == TRILINEAR_REPORTS[seed]
    assert f"kind1_max = {TRILINEAR_REPORTS[seed][0][0]}" in out
