"""GNLS binary snapshots, sidecars, and CSV reports."""

from types import SimpleNamespace

import numpy as np
import pytest

from gnls.grid import Field, FourierGrid
from gnls.storage import (FORMAT_VERSION, MAGIC, read_field, write_csv,
                          write_field, write_sidecar)

from conftest import random_field
from oracles import read_sidecar, zero_field
from gnls.spectral import to_physical


def test_field_round_trip(tmp_path):
    g = FourierGrid(d=1, N=64, L=7.5)
    u = to_physical(random_field(g, seed=1))
    u = Field(g, u.values, t=2.25)
    path = tmp_path / "snap.gnls"
    write_field(path, u)
    back = read_field(path)
    assert back.grid == g
    assert back.t == 2.25
    assert np.array_equal(back.values, u.values)


def test_field_round_trip_2d(tmp_path):
    g = FourierGrid(d=2, N=16, L=3.0)
    rng = np.random.default_rng(0)
    u = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    path = tmp_path / "snap2d.gnls"
    write_field(path, u)
    assert np.array_equal(read_field(path).values, u.values)


def test_header_layout(tmp_path):
    g = FourierGrid(d=1, N=8, L=1.0)
    path = tmp_path / "h.gnls"
    write_field(path, zero_field(g))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:6], "little") == FORMAT_VERSION
    assert raw[6] == 1                                 # d
    assert int.from_bytes(raw[7:11], "little") == 8    # N
    # header + 8 complex samples as interleaved f64 pairs
    assert len(raw) == len(raw[:27]) + 8 * 16


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.gnls"
    g = FourierGrid(d=1, N=8, L=1.0)
    write_field(path, zero_field(g))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad magic"):
        read_field(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "ver.gnls"
    g = FourierGrid(d=1, N=8, L=1.0)
    write_field(path, zero_field(g))
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_field(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.gnls"
    g = FourierGrid(d=1, N=8, L=1.0)
    write_field(path, zero_field(g))
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        read_field(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.gnls"
    path.write_bytes(MAGIC + bytes(4))
    with pytest.raises(ValueError, match="truncated header"):
        read_field(path)


def test_sidecar_round_trip(tmp_path):
    path = tmp_path / "run.meta"
    entries = {"d": 1, "N": 256, "L": 40.0, "data_kind": "gaussian"}
    write_sidecar(path, entries)
    back = read_sidecar(path)
    assert back["d"] == "1"
    assert back["L"] == "40.0"
    assert back["data_kind"] == "gaussian"


def test_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("t", "mass", "flag"), [[0.0, 1.25, True], [0.1, 1.5, False]],
              header_meta={"seed": 7})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed = 7"
    assert lines[1] == "t,mass,flag"
    assert lines[2] == "0.0,1.25,true"
    assert lines[3] == "0.1,1.5,false"


def test_write_summary(tmp_path):
    # run summaries use the sidecar's key = value format
    path = tmp_path / "run.summary"
    write_sidecar(path, {"slope": 1.01})
    assert read_sidecar(path)["slope"] == "1.01"


class _FailingArray(np.ndarray):
    def tofile(self, *args, **kwargs):
        raise OSError("disk full")


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    import gnls.storage as storage

    # the payload write fails after the header is out
    monkeypatch.setattr(storage, "np", SimpleNamespace(
        empty=lambda *a, **k: np.empty(*a, **k).view(_FailingArray)))
    with pytest.raises(OSError, match="disk full"):
        write_field(tmp_path / "snap.gnls", zero_field(FourierGrid(d=1, N=8, L=1.0)))
    assert list(tmp_path.iterdir()) == []
