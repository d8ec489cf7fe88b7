"""Persistence: field snapshots, run sidecars, and CSV reports.

Snapshot file layout (little-endian throughout):

    magic  4 bytes  b"GNLS"
    u16    format version (currently 1)
    u8     d
    u32    N
    f64    L
    f64    t
    then N^d complex samples as interleaved (re, im) f64, row-major with
    the last axis fastest.

Sidecars and run summaries are plain ``key = value`` lines; CSV reports
open with ``#`` comment lines echoing the config and the artifact version
so every output is self-describing.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .grid import Field, FourierGrid, PHYSICAL
from .spectral import to_physical

MAGIC = b"GNLS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBIdd")


def write_field(path, f: Field) -> None:
    """Write one snapshot, as physical samples, in the GNLS binary format.

    The file is written under a temporary name in the same directory and
    renamed into place, so ``path`` never holds a partial snapshot; on
    failure the temporary file is removed.
    """
    u = to_physical(f)
    g = u.grid
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, g.d, g.N, g.L, u.t))
            np.asarray(u.values, dtype="<c16").tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_field(path) -> Field:
    """Read one GNLS snapshot back into a physical-space field.

    Raises ValueError, naming the file, unless the header is a snapshot's
    (finite t, a valid grid) and exactly N^d samples follow it.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header "
                             f"({len(header)} of {_HEADER.size} bytes)")
        magic, version, d, N, L, t = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if not np.isfinite(t):
            raise ValueError(f"{path}: non-finite time t = {t}")
        try:
            grid = FourierGrid(d=d, N=N, L=L)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        count = N ** d
        # checked before reading, so a corrupt header cannot size an allocation
        size, expected = path.stat().st_size - _HEADER.size, 16 * count
        if size != expected:
            raise ValueError(
                f"{path}: {'truncated' if size < expected else 'oversized'} "
                f"payload ({size} of {expected} bytes)")
        values = np.fromfile(fh, dtype="<c16", count=count)
    values.flags.writeable = False  # Field keeps it without a copy
    return Field(grid, values.reshape(grid.shape), rep=PHYSICAL, t=t)


def write_sidecar(path, entries: dict) -> None:
    """key = value metadata lines."""
    lines = [f"{k} = {v}" for k, v in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(path, columns, rows, header_meta: dict = None) -> None:
    """CSV with a ``#``-commented config echo ahead of the column line."""
    path = Path(path)
    with path.open("w") as fh:
        if header_meta:
            for k, v in header_meta.items():
                fh.write(f"# {k} = {v}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        # repr of a numpy scalar reads np.float64(...) under numpy 2
        return repr(float(v))
    return str(v)
