"""Golden output trees: every output of the 8 run subcommands on the small
configs of tests/golden/*.cfg, at d = 1, 2 and 3, plus the variant trees
of ``VARIANTS``, on one thread and with every pass split into two halves,
against the sha256 hashes of tests/golden/manifest.json.

A change that alters any output on purpose regenerates the manifest with
``PYTHONPATH=src python tests/golden/regenerate.py`` and names the changed
files; a change that claims to alter none leaves it as it is.  The hashes
depend on numpy's pocketfft and on the C library's libm, whose versions the
manifest records.
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gnls import _kernels, cli, integrator

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

#: the run subcommands, and the flags the bookkeeper needs beyond a config
COMMANDS = ("simulate", "radius", "sweep", "audit-multiplier", "audit-f",
            "audit-trilinear", "audit-gn", "bookkeeper")
FLAGS = {"bookkeeper": ["--A0", "1.0", "--C", "1.0"]}

#: trees beyond the 8 commands on every config, keyed as those are:
#: (config under tests/golden, command, its extra flags, gnls.integrator
#: attributes patched): ``radius --svg``, and a focusing run that trips the
#: blow-up guard, lowered as tests/test_cli.py lowers it, and writes
#: ``last_good.gnls``
VARIANTS = {
    "d1-n64/radius-svg": ("d1-n64.cfg", "radius", ["--svg"], {}),
    "focusing-d2-n18/simulate": ("focusing/d2-n18.cfg", "simulate", [],
                                 {"BLOWUP_FACTOR": 1.2}),
}

#: ``_kernels._SPLIT_MIN`` and ``_kernels._TWO_CPUS`` of each mode: no pass
#: split, and every pass of a d >= 2 grid and every ensemble of more than
#: one block split, as tests/test_split.py forces it
SPLITS = {"serial": (float("inf"), False), "split": (2, True)}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes)
                          else data.encode()).hexdigest()


def versions() -> dict:
    """What the hashes depend on beyond the tree."""
    return {"numpy": np.__version__, "libc": " ".join(platform.libc_ver()),
            "python": platform.python_version()}


def _csv_digest(text: str) -> dict:
    """The hash of a CSV, of its ``#`` header and of each column.  Only
    the first column (an audit's kind) may hold commas, so each row splits
    from the right."""
    lines = text.splitlines()
    head = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    names = body[0].split(",")
    cells = [row.rsplit(",", len(names) - 1) for row in body[1:]]
    return {"sha256": _sha(text), "header": _sha("\n".join(head)),
            "columns": {name: _sha("\n".join(row[j] if j < len(row) else ""
                                             for row in cells))
                        for j, name in enumerate(names)}}


def run_tree(config: Path, command: str, out: Path, flags=(),
             patches=None) -> dict:
    """``gnls <command> --config <config> --out <out> <flags>`` in this
    process, with ``patches`` on gnls.integrator: the exit code and the
    hashes of stdout, stderr and every file written."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for name, value in (patches or {}).items():
            stack.enter_context(mock.patch.object(integrator, name, value))
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        code = cli.main([command, "--config", str(config), "--out", str(out),
                         *flags])
    files = {}
    for path in sorted(out.iterdir()) if out.exists() else ():
        files[path.name] = (_csv_digest(path.read_text())
                            if path.suffix == ".csv"
                            else _sha(path.read_bytes()))
    return {"exit": code, "stdout": _sha(stdout.getvalue()),
            "stderr": _sha(stderr.getvalue()), "files": files}


def run_trees(scratch: Path) -> dict:
    """:func:`run_tree` of every config and command, keyed
    ``<config stem>/<command>``, and of every variant, with outputs under
    ``scratch``."""
    trees = {f"{cfg.stem}/{command}":
             run_tree(cfg, command, scratch / cfg.stem / command,
                      FLAGS.get(command, []))
             for cfg in sorted(GOLDEN.glob("*.cfg")) for command in COMMANDS}
    for key, (cfg, command, *rest) in VARIANTS.items():
        trees[key] = run_tree(GOLDEN / cfg, command, scratch / key, *rest)
    return trees


def differences(want: dict, got: dict) -> list:
    """One line per changed tree: its exit code, streams, files and, for a
    CSV, its header and columns."""
    lines = []
    for key in sorted(set(want) | set(got)):
        a, b = want.get(key), got.get(key)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{key}: {'new' if a is None else 'gone'}")
            continue
        changed = [part for part in ("exit", "stdout", "stderr")
                   if a[part] != b[part]]
        for name in sorted(set(a["files"]) | set(b["files"])):
            fa, fb = a["files"].get(name), b["files"].get(name)
            if fa == fb:
                continue
            if isinstance(fa, dict) and isinstance(fb, dict):
                parts = ["header"] if fa["header"] != fb["header"] else []
                parts += [c for c in fb["columns"]
                          if fa["columns"].get(c) != fb["columns"][c]]
                parts += [f"-{c}" for c in fa["columns"]
                          if c not in fb["columns"]]
                changed.append(f"{name} ({', '.join(parts) or 'rows'})")
            else:
                changed.append(name)
        lines.append(f"{key}: {'; '.join(changed)}")
    return lines


@pytest.mark.parametrize("mode", list(SPLITS))
def test_run_outputs_match_the_golden_manifest(mode, tmp_path, monkeypatch):
    split_min, two_cpus = SPLITS[mode]
    monkeypatch.setattr(_kernels, "_SPLIT_MIN", split_min)
    monkeypatch.setattr(_kernels, "_TWO_CPUS", two_cpus)
    manifest = json.loads(MANIFEST.read_text())
    changed = differences(manifest["trees"], run_trees(tmp_path))
    assert not changed, (
        f"{mode} outputs differ from {MANIFEST.name} (made with "
        f"{manifest['versions']}; this run has {versions()}):\n"
        + "\n".join(changed))
