"""Golden output trees: every output of the 8 run subcommands on the small
configs of tests/golden/*.cfg, at d = 1, 2 and 3, plus the variant trees
of ``VARIANTS`` and the ``gnls norms`` trees of ``SNAPSHOT_VARIANTS``, on
one thread and with every pass split into two halves, against the sha256
hashes of tests/golden/manifest.json.

A change that alters any output on purpose regenerates the manifest with
``PYTHONPATH=src python tests/golden/regenerate.py`` and names the changed
files; a change that claims to alter none leaves it as it is.

The hashes depend on numpy's pocketfft and on the C library's libm, and
also on which SIMD code each picks at run time: numpy dispatches its loops
to AVX2 or AVX-512 variants, and glibc's libm resolves exp, sin and cos to
FMA variants, each rounding differently.  So the trees run in a child
interpreter pinned to numpy's baseline loops and libm's generic variants
(:func:`pinned_trees`), and the manifest records the versions, the machine
and that pin (:func:`versions`).  Run as a script, this module is that
child: ``test_golden.py <mode> <scratch>`` prints the trees of one mode of
``SPLITS`` as JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                           __cpu_features__)
import pytest

import gnls
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

#: ``gnls norms`` trees: (the tree whose ``last_good.gnls`` it reads, its
#: flags)
SNAPSHOT_VARIANTS = {
    "focusing-d2-n18/norms": ("focusing-d2-n18/simulate", ["--sigma", "0.1"]),
}

#: ``_kernels._SPLIT_MIN`` and ``_kernels._TWO_CPUS`` of each mode: no pass
#: split, and every pass of a d >= 2 grid and every ensemble of more than
#: one block split, as tests/test_split.py forces it
SPLITS = {"serial": (float("inf"), False), "split": (2, True)}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes)
                          else data.encode()).hexdigest()


#: the glibc hardware capabilities the child masks, so that libm resolves
#: its functions to the variants without FMA, FMA4, AVX or AVX2
GLIBC_TUNABLES = "glibc.cpu.hwcaps=-AVX,-AVX2,-FMA,-FMA4"


def versions() -> dict:
    """What the hashes depend on beyond the tree."""
    return {"numpy": np.__version__, "libc": " ".join(platform.libc_ver()),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy_simd": "baseline " + " ".join(__cpu_baseline__),
            "glibc_tunables": GLIBC_TUNABLES}


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


def run_tree(argv, out: Path, patches=None) -> dict:
    """``gnls <argv>`` in this process, with ``patches`` on
    gnls.integrator: the exit code and the hashes of stdout, stderr and
    every file written under ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for name, value in (patches or {}).items():
            stack.enter_context(mock.patch.object(integrator, name, value))
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        code = cli.main([str(arg) for arg in argv])
    files = {}
    for path in sorted(out.iterdir()) if out.exists() else ():
        files[path.name] = (_csv_digest(path.read_text())
                            if path.suffix == ".csv"
                            else _sha(path.read_bytes()))
    return {"exit": code, "stdout": _sha(stdout.getvalue()),
            "stderr": _sha(stderr.getvalue()), "files": files}


def _run_config(config: Path, command: str, out: Path, flags=(),
                patches=None) -> dict:
    """:func:`run_tree` of ``gnls <command> --config <config> --out <out>
    <flags>``."""
    return run_tree([command, "--config", config, "--out", out, *flags], out,
                    patches)


def run_trees(scratch: Path) -> dict:
    """:func:`run_tree` of every config and command, keyed
    ``<config stem>/<command>``, and of every variant, with outputs under
    ``scratch``."""
    trees = {f"{cfg.stem}/{command}":
             _run_config(cfg, command, scratch / cfg.stem / command,
                         FLAGS.get(command, []))
             for cfg in sorted(GOLDEN.glob("*.cfg")) for command in COMMANDS}
    for key, (cfg, command, *rest) in VARIANTS.items():
        trees[key] = _run_config(GOLDEN / cfg, command, scratch / key, *rest)
    for key, (tree, flags) in SNAPSHOT_VARIANTS.items():
        trees[key] = run_tree(
            ["norms", scratch / tree / "last_good.gnls", *flags],
            scratch / key)
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


def pinned_trees(mode: str, scratch: Path) -> dict:
    """:func:`run_trees` in ``mode`` of ``SPLITS``, run by this module as a
    child interpreter with every numpy dispatch target turned off and
    glibc's capabilities masked by ``GLIBC_TUNABLES``."""
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
           "GLIBC_TUNABLES": GLIBC_TUNABLES,
           "PYTHONPATH": str(Path(gnls.__file__).resolve().parents[1])}
    child = subprocess.run([sys.executable, __file__, mode, str(scratch)],
                           env=env, capture_output=True, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"the pinned {mode} run failed:\n{child.stderr}")
    return json.loads(child.stdout)


def _child(mode: str, scratch: str) -> None:
    on = [name for name in __cpu_dispatch__ if __cpu_features__[name]]
    if on:
        sys.exit(f"numpy still dispatches to {on}")
    _kernels._SPLIT_MIN, _kernels._TWO_CPUS = SPLITS[mode]
    json.dump(run_trees(Path(scratch)), sys.stdout)


@pytest.mark.parametrize("mode", list(SPLITS))
def test_run_outputs_match_the_golden_manifest(mode, tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    changed = differences(manifest["trees"], pinned_trees(mode, tmp_path))
    assert not changed, (
        f"{mode} outputs differ from {MANIFEST.name} (made with "
        f"{manifest['versions']}; this run has {versions()}):\n"
        + "\n".join(changed))


if __name__ == "__main__":
    _child(*sys.argv[1:])
