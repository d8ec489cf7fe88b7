"""The mutation gate: each mutant of tests/mutants.py fails its killing
test, which passes on the unmutated package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gnls
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def _run(node: str, path: Path) -> subprocess.CompletedProcess:
    """``node`` run by pytest in a child interpreter that imports gnls from
    the package copy under ``path``."""
    env = {**os.environ, "PYTHONPATH": str(path)}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("path,old,new,killer", MUTANTS,
                         ids=[f"{m[0]}:{m[2]}" for m in MUTANTS])
def test_mutant_is_killed(path, old, new, killer, tmp_path):
    assert not killer.startswith("tests/test_golden.py")
    package = tmp_path / "gnls"
    shutil.copytree(Path(gnls.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = package / path
    text = target.read_text()
    assert text.count(old) == 1, f"{old!r} is not one place in {path}"

    clean = _run(killer, tmp_path)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    target.write_text(text.replace(old, new))
    mutated = _run(killer, tmp_path)
    # 1: tests ran and failed (not a collection or usage error)
    assert mutated.returncode == 1, mutated.stdout + mutated.stderr
