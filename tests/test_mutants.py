"""The mutation gate: each mutant of tests/mutants.py fails its killing
test, which passes on the unmutated package.

Every killing test runs once, all in one child interpreter, on a clean copy
of the package; then each mutant runs its killing test in one child of its
own.  The children load no pytest plugins: the start-up of pytest with its
installed plugins is most of a child's time, and no killing test uses one.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gnls
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def _copy(path: Path) -> Path:
    """A copy of the package under ``path``, which is returned."""
    shutil.copytree(Path(gnls.__file__).parent, path / "gnls",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return path


def _run(nodes, path: Path) -> subprocess.CompletedProcess:
    """``nodes`` run by pytest in a child interpreter that imports gnls from
    the package copy under ``path``."""
    env = {**os.environ, "PYTHONPATH": str(path),
           "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *nodes], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300)


@pytest.fixture(scope="session")
def killers_unmutated(tmp_path_factory):
    """The one child run of every killing test on the clean package."""
    return _run(sorted({m[3] for m in MUTANTS}),
                _copy(tmp_path_factory.mktemp("clean")))


@pytest.mark.parametrize("path,old,new,killer", MUTANTS,
                         ids=[f"{m[0]}:{m[2]}" for m in MUTANTS])
def test_mutant_is_killed(path, old, new, killer, tmp_path,
                          killers_unmutated):
    assert not killer.startswith("tests/test_golden.py")
    assert killers_unmutated.returncode == 0, \
        killers_unmutated.stdout + killers_unmutated.stderr
    target = _copy(tmp_path) / "gnls" / path
    text = target.read_text()
    assert text.count(old) == 1, f"{old!r} is not one place in {path}"
    target.write_text(text.replace(old, new))
    mutated = _run([killer], tmp_path)
    # 1: tests ran and failed (not a collection or usage error)
    assert mutated.returncode == 1, mutated.stdout + mutated.stderr
