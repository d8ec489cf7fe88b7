"""Rewrite tests/golden/manifest.json from the outputs of this tree.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs every config and run subcommand, and every variant tree, once on one
thread and once with every pass split, each in the pinned child
interpreter of tests/test_golden.py, refuses to write when the two differ,
and prints which trees changed against the old manifest.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import (MANIFEST, SPLITS, differences,  # noqa: E402
                         pinned_trees, versions)


def main() -> int:
    trees = {}
    for mode in SPLITS:
        with tempfile.TemporaryDirectory() as scratch:
            trees[mode] = pinned_trees(mode, Path(scratch))
    split = differences(trees["serial"], trees["split"])
    if split:
        print("the split runs differ from the serial ones:", *split, sep="\n")
        return 1
    old = (json.loads(MANIFEST.read_text())["trees"] if MANIFEST.exists()
           else {})
    MANIFEST.write_text(json.dumps({"versions": versions(),
                                    "trees": trees["serial"]},
                                   indent=1, sort_keys=True) + "\n")
    print(*(differences(old, trees["serial"]) or ["no tree changed"]),
          sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
