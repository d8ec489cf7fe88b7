"""The package surface: no public name without a caller, and each
subcommand takes exactly the flags it reads."""

import ast
import re
from pathlib import Path

import pytest

from gnls import cli

PACKAGE = Path(cli.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_definitions(tree):
    """Public top-level functions and classes, and the public methods of
    those classes, as (qualified name, name, node)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree, skip):
    """Names and attributes read anywhere in ``tree`` outside ``skip``."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_caller_in_the_package():
    trees = {p: ast.parse(p.read_text()) for p in MODULES}
    unused = []
    for path, tree in trees.items():
        for qualname, name, node in _public_definitions(tree):
            if not any(name in _references(other, node if other is tree else None)
                       for other in trees.values()):
                unused.append(f"{path.stem}.{qualname}")
    assert unused == []


def test_harness_steps_in_one_place():
    # simulate, radius and the sweep all run evolve through one tracked-run
    # core, so what every run checks or records is written once
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    assert list(_references(tree, None)).count("evolve") == 1
    steppers = [node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and any(isinstance(call, ast.Call)
                        and "evolve" in _references(call.func, None)
                        for call in ast.walk(node))]
    assert steppers == ["_track"]


@pytest.mark.parametrize("command", sorted(cli._commands()))
def test_help_lists_exactly_the_flags_of_the_table(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    # usage: gnls <command> [-h] [--flag VALUE] ... positional
    options = re.findall(r"\[(-[^\s\]]+)", usage)
    positionals = re.sub(r"\[[^\]]*\]", "", usage).split()[3:]
    _, flags = cli._commands()[command]
    assert sorted(options) == sorted(("-h",) + tuple(
        f for f in flags if f.startswith("-")))
    assert positionals == [f for f in flags if not f.startswith("-")]


def _unread_imports(tree):
    """Names a module imports and never reads; ``__future__`` features are
    not names."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports only to re-export
    tests = Path(__file__).resolve().parent
    unread = [f"{path.parent.name}/{path.name}: {name}"
              for path in MODULES + sorted(tests.glob("*.py"))
              for name in _unread_imports(ast.parse(path.read_text()))]
    assert unread == []
