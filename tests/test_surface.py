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
    """Names and attributes read anywhere in ``tree`` outside ``skip``;
    an attribute of numpy (``np.meshgrid``) calls no name of the package."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == "np"):
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


def _fft_calls(tree):
    """The transforms of ``np.fft`` named anywhere in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("fft", "ifft", "fftn", "ifftn")
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "np"):
            yield node.attr


def test_the_split_stays_in_kernels():
    # one module decides which passes split, hands work to the helper
    # thread, picks the FFT each thread calls and sizes the slabs; the
    # solver builds its phase tables from the per-axis wavenumbers
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    for name in ("_splits", "_both", "threading", "_thread"):
        assert [module for module, tree in trees.items()
                if name in _references(tree, None)] == ["_kernels"], name
    # a hand-off starts its own helper, so no thread needs minding at fork
    assert not any("register_at_fork" in _references(tree, None)
                   for tree in trees.values())
    assert [module for module, tree in trees.items()
            if any(_fft_calls(tree))] == ["_kernels"]
    assert not any(isinstance(t, ast.Name) and t.id == "_SLAB"
                   for node in ast.walk(trees["data"])
                   if isinstance(node, ast.Assign) for t in node.targets)
    assert "xi_abs" not in _references(trees["integrator"], None)


def test_norms_read_the_shell_table_and_one_guard_raises_overflow():
    # the shell functionals weigh shells, and the Gevrey weight of a field
    # is formed slab by slab: no whole-grid weight exists, and the
    # whole-grid |xi| is read only for the space-time weight
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    assert [module for module, tree in trees.items()
            if "xi_abs" in _references(tree, None)] == ["spacetime"]
    assert not any("exp_weight" in _references(tree, None)
                   or "exp_weight" in {node.name for node in tree.body
                                       if isinstance(node, ast.FunctionDef)}
                   for tree in trees.values())
    raisers = [f"{module}.{node.name}" for module, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and any(isinstance(r, ast.Raise) and r.exc is not None
                       and "MultiplierOverflowError" in _references(r.exc, None)
                       for r in ast.walk(node))]
    assert raisers == ["spectral._guarded_exp"]



def _imported(tree):
    """Every name a module imports, and every module it imports from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.module
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (a.name for a in node.names)


def test_one_synthesis_one_reach_one_corner_table():
    # a spectrum on a lattice is one decision of gnls.spectral: the reach
    # rule, the pad and cut by one corner table, the one whole-array
    # synthesis, the one slab pass of e^{sigma|xi|}; the space-time product
    # reaches no transform of its own
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    functions = {module: {node.name: node for node in tree.body
                          if isinstance(node, ast.FunctionDef)}
                 for module, tree in trees.items()}
    defined = {module: set(names) for module, names in functions.items()}
    for name in ("_reach", "_corners", "_synthesise", "_pad", "_weigh"):
        assert [module for module, names in defined.items()
                if name in names] == ["spectral"], name
    for gone in ("_padded_samples", "_weighted_lines", "_copy"):
        assert not any(gone in names for names in defined.values()), gone
    for name in ("_pad", "_embed_band"):
        assert "_corners" in _references(functions["spectral"][name], None)
    # numpy's attributes included: the random data draw no band mask of
    # their own and damp through _weigh
    data = {getattr(node, "attr", getattr(node, "id", None))
            for node in ast.walk(trees["data"])}
    assert not data & {"_mesh_sum", "logical_or"}
    assert "_kernels" not in (set(_references(trees["spacetime"], None))
                              | set(_imported(trees["spacetime"])))
    assert "k_axis" not in _references(trees["norms"], None)

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


def test_only_norms_builds_the_snapshot_row():
    # the row of simulate, radius and norms is computed in one place, so a
    # column added to it lands there alone; harness writes what it is given
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    builders = [module for module, tree in trees.items()
                if any(isinstance(node, ast.Call)
                       and "NormReport" in _references(node.func, None)
                       for node in ast.walk(tree))]
    assert builders == ["norms"]
    assert "EmptySpectrumError" not in _references(trees["harness"], None)
    assert "mass" not in [alias.name for node in ast.walk(trees["harness"])
                          if isinstance(node, ast.ImportFrom)
                          for alias in node.names]
