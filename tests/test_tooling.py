"""The sources parse as the oldest Python that pyproject.toml allows,
every definition in them, and every name bound at module level, is read
or exported, and no module registers an exit handler."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_parse_as_the_oldest_python_allowed():
    # CI runs 3.10 too; this catches newer syntax on any interpreter
    pyproject = (ROOT / "pyproject.toml").read_text()
    oldest = re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M)
    assert oldest and oldest[1] == "10"
    sources = [*ROOT.glob("src/g2atomic/*.py"), *ROOT.glob("tests/*.py")]
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _references(tree: ast.Module, module: str) -> set:
    """(module, name) for each name that tree reads: by name in its own
    module, through `from .mod import name`, and as `mod.name` after
    `from . import mod`.  Binding a name does not read it."""
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    found.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((module, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
    return found


def _bound(tree: ast.Module):
    """Each name that tree binds at module level: by def or class, or as a
    target of an assignment, tuple targets included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def test_every_definition_is_referenced_or_public():
    # code or a constant that no code in src/ reads and the package does not
    # export is dead; the console entry is called from pyproject.toml
    # instead, and a dunder such as the package's __getattr__ by Python itself
    import g2atomic
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in ROOT.glob("src/g2atomic/*.py")}
    defined = {(module, name) for module, tree in trees.items()
               for name in _bound(tree) if not name.startswith("__")}
    referenced = set().union(*(_references(tree, module)
                               for module, tree in trees.items()))
    public = {(module, name) for module, names in g2atomic._PUBLIC.items()
              for name in names}
    pyproject = (ROOT / "pyproject.toml").read_text()
    entry = re.search(r'^g2atomic = "g2atomic\.(\w+):(\w+)"$', pyproject, re.M)
    assert entry and entry.groups() == ("cli", "entry")
    assert sorted(defined - referenced - public - {entry.groups()}) == []


def test_no_module_registers_an_exit_handler():
    # The CLI ends its process by os._exit once both streams are flushed
    # (cli._finish), so no atexit handler runs after a CLI call: one
    # registered in the package would be skipped without a word.  That
    # os._exit is sound only while no module imports atexit, and so none
    # calls atexit.register.
    sources = list(ROOT.glob("src/g2atomic/*.py"))
    assert len(sources) > 10
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            assert "atexit" not in modules, path.name
