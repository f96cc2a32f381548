"""What ybx's modules import, and when.

Every name that a ybx module imports is used in that module. No linter
runs on this code, so an import that a rewrite leaves behind would
otherwise stay; the package's __init__ imports only to re-export.

The elimination (``ybx.elimination``) and the gcd fallbacks (``ybx.gcd``)
are imported by the functions that need them, when first called, so a
command that runs neither never compiles them. One import at module level
anywhere in the package would undo that without failing any other test.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ybx

PACKAGE = Path(ybx.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ON_FIRST_USE = {"ybx.elimination", "ybx.gcd"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)


def module_level_imports(tree):
    """The modules that the statements run at import time import: every
    import outside a function body, by its full dotted name, and for a
    ``from`` import each name under it as well, since it may be a module."""
    found = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ybx" if node.level else None,
                                          node.module]))
            found.add(base)
            found.update(f"{base}.{a.name}" for a in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_slow_paths_load_on_first_use(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not module_level_imports(tree) & ON_FIRST_USE


def test_the_check_sees_each_form_of_import():
    forms = ["from . import gcd", "from .elimination import invert",
             "import ybx.gcd", "from ybx import elimination",
             "if True:\n    from . import gcd",
             "class C:\n    from . import elimination"]
    for text in forms:
        assert module_level_imports(ast.parse(text)) & ON_FIRST_USE, text
    for text in ("from math import gcd", "from .scalars import gcd",
                 "def f():\n    from . import elimination"):
        assert not module_level_imports(ast.parse(text)) & ON_FIRST_USE, text


def loaded_after(*argv):
    """(exit status, which of ON_FIRST_USE are loaded) after ybx.cli.main
    runs argv in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent),
               PYTHONDONTWRITEBYTECODE="1")
    code = ("import contextlib, io, json, sys\n"
            "from ybx.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(sys.argv[1:])\n"
            f"print(json.dumps([status, sorted({sorted(ON_FIRST_USE)!r}"
            " & sys.modules.keys())]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    ["validate", "algebra"], ["check", "constant"],
    ["export", "matrix", "--family", "dn"]], ids=" ".join)
def test_commands_without_elimination_leave_it_unloaded(argv):
    status, loaded = loaded_after(
        *argv, "--algebra", ybx.fixture_path("quadratic.json"))
    assert status in (0, 1)
    assert loaded == []


def test_invert_loads_the_elimination():
    status, loaded = loaded_after(
        "invert", "--family", "dn", "--algebra",
        ybx.fixture_path("quadratic.json"), "--alpha", "1", "--beta", "2",
        "--gamma", "1")
    assert status == 0
    assert "ybx.elimination" in loaded
