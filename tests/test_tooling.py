"""Source checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multidendro"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(module):
    """Map each name an import statement binds -> its line number."""
    names = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_package_modules_found():
    assert {"agglomerate.py", "tree.py", "render.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py is left out: its imports are the package's public names
    module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    unused = sorted((line, name)
                    for name, line in imported_names(module).items()
                    if name not in used)
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, ", ".join("%s (line %d)" % (name, line)
                             for line, name in unused))
