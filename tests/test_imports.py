"""Every module of the package uses each name it imports.

Moving code between modules tends to leave imports behind; this test
finds them with the standard library's ``ast``. ``__init__.py`` is
skipped, because it imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

import haltseries

PACKAGE = Path(haltseries.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from fractions import Fraction\nimport os.path\nimport sys as system\nprint(system)\n"
    assert unused_imports(source) == ["Fraction", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
