"""Every module of the package uses each name it imports, and every
private top-level name is used somewhere besides its definition.

Moving or deleting code tends to leave imports and helpers behind; these
tests find them with the standard library's ``ast``. A last check keeps
the package from setting the interpreter's int-digit limit: integers
cross to and from text through ``coefficients`` at any length instead. ``__init__.py`` is
skipped by the import check, because it imports names only to re-export
them; the last test holds it to re-exporting each module's ``__all__``.
"""

import ast
from pathlib import Path
from types import ModuleType

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_names(sources: list[str]) -> list[str]:
    """Private top-level functions, classes and assignments that no other
    top-level statement of any source reads, imports or names as an
    attribute. A recursive function's call to itself does not count."""
    statements = []
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                defined = []
            used = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    used.update(alias.name for alias in sub.names)
            statements.append(([name for name in defined if _private(name)], used))
    return [
        name
        for i, (defined, _) in enumerate(statements)
        for name in defined
        if not any(name in used for j, (_, used) in enumerate(statements) if j != i)
    ]


def test_unused_private_names_are_found():
    module = (
        "_LIMIT = 3\n_SPARE = 4\n__all__ = []\n"
        "def _walk(n):\n    return _walk(n - 1) if n else 0\n"
        "class _Box:\n    pass\n"
        "def _helper():\n    pass\n"
    )
    other = "from .module import _helper\nprint(module._LIMIT)\n"
    assert unused_private_names([module, other]) == ["_SPARE", "_walk", "_Box"]


def test_package_uses_every_private_top_level_name():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_names(sources) == []


def int_digit_limit_setters(source: str) -> list[int]:
    """Lines that name ``set_int_max_str_digits``: in a call, an attribute,
    an import or a string, so an alias or ``getattr`` cannot hide a call."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if "set_int_max_str_digits" in [getattr(node, key, None) for key in ("attr", "id", "name", "value")]
    )


def test_int_digit_limit_setters_are_found():
    source = (
        "import sys\nsys.set_int_max_str_digits(0)\nfrom sys import set_int_max_str_digits as s\n"
        "s(640)\ngetattr(sys, 'set_int_max_str_digits')\nsys.get_int_max_str_digits()\n"
    )
    assert int_digit_limit_setters(source) == [2, 3, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_sets_the_int_digit_limit(path):
    assert int_digit_limit_setters(path.read_text()) == []


def test_package_reexports_each_modules_all_and_nothing_else():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    named = [
        (getattr(node, "module", None), alias.name, alias.asname)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "*"
    ]
    assert named == [("reductions", "Halted", "DetectorHalted")]
    assert len(set(haltseries.__all__)) == len(haltseries.__all__)
    public = [
        name
        for name, value in vars(haltseries).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert sorted(haltseries.__all__) == sorted(public)
