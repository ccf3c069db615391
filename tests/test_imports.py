"""Every module of the package uses each name it imports, and every
private top-level name is used somewhere besides its definition.

Moving or deleting code tends to leave imports and helpers behind; these
tests find them with the standard library's ``ast``. Another check keeps
the package from setting the interpreter's int-digit limit: integers
cross to and from text through ``machine``'s helpers at any length
instead. A third keeps it off the private parts of ``fractions``, which
change between Python versions: exact sums reduce with ``Fraction`` and
``//`` alone. A fourth keeps ``dataclasses`` and ``inspect`` out of every
child's start-up: the package's records build on ``machine._Record``.
A fifth keeps one way to render an outcome: only ``series._Report``
defines ``to_text`` and ``to_kv``, and each class built on it gives its
``report_lines``. A sixth keeps one cancel poll: in ``reductions`` only
``run_detector`` names ``cancel``, and the runners take their iterations.
The modules form an import chain, ``machine``, ``coefficients``,
``series``, ``reductions``, in which each imports only the ones before
it; ``__init__.py`` loads them along that chain on first use, and the
last tests hold it to re-exporting each module's ``__all__``, pin that
list, and require each name on it to be read by the tests, the
benchmark or the CLI.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import haltseries

PACKAGE = Path(haltseries.__file__).parent
REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(PACKAGE.glob("*.py"))
#: The import chain: each module may import only the ones before it.
CHAIN = ("machine", "coefficients", "series", "reductions")


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
    sources = [path.read_text() for path in MODULES]
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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_sets_the_int_digit_limit(path):
    assert int_digit_limit_setters(path.read_text()) == []


def private_fraction_reads(source: str) -> list[int]:
    """Lines that read a private attribute of ``fractions`` or ``Fraction``,
    under any alias, by import or through ``getattr``/``hasattr``, or that
    pass ``_normalize=``: a fork on the Python version would hide there."""
    tree = ast.parse(source)
    owners, lines = {"fractions", "Fraction"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            owners.update(alias.asname or alias.name for alias in node.names if alias.name == "fractions")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions" and not node.level:
            owners.update(alias.asname or alias.name for alias in node.names)
            if any(_private(alias.name) for alias in node.names):
                lines.add(node.lineno)
    for node in ast.walk(tree):
        owner = attr = None
        if isinstance(node, ast.Attribute):
            owner, attr = node.value, node.attr
        elif isinstance(node, ast.Call) and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            owner, attr = node.args[0], node.args[1].value
        elif isinstance(node, ast.keyword) and node.arg == "_normalize":
            lines.add(node.lineno)
        while isinstance(owner, ast.Attribute):
            owner = owner.value
        if isinstance(owner, ast.Name) and owner.id in owners and isinstance(attr, str) and _private(attr):
            lines.add(node.lineno)
    return sorted(lines)


def test_private_fraction_reads_are_found():
    source = (
        "from fractions import Fraction\nFraction._from_coprime_ints(1, 2)\n"
        "Fraction(1, 2, _normalize=False)\nimport fractions as f\nf.Fraction._from_coprime_ints\n"
        "hasattr(Fraction, '_from_coprime_ints')\nfrom fractions import _gcd\n"
        "from fractions import Fraction as F\nF._numerator\n"
        "Fraction.__eq__\nFraction.limit_denominator\nother._from_coprime_ints\n"
        "getattr(other, '_x')\nFraction(1, 2).numerator\n"
    )
    assert private_fraction_reads(source) == [2, 3, 5, 6, 7, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reads_private_parts_of_fraction(path):
    assert private_fraction_reads(path.read_text()) == []


#: Modules that cost a child start-up more than the package uses them for.
SLOW_IMPORTS = {"dataclasses", "inspect"}


def slow_imports(source: str) -> list[int]:
    """Lines that import a module of ``SLOW_IMPORTS`` (or a name from it),
    at module level or inside a function, or spell one as a string, so
    ``importlib`` or ``__import__`` cannot hide the import."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            spelled = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            spelled = [node.module]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            spelled = [node.value]
        else:
            continue
        if any(name.split(".")[0] in SLOW_IMPORTS for name in spelled):
            lines.add(node.lineno)
    return sorted(lines)


def test_slow_imports_are_found():
    source = (
        "import dataclasses\nfrom inspect import signature\nimport os, inspect as i\n"
        "def f():\n    from dataclasses import dataclass\n    import importlib\n"
        "    importlib.import_module('inspect')\nfrom .dataclasses import x\n"
        "'no dataclasses here'\nimport dataclasses_json\n"
    )
    assert slow_imports(source) == [1, 2, 3, 5, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses_or_inspect(path):
    assert slow_imports(path.read_text()) == []


#: The renderers that only ``series._Report`` defines.
RENDERERS = ("to_text", "to_kv")


def report_renderers(source: str) -> tuple[list[str], dict[str, bool]]:
    """Where ``source`` defines or assigns a name of ``RENDERERS``, as a
    dotted scope, and for each class built directly on ``_Report`` whether
    its body defines ``report_lines``."""
    renderers, outcomes = [], {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            spelled = [getattr(child, key, None) for key in ("name", "attr", "id")]
            stored = isinstance(getattr(child, "ctx", None), ast.Store)
            if isinstance(child, ast.FunctionDef) or stored:
                renderers.extend(".".join(scope + (name,)) for name in RENDERERS if name in spelled)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                if "_Report" in [getattr(base, "id", None) for base in getattr(child, "bases", ())]:
                    body = [getattr(item, "name", None) for item in child.body]
                    outcomes[child.name] = "report_lines" in body
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(source), ())
    return renderers, outcomes


def test_report_renderers_are_found():
    source = (
        "class _Report:\n    def to_text(self): pass\n"
        "class A(_Report):\n    def report_lines(self, kv): pass\n"
        "class B(_Report, _Record):\n    def to_kv(self): pass\n"
        "class C(A):\n    to_text = A.to_text\n"
        "def to_kv(report): pass\n"
        "def patch(cls):\n    cls.to_text = None\n"
    )
    assert report_renderers(source) == (
        ["_Report.to_text", "B.to_kv", "C.to_text", "to_kv", "patch.to_text"],
        {"A": True, "B": False},
    )


def test_only_the_report_base_renders_and_each_outcome_gives_its_lines():
    # One renderer: the outcomes give report_lines, and per-format pairs stay gone.
    from haltseries.series import _Report

    renderers, outcomes = [], {}
    for path in MODULES:
        found, built = report_renderers(path.read_text())
        renderers += [f"{path.stem}.{name}" for name in found]
        outcomes.update(built)
    assert sorted(renderers) == ["series._Report.to_kv", "series._Report.to_text"]
    assert outcomes == dict.fromkeys(["SeriesProbeReport", "DetectorHalted", "StillRunning"], True)
    # The walk sees every subclass: none is built on an alias of _Report.
    assert outcomes.keys() == {cls.__name__ for cls in _Report.__subclasses__()}


def cancel_namers(source: str) -> list[str]:
    """Each top-level definition of ``source`` (its line, for any other
    statement) that names ``cancel`` anywhere inside: as a variable, an
    argument, a keyword or an attribute."""
    namers = []
    for statement in ast.parse(source).body:
        for node in ast.walk(statement):
            spelled = [getattr(node, key, None) for key in ("id", "arg", "attr")]
            if "cancel" in spelled:
                namers.append(getattr(statement, "name", statement.lineno))
                break
    return namers


def test_cancel_namers_are_found():
    source = (
        "def run_detector(budget, cancel=None):\n    return lambda _: not cancel()\n"
        "def _run(stream, iterations):\n    for n in iterations: pass\n"
        "def _poll(job):\n    return job.cancel()\n"
        "class Runner:\n    def run(self, hook): return go(cancel=hook)\n"
        "cancel = None\n'cancel'\n"
    )
    assert cancel_namers(source) == ["run_detector", "_poll", "Runner", 9]


def test_only_run_detector_polls_cancel():
    # The runners take the iterations to run; one place turns the hook into them.
    assert cancel_namers((PACKAGE / "reductions.py").read_text()) == ["run_detector"]


def package_imports(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` for each import of a module of the package, at
    module level or inside a function, relative or absolute. The package
    itself is ``""``: what it loads depends on the name read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.append((node.lineno, (node.module or "").split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "haltseries":
            found.append((node.lineno, node.module.partition(".")[2].split(".")[0]))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[2].split(".")[0])
                      for alias in node.names if alias.name.split(".")[0] == "haltseries"]
    return sorted(found)


def chain_breaks(module: str, source: str) -> list[tuple[int, str]]:
    """The imports in ``module``'s ``source`` of anything but a module
    before it in ``CHAIN``."""
    earlier = CHAIN[: CHAIN.index(module)]
    return [(line, name) for line, name in package_imports(source) if name not in earlier]


def test_chain_breaks_are_found():
    source = (
        "from .machine import Inc\nfrom .series import partial_sum\n"
        "def late():\n    from .reductions import run_detector\n    from . import format_rational\n"
        "import haltseries.machine\nimport haltseries.cli as cli\nfrom haltseries import Inc\n"
        "from haltseries.coefficients import format_rational\nimport fractions\n"
    )
    assert chain_breaks("coefficients", source) == [
        (2, "series"), (4, "reductions"), (5, ""), (7, "cli"), (8, ""), (9, "coefficients")]
    assert chain_breaks("series", source) == [
        (2, "series"), (4, "reductions"), (5, ""), (7, "cli"), (8, "")]
    assert chain_breaks("machine", "import math\n") == []


@pytest.mark.parametrize("module", CHAIN)
def test_module_imports_only_modules_before_it_in_the_chain(module):
    assert chain_breaks(module, (PACKAGE / f"{module}.py").read_text()) == []


def test_chain_holds_every_module_and_is_the_lookup_order():
    # cli and __init__ may import any module; every other module sits in the chain.
    assert sorted(CHAIN) == sorted(p.stem for p in MODULES if p.stem not in ("__init__", "cli"))
    assert haltseries._CHAIN == CHAIN


def test_package_reexports_each_modules_all_and_nothing_else():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not any(alias.name == "*" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names)
    # No import, name, string or table in __init__.py spells a public name.
    spelled = {
        getattr(node, key)
        for node in ast.walk(tree)
        for key in ("id", "attr", "name", "asname", "arg", "value")
        if isinstance(getattr(node, key, None), str)
    }
    assert spelled & set(haltseries.__all__) == set()
    modules = [importlib.import_module(f"haltseries.{name}") for name in CHAIN]
    joined = [name for module in modules for name in module.__all__]
    assert haltseries.__all__ == joined
    assert len(set(haltseries.__all__)) == len(haltseries.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(haltseries, name) is getattr(module, name), name
    public = {
        name
        for name in dir(haltseries)
        if not name.startswith("_") and not isinstance(getattr(haltseries, name), ModuleType)
    }
    assert public == set(haltseries.__all__)
    with pytest.raises(AttributeError, match="no attribute 'Halted'"):
        haltseries.Halted
    with pytest.raises(AttributeError):
        haltseries.no_such_name


PUBLIC = [
    "Inc", "DecJz", "Halt", "MachineProgram", "HaltedAt", "RunningAfter", "MachineParseError",
    "GodelDecodeError", "parse_program", "pretty_program", "run_bounded", "halted_by",
    "encode_godel", "decode_godel",
    "CoefficientStream", "HaltingEncoded", "ExplicitStream", "builtin_stream",
    "parse_series_spec", "parse_rational", "format_rational", "approx_decimal",
    "EvaluationPoint", "RateFunction", "ExpTailRate", "LinearRate", "TabulatedRate",
    "RateUndefinedError", "parse_rate_spec", "WitnessedDivergence", "WitnessedBoundViolation",
    "ConsistentUpToBudget", "SeriesProbeReport", "partial_sum", "prefix_sums",
    "effective_partial_sum", "ratio_test_probe", "root_estimate", "check_effective_criterion",
    "check_modulus",
    "CauchyWindowKnobs", "DetectorProgram", "ThresholdCertificate", "WindowFailure",
    "CauchyWindowCertificate", "DetectorHalted", "StillRunning", "forward_reduce",
    "semidecide_halting_via_series", "build_threshold_detector", "build_cauchy_window_detector",
    "build_cauchy_window_heuristic", "run_detector", "recheck_certificate",
]


def test_public_surface_is_the_pinned_list():
    assert haltseries.__all__ == PUBLIC


def read_names(source: str) -> set[str]:
    """The names, attribute names and imported names (and their aliases)
    that ``source`` spells in code; string constants do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def test_read_names_are_found():
    source = (
        "from haltseries import Inc as I, Halt\nimport haltseries.machine\n"
        "haltseries.run_bounded(x)\nNAMES = ['decode_godel']\ndef encode_godel(): pass\n"
    )
    assert read_names(source) == {"Inc", "I", "Halt", "haltseries.machine", "haltseries",
                                  "run_bounded", "x", "NAMES"}


def test_every_public_name_is_read_outside_the_package():
    sources = [*sorted((REPO / "tests").glob("*.py")), *sorted((REPO / "bench").glob("*.py")),
               PACKAGE / "cli.py"]
    read = set().union(*(read_names(path.read_text()) for path in sources))
    assert [name for name in haltseries.__all__ if name not in read] == []
