"""Every name a package module, a tools/ script or a test file imports is used
in it, and every symbol the package defines is used outside the tests.

No linter ships with the project's dependencies, so this walks each file's
syntax tree: an imported name that never appears as a name or as the root of
an attribute access is reported, and so is a function, class or method of the
package that no package module, tools/ script or perfbench/ file refers to by
a name, an attribute, an imported name or an identifier string.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mleachsim").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TOOLS = sorted((ROOT / "tools").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_checker_flags_an_unused_import():
    source = "import math\nimport os\nfrom a import b, c as d\nprint(os.sep, d)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: b"]


@pytest.mark.parametrize("path", MODULES + TOOLS + TESTS, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of every function, class and method, dunders aside."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def references(source: str) -> set[str]:
    """Every name, attribute, imported name and identifier string in source."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def test_checker_flags_a_symbol_nothing_refers_to():
    source = (
        "def f():\n    return A().used()\n\n"
        "class A:\n    def __init__(self):\n        pass\n\n"
        "    def used(self):\n        pass\n\n"
        "    def spare(self):\n        pass\n\n"
        'EXPORTS = ["f"]\n'
    )
    used = references(source)
    assert [(line, name) for line, name in definitions(source) if name not in used] == [
        (11, "spare")
    ]


def test_every_package_symbol_is_used_outside_the_tests():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE + TOOLS + PERFBENCH]
    used = set().union(*map(references, sources))
    unused = [
        f"{p.name}:{line} {name}"
        for p in PACKAGE
        for line, name in definitions(p.read_text(encoding="utf-8"))
        if name not in used
    ]
    assert unused == []
