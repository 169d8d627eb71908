"""Every name a package module, a tools/ script or a test file imports is used in it.

No linter ships with the project's dependencies, so this walks each file's
syntax tree: an imported name that never appears as a name or as the root of
an attribute access is reported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "mleachsim").glob("*.py") if p.name != "__init__.py")
TOOLS = sorted((ROOT / "tools").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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
