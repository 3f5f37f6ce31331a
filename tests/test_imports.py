"""Every import in the package, the tests and the benchmark scripts is used.

No linter runs on the tree, so this reads each module's syntax tree: a name
an import binds must appear somewhere else in the module, as a name or as
the root of an attribute chain.  Imports from __future__ and the package's
__init__ modules, whose imports are its re-exports, are not judged.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/arcconn", "tests", "benchmarks")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and nothing else reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d\nprint(sys.path)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_verify_imports_no_private_name_from_connectivity():
    """Every restricted-cut question is answered in connectivity, so verify
    reads it through public names only."""
    tree = ast.parse((ROOT / "src/arcconn/verify.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "connectivity"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
