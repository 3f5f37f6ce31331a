"""Every module-level private name in the package is read somewhere.

A simplification that deletes the last caller of a helper can leave the
helper behind.  This reads each package module's syntax tree for the
private names it binds at module level (functions, classes and assigned
names that start with one underscore) and fails when such a name appears,
as a whole word, on no line of src/, tests/, benchmarks/ or perfbench/ but
the one that binds it.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/arcconn").glob("*.py"))
SOURCES = sorted(path for folder in ("src", "tests", "benchmarks", "perfbench") for path in (ROOT / folder).rglob("*.py"))

Line = tuple[str, int]  # (file, line number)


def word_index(texts: dict[str, str]) -> dict[str, set[Line]]:
    """The lines each word (a run of letters, digits and underscores) is on."""
    index: dict[str, set[Line]] = defaultdict(set)
    for name, text in texts.items():
        for k, line in enumerate(text.splitlines(), start=1):
            for word in re.findall(r"\w+", line):
                index[word].add((name, k))
    return index


def private_names(source: str) -> dict[str, int]:
    """The private names a module binds at module level, with their lines."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound = [node.target.id]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def dead_private_names(module: str, source: str, index: dict[str, set[Line]]) -> list[str]:
    """The private names of module that no other line reads."""
    return [
        f"line {line}: {name}"
        for name, line in private_names(source).items()
        if index.get(name, set()) <= {(module, line)}
    ]


@pytest.fixture(scope="module")
def index() -> dict[str, set[Line]]:
    return word_index({str(path.relative_to(ROOT)): path.read_text() for path in SOURCES})


def test_the_check_sees_a_dead_helper():
    module = "_LIMIT = 3\n\n\ndef _used():\n    return _LIMIT\n\n\ndef _dead():\n    pass\n\n\nclass _Gone:\n    pass\n"
    texts = {"pkg.py": module, "test_pkg.py": "from pkg import _used\n"}
    assert dead_private_names("pkg.py", module, word_index(texts)) == ["line 8: _dead", "line 12: _Gone"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_private_name_is_read(path, index):
    module = str(path.relative_to(ROOT))
    assert dead_private_names(module, path.read_text(), index) == []
