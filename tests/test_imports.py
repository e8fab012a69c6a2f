"""Every module-level import in the package, the tests and the demos is read.

A deletion that leaves its import behind fails here.  No linter is a
dependency of the project, so the guard walks each module's syntax tree
with the standard library's ast: a name bound by a top-level import must
appear as a name somewhere in the same module.  The package root is
exempt, since its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for d in ("src/hkflow", "tests", "demos")
    for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import json\nimport numpy as np\nfrom os import path, sep\nnp.zeros(sep)\n") == [
        (1, "json"),
        (3, "path"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
