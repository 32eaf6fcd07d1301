"""Every module-level import in albert is used by its module, and every
function and class that albert defines is used by albert, the benchmark or
the README."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "albert"


def unused_imports(source):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    source = "import os\nfrom .scalars import QQ, lift\n\nx = lift(QQ, QQ, 1)\n"
    assert unused_imports(source) == [(1, "os")]


def unused_definitions(sources, texts=()):
    """Functions and classes defined in ``sources`` whose name no source
    reads as a ``Name`` or an ``Attribute`` and no text has as a word;
    dunder names are exempt."""
    trees = [ast.parse(source) for source in sources]
    defined, used = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for text in texts:
        used.update(re.findall(r"\w+", text))
    return sorted(n for n in defined - used if not (n.startswith("__") and n.endswith("__")))


def test_no_unused_definitions():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    texts = [p.read_text(encoding="utf-8")
             for p in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "README.md"]]
    assert unused_definitions(sources, texts) == []


def test_detects_unused_definition():
    module = (
        "class A:\n"
        "    def __init__(self):\n        self.x = helper()\n"
        "    def used(self):\n        pass\n"
        "    def only_in_readme(self):\n        pass\n"
        "    def dead(self):\n        pass\n"
        "def helper():\n    return A().used()\n"
        "def orphan():\n    pass\n"
    )
    readme = "Call `A.only_in_readme()` for details."
    assert unused_definitions([module], [readme]) == ["dead", "orphan"]
