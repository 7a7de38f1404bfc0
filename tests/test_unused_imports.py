"""Every name a package module imports is used in that module, and every
import is a statement of the module body, not of a function or class.

Package ``__init__`` modules re-export names and are skipped. A name kept
on purpose (a call site only an outside tool wraps) carries ``# noqa: F401``
on its own line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rlaod"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names the source never reads, except lines marked noqa: F401."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def nested_imports(source: str) -> list[int]:
    """Line numbers of the imports that are not statements of the module body."""
    tree = ast.parse(source)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from a import (\n"
        "    b,\n"
        "    c,  # noqa: F401\n"
        "    d as e,\n"
        ")\n"
        "from f import G\n"
        "def run(x: G) -> None:\n"
        "    return os.path\n"
    )
    assert unused_imports(source) == ["b", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_nested_imports():
    source = (
        "import os\n"
        "from a import b\n"
        "def run():\n"
        "    from c import d\n"
        "    return d\n"
        "class K:\n"
        "    import e\n"
        "if os:\n"
        "    import f\n"
    )
    assert nested_imports(source) == [4, 7, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_imports_at_top_level(path):
    assert nested_imports(path.read_text()) == []
