"""Every call site the benchmark tracer wraps still exists in the package.

A refactor that moves or renames a traced call would otherwise show up only
as a non-zero ``trace.missing_sites`` in a traced benchmark run. And every
import a module keeps unused (``# noqa: F401``) names such a site, so an
import kept for a site that is gone fails here. The tracer module is
imported as it is, without running or changing the benchmark.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = str(ROOT / "perfbench")
SRC = ROOT / "src"

sys.path.insert(0, PERFBENCH)
try:
    import tracer
finally:
    sys.path.remove(PERFBENCH)

SITES = sorted({site for sites, _ in tracer.LAYERS.values() for site in sites})


@pytest.mark.parametrize("site", SITES)
def test_site_resolves(site):
    owner, attr = tracer.resolve(site)
    assert callable(getattr(owner, attr))


def kept_imports(source: str, module: str) -> list[str]:
    """The ``module:name`` of every import on a ``# noqa: F401`` line."""
    lines = source.splitlines()
    return [
        f"{module}:{alias.asname or alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]


def test_checker_finds_kept_imports():
    source = "import os  # noqa: F401\nimport sys\nfrom a import (\n    b,\n    c,  # noqa: F401\n)\n"
    assert kept_imports(source, "m") == ["m:os", "m:c"]


KEPT = sorted(
    site
    for path in (SRC / "rlaod").rglob("*.py")
    for site in kept_imports(
        path.read_text(), ".".join(path.relative_to(SRC).with_suffix("").parts)
    )
)


@pytest.mark.parametrize("site", KEPT)
def test_kept_import_is_a_site(site):
    # An import is kept unused only for a tracer site; it goes with the site.
    assert site in SITES
