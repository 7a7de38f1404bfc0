"""Every call site the benchmark tracer wraps still exists in the package.

A refactor that moves or renames a traced call would otherwise show up only
as a non-zero ``trace.missing_sites`` in a traced benchmark run. The tracer
module is imported as it is, without running or changing the benchmark.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

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
