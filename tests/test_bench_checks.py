"""The benchmark's output checks read the library's result objects.

`perfbench/checks.py` reads fields of what `extend_continuous` returns
(constants, artifacts, extensions, factorizations), so a change to those
objects would otherwise fail only when the benchmark runs.  This test
loads that file as it stands, writing nothing next to it, and runs its
continuous checks on small pipelines of every bundled region.
"""

import types
from pathlib import Path

import pytest

from discweights.averaging import extend_continuous
from discweights.fixtures import CONTINUOUS_FIXTURES, continuous_fixture

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    """Execute the file's source in a fresh module."""
    module = types.ModuleType("perfbench_checks")
    module.__file__ = str(CHECKS)
    exec(compile(CHECKS.read_text(), str(CHECKS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
def test_continuous_checks_pass(checks, name, p):
    w, region = continuous_fixture(name)
    res = extend_continuous(w, p, 2.0, region, depth=4, theta_count=8)
    assert checks.continuous_problems(name, res, p) == []
