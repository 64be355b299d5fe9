"""The benchmark's traced pass looks up library functions by name.

`perfbench/tracer.py` wraps every function and method named in its
`LAYERS` table; a name the library no longer has makes `install()` raise.
This test loads that file as it stands and installs and removes the
wrappers, so dropping or renaming a traced function fails here first.
"""

import types
from pathlib import Path

import discweights.weights as weights

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """Execute the file's source in a fresh module; nothing is written next to it."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_layer_exists():
    module = load_tracer()
    original = weights.subtree_sums
    tracer = module.Tracer()
    try:
        tracer.install()
        assert weights.subtree_sums is not original
        weights.subtree_sums(weights.cell_areas(2), 2)
        assert tracer.layer_totals()["weights.subtree_sums.calls"] == 1
    finally:
        tracer.uninstall()
    assert weights.subtree_sums is original
