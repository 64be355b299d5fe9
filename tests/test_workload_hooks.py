"""The benchmark's workloads call library functions by module and name.

`perfbench/workloads.py` imports discweights modules and reads functions
off them at call time (`averaging.extend_continuous`, ...), so a renamed
or deleted function fails only when the benchmark runs.  This test reads
that file's source, nothing more, and checks that every such name
resolves.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def library_names(tree):
    """(module, name) for every name the source reads off a discweights
    module, or imports from one."""
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("discweights"):
            for alias in node.names:
                if node.module == "discweights":
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((f"discweights.{modules[node.value.id]}", node.attr))
    return sorted(set(names))


def test_every_workload_name_resolves():
    names = library_names(ast.parse(WORKLOADS.read_text(), str(WORKLOADS)))
    assert len(names) >= 10
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
