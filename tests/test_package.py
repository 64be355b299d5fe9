"""Every name a module exports through `__all__` exists in it, and the lab
reads it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import discweights

MODULES = sorted(m.name for m in pkgutil.iter_modules(discweights.__path__))

REPO = Path(__file__).resolve().parents[1]
LAB_SOURCES = sorted((REPO / "src" / "discweights").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))

# exported names that nothing in the lab reads, kept on purpose
KEPT = {
    "s_norm_bound": "one-tree face of the S norm bound the series runs on (factorization._s_norms)",
    "ancestor_max": "one-tree face of the ancestor cascade of weights._TreeWork",
    "containing_level": "exact level of a boundary distance; its tests are those of _ratio_level",
    "restriction_certificate": "continuous restriction certificate, kept for its rewrite on the integer region algebra",
}


def _reads(path):
    """Names a source file reads: loaded names (an import alias counts as
    the imported name), attributes, and the parts of dotted-name strings
    such as perfbench's layer table.  Neither `__all__` nor a top-level
    definition's own body counts as a read of that definition's name."""
    tree = ast.parse(path.read_text())
    aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names if a.asname}
    reads = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
            continue
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [aliases.get(node.id, node.id)]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = node.value.split(".") if node.value.replace(".", "_").isidentifier() else []
            else:
                continue
            reads.update(n for n in names if n != own)
    return reads


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"discweights.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from discweights.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_every_exported_name_has_a_lab_reader():
    reads = set().union(*(_reads(path) for path in LAB_SOURCES))
    exported = {n for name in MODULES
                for n in getattr(importlib.import_module(f"discweights.{name}"), "__all__", [])}
    assert sorted(exported - reads) == sorted(KEPT)
