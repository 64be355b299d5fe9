"""Every name a module exports through `__all__` exists in it, and the lab
reads it; so does every method and property of the package's classes."""

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

# class members that nothing in the lab reads, kept on purpose
KEPT_MEMBERS = {
    "DiscPoint.z": "perfbench/tracer.py wraps DiscPoint's members through _GEOMETRY_CLASSES; "
                   "goes with the class once the tracer drops it",
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


def _members(tree):
    """(Class.member, definition) for every method and property defined in
    a class of a parsed source file, dunders left out."""
    return [(f"{cls.name}.{fn.name}", fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))]


def _member_reads(tree):
    """(name, node) for every attribute read of a parsed source file and
    every part of a dotted-name string in it (such as perfbench's layer
    table)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.replace(".", "_").isidentifier():
            for part in node.value.split("."):
                yield part, node


def test_every_class_member_has_a_lab_reader():
    """Each method or property of a class in src/ is read in src/ or
    perfbench/ outside its own body.  The match is by name alone, whatever
    object the attribute is read on: GridNode.parent would pass only
    because the tracer reads a `.parent` attribute of its own."""
    trees = {path: ast.parse(path.read_text()) for path in LAB_SOURCES}
    readers = {}
    for tree in trees.values():
        for name, node in _member_reads(tree):
            readers.setdefault(name, set()).add(id(node))
    unread = [qual for path, tree in trees.items() if path.parent.name == "discweights"
              for qual, fn in _members(tree)
              if readers.get(fn.name, set()) <= set(map(id, ast.walk(fn)))]
    assert sorted(unread) == sorted(KEPT_MEMBERS)
