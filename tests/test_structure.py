"""Structural checks on the source tree itself."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "padicgeom")


def _python_files():
    for top in ("src", "demos", "perfbench", "tests"):
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def _texts():
    """The lines of every Python file in src, demos, perfbench and tests,
    but the package's ``__init__.py``: its re-export is not a use."""
    texts = {}
    for path in _python_files():
        if path != os.path.join(PACKAGE, "__init__.py"):
            with open(path, encoding="utf-8") as fh:
                texts[path] = fh.read().splitlines()
    return texts


def _library_trees(texts):
    for path in sorted(texts):
        if os.path.dirname(path) == PACKAGE:
            yield path, ast.parse("\n".join(texts[path]))


def _used(texts, path, node, pattern):
    """Whether ``pattern`` matches a line outside node's own body."""
    own = range(node.lineno - 1 - len(node.decorator_list), node.end_lineno)
    return any(pattern.search(line)
               for other, lines in texts.items()
               for k, line in enumerate(lines)
               if not (other == path and k in own))


def test_every_module_level_name_has_a_caller():
    """Every module-level def or class of the library is named somewhere
    outside its own body, in src, demos, perfbench or tests; the package's
    re-export in ``__init__.py`` does not count as a use."""
    texts = _texts()
    unused = []
    for path, tree in _library_trees(texts):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _used(texts, path, node, re.compile(rf"\b{node.name}\b")):
                unused.append(f"{os.path.basename(path)}:{node.name}")
    assert unused == []


def test_every_method_and_property_has_a_caller():
    """Every method of a module-level library class is called as
    ``.name(`` and every property is read as ``.name`` somewhere outside its
    own body, in src, demos, perfbench or tests.  The bare word is not
    enough: a method ``series`` must not hide behind ``doc.series``.
    Dunder methods, which Python itself calls, are exempt."""
    texts = _texts()
    unused = []
    for path, tree in _library_trees(texts):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or (
                        node.name.startswith("__") and node.name.endswith("__")):
                    continue
                prop = any(isinstance(d, ast.Name) and d.id == "property"
                           for d in node.decorator_list)
                pattern = re.compile(rf"\.{node.name}\b" if prop else rf"\.{node.name}\(")
                if not _used(texts, path, node, pattern):
                    unused.append(f"{os.path.basename(path)}:{cls.name}.{node.name}")
    assert unused == []


def test_every_field_is_read():
    """Every annotated field of a library ``Value`` class is read as
    ``.name`` somewhere outside its own class body, in src, demos,
    perfbench or tests: a field that is stored and never read is dead
    state, and it still takes part in every ``==`` and ``hash``."""
    texts = _texts()
    unread = []
    for path, tree in _library_trees(texts):
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and any(isinstance(b, ast.Name) and b.id == "Value"
                            for b in cls.bases)):
                continue
            for node in cls.body:
                if not (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    continue
                name = node.target.id
                if not _used(texts, path, cls, re.compile(rf"\.{name}\b")):
                    unread.append(f"{os.path.basename(path)}:{cls.name}.{name}")
    assert unread == []
