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


def test_every_module_level_name_has_a_caller():
    """Every module-level def or class of the library is named somewhere
    outside its own body, in src, demos, perfbench or tests; the package's
    re-export in ``__init__.py`` does not count as a use."""
    texts = {}
    for path in _python_files():
        if path != os.path.join(PACKAGE, "__init__.py"):
            with open(path, encoding="utf-8") as fh:
                texts[path] = fh.read().splitlines()
    unused = []
    for path in sorted(texts):
        if os.path.dirname(path) != PACKAGE:
            continue
        tree = ast.parse("\n".join(texts[path]))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno - 1 - len(node.decorator_list), node.end_lineno)
            if not any(word.search(line)
                       for other, lines in texts.items()
                       for k, line in enumerate(lines)
                       if not (other == path and k in own)):
                unused.append(f"{os.path.basename(path)}:{node.name}")
    assert unused == []
