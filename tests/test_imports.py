"""No module of `podd` imports a name at module level that it never uses.

The repository has no linter, so this parses each module with `ast`.  The
package's `__init__.py` is skipped: its imports are the public names.
"""
import ast
from pathlib import Path

import pytest

import podd

MODULES = sorted(p for p in Path(podd.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") \
        == {"os", "tau"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"
