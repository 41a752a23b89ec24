"""No module of `podd` imports a name at module level that it never uses,
and none defines a top-level name that nothing reads.

The repository has no linter, so this parses each module with `ast`.  The
package's `__init__.py` is skipped: its imports are the public names.
"""
import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import podd

MODULES = sorted(p for p in Path(podd.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
# where a name of `podd` may be read
CODE_DIRS = ("src", "tests", "tools", "perfbench")
ROOT = Path(__file__).resolve().parents[1]


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


def top_level_names(tree):
    """Each function, class and constant a module defines at top level,
    mapped to the statement that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                out.update((n.id, node) for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    return out


def reads(tree):
    """How often each name is read in `tree`, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def dead_names(source, all_reads):
    """The top-level names `source` defines that `all_reads` (which counts
    the reads in `source` too) reads nowhere outside their own definition."""
    return {name for name, node in top_level_names(ast.parse(source)).items()
            if all_reads[name] <= reads(node)[name]}


@cache
def repo_reads():
    return sum((reads(ast.parse(p.read_text()))
                for d in CODE_DIRS for p in sorted((ROOT / d).rglob("*.py"))),
               Counter())


def test_guard_flags_an_unused_name():
    source = ("LIMIT = 3\nWIDTH: int = 4\nclass Gone: pass\n"
              "def dead(): return dead()\ndef used(): return WIDTH\n")
    caller = "used()\nprint(cfg.LIMIT)\n"
    all_reads = reads(ast.parse(source)) + reads(ast.parse(caller))
    assert dead_names(source, all_reads) == {"Gone", "dead"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_top_level_names(path):
    dead = dead_names(path.read_text(), repo_reads())
    assert not dead, f"{path.name} defines but nothing reads {sorted(dead)}"
