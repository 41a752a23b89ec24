"""No module of `podd` imports a name at module level that it never uses,
and none defines a top-level name that nothing reads.

The repository has no linter, so this parses each module with `ast`,
the package's `__init__.py` too.  A read counts only from the code the CLI, the tools and the benchmark run: a
name that only the tests read belongs in the tests.
"""
import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import podd

MODULES = sorted(Path(podd.__file__).parent.glob("*.py"))
# where a read of a name of `podd` counts
CODE_DIRS = ("src", "tools", "perfbench")
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


def code_reads(root):
    """The reads in every Python file under `root`'s CODE_DIRS."""
    return sum((reads(ast.parse(p.read_text()))
                for d in CODE_DIRS for p in sorted((root / d).rglob("*.py"))),
               Counter())


@cache
def repo_reads():
    return code_reads(ROOT)


def test_guard_flags_an_unused_name(tmp_path):
    source = ("LIMIT = 3\nWIDTH: int = 4\nclass Gone: pass\n"
              "def dead(): return dead()\ndef used(): return WIDTH\n"
              "def oracle(): return 0\n")
    files = {"src/podd/mod.py": source,
             "tools/tool.py": "used()\nprint(cfg.LIMIT)\n",
             "tests/test_mod.py": "assert oracle() == 0\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # a name only the tests read is as dead as one nothing reads
    assert dead_names(source, code_reads(tmp_path)) == {"Gone", "dead",
                                                        "oracle"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_top_level_names(path):
    dead = dead_names(path.read_text(), repo_reads())
    assert not dead, f"{path.name} defines but nothing reads {sorted(dead)}"
