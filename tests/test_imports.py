"""Every name a ``boxsem`` module imports is read somewhere in it, every
public function of the package is called somewhere in it, and importing
a module loads only the modules it needs.

Each module is parsed with ``ast``; a name bound by an import counts as
read when it is loaded anywhere in the module, annotations included
(quoted ones are parsed as expressions).  ``__future__`` imports are
exempt.  A public function or method counts as called when its name is
loaded, as a name or an attribute, anywhere in the package outside its
own body.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "boxsem"


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    trees = [tree]
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                trees.append(ast.parse(c.value, mode="eval"))
    return {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_imported_name_is_read(module):
    tree = ast.parse((SRC / module).read_text())
    assert sorted(_imported(tree) - _read(tree)) == []


# Public functions and methods that nothing in the package calls, each with
# a file outside it that reads it.  Shrink this list; do not grow it.
UNREAD = {
    "category_of_elements": "perfbench/workloads/oracles.py",
    "coalg_exponential": "perfbench/workloads/coalgebras.py",
    "coalg_sigma": "perfbench/workloads/coalgebras.py",
    "exponential_up_check": "perfbench/workloads/coalgebras.py",
    "pi_up_check": "perfbench/workloads/coalgebras.py",
    "KanAdjunction.ran_map": "perfbench/spans.py",
}


def _public_defs(trees: list[ast.Module]):
    """``(qualified name, bare name, node)`` for each public top-level
    function and each public method of a top-level class."""
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, node.name, node
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield f"{node.name}.{m.name}", m.name, m


def _unread() -> set[str]:
    """Public definitions whose name is loaded nowhere in the package
    outside their own body, as a name or an attribute."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    loads: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loads.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                loads.setdefault(n.attr, []).append(n)
    out = set()
    for qual, name, node in _public_defs(trees):
        own = {id(c) for c in ast.walk(node)}
        if all(id(n) in own for n in loads.get(name, [])):
            out.add(qual)
    return out


def test_every_public_function_is_read():
    """A public function or method of ``boxsem`` is called somewhere in the
    package, or listed in ``UNREAD`` with a file that reads it; a listed
    name that is gone, or read after all, leaves the list."""
    unread = _unread()
    assert sorted(unread - set(UNREAD)) == []
    assert sorted(set(UNREAD) - unread) == []
    root = SRC.parent.parent
    for qual, reader in UNREAD.items():
        assert re.search(rf"\b{qual.split('.')[-1]}\b", (root / reader).read_text()), qual


def test_importing_the_kernel_loads_no_other_module():
    """The package root imports nothing, so ``boxsem.s4dtt`` comes alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, boxsem.s4dtt; "
            "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'boxsem'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["boxsem", "boxsem.s4dtt"]
