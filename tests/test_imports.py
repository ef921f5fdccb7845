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


# what loading a model and reporting on its universe read
BASE = ["boxsem", "boxsem.cli", "boxsem.fincat", "boxsem.natmodel", "boxsem.presheaf",
        "boxsem.standard"]


def _loaded_after(*steps: str) -> list[list[str]]:
    """Run ``steps`` in order in a fresh interpreter at the repository
    root; the ``boxsem`` modules loaded after each step."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    show = ("print('loaded:', *sorted(n for n in sys.modules "
            "if n.split('.')[0] == 'boxsem'))")
    code = "\n".join(["import sys", *(f"{step}\n{show}" for step in steps)])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=SRC.parent.parent, timeout=120)
    assert run.returncode == 0, run.stderr
    return [line.split()[1:] for line in run.stdout.splitlines()
            if line.startswith("loaded:")]


def test_importing_the_kernel_loads_no_other_module():
    """The package root imports nothing, so ``boxsem.s4dtt`` comes alone."""
    assert _loaded_after("import boxsem.s4dtt") == [["boxsem", "boxsem.s4dtt"]]


def test_importing_the_cli_loads_only_the_base_topos():
    """Model loading and the universe report need no comonad, interpreter
    or kernel, so ``boxsem.cli`` imports none of them."""
    assert _loaded_after("import boxsem.cli") == [BASE]


def test_a_model_builds_its_comonad_on_first_read():
    imported, loaded, read = _loaded_after(
        "from boxsem.cli import load_model", "bundle = load_model('two')",
        "bundle.comonad")
    assert imported == loaded == BASE
    assert read == sorted(BASE + ["boxsem.coalg"])


@pytest.mark.parametrize("argv,added", [
    (["model", "universe", "two"], []),
    (["model", "laws", "sierpinski"], []),
    (["check", "corpus/t4.s4"], ["boxsem.s4dtt"]),
], ids=["universe", "laws-without-a-comonad", "check"])
def test_a_command_loads_only_the_layers_it_runs(argv, added):
    _, ran = _loaded_after("from boxsem.cli import main",
                           f"assert main({argv!r}) == 0")
    assert ran == sorted(BASE + added)
