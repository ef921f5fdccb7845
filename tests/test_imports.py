"""Every name a ``boxsem`` module imports is read somewhere in it, and
every public function of the package is called somewhere in it.

Each module is parsed with ``ast``; a name bound by an import counts as
read when it is loaded anywhere in the module, annotations included
(quoted ones are parsed as expressions).  ``__future__`` imports and the
names the package re-exports through ``__all__`` are exempt.  A public
function or method counts as called when its name is loaded, as a name
or an attribute, anywhere in the package outside its own body.
"""

import ast
import re
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


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_imported_name_is_read(module):
    tree = ast.parse((SRC / module).read_text())
    exempt = _exported() if module == "__init__.py" else set()
    assert sorted(_imported(tree) - _read(tree) - exempt) == []


# Public functions and methods that nothing in the package calls, each with
# a file outside it that reads it.  Shrink this list; do not grow it.
UNREAD = {
    "alpha_equal": "tests/test_s4dtt.py",
    "beta_normalize": "tests/test_defeq_oracle.py",
    "category_of_elements": "perfbench/workloads/oracles.py",
    "coalg_exponential": "perfbench/workloads/coalgebras.py",
    "coalg_sigma": "perfbench/workloads/coalgebras.py",
    "compose_functors": "tests/test_fincat.py",
    "equalizer": "tests/test_closure_oracles.py",
    "exponential_up_check": "perfbench/workloads/coalgebras.py",
    "format_module": "tests/test_s4dtt.py",
    "identity_functor": "tests/test_structured_oracles.py",
    "opposite": "tests/test_fincat.py",
    "parse_term": "tests/test_s4dtt.py",
    "pi_up_check": "perfbench/workloads/coalgebras.py",
    "postcompose_functor": "tests/test_fincat.py",
    "redex_count": "tests/test_s4dtt.py",
    "sieve_closure": "tests/test_fincat.py",
    "suite": "tests/test_fincat.py",
    "type_exponential": "tests/test_structured_oracles.py",
    "Derivation.all_rules": "tests/test_s4dtt.py",
    "KanAdjunction.ran_map": "perfbench/spans.py",
    "NaturalModel.terminal": "tests/test_natmodel.py",
    "Presheaf.total": "tests/test_interp.py",
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
    outside their own body, as a name or an attribute, and not exported."""
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
        if name not in _exported() and all(id(n) in own for n in loads.get(name, [])):
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
