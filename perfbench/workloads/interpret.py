"""``interpret``: the interpreter driving the coalgebra constructions.

Each operation builds a fresh ``SemanticTarget`` on a freshly loaded
comonad model and runs ``soundness_harness`` on one module, which
exercises ``bbox_type``, ``coalg_extension``, ``tp_data`` and
comprehension without enumerating structures.  One round holds:

* ``corpus/t4.s4`` in ``two``;
* generated modules: 4 in ``two`` (13 directives of modal depth 1 or 2),
  8 in each of ``one`` and ``disc2`` (34 directives of depth 0 to 2), and
  4 in ``chain3`` (2 directives of depth 1).  With these counts the
  median falls in the middle of the ``one`` and ``disc2`` modules and the
  90th percentile among the ``two`` modules.  Every module of a model holds
  each shape of its depths the same number of times, and a round deals
  every depth-1 shape once to the ``chain3`` modules.

Modal depth counts the modal binders in scope: modal hypotheses plus
``let box`` binders.  On ``chain3`` depth 2 does not finish within 40 s,
so those shapes stay out until that is mended.  Module sizes are chosen
so that every operation costs 30 to 100 ms on a 2020s x86 core.

Modules are parsed and checked during set-up; an operation is the
target's construction plus the harness, as in ``boxsem interpret``.
"""

from __future__ import annotations

import random
from pathlib import Path

from .common import Op

HEADER = "type A;\ntype B;\nconst a0 : A;\nconst b0 : B;\n"
BASES = ("A", "B")
CONSTANT = {"A": "a0", "B": "b0"}

# Directive shapes by modal depth.  ``{T}`` and ``{S}`` are base types,
# ``{c}`` is the constant of ``{T}``, the rest are variable names.
SHAPES = {
    0: [
        "check | {x} : {T} |- {x} : {T};",
        "check |- box({c}) : Box {T};",
        "check | {y} : Box {T} |- {y} : Box {T};",
        "check | {x} : {S}, {y} : Box {T} |- {x} : {S};",
    ],
    1: [
        "check {u} :: {T} |- {u} : {T};",
        "check {u} :: {T} | {x} : {S} |- {x} : {S};",
        "check {u} :: {T} |- box({u}) : Box {T};",
        "check {u} :: {T} |- box(box({u})) : Box Box {T};",
        "check | {y} : Box {T} |- let box {u} := {y} in {u} : {T};",
        "check | {y} : Box {T} |- let box {u} := {y} in box(box({u})) : Box Box {T};",
        "equal |- let box {v} := box({c}) in box({v}) == box({c}) : Box {T};",
        "equal | {y} : Box {T} |- let box {u} := {y} in box({u}) == {y} : Box {T};",
    ],
    2: [
        "check {u} :: {T}, {v} :: {S} |- box({v}) : Box {S};",
        "equal {u} :: {T} |- let box {v} := box({u}) in {v} == {u} : {T};",
        "check | {y} : Box Box {T} |- let box {v} := {y} in let box {u} := {v} "
        "in {u} : {T};",
        "equal {u} :: {T} |- let box {v} := box({u}) in box(box({v})) == "
        "box(box({u})) : Box Box {T};",
        "equal | {y} : Box {T} |- let box {u} := {y} in let box {w} := box({u}) "
        "in box({w}) == {y} : Box {T};",
    ],
}

# (model, modal depths, modules per round, copies of each shape per
# module).  Every module of a model holds the same shapes, so module costs
# do not depend on the seed; the seed orders them and names the variables.
TARGETS = [
    ("two", (1, 2), 4, 1),
    ("one", (0, 1, 2), 8, 2),
    ("disc2", (0, 1, 2), 8, 2),
]
# On chain3 a module holds two directives of depth 1; a round deals every
# depth-1 shape once, in pairs.
CHAIN3_MODULE = 2

NAMES = ["p", "q", "r", "s", "t", "z", "m", "n"]


def _directive(rng, shape: str, n: int) -> str:
    """A directive of ``shape`` whose variables end in ``n``: no two
    directives of a module share a context, so none is served from the
    target's context cache and a module's cost does not depend on how the
    seed named its variables."""
    t, s = rng.choice(BASES), rng.choice(BASES)
    u, v, w, x, y = (f"{name}{n}" for name in rng.sample(NAMES, 5))
    return shape.format(T=t, S=s, c=CONSTANT[t], u=u, v=v, w=w, x=x, y=y)


def generate(seed: int) -> list[tuple[str, str, str]]:
    """One round of inputs: ``(model, label, source)`` triples."""
    rng = random.Random(seed)
    out = []
    modules = []
    for model, depths, count, copies in TARGETS:
        for i in range(count):
            shapes = [s for d in depths for s in SHAPES[d]] * copies
            rng.shuffle(shapes)
            modules.append((model, f"#{i}", shapes))
    pool = list(SHAPES[1])
    rng.shuffle(pool)
    for i in range(0, len(pool), CHAIN3_MODULE):
        modules.append(("chain3", f"#{i // CHAIN3_MODULE}", pool[i:i + CHAIN3_MODULE]))
    for model, label, shapes in modules:
        lines = [_directive(rng, shape, n) for n, shape in enumerate(shapes)]
        out.append((model, label, HEADER + "\n".join(lines) + "\n"))
    return out


def sound(report: dict, directives: int) -> bool:
    """The soundness properties every interpretation must have."""
    entries = report["directives"]
    ok = report["ok"] and report["near_misses"] == 0 and len(entries) == directives
    for e in entries:
        ok = ok and e["defined"] and e["context_ok"]
        if e["kind"] == "check":
            ok = ok and e["section_ok"] and e["typing_ok"]
        else:
            ok = ok and e["semantic_equal"]
    return ok


def prepare(seed: int) -> list[Op]:
    from boxsem.cli import load_model
    from boxsem.interp import SemanticTarget, soundness_harness
    from boxsem.s4dtt import check_module, parse

    corpus = Path("corpus/t4.s4").read_text()
    inputs = [("two", "corpus/t4.s4", corpus)] + generate(seed)
    for model, *_ in TARGETS:
        load_model(model)

    def op(model: str, label: str, text: str) -> Op:
        mod = parse(text)
        check_module(mod)
        n = len(mod.directives)
        return Op(f"harness-{model}", label,
                  lambda: load_model(model).comonad,
                  lambda w: soundness_harness(SemanticTarget(w, name=model), mod),
                  lambda report: sound(report, n))

    return [op(*item) for item in inputs]
