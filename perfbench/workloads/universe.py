"""``universe``: the universe of codes and the hom enumeration under it.

Operations call ``natmodel``'s universe checks on the shipped models,
which the other workloads barely touch.  Each starts from a fresh
``NaturalModel``.  The checks cost from 0.2 ms to minutes depending on
model and bound, so the work is split into operations of 10 to 200 ms
on a 2020s x86 core.  One round holds:

* one sweep of ``hs_universe`` and ``classifier_check`` over every
  shipped model at bounds 1 and 2, and over ``one`` and ``disc2`` at
  bound 3 (one such universe costs under 10 ms);
* 3 ``classifier_check`` operations: ``two`` at bound 3, ``chain3`` and
  ``sierpinski`` at bound 2;
* 15 ``typing_check`` operations at bound 2, three on each shipped
  model, over random presheaves with 2 elements in all and 9 types over
  them (81 type pairs), so that their cost does not depend on the seed;
* 6 ``realignment_check`` operations on fixed models and bounds.

Universe sizes and type counts are compared with brute-force counts of
action tables; realignment case counts with ``golden.json``, which
``python3 perfbench/golden.py`` regenerates.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from . import oracles
from .common import Op, no_state

MODELS = ["one", "two", "disc2", "chain3", "sierpinski"]
CLASSIFIERS = [("two", 3), ("chain3", 2), ("sierpinski", 2)]
SWEEP = [(m, k) for m in MODELS for k in (1, 2) if (m, k) not in CLASSIFIERS] \
    + [("one", 3), ("disc2", 3)]
TYPINGS_PER_MODEL = 3
# (model, universe bound, context size bound)
REALIGNMENTS = [("two", 2, 1), ("disc2", 2, 1), ("one", 2, 2), ("chain3", 1, 1),
                ("sierpinski", 1, 1), ("disc2", 3, 1)]
CEILING = 4096

GOLDEN = Path(__file__).resolve().parent.parent / "golden.json"


def realignment_key(model: str, bound: int, size_bound: int) -> str:
    return f"{model}/{bound}/{size_bound}"


def prepare(seed: int) -> list[Op]:
    from boxsem.cli import load_model
    from boxsem.natmodel import (NaturalModel, classifier_check, hs_universe,
                                 realignment_check, typing_check)

    rng = random.Random(seed)
    cats = {m: load_model(m).category for m in MODELS}
    golden = json.loads(GOLDEN.read_text())["realignment_cases"]
    memo = oracles.Memo()

    def sizes_of(u) -> dict:
        return dict(u.presheaf.sizes)

    def expected_sizes(model, k):
        return memo.get(("universe", model, k),
                        lambda: oracles.universe_sizes(cats[model], k))

    def classify(model, k):
        u = hs_universe(NaturalModel(cats[model], k))
        return sizes_of(u), classifier_check(u, k)

    def classified(model, k, got) -> bool:
        return got == (expected_sizes(model, k), {"bijective": True, "natural": True})

    ops = [Op("sweep", "all shipped models", no_state,
              lambda _: [classify(m, k) for m, k in SWEEP],
              lambda got: all(classified(m, k, g) for (m, k), g in zip(SWEEP, got)))]
    ops += [Op("classifier", f"{m} bound {k}", no_state,
               lambda _, m=m, k=k: classify(m, k),
               lambda got, m=m, k=k: classified(m, k, got))
            for m, k in CLASSIFIERS]

    def typing(model, gamma, k) -> Op:
        def run(_):
            return typing_check(NaturalModel(cats[model], k), gamma, k)

        def check(r):
            n = memo.get(("types", model, gamma, k),
                         lambda: oracles.type_count(gamma, k))
            return (r["essential_surjectivity"] and r["fully_faithful"]
                    and r["type_pairs"] == n * n)
        return Op("typing", f"{model} context {dict(gamma.sizes)} bound {k}",
                  no_state, run, check)

    for model in MODELS:
        for _ in range(TYPINGS_PER_MODEL):
            gamma = _random_presheaf(rng, cats[model], 2)
            while memo.get(("types", model, gamma, 2),
                           lambda: oracles.type_count(gamma, 2)) != 9:
                gamma = _random_presheaf(rng, cats[model], 2)
            ops.append(typing(model, gamma, 2))

    def realignment(model, k, s) -> Op:
        def run(_):
            return realignment_check(hs_universe(NaturalModel(cats[model], k)), s,
                                     max_cases=CEILING)
        want = {"ok": True, "cases": golden[realignment_key(model, k, s)],
                "truncated": False}
        return Op("realignment", realignment_key(model, k, s), no_state, run,
                  lambda got: got == want)

    ops += [realignment(*r) for r in REALIGNMENTS]
    return ops


def _random_presheaf(rng, cat, points: int):
    """A presheaf with ``points`` elements in all: random sizes and action
    tables, drawn until functorial."""
    from boxsem.presheaf import Presheaf
    while True:
        cut = sorted(rng.choices(range(points + 1), k=len(cat.objects) - 1))
        sizes = dict(zip(cat.objects, [b - a for a, b in
                                       zip([0] + cut, cut + [points])]))
        action = {m: tuple(range(sizes[cat.src[m]])) if cat.is_identity(m) else
                  tuple(rng.randrange(sizes[cat.src[m]]) if sizes[cat.src[m]] else -1
                        for _ in range(sizes[cat.dst[m]]))
                  for m in cat.morphisms}
        if any(-1 in t for t in action.values()):
            continue
        p = Presheaf(cat, sizes, action)
        if not p.validate():
            return p
