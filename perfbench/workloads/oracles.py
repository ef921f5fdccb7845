"""Independent computations the workloads check verdicts against.

Each is a different algorithm from the one under test: brute force over
raw action tables instead of the library's enumerators, a lazy
enumerator that draws structure maps from counit preimages instead of
generate-and-test, and a closed formula for cofree carriers.  They run
after an operation's timer stops and are memoized per run, since rounds
repeat the same inputs.
"""

from __future__ import annotations

import itertools
import math


class Memo:
    """Memoizes oracle answers for one run, keyed by their inputs."""

    def __init__(self) -> None:
        self._answers: dict = {}

    def get(self, key, compute):
        if key not in self._answers:
            self._answers[key] = compute()
        return self._answers[key]


def presheaf_tables(cat, bound: int) -> int:
    """Presheaves on ``cat`` with carriers of size at most ``bound``,
    counted by trying every action table and checking functoriality by
    raw loops over the composition table."""
    objs = list(cat.objects)
    non_id = [m for m in cat.morphisms if not cat.is_identity(m)]
    count = 0
    for sizes_t in itertools.product(range(bound + 1), repeat=len(objs)):
        sz = dict(zip(objs, sizes_t))
        per_mor = []
        for m in non_id:
            per_mor.append(list(itertools.product(range(sz[cat.src[m]]),
                                                  repeat=sz[cat.dst[m]])))
        for combo in itertools.product(*per_mor):
            act = dict(zip(non_id, combo))
            for o in objs:
                act[cat.id(o)] = tuple(range(sz[o]))
            count += all(
                tuple(act[f][act[g][z]] for z in range(sz[cat.dst[g]]))
                == act[cat.compose(g, f)]
                for g in cat.morphisms for f in cat.morphisms
                if cat.dst[f] == cat.src[g])
    return count


def universe_sizes(cat, bound: int) -> dict[str, int]:
    """Codes at ``I`` are presheaves on the slice over ``I``."""
    from boxsem.fincat import slice_category
    return {i: presheaf_tables(slice_category(cat, i).cat, bound)
            for i in cat.objects}


def type_count(gamma, bound: int) -> int:
    """Types over ``gamma`` are presheaves on its category of elements."""
    from boxsem.presheaf import category_of_elements
    return presheaf_tables(category_of_elements(gamma).cat, bound)


def structured_types(w, over, bound: int) -> list[tuple]:
    """Structured types over a coalgebra as ``(type, theta)`` pairs,
    assembled point by point from counit preimages."""
    from boxsem.coalg import CoalgebraType, coalgebra_type_laws
    from boxsem.natmodel import TypeMap, all_types_over
    out = []
    for a in all_types_over(w.model, over.carrier, bound):
        ba = w.bbox_type(over, a)
        eps = w.fiber_counit(over, a)
        keys = sorted(a.fiber)
        pools = []
        for k in keys:
            per_x = [[v for v in range(ba.fiber[k]) if eps.component[k][v] == x]
                     for x in range(a.fiber[k])]
            pools.append(list(itertools.product(*per_x)) if per_x else [()])
        for choice in itertools.product(*pools):
            th = TypeMap(a, ba, {k: tuple(v) for k, v in zip(keys, choice)})
            if not coalgebra_type_laws(w, CoalgebraType(over, a, th)):
                out.append((a, th))
    return out


def cofree_sizes(w, sizes: dict[str, int]) -> dict[str, int]:
    """Carrier of the cofree coalgebra over a points comonad:
    ``box(P)(x)`` is the product of ``P(j)`` over morphisms ``j -> x``."""
    u = w.adj.u
    big = w.adj.big
    return {x: math.prod(sizes[j] for j in u.source.objects
                         for _ in big.hom(u.obj_map[j], u.obj_map[x]))
            for x in u.source.objects}
