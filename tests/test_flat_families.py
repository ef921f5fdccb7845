"""The flat enumerator of natural maps against the maps built from it.

``_flat_maps`` returns the families of ``enumerate_families`` as they
are, slot ``(k, x)`` at position ``ends[n] + x`` for ``k`` the ``n``-th
key.  Cut at ``ends``, its families must be the components of
``hom_maps`` and ``type_maps``, in the same order, and both must be the
component tuples that a brute-force pass over every tuple of slot values
keeps: natural, inside the slot domains and obeying the slot rules, in
lexicographic order.  Inputs are random presheaves on ``two``, ``chain3``
and ``sierpinski`` with carriers up to 2, and random types over small
contexts on them, with and without narrowed domains and random rules.
"""

from functools import lru_cache
from itertools import product as iproduct

from hypothesis import given, settings
from hypothesis import strategies as st

from boxsem.cli import load_model
from boxsem.natmodel import NaturalModel, all_presheaves, all_types_over, type_maps
from boxsem.presheaf import _flat_maps, hom_maps

MODELS = ["two", "chain3", "sierpinski"]


@lru_cache(maxsize=None)
def _presheaves(name):
    return all_presheaves(load_model(name).category, 2)


@lru_cache(maxsize=None)
def _types(name):
    """Types with fibers up to 2 over the contexts of at most 2 elements."""
    cat = load_model(name).category
    model = NaturalModel(cat, 2)
    return [all_types_over(model, g, 2) for g in all_presheaves(cat, 1)
            if 0 < sum(g.sizes.values()) <= 2]


def _layout(src, tgt):
    """Keys, slots, source and target sizes, and the arrows of the shape."""
    _, shape, sizes, tables = src._tables()
    tgt_sizes, tgt_tables = tgt._tables()[2:]
    slots = [(k, x) for k in shape.keys for x in range(sizes[k])]
    return shape, slots, sizes, tables, tgt_sizes, tgt_tables


def _narrowing(data, src, tgt):
    """Random slot domains and slot rules, or none of either."""
    shape, slots, _, _, tgt_sizes, _ = _layout(src, tgt)
    domains = {}
    if slots and data.draw(st.booleans(), "narrow"):
        for s in data.draw(st.lists(st.sampled_from(slots), max_size=3, unique=True)):
            n = tgt_sizes[s[0]]
            domains[s] = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
    rules = []
    if len(slots) > 1 and data.draw(st.booleans(), "rules"):
        for _ in range(data.draw(st.integers(1, 2))):
            s, t = data.draw(st.lists(st.sampled_from(slots), min_size=2, max_size=2,
                                      unique=True))
            ns, nt = tgt_sizes[s[0]], tgt_sizes[t[0]]
            if nt == 0:
                continue
            rules.append((s, t, tuple(data.draw(st.integers(0, nt - 1)) for _ in range(ns))))
    return domains or None, rules


def _brute_force(src, tgt, domains, rules):
    """Every component tuple, lexicographically, kept when natural and
    inside the domains and rules, as a flat tuple."""
    shape, slots, _, tables, tgt_sizes, tgt_tables = _layout(src, tgt)
    pos = {s: n for n, s in enumerate(slots)}
    doms = [(domains or {}).get(s, range(tgt_sizes[s[0]])) for s in slots]
    out = []
    for fam in iproduct(*doms):
        natural = all(fam[pos[(src_k, y)]] == tgt_tables[name][fam[pos[(dst_k, x)]]]
                      for name, dst_k, src_k in shape.proper
                      for x, y in enumerate(tables[name]))
        if natural and all(fam[pos[t]] == tb[fam[pos[s]]] for s, t, tb in rules):
            out.append(fam)
    return out


def _check(src, tgt, domains, rules, built):
    shape, slots = _layout(src, tgt)[:2]
    ends, families = _flat_maps(src, tgt, domains, rules)
    assert ends[-1] == len(slots)
    assert all(slots[ends[n] + x] == (k, x)
               for n, k in enumerate(shape.keys) for x in range(ends[n + 1] - ends[n]))
    assert families == _brute_force(src, tgt, domains, rules)
    cut = [{k: fam[a:b] for k, a, b in zip(shape.keys, ends, ends[1:])} for fam in families]
    assert cut == [m.component for m in built]


@given(st.sampled_from(MODELS), st.data())
@settings(max_examples=150, deadline=None)
def test_flat_presheaf_maps_cut_into_hom_maps(name, data):
    ps = _presheaves(name)
    p, q = data.draw(st.sampled_from(ps), "p"), data.draw(st.sampled_from(ps), "q")
    domains, rules = _narrowing(data, p, q)
    _check(p, q, domains, rules, hom_maps(p, q, domains, rules))


@given(st.sampled_from(MODELS), st.data())
@settings(max_examples=150, deadline=None)
def test_flat_type_maps_cut_into_type_maps(name, data):
    types = data.draw(st.sampled_from(_types(name)), "context")
    a, b = data.draw(st.sampled_from(types), "a"), data.draw(st.sampled_from(types), "b")
    domains, rules = _narrowing(data, a, b)
    _check(a, b, domains, rules, type_maps(a, b, domains, rules))
