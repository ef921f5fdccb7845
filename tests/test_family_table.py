"""``FamilyTable`` against the constructions it replaced.

``_ref_exponential``, ``_ref_ran`` and ``_ref_pi`` are the earlier
implementations of the presheaf exponential (now ``type_exponential``
over the terminal presheaf), ``KanAdjunction.ran`` and ``pi_type``,
kept as a differential oracle: they find every slot and every restricted
family by a linear ``tuple.index`` scan.  On every shipped model the
table versions must give the same slots, the same families in the same
order, and the same restriction tables, for presheaves and types with
carriers up to 2.
"""

import itertools
from pathlib import Path

import pytest

from boxsem.cli import load_model
from boxsem.fincat import discrete_subcategory
from boxsem.natmodel import (NaturalModel, TypeOverContext, all_presheaves, all_types_over,
                             comprehension, pi_type)
from boxsem.presheaf import (FamilyTable, KanAdjunction, enumerate_families,
                             terminal_presheaf)
from test_fincat import identity_functor
from test_structured_oracles import type_exponential

ROOT = Path(__file__).resolve().parent.parent

MODELS = ["one", "two", "chain3", "sierpinski", "disc2"]


# ---------------------------------------------------------------------------
# Reference constructions


def _ref_exponential(p, q):
    c = p.base
    slots, families = {}, {}
    for i in c.objects:
        sl = [(j, f, x) for j in c.objects for f in c.hom(j, i) for x in p.elements(j)]
        index = {s: k for k, s in enumerate(sl)}
        sizes = [q.sizes[j] for (j, _, _) in sl]
        rules = []
        for (j, f, x) in sl:
            for g in c.morphisms:
                if c.dst[g] != j or c.is_identity(g):
                    continue
                k = c.src[g]
                rules.append((index[(j, f, x)],
                              index[(k, c.compose(f, g), p.act(g, x))],
                              q.action[g]))
        slots[i] = tuple(sl)
        families[i] = tuple(enumerate_families(len(sl), [range(n) for n in sizes], rules))
    action = {}
    for h in c.morphisms:
        i2, i = c.src[h], c.dst[h]
        mapped = []
        for fam in families[i]:
            restricted = tuple(fam[slots[i].index((j, c.compose(h, f), x))]
                               for (j, f, x) in slots[i2])
            mapped.append(families[i2].index(restricted))
        action[h] = tuple(mapped)
    return slots, families, action


def _ref_ran(adj, q):
    a, c, u = adj.small, adj.big, adj.u
    slots, families = {}, {}
    for i in c.objects:
        sl = [(j, f) for j in a.objects for f in c.hom(u.obj_map[j], i)]
        index = {s: k for k, s in enumerate(sl)}
        sizes = [q.sizes[j] for (j, _) in sl]
        rules = []
        for (j, f) in sl:
            for d in a.morphisms:
                if a.dst[d] != j or a.is_identity(d):
                    continue
                j2 = a.src[d]
                rules.append((index[(j, f)],
                              index[(j2, c.compose(f, u.mor_map[d]))],
                              q.action[d]))
        slots[i] = tuple(sl)
        families[i] = tuple(enumerate_families(len(sl), [range(n) for n in sizes], rules))
    action = {}
    for g in c.morphisms:
        i2, i = c.src[g], c.dst[g]
        mapped = []
        for fam in families[i]:
            restricted = tuple(fam[slots[i].index((j, c.compose(g, f)))]
                               for (j, f) in slots[i2])
            mapped.append(families[i2].index(restricted))
        action[g] = tuple(mapped)
    return slots, families, action


def _ref_pi(a, b):
    ca = comprehension(a)
    gamma = a.context
    c = gamma.base
    slots, families = {}, {}
    for i in c.objects:
        for g in gamma.elements(i):
            sl = [(j, f, x) for j in c.objects for f in c.hom(j, i)
                  for x in range(a.fiber[(j, gamma.act(f, g))])]
            index = {s: k for k, s in enumerate(sl)}
            sizes = [b.fiber[(j, ca.encode(j, gamma.act(f, g), x))] for (j, f, x) in sl]
            rules = []
            for (j, f, x) in sl:
                gf = gamma.act(f, g)
                for m in c.morphisms:
                    if c.dst[m] != j or c.is_identity(m):
                        continue
                    k = c.src[m]
                    rules.append((index[(j, f, x)],
                                  index[(k, c.compose(f, m), a.restrict(m, gf, x))],
                                  b.restriction[(m, ca.encode(j, gf, x))]))
            slots[(i, g)] = tuple(sl)
            families[(i, g)] = tuple(enumerate_families(len(sl), [range(n) for n in sizes], rules))
    restriction = {}
    for h in c.morphisms:
        i2, i = c.src[h], c.dst[h]
        for g in gamma.elements(i):
            g2 = gamma.act(h, g)
            vals = []
            for fam in families[(i, g)]:
                restricted = tuple(fam[slots[(i, g)].index((j, c.compose(h, f), x))]
                                   for (j, f, x) in slots[(i2, g2)])
                vals.append(families[(i2, g2)].index(restricted))
            restriction[(h, g)] = tuple(vals)
    return slots, families, restriction


# ---------------------------------------------------------------------------
# Helpers


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _tables_agree(tables, slots, families):
    assert set(tables) == set(slots)
    for key, t in tables.items():
        assert t.slots == slots[key]
        assert t.families == families[key]
        assert t.slot_pos == {s: k for k, s in enumerate(slots[key])}
        assert t.family_pos == {f: k for k, f in enumerate(families[key])}


def _over_point(p):
    """``p`` as a type over the terminal presheaf."""
    one = terminal_presheaf(p.base)
    return TypeOverContext(one, {(o, 0): n for o, n in p.sizes.items()},
                           {(f, 0): t for f, t in p.action.items()})


# ---------------------------------------------------------------------------
# Tests


def test_family_table_inverts_its_slots_and_families():
    # fam[1] == swap[fam[0]] over two binary slots
    t = FamilyTable(["a", "b"], [2, 2], [("a", "b", (1, 0))])
    assert t.slots == ("a", "b") and t.families == ((0, 1), (1, 0))
    assert t.select(["b", "a"]) == [1, 0]
    assert t.family_pos[(1, 0)] == 1
    # reading the slots crosswise sends each family to the other one
    assert t.restriction(t, ["b", "a"]) == (1, 0)


@pytest.mark.parametrize("model", MODELS)
def test_exponential_matches_the_scan_construction(model):
    c = load_model(model).category
    ps = all_presheaves(c, 2)
    for p, q in itertools.product(ps, ps):
        e = type_exponential(_over_point(p), _over_point(q))
        slots, families, action = _ref_exponential(p, q)
        _tables_agree({i: e.tables[(i, 0)] for i in c.objects}, slots, families)
        assert {h: e.type.restriction[(h, 0)] for h in c.morphisms} == action
        assert {i: e.type.fiber[(i, 0)] for i in c.objects} == \
            {i: len(families[i]) for i in c.objects}


@pytest.mark.parametrize("model", MODELS)
def test_ran_matches_the_scan_construction(model):
    c = load_model(model).category
    for u in (discrete_subcategory(c)[1], identity_functor(c)):
        adj = KanAdjunction(u)
        for q in all_presheaves(u.source, 2):
            r = adj.ran(q)
            slots, families, action = _ref_ran(adj, q)
            _tables_agree(r.tables, slots, families)
            assert r.presheaf.action == action


@pytest.mark.parametrize("model", MODELS)
def test_pi_type_matches_the_scan_construction(model):
    c = load_model(model).category
    nm = NaturalModel(c, 2)
    contexts = [g for g in all_presheaves(c, 2) if 0 < sum(g.sizes.values()) <= 3]
    checked = 0
    for gamma in contexts[:10]:
        for a in all_types_over(nm, gamma, 2)[:6]:
            ext = comprehension(a).presheaf
            for b in all_types_over(nm, ext, 2)[:6]:
                pi = pi_type(a, b)
                slots, families, restriction = _ref_pi(a, b)
                _tables_agree(pi.tables, slots, families)
                assert pi.type.restriction == restriction
                checked += 1
    assert checked > 0
