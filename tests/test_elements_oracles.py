"""Maps, sections and types at their keys against the category of elements.

``type_maps``, ``terms_of`` and ``all_types_over`` enumerate at the keys
``(I, g)`` of the context's elements.  The ``_ref_*`` functions below are
their earlier versions, kept as a differential oracle: they build the
category of elements, name each key ``"I#g"``, enumerate natural maps or
presheaves there and parse every result back.  The earlier bodies of
``hom_maps`` and ``all_presheaves`` come with them, so the reference
shares no enumeration code with what it checks beyond
``enumerate_families``.  ``matching_families`` is checked against its
hand-built version, and ``is_display`` and ``straighten`` against the
versions that scan the source once per target element.

Every pair must give the same results in the same order: on every
shipped model, at bounds 1 and 2, and with the counit domains of
``coalgebra_types_over`` and the commuting rules of the maps between
structured types.
"""

from itertools import product as iproduct

import pytest

from boxsem.cli import load_model
from boxsem.coalg import (_commuting_rules, _counit_domains, _halves, coalgebra_types_over,
                          enumerate_coalgebras)
from boxsem.fincat import Site, all_sieves
from boxsem.natmodel import (NaturalModel, TermOverContext, TypeMap, TypeOverContext,
                             all_presheaves, all_types_over, comprehension, hs_universe,
                             is_display, straighten, terms_of, type_maps)
from boxsem.presheaf import (Presheaf, PresheafMap, category_of_elements,
                             enumerate_families, hom_maps, matching_families,
                             terminal_presheaf)
from boxsem.standard import discrete_two_site, sierpinski_site

MODELS = ["one", "two", "chain3", "sierpinski", "disc2", "arrow"]
WITH_COMONAD = ["one", "two", "chain3", "disc2", "arrow"]


# ---------------------------------------------------------------------------
# Reference enumerations through the category of elements


def _ref_hom_maps(p, q, domains=None, rules=()):
    c = p.base
    slots = [(o, x) for o in c.objects for x in p.elements(o)]
    index = {s: k for k, s in enumerate(slots)}
    doms = [range(q.sizes[o]) for (o, _) in slots]
    for s, dom in (domains or {}).items():
        doms[index[s]] = dom
    checks = [(index[s], index[t], table) for (s, t, table) in rules]
    for f in c.morphisms:
        if c.is_identity(f):
            continue
        i, j = c.src[f], c.dst[f]
        for x in p.elements(j):
            checks.append((index[(j, x)], index[(i, p.act(f, x))], q.action[f]))
    out = []
    for fam in enumerate_families(len(slots), doms, checks):
        comp = {o: tuple(fam[index[(o, x)]] for x in p.elements(o))
                for o in c.objects}
        out.append(PresheafMap(p, q, comp))
    return out


def _ref_all_presheaves(c, bound):
    objs = list(c.objects)
    non_id = [m for m in c.morphisms if not c.is_identity(m)]
    out = []
    for sizes_t in iproduct(range(bound + 1), repeat=len(objs)):
        sizes = dict(zip(objs, sizes_t))
        choices = []
        feasible = True
        for m in non_id:
            dom, cod = sizes[c.dst[m]], sizes[c.src[m]]
            tables = list(iproduct(range(cod), repeat=dom))
            if not tables:
                feasible = False
                break
            choices.append(tables)
        if not feasible:
            continue
        for combo in iproduct(*choices):
            action = dict(zip(non_id, combo))
            for o in objs:
                action[c.id(o)] = tuple(range(sizes[o]))
            p = Presheaf(c, sizes, action)
            if not p.validate():
                out.append(p)
    return out


def _split(name):
    o, x = name.rsplit("#", 1)
    return o, int(x)


def _to_elements(a, el):
    gamma, c = a.context, a.context.base
    sizes = {f"{i}#{g}": a.fiber[(i, g)] for i in c.objects for g in gamma.elements(i)}
    action = {f"{f}#{g}": a.restriction[(f, g)]
              for f in c.morphisms for g in gamma.elements(c.dst[f])}
    return Presheaf(el.cat, sizes, action)


def _from_elements(p, gamma):
    c = gamma.base
    fiber = {(i, g): p.sizes[f"{i}#{g}"] for i in c.objects for g in gamma.elements(i)}
    restriction = {(f, g): p.action[f"{f}#{g}"]
                   for f in c.morphisms for g in gamma.elements(c.dst[f])}
    return TypeOverContext(gamma, fiber, restriction)


def _ref_type_maps(a, b, domains=None, rules=()):
    el = category_of_elements(a.context)

    def slot(key):
        (obj, g), x = key
        return f"{obj}#{g}", x

    out = []
    for m in _ref_hom_maps(_to_elements(a, el), _to_elements(b, el),
                           {slot(k): dom for k, dom in (domains or {}).items()},
                           [(slot(s), slot(t), table) for (s, t, table) in rules]):
        out.append(TypeMap(a, b, {_split(o): m.component[o] for o in el.cat.objects}))
    return out


def _ref_terms_of(a):
    el = category_of_elements(a.context)
    return [TermOverContext(a, {_split(o): m.component[o][0] for o in el.cat.objects})
            for m in _ref_hom_maps(terminal_presheaf(el.cat), _to_elements(a, el))]


def _ref_all_types_over(gamma, bound):
    el = category_of_elements(gamma)
    return [_from_elements(p, gamma) for p in _ref_all_presheaves(el.cat, bound)]


def _ref_matching_families(site, p, obj, sieve):
    c = site.cat
    members = sorted(sieve)
    index = {m: k for k, m in enumerate(members)}
    domains = [range(p.sizes[c.src[m]]) for m in members]
    rules = []
    for m in members:
        for g in c.morphisms:
            if c.dst[g] != c.src[m] or c.is_identity(g):
                continue
            rules.append((index[m], index[c.compose(m, g)], p.action[g]))
    return [{m: fam[index[m]] for m in members}
            for fam in enumerate_families(len(members), domains, rules)]


def _fibers_of(m, obj, y):
    return tuple(x for x in m.source.elements(obj) if m.component[obj][x] == y)


def _ref_is_display(m, bound):
    return all(len(_fibers_of(m, o, y)) <= bound
               for o in m.source.base.objects for y in m.target.elements(o))


def _ref_straighten(m):
    gamma, e = m.target, m.source
    c = gamma.base
    lists = {(i, g): _fibers_of(m, i, g) for i in c.objects for g in gamma.elements(i)}
    pos = {k: {x: n for n, x in enumerate(v)} for k, v in lists.items()}
    fiber = {k: len(v) for k, v in lists.items()}
    restriction = {}
    for f in c.morphisms:
        i, j = c.src[f], c.dst[f]
        for g in gamma.elements(j):
            g2 = gamma.act(f, g)
            restriction[(f, g)] = tuple(pos[(i, g2)][e.act(f, x)] for x in lists[(j, g)])
    a = TypeOverContext(gamma, fiber, restriction)
    ca = comprehension(a)
    comp = {}
    for i in c.objects:
        vals = []
        for v in range(ca.presheaf.sizes[i]):
            g, x = ca.decode(i, v)
            vals.append(lists[(i, g)][x])
        comp[i] = tuple(vals)
    return a, PresheafMap(ca.presheaf, e, comp)


# ---------------------------------------------------------------------------
# Inputs


def _contexts(cat):
    """Ten contexts of bound 2 with one to four elements in all, spread
    evenly over their enumeration."""
    small = [g for g in all_presheaves(cat, 2) if 0 < sum(g.sizes.values()) <= 4]
    return small[::max(1, len(small) // 10)][:10]


@pytest.fixture(scope="module", params=MODELS)
def category(request):
    return load_model(request.param).category


# ---------------------------------------------------------------------------
# Tests


def test_hom_maps_and_presheaves_match_the_oracle(category):
    for bound in (1, 2):
        ps = all_presheaves(category, bound)
        assert ps == _ref_all_presheaves(category, bound)
    small = [p for p in ps if sum(p.sizes.values()) <= 3][:12]
    for p in small:
        for q in small:
            assert hom_maps(p, q) == _ref_hom_maps(p, q)


@pytest.mark.parametrize("bound", [1, 2])
def test_types_sections_and_maps_match_the_oracle(category, bound):
    model = NaturalModel(category, bound)
    sections = maps = 0
    for gamma in _contexts(category):
        types = all_types_over(model, gamma, bound)
        assert types == _ref_all_types_over(gamma, bound)
        for a in types:
            got = terms_of(a)
            assert got == _ref_terms_of(a)
            sections += len(got)
        sample = types[::max(1, len(types) // 6)]
        for a in sample:
            for b in sample:
                got = type_maps(a, b)
                assert got == _ref_type_maps(a, b)
                maps += len(got)
    assert sections and maps


@pytest.mark.parametrize("name", WITH_COMONAD)
def test_counit_domains_and_commuting_rules_match_the_oracle(name):
    w = load_model(name).comonad
    structures = 0
    small = [cg for cg in enumerate_coalgebras(w, 2) if sum(cg.carrier.sizes.values()) <= 2]
    for cg in small[:6]:
        for a in all_types_over(w.model, cg.carrier, 2)[:12]:
            ba = w.bbox_type(cg, a)
            domains = _counit_domains(w.fiber_counit(cg, a).component, a.fiber)
            got = type_maps(a, ba, domains=domains)
            assert got == _ref_type_maps(a, ba, domains)
            structures += len(got)
        types = coalgebra_types_over(w, cg, 2)[:6]
        for x in types:
            for y in types:
                rules = _commuting_rules(_halves(w, x), _halves(w, y))
                assert type_maps(x.type, y.type, rules=rules) == \
                    _ref_type_maps(x.type, y.type, rules=rules)
    assert structures


def test_display_and_straightening_match_the_oracle(category):
    sources = [e for e in all_presheaves(category, 2) if sum(e.sizes.values()) <= 4][:16]
    for gamma in _contexts(category):
        for e in sources:
            for m in hom_maps(e, gamma):
                for bound in (-1, 0, 1, 2):
                    assert is_display(m, bound) == _ref_is_display(m, bound)
                assert straighten(m) == _ref_straighten(m)


def test_matching_families_match_the_oracle(category):
    site = Site(category, {})
    for p in [p for p in all_presheaves(category, 2) if sum(p.sizes.values()) <= 4][:12]:
        for obj in category.objects:
            for sieve in all_sieves(category, obj):
                assert matching_families(site, p, obj, sieve) == \
                    _ref_matching_families(site, p, obj, sieve)


def test_matching_families_on_the_shipped_sites():
    two_site = discrete_two_site()
    cases = [(two_site, hs_universe(NaturalModel(two_site.cat, 1)).presheaf)]
    site = sierpinski_site()
    cases += [(site, p) for p in all_presheaves(site.cat, 2)]
    for site, p in cases:
        for obj in site.cat.objects:
            for sieve in site.covering(obj):
                assert matching_families(site, p, obj, sieve) == \
                    _ref_matching_families(site, p, obj, sieve)
