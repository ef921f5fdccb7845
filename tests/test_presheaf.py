"""Presheaf calculus: Yoneda, limits, exponentials, Omega, Kan, sheaves.

Exponentials of presheaves are exponentials of types over the terminal
presheaf (``type_exponential``)."""

import itertools

import pytest

from boxsem.fincat import Functor
from boxsem.presheaf import (
    KanAdjunction,
    Presheaf,
    PresheafMap,
    amalgamations,
    category_of_elements,
    characteristic_map,
    compose_maps,
    hom_maps,
    identity_map,
    iso_maps,
    matching_families,
    product,
    pullback,
    sheaf_check,
    sub_presheaf,
    subobject_classifier,
    subobject_of_char,
    subpresheaves,
    terminal_presheaf,
    yoneda,
    yoneda_index,
    yoneda_map,
)
from boxsem.natmodel import TypeOverContext, all_presheaves, type_maps, type_product
from boxsem.standard import sierpinski_site, walking_arrow
from test_fincat import discrete
from test_structured_oracles import exp_ev, exp_transpose, type_exponential, type_tuple_map


@pytest.fixture(scope="module")
def two():
    return walking_arrow()


@pytest.fixture(scope="module")
def flagship(two):
    # two points downstairs, three upstairs, one point in the overlap
    return Presheaf(two, {"0": 2, "1": 3}, {
        "id_0": (0, 1), "id_1": (0, 1, 2), "0->1": (0, 0, 1),
    }).assert_valid()


def test_yoneda_presheaves_validate(two):
    for i in two.objects:
        assert yoneda(two, i).validate() == []


def test_yoneda_lemma_exhaustively(two, flagship):
    # maps y(I) -> P correspond to elements of P(I), by evaluation at id
    for i in two.objects:
        y = yoneda(two, i)
        maps = hom_maps(y, flagship)
        assert len(maps) == flagship.sizes[i]
        slot = yoneda_index(two, i, two.id(i))
        vals = sorted(m.component[i][slot] for m in maps)
        assert vals == list(flagship.elements(i))


def test_yoneda_map_is_naturality_square(two):
    ym = yoneda_map(two, "0->1")
    assert ym.validate() == []
    assert ym.source == yoneda(two, "0")
    assert ym.target == yoneda(two, "1")


def test_category_of_elements_counts(two, flagship):
    el = category_of_elements(flagship)
    assert len(el.cat.objects) == sum(flagship.sizes.values())
    assert el.cat.validate() == []


def test_terminal_presheaf_is_terminal(two, flagship):
    t = terminal_presheaf(two)
    assert len(hom_maps(flagship, t)) == 1


def test_product_projections_and_pairing(two, flagship):
    q = yoneda(two, "1")
    pr = product(flagship, q)
    assert pr.presheaf.validate() == []
    # universal property: pairs of maps out of a test object factor once
    r = yoneda(two, "0")
    pairs = [(f, g) for f in hom_maps(r, flagship) for g in hom_maps(r, q)]
    arrows = hom_maps(r, pr.presheaf)
    factored = set()
    for f, g in pairs:
        h = pr.tuple_map(f, g)
        assert h in arrows
        assert compose_maps(pr.fst, h) == f
        assert compose_maps(pr.snd, h) == g
        factored.add(h)
    assert len(factored) == len(pairs)


def test_pullback_square_commutes_and_is_universal(two, flagship):
    q = yoneda(two, "1")
    f = hom_maps(q, flagship)[0]
    g = hom_maps(q, flagship)[-1]
    sq = pullback(f, g)
    assert compose_maps(f, sq.to_left) == compose_maps(g, sq.to_right)
    # every commuting cone from yoneda objects factors uniquely
    for i in two.objects:
        y = yoneda(two, i)
        cones = [(a, b) for a in hom_maps(y, q) for b in hom_maps(y, q)
                 if compose_maps(f, a) == compose_maps(g, b)]
        mediating = hom_maps(y, sq.presheaf)
        hits = [h for h in mediating
                if (compose_maps(sq.to_left, h), compose_maps(sq.to_right, h)) in cones]
        assert len(cones) == len(hits) == len(set(hits))


def test_hom_maps_domains_and_rules_filter_in_order(two, flagship):
    """Narrowed enumeration is the full one filtered, in the same order."""
    full = hom_maps(flagship, flagship)
    domains = {("1", 0): [1, 2], ("0", 1): [0]}
    rules = [(("1", 1), ("1", 2), (2, 1, 0))]   # m(1, 2) == 2 - m(1, 1)

    def keep(m):
        return (m.component["1"][0] in (1, 2) and m.component["0"][1] == 0
                and m.component["1"][2] == 2 - m.component["1"][1])
    got = hom_maps(flagship, flagship, domains, rules)
    assert got == [m for m in full if keep(m)]
    assert 0 < len(got) < len(full)


def test_equalizer_equalizes_and_is_maximal(two, flagship):
    maps = hom_maps(flagship, flagship)
    f, g = maps[0], maps[-1]
    agree = {o: frozenset(x for x in flagship.elements(o)
                          if f.component[o][x] == g.component[o][x])
             for o in two.objects}
    e, inc = sub_presheaf(flagship, agree)
    assert compose_maps(f, inc) == compose_maps(g, inc)
    for o in two.objects:
        assert e.sizes[o] == len(agree[o])


def _over_point(p):
    """``p`` as a type over the terminal presheaf."""
    one = terminal_presheaf(p.base)
    return TypeOverContext(one, {(o, 0): n for o, n in p.sizes.items()},
                           {(f, 0): t for f, t in p.action.items()})


def test_exponential_curry_ev_round_trip(two):
    p = q = r = _over_point(yoneda(two, "1"))
    e = type_exponential(p, q)
    assert e.type.validate() == []
    pr_ep = type_product(e.type, p)
    ev = exp_ev(e, pr_ep, q)
    assert ev.validate() == []
    rp = type_product(r, p)
    maps = type_maps(rp.type, q)
    for m in maps:
        h = exp_transpose(e, rp, m)
        # ev after (h x id) recovers m
        hx = type_tuple_map(pr_ep, compose_maps(h, rp.fst), rp.snd)
        assert compose_maps(ev, hx) == m
    # and distinct maps curry apart
    assert len({exp_transpose(e, rp, m) for m in maps}) == len(maps)


def test_omega_sizes_are_sieve_counts(two):
    om = subobject_classifier(two)
    assert om.presheaf.sizes == {"0": 2, "1": 3}
    assert om.presheaf.validate() == []


def test_characteristic_maps_classify_all_subpresheaves(two, flagship):
    om = subobject_classifier(two)
    subs = subpresheaves(flagship)
    seen = set()
    for sel in subs:
        chi = characteristic_map(om, flagship, sel)
        back = subobject_of_char(om, chi)
        assert back == {o: frozenset(sel[o]) for o in two.objects}
        seen.add(chi)
    assert len(seen) == len(subs)
    # and every map into Omega arises this way
    assert len(hom_maps(flagship, om.presheaf)) == len(subs)


def test_kan_triangle_identities():
    small = discrete(2)
    big = walking_arrow()
    u = Functor("incl", small, big, {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1"})
    adj = KanAdjunction(u)
    for p in all_presheaves(big, 2):
        rp = adj.restrict(p)
        t1 = compose_maps(adj.counit(rp), adj.restrict_map(adj.unit(p)))
        assert t1 == identity_map(rp)
    for q in all_presheaves(small, 2):
        rq = adj.ran(q).presheaf
        t2 = compose_maps(adj.ran_map(adj.counit(q)), adj.unit(rq))
        assert t2 == identity_map(rq)


def test_kan_hom_transposition_is_a_bijection():
    small = discrete(2)
    big = walking_arrow()
    u = Functor("incl", small, big, {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1"})
    adj = KanAdjunction(u)
    for p in all_presheaves(big, 1):
        for q in all_presheaves(small, 1):
            down = hom_maps(adj.restrict(p), q)
            up = hom_maps(p, adj.ran(q).presheaf)
            assert len(down) == len(up)
            for h in down:
                k = compose_maps(adj.ran_map(h), adj.unit(p))
                assert k in up
                back = compose_maps(adj.counit(q), adj.restrict_map(k))
                assert back == h


def _is_sheaf_by_hand(site, p):
    """Unique-amalgamation check written directly from the definition,
    with families enumerated by brute force rather than shared code."""
    c = site.cat
    for obj in c.objects:
        for sieve in site.covering(obj):
            members = sorted(sieve)
            ranges = [range(p.sizes[c.src[m]]) for m in members]
            for choice in itertools.product(*ranges):
                fam = dict(zip(members, choice))
                compatible = True
                for m in members:
                    for g in c.morphisms:
                        if c.dst[g] != c.src[m]:
                            continue
                        if p.act(g, fam[m]) != fam[c.compose(m, g)]:
                            compatible = False
                            break
                    if not compatible:
                        break
                if not compatible:
                    continue
                glue = [x for x in p.elements(obj)
                        if all(p.act(m, x) == fam[m] for m in members)]
                if len(glue) != 1:
                    return False
    return True


def test_sheaf_check_agrees_with_direct_definition():
    site = sierpinski_site()
    verdicts = []
    for p in all_presheaves(site.cat, 2):
        want = _is_sheaf_by_hand(site, p)
        got = sheaf_check(site, p).is_sheaf
        assert got == want, p.sizes
        verdicts.append(got)
    assert sum(verdicts) == 11


def test_uniqueness_failure_is_reported_with_its_family():
    site = sierpinski_site()
    # the empty open carries the empty cover, so two sections over it
    # amalgamate the empty family twice over
    p = Presheaf(site.cat, {"Oempty": 2, "Oo": 1, "Oco": 1}, {
        "id_Oempty": (0, 1), "id_Oo": (0,), "id_Oco": (0,),
        "Oempty->Oo": (0,), "Oempty->Oco": (0,), "Oo->Oco": (0,),
    }).assert_valid()
    rep = sheaf_check(site, p)
    assert not rep.is_sheaf
    fails = rep.uniqueness_failures()
    assert fails and len(fails[0]["amalgamations"]) == 2
    assert fails[0]["object"] == "Oempty"


def test_matching_families_and_amalgamations_by_hand():
    site = sierpinski_site()
    p = terminal_presheaf(site.cat)
    for obj in site.cat.objects:
        for sieve in site.covering(obj):
            fams = matching_families(site, p, obj, sieve)
            assert len(fams) == 1
            assert amalgamations(p, obj, fams[0]) == [0]


def test_iso_maps_are_closed_under_inverse(two, flagship):
    isos = iso_maps(flagship, flagship)
    assert isos
    for m in isos:
        assert any(compose_maps(m, n) == identity_map(flagship) for n in isos)
