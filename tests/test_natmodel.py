"""Dependent types over presheaf contexts and the slice-functor universe."""

import gc
import itertools
import weakref

import pytest

from boxsem.natmodel import (
    ModelError,
    NaturalModel,
    TypeMap,
    all_presheaves,
    apply_type_map,
    classifier_check,
    comprehension,
    hs_universe,
    identity_type_map,
    is_display,
    pi_type,
    realignment_check,
    sigma_type,
    straighten,
    subst_term,
    subst_type,
    terms_of,
    type_maps,
    typing_check,
)
from boxsem.presheaf import (
    Presheaf,
    PresheafError,
    PresheafMap,
    compose_maps,
    constant_presheaf,
    hom_maps,
    identity_map,
    iso_maps,
    terminal_presheaf,
    yoneda,
)
from boxsem.standard import walking_arrow
from test_fincat import terminal_category
from test_structured_oracles import type_terminal


@pytest.fixture(scope="module")
def two():
    return walking_arrow()


@pytest.fixture(scope="module")
def gamma(two):
    return yoneda(two, "1")


@pytest.fixture(scope="module")
def a_type(gamma):
    # a two-then-one staircase over the representable context
    fiber = {("1", 0): 2, ("0", 0): 1}
    restriction = {("id_1", 0): (0, 1), ("id_0", 0): (0,), ("0->1", 0): (0, 0)}
    return _mk(gamma, fiber, restriction)


def _mk(gamma, fiber, restriction):
    from boxsem.natmodel import TypeOverContext
    a = TypeOverContext(gamma, fiber, restriction)
    assert a.validate() == []
    return a


def test_comprehension_projection_and_generic_term(gamma, a_type):
    ca = comprehension(a_type)
    assert ca.presheaf.validate() == []
    assert ca.p.validate() == []
    assert ca.v.validate() == []
    # the generic term picks out each fiber element exactly once
    for i in gamma.base.objects:
        for v in ca.presheaf.elements(i):
            g, x = ca.decode(i, v)
            assert ca.encode(i, g, x) == v
            assert ca.v.pick[(i, v)] == x


def test_comprehension_sizes_sum_the_fibers(gamma, a_type):
    ca = comprehension(a_type)
    for i in gamma.base.objects:
        want = sum(a_type.fiber[(i, g)] for g in gamma.elements(i))
        assert ca.presheaf.sizes[i] == want


def test_subst_along_identity_is_identity(gamma, a_type):
    assert subst_type(a_type, identity_map(gamma)) == a_type
    for t in terms_of(a_type):
        assert subst_term(t, identity_map(gamma)) == t


def test_subst_is_functorial(two, gamma, a_type):
    y0 = yoneda(two, "0")
    for s in hom_maps(y0, gamma):
        for r in hom_maps(y0, y0):
            lhs = subst_type(subst_type(a_type, s), r)
            rhs = subst_type(a_type, compose_maps(s, r))
            assert lhs == rhs


def test_subst_is_memoized_on_the_identity_of_its_arguments(two, gamma, a_type):
    y0 = yoneda(two, "0")
    for s in hom_maps(y0, gamma):
        once = subst_type(a_type, s)
        assert subst_type(a_type, s) is once
        # an equal but distinct substitution is a separate entry with an
        # equal (and equally hashed) result
        twin = compose_maps(s, identity_map(y0))
        assert twin is not s
        again = subst_type(a_type, twin)
        assert again is not once and again == once and hash(again) == hash(once)
    # the memo does not keep a substitution alive
    s = compose_maps(hom_maps(y0, gamma)[0], identity_map(y0))
    subst_type(a_type, s)
    gone = weakref.ref(s)
    del s
    gc.collect()
    assert gone() is None


def q_map(a, s):
    """The lift ``Delta.A[s] -> Gamma.A`` of a substitution."""
    ca = comprehension(a)
    cs = comprehension(subst_type(a, s))
    delta, c = s.source, s.source.base
    comp = {}
    for i in c.objects:
        vals = []
        for d in delta.elements(i):
            g = s.apply(i, d)
            for x in range(a.fiber[(i, g)]):
                vals.append(ca.encode(i, g, x))
        comp[i] = tuple(vals)
    return PresheafMap(cs.presheaf, ca.presheaf, comp)


def bar(t):
    """The section ``Gamma -> Gamma.A`` induced by a term of ``A``."""
    ca = comprehension(t.type)
    gamma = t.type.context
    return PresheafMap(gamma, ca.presheaf,
                       {i: tuple(ca.encode(i, g, t.pick[(i, g)])
                                 for g in gamma.elements(i))
                        for i in gamma.base.objects})


def test_q_map_fills_the_pullback_square(two, gamma, a_type):
    y0 = yoneda(two, "0")
    ca = comprehension(a_type)
    for s in hom_maps(y0, gamma):
        a_s = subst_type(a_type, s)
        cas = comprehension(a_s)
        q = q_map(a_type, s)
        assert compose_maps(ca.p, q) == compose_maps(s, cas.p)
        # and the square is a pullback: fiberwise the map is a bijection
        for i in two.objects:
            for g in y0.elements(i):
                src = [cas.encode(i, g, x) for x in range(a_s.fiber[(i, g)])]
                img = {q.apply(i, v) for v in src}
                tgt = {ca.encode(i, s.apply(i, g), x)
                       for x in range(a_type.fiber[(i, s.apply(i, g))])}
                assert img == tgt


def test_bar_of_a_term_is_a_section(gamma, a_type):
    ca = comprehension(a_type)
    for t in terms_of(a_type):
        s = bar(t)
        assert compose_maps(ca.p, s) == identity_map(gamma)


def test_type_maps_compose_and_have_identities(gamma, a_type):
    ident = identity_type_map(a_type)
    for m in type_maps(a_type, a_type):
        assert compose_maps(m, ident) == m
        assert compose_maps(ident, m) == m
    for t in terms_of(a_type):
        assert apply_type_map(ident, t) == t


def test_one_natural_map_body_serves_both_levels(two, gamma, a_type):
    """Presheaf maps and type maps share composition, validation and
    inverses; each keeps its own class, error and messages."""
    maps = type_maps(a_type, a_type)
    for g, f in itertools.product(maps, repeat=2):
        gf = compose_maps(g, f)
        assert type(gf) is TypeMap
        assert gf == TypeMap(a_type, a_type, {k: tuple(g.component[k][x] for x in t)
                                              for k, t in f.component.items()})

    one, pt = terminal_presheaf(two), terminal_presheaf(terminal_category())
    apart = PresheafMap(one, pt, {o: (0,) for o in two.objects})
    assert apart.validate() == ["source and target live over different categories"]
    with pytest.raises(PresheafError, match="^presheaf map: source and target live over"):
        apart.assert_valid()
    over = type_terminal(constant_presheaf(two, 2))
    apart = TypeMap(a_type, over, {k: (0,) * n for k, n in a_type.fiber.items()})
    assert apart.validate() == ["source and target sit over different contexts"]
    with pytest.raises(ModelError, match="^type map: source and target sit over"):
        apart.assert_valid()

    p = constant_presheaf(two, 2)
    for isos, ident in ((iso_maps(p, p), identity_map(p)),
                        ([m for m in maps if m.is_iso()], identity_type_map(a_type))):
        assert any(m != ident for m in isos)
        for m in isos:
            inv = m.inverse()
            assert type(inv) is type(m) and inv.inverse() == m
            assert compose_maps(inv, m) == compose_maps(m, inv) == ident


def test_sigma_pairs_and_splits(gamma, a_type):
    ca = comprehension(a_type)
    b = subst_type(a_type, ca.p)  # a weakened copy as the family
    sg = sigma_type(a_type, b)
    assert sg.type.validate() == []
    for i in gamma.base.objects:
        for g in gamma.elements(i):
            want = sum(b.fiber[(i, ca.encode(i, g, x))]
                       for x in range(a_type.fiber[(i, g)]))
            assert sg.type.fiber[(i, g)] == want
            for x in range(a_type.fiber[(i, g)]):
                for y in range(b.fiber[(i, ca.encode(i, g, x))]):
                    v = sg.pair(i, g, x, y)
                    assert sg.split(i, g, v) == (x, y)


def test_pi_abstraction_inverts_application(gamma, a_type):
    ca = comprehension(a_type)
    b = subst_type(a_type, ca.p)
    pi = pi_type(a_type, b)
    assert pi.type.validate() == []
    for body in terms_of(b):
        lam = pi.intro(body)
        assert lam.validate() == []
        for i in gamma.base.objects:
            for g in gamma.elements(i):
                for x in range(a_type.fiber[(i, g)]):
                    got = pi.app(i, g, lam.pick[(i, g)], x)
                    assert got == body.pick[(i, ca.encode(i, g, x))]


def test_terminal_type_has_one_section(gamma):
    t = type_terminal(gamma)
    assert len(terms_of(t)) == 1


def test_straighten_inverts_comprehension(gamma, a_type):
    ca = comprehension(a_type)
    assert is_display(ca.p, 2)
    a_back, iso = straighten(ca.p)
    assert a_back == a_type
    assert iso.is_iso()


def _functor_tables(cat, bound):
    """Count presheaves on ``cat`` with canonical carriers of size at most
    ``bound``, checking functoriality by hand against the composition
    table.  Written from the definition, independent of the library
    enumerators."""
    objs = list(cat.objects)
    non_id = [m for m in cat.morphisms if not cat.is_identity(m)]
    count = 0
    for sizes_t in itertools.product(range(bound + 1), repeat=len(objs)):
        sz = dict(zip(objs, sizes_t))
        per_mor = []
        feasible = True
        for m in non_id:
            dom, cod = sz[cat.dst[m]], sz[cat.src[m]]
            tables = list(itertools.product(range(cod), repeat=dom))
            if not tables:
                feasible = False
                break
            per_mor.append(tables)
        if not feasible:
            continue
        for combo in itertools.product(*per_mor):
            act = dict(zip(non_id, combo))
            for o in objs:
                act[cat.id(o)] = tuple(range(sz[o]))
            good = True
            for g in cat.morphisms:
                for f in cat.morphisms:
                    if cat.dst[f] != cat.src[g]:
                        continue
                    gf = cat.compose(g, f)
                    composite = tuple(act[f][act[g][z]]
                                      for z in range(sz[cat.dst[g]]))
                    if composite != act[gf]:
                        good = False
                        break
                if not good:
                    break
            if good:
                count += 1
    return count


def test_universe_sizes_match_independent_enumeration(two):
    model = NaturalModel(two, 1)
    u = hs_universe(model)
    for i in two.objects:
        want = _functor_tables(u.slices[i].cat, model.bound)
        assert u.presheaf.sizes[i] == want
    assert u.presheaf.sizes == {"0": 2, "1": 3}


def test_universe_decode_encode_round_trip(two):
    model = NaturalModel(two, 1)
    u = hs_universe(model)
    gamma = yoneda(two, "1")
    for chi in hom_maps(gamma, u.presheaf):
        a = u.decode(chi)
        assert a.validate() == []
        assert u.encode(a) == chi


def test_classifier_check_walking_arrow():
    res = classifier_check(hs_universe(NaturalModel(walking_arrow(), 1)))
    assert res == {"bijective": True, "natural": True}


@pytest.mark.parametrize("k,displays", [(1, 2), (2, 3), (3, 4)])
def test_typing_equivalence_terminal_base(k, displays):
    model = NaturalModel(terminal_category(), k)
    rep = typing_check(model, terminal_presheaf(model.base))
    assert rep["essential_surjectivity"]
    assert rep["fully_faithful"]
    assert rep["display_maps"] == displays


def test_realignment_terminal_base_is_exhaustive():
    u = hs_universe(NaturalModel(terminal_category(), 1))
    rep = realignment_check(u, 1)
    assert rep == {"ok": True, "cases": 5, "truncated": False}


def test_all_presheaves_on_the_arrow_bound_two(two):
    # count by hand: pairs of carriers with a connecting function
    want = sum(s0 ** s1 for s0 in range(3) for s1 in range(3)
               if s0 > 0 or s1 == 0)
    ps = all_presheaves(two, 2)
    assert len(ps) == want == 11
    for p in ps:
        assert p.validate() == []
