"""Table-level checks for the finite category layer.

``terminal_category``, ``chain``, ``discrete`` and ``identity_functor``
are the small test beds the other test files build on; nothing in the
package reads them."""

import pytest

from boxsem.fincat import (
    FinCat,
    FinCatError,
    Functor,
    all_sieves,
    build_category,
    discrete_subcategory,
    is_sieve,
    maximal_sieve,
    pullback_sieve,
    slice_category,
)
from boxsem.standard import discrete_two_site, poset_category, sierpinski_site, walking_arrow


def terminal_category() -> FinCat:
    """The one-object one-morphism category."""
    return build_category("one", ["*"], [], {})


def chain(n: int) -> FinCat:
    """The linear order with ``n`` objects 0 < 1 < ... < n-1."""
    elems = [str(i) for i in range(n)]
    leq = {(str(i), str(j)) for i in range(n) for j in range(i + 1, n)}
    return poset_category(f"chain{n}", elems, leq)


def discrete(n: int) -> FinCat:
    """The discrete category on ``n`` objects."""
    return poset_category(f"disc{n}", [str(i) for i in range(n)], set())


def identity_functor(c: FinCat) -> Functor:
    return Functor(f"id[{c.name}]", c, c,
                   {o: o for o in c.objects},
                   {m: m for m in c.morphisms})


@pytest.fixture(scope="module")
def two():
    return walking_arrow()


def test_suite_categories_validate():
    suite = {"one": terminal_category(), "two": walking_arrow(), "chain3": chain(3),
             "sierpinski": sierpinski_site().cat, "disc2": discrete(2)}
    for name, cat in suite.items():
        assert cat.validate() == [], name


def test_walking_arrow_tables(two):
    assert set(two.objects) == {"0", "1"}
    assert two.hom("0", "1") == ("0->1",)
    assert two.hom("1", "0") == ()
    assert two.compose("id_1", "0->1") == "0->1"
    assert two.compose("0->1", "id_0") == "0->1"


def test_associativity_is_exhaustive_on_chains():
    c = chain(4)
    triples = [(h, g, f)
               for h in c.morphisms for g in c.morphisms for f in c.morphisms
               if c.src[h] == c.dst[g] and c.src[g] == c.dst[f]]
    assert triples
    for h, g, f in triples:
        assert c.compose(c.compose(h, g), f) == c.compose(h, c.compose(g, f))


def test_compose_rejects_non_composable(two):
    with pytest.raises(FinCatError):
        two.compose("0->1", "0->1")


def test_validate_catches_a_doctored_table(two):
    # redirect one composite at an identity; the unit law must notice
    table = dict(two.table)
    table[("id_1", "0->1")] = "id_1"
    broken = FinCat("broken", two.objects, two.morphisms, dict(two.src),
                    dict(two.dst), dict(two.identity), table)
    errs = broken.validate()
    assert errs and any("unit" in e or "endpoint" in e for e in errs)


def test_identity_functor_composes_trivially(two):
    i = identity_functor(two)
    assert {m: i.mor_map[i.mor_map[m]] for m in two.morphisms} == i.mor_map
    assert i.validate() == []


def test_functor_validation_spots_a_bad_morphism_map(two):
    one = terminal_category()
    bad = Functor("collapse", two, one, {"0": "*", "1": "*"},
                  {"id_0": "id_*", "id_1": "id_*", "0->1": "missing"})
    assert bad.validate()


def test_discrete_subcategory_inclusion(two):
    sub, incl = discrete_subcategory(two)
    assert sub.validate() == []
    assert incl.validate() == []
    assert sub.morphisms == ("id_0", "id_1")
    assert incl.obj_map == {"0": "0", "1": "1"}


def test_slice_over_the_arrow_target(two):
    sl = slice_category(two, "1")
    assert sl.cat.validate() == []
    assert set(sl.cat.objects) == {"0->1", "id_1"}
    # the slice of the walking arrow over its target is the walking arrow again
    assert len(sl.cat.morphisms) == 3
    assert sl.proj.validate() == []


def test_slice_over_the_arrow_source_is_trivial(two):
    sl = slice_category(two, "0")
    assert sl.cat.objects == ("id_0",)
    assert len(sl.cat.morphisms) == 1


def test_sieve_counts_on_the_walking_arrow(two):
    # sieves on an object of a poset are downward closed sets of arrows
    assert len(all_sieves(two, "0")) == 2
    assert len(all_sieves(two, "1")) == 3
    for apex in two.objects:
        for s in all_sieves(two, apex):
            assert is_sieve(two, apex, s)


def test_pullback_sieve_along_the_arrow(two):
    s = frozenset({"0->1"})
    assert pullback_sieve(two, s, "0->1") == maximal_sieve(two, "0")
    assert pullback_sieve(two, frozenset(), "0->1") == frozenset()


def test_shipped_sites_validate():
    for site in (sierpinski_site(), discrete_two_site()):
        assert site.validate() == []


def test_discrete_two_site_covers_the_union():
    site = discrete_two_site()
    # the square Oab is covered by its two proper opens
    covering = [s for s in site.covers["Oab"] if "Oa->Oab" in s and "Ob->Oab" in s]
    assert covering
    # the empty open is covered by the empty sieve
    assert frozenset() in site.covers["Oempty"]


def test_discrete_category_has_no_cross_morphisms():
    d = discrete(3)
    assert len(d.morphisms) == 3
    for m in d.morphisms:
        assert d.src[m] == d.dst[m]
