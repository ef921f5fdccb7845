"""``enumerate_families`` and the display-map sources against the bodies
they replaced.

``enumerate_families`` walks the slots that some rule reads with an
explicit stack and fills the slots after them with one ``product``;
``_ref_enumerate_families`` is its earlier recursive body.  Both must
give the same families in the same order: under hypothesis, over up to
eight slots with sorted, empty and full domains and rules in either
direction (a rule may tie a slot to itself), and on every enumeration
made while the shipped models' comonads are validated and their Kan
extensions, dependent products and universes are built.  Without the
recursion, a chain of 3,000 slots enumerates as well.

``all_display_maps_into`` never builds a source whose carrier at some
object exceeds ``bound * |Gamma(I)|``; ``_ref_display_maps_into``
(from ``test_universe_oracles``) filters every map out of every source.
They must agree on the contexts the ``universe`` benchmark draws, two
points at one object and none elsewhere, on every shipped model.
"""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsem import natmodel, presheaf
from boxsem.cli import load_model
from boxsem.coalg import validate_comonad
from boxsem.fincat import discrete_subcategory
from boxsem.natmodel import (NaturalModel, all_display_maps_into,
                             all_presheaves, all_types_over, comprehension, hs_universe,
                             pi_type)
from boxsem.presheaf import KanAdjunction, enumerate_families
from test_fincat import identity_functor
from test_universe_oracles import _ref_display_maps_into

MODELS = ["one", "two", "chain3", "sierpinski", "disc2", "arrow"]


def _ref_enumerate_families(n_slots, domains, rules):
    by_slot = [[] for _ in range(n_slots)]
    for (i, j, table) in rules:
        by_slot[max(i, j)].append((i, j, table))
    out = []
    fam = [0] * n_slots

    def consistent(k):
        for (i, j, table) in by_slot[k]:
            if fam[j] != table[fam[i]]:
                return False
        return True

    def go(k):
        if k == n_slots:
            out.append(tuple(fam))
            return
        for v in domains[k]:
            fam[k] = v
            if consistent(k):
                go(k + 1)
        fam[k] = 0

    go(0)
    return out


VALUES = 4


@st.composite
def _problems(draw):
    """Slots with sorted domains drawn from ``range(4)`` (some empty, some
    full), and rules between any two slots, a slot and itself included,
    whose tables send every value to one in ``range(4)``."""
    n = draw(st.integers(0, 8))
    domains = [draw(st.one_of(
        st.just(range(VALUES)),
        st.lists(st.integers(0, VALUES - 1), max_size=VALUES, unique=True).map(sorted)))
        for _ in range(n)]
    rules = []
    if n:
        slot = st.integers(0, n - 1)
        table = st.lists(st.integers(0, VALUES - 1), min_size=VALUES, max_size=VALUES)
        rules = draw(st.lists(st.tuples(slot, slot, table.map(tuple)), max_size=6))
    return n, domains, rules


@settings(max_examples=1000, deadline=None)
@given(_problems())
def test_the_kernel_agrees_with_the_recursive_body(problem):
    n, domains, rules = problem
    assert enumerate_families(n, domains, rules) == _ref_enumerate_families(n, domains, rules)


def test_a_rule_free_call_is_the_product_of_its_domains():
    domains = [range(2), [0, 2], range(3)]
    assert enumerate_families(3, domains, []) == list(iproduct(*domains))
    assert enumerate_families(0, [], []) == [()]
    assert enumerate_families(2, [range(2), []], []) == []


@pytest.mark.parametrize("n", [1200, 3000])
def test_a_long_chain_enumerates_without_recursion(n):
    """``fam[k] == fam[k - 1]`` for every slot: the recursive body
    overflowed from about 1,000 slots."""
    chain = [(k - 1, k, (0, 1)) for k in range(1, n)]
    assert enumerate_families(n, [range(2)] * n, chain) == [(0,) * n, (1,) * n]


@pytest.fixture
def checked_enumerations(monkeypatch):
    """Replace the module's ``enumerate_families``, which every family
    table and natural-map enumeration looks up, with one that compares
    the kernel with the recursive body on each call."""
    calls = []

    def both(n_slots, domains, rules):
        domains, rules = list(domains), list(rules)
        got = enumerate_families(n_slots, domains, rules)
        assert got == _ref_enumerate_families(n_slots, domains, rules)
        calls.append(len(got))
        return got
    monkeypatch.setattr(presheaf, "enumerate_families", both)
    return calls


@pytest.mark.parametrize("name", MODELS)
def test_the_kernel_agrees_on_the_shipped_models(name, checked_enumerations):
    bundle = load_model(name)
    c = bundle.category
    if bundle.comonad is not None:
        validate_comonad(bundle.comonad)
    for u in (discrete_subcategory(c)[1], identity_functor(c)):
        adj = KanAdjunction(u)
        for q in all_presheaves(u.source, 2):
            adj.ran(q)
    nm = NaturalModel(c, 2)
    hs_universe(nm)
    for gamma in [g for g in all_presheaves(c, 1) if sum(g.sizes.values()) <= 2][:6]:
        for a in all_types_over(nm, gamma, 2)[:4]:
            for b in all_types_over(nm, comprehension(a).presheaf, 1)[:4]:
                pi_type(a, b)
    assert len(checked_enumerations) > 20 and any(checked_enumerations)


def _two_points_at_one_object(c):
    """The presheaves with two elements at one object and none elsewhere."""
    return [p for p in all_presheaves(c, 2)
            if sorted(p.sizes.values())[-1:] == [2] and sum(p.sizes.values()) == 2]


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("bound", [1, 2])
def test_capped_sources_give_every_display_map(name, bound):
    c = load_model(name).category
    model = NaturalModel(c, bound)
    contexts = _two_points_at_one_object(c)
    assert contexts
    for gamma in contexts:
        got = all_display_maps_into(model, gamma, 3)
        assert got == _ref_display_maps_into(model, gamma, 3)
        assert got


@pytest.mark.parametrize("name", ["chain3", "sierpinski"])
def test_the_cap_prunes_the_typing_sources(name, monkeypatch):
    """On the ``universe`` benchmark's typing contexts of these models,
    two points at one object, the fiber bound leaves 3 of the 47
    presheaves with carriers up to 2 as sources; each source is read by
    one natural-map enumeration into the context."""
    c = load_model(name).category
    model = NaturalModel(c, 2)
    flat_maps, sources = natmodel._flat_maps, []

    def counted(e, gamma, *rest):
        sources.append(e)
        return flat_maps(e, gamma, *rest)
    monkeypatch.setattr(natmodel, "_flat_maps", counted)
    assert len(all_presheaves(c, 2)) == 47
    for gamma in _two_points_at_one_object(c):
        sources.clear()
        got = all_display_maps_into(model, gamma, 2)
        assert len(sources) == 3
        assert got == _ref_display_maps_into(model, gamma, 2)
