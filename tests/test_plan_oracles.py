"""Natural-map plans against the body they replaced.

A presheaf or a type builds one plan for the natural maps out of it, on
first use: the key of each flat slot, the ``ends`` that cut a family
into components, and the naturality rules by arrow name.  ``_flat_maps``
binds a target's sizes and tables to it; ``_ref_natural_families`` is
the body that rebuilt all of it on every call.  Both must give the same
``ends`` and families, in order, for every ordered pair of types with
fibers up to 2 over every context of at most 2 elements on every shipped
model: plain, and between their comprehensions with the flat block
domains of ``typing_check``.  Each source's plan serves all its targets,
so a plan that kept some target's data would show.  ``_sections``
builds the one-point functor's plan and must give the old sections.

One ``typing_check`` builds one plan per source it enumerates from, the
display maps' sources, the types and their comprehensions, and every
family still comes from ``presheaf.enumerate_families``: two calls per
type pair and one per display-map source, which the tracer and
``checked_enumerations`` rely on.  A plan is invisible to ``==``,
``hash`` and ``repr``.  A type or a comprehension whose plan lacks one
naturality rule, or a type map enumerated twice, makes ``typing_check``
fail full faithfulness.
"""

from itertools import accumulate

import pytest

from boxsem import natmodel, presheaf
from boxsem.cli import load_model
from boxsem.natmodel import (NaturalModel, TypeOverContext, all_display_maps_into,
                             all_presheaves, all_types_over, comprehension, typing_check)
from boxsem.presheaf import (Presheaf, _elements_shape, _flat_maps, _plan, _point, _sections,
                             enumerate_families)

MODELS = ["one", "two", "disc2", "chain3", "sierpinski", "arrow"]


def _ref_natural_families(shape, sizes, tables, tgt_sizes, tgt_tables, domains=None, rules=()):
    ends = list(accumulate((sizes[k] for k in shape.keys), initial=0))
    at = dict(zip(shape.keys, ends))
    doms = [range(tgt_sizes[k]) for k in shape.keys for _ in range(sizes[k])]
    for (k, x), dom in (domains or {}).items():
        doms[at[k] + x] = dom
    checks = [(at[s[0]] + s[1], at[t[0]] + t[1], table) for (s, t, table) in rules]
    for name, dst, src in shape.proper:
        a, b, t2 = at[dst], at[src], tgt_tables[name]
        checks += [(a + x, b + y, t2) for x, y in enumerate(tables[name])]
    return ends, enumerate_families(ends[-1], doms, checks)


def _ref_flat_maps(source, target, domains=None):
    _, shape, sizes, tables = source._tables()
    return _ref_natural_families(shape, sizes, tables, *target._tables()[2:], domains)


def _blocks(a, cb):
    """``typing_check``'s domains out of ``Gamma.A``: per flat slot of
    ``a``, the block of ``Gamma.B`` over the same element of Gamma."""
    b = cb.type
    return [range(cb.offsets[k], cb.offsets[k] + b.fiber[k]) for k in _plan(a).keys]


def _small_contexts(cat):
    return [g for g in all_presheaves(cat, 2) if sum(g.sizes.values()) <= 2]


@pytest.mark.parametrize("name", MODELS)
def test_plans_give_the_old_families_for_every_pair_of_small_types(name):
    cat = load_model(name).category
    model = NaturalModel(cat, 2)
    pairs = 0
    for gamma in _small_contexts(cat):
        types = all_types_over(model, gamma, 2)
        comps = [comprehension(t) for t in types]
        shape = _elements_shape(gamma)
        for a, ca in zip(types, comps):
            assert _sections(shape, a.fiber, a.restriction) == [
                dict(zip(shape.keys, f))
                for f in _ref_natural_families(shape, *_point(shape), a.fiber, a.restriction)[1]]
            for b, cb in zip(types, comps):
                pairs += 1
                assert _flat_maps(a, b) == _ref_flat_maps(a, b)
                flat = _blocks(a, cb)
                slots = [(i, x) for i in cat.objects for x in range(ca.presheaf.sizes[i])]
                assert _flat_maps(ca.presheaf, cb.presheaf, flat) == _ref_flat_maps(
                    ca.presheaf, cb.presheaf, dict(zip(slots, flat)))
        # each source kept the plan it built for its first target
        plans = [(_plan(a), _plan(ca.presheaf)) for a, ca in zip(types, comps)]
        for a, ca in zip(reversed(types), reversed(comps)):
            _flat_maps(a, types[0])
            _flat_maps(ca.presheaf, comps[0].presheaf)
        assert all(p is _plan(a) and q is _plan(ca.presheaf)
                   for (p, q), a, ca in zip(plans, types, comps))
    assert pairs > 0


def _two_element_context(name):
    cat = load_model(name).category
    return cat, next(g for g in all_presheaves(cat, 2) if sum(g.sizes.values()) == 2)


@pytest.mark.parametrize("name", MODELS)
def test_one_typing_check_builds_one_plan_per_source(name, monkeypatch):
    cat, gamma = _two_element_context(name)
    new_plan, built = presheaf._new_plan, []
    flat_maps, sources = natmodel._flat_maps, {}
    types_over, types = natmodel.all_types_over, []

    def counted(*args):
        built.append(new_plan(*args))
        return built[-1]

    def recorded(source, target, *rest):
        sources[id(source)] = source
        return flat_maps(source, target, *rest)

    def listed(*args):
        types.extend(types_over(*args))
        return types
    monkeypatch.setattr(presheaf, "_new_plan", counted)
    monkeypatch.setattr(natmodel, "_flat_maps", recorded)
    monkeypatch.setattr(natmodel, "all_types_over", listed)
    report = typing_check(NaturalModel(cat, 2), gamma)
    assert report["fully_faithful"] and report["type_pairs"] == len(types) ** 2 > 0
    assert len(built) == len(sources) > 2 * len(types)
    assert {id(s._plan) for s in sources.values()} == set(map(id, built))
    for t in types:
        assert sources[id(t)] is t and id(comprehension(t).presheaf) in sources


@pytest.mark.parametrize("name", MODELS)
def test_every_typing_family_comes_from_enumerate_families(name, monkeypatch):
    cat, gamma = _two_element_context(name)
    model, size_bound = NaturalModel(cat, 2), 4
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_families(*args)
    monkeypatch.setattr(presheaf, "enumerate_families", counted)
    all_display_maps_into(model, gamma, size_bound)
    display = len(calls)
    calls.clear()
    report = typing_check(model, gamma, size_bound)
    assert report["display_maps"] > 0 and display > 0
    assert len(calls) == 2 * report["type_pairs"] + display


def test_a_plan_leaves_equality_hash_and_repr_alone():
    cat, gamma = _two_element_context("chain3")
    a = all_types_over(NaturalModel(cat, 2), gamma, 2)[-1]
    for x, copy in ((gamma, Presheaf(cat, gamma.sizes, gamma.action)),
                    (a, TypeOverContext(a.context, a.fiber, a.restriction))):
        before = repr(x), hash(x)
        assert x._plan is None
        _flat_maps(x, x)
        assert x._plan is not None and copy._plan is None
        assert (repr(x), hash(x)) == before == (repr(copy), hash(copy)) and x == copy


@pytest.mark.parametrize("name", ["two", "chain3"])
@pytest.mark.parametrize("side", ["type", "comprehension"])
def test_a_dropped_naturality_rule_breaks_full_faithfulness(name, side, monkeypatch):
    """Too many type maps, or too many maps over the context: either way
    the check stops at the first pair whose two sets differ."""
    cat = load_model(name).category
    gamma = next(g for g in all_presheaves(cat, 1)
                 if _elements_shape(g).proper and sum(g.sizes.values()) == 2)
    model = NaturalModel(cat, 2)
    assert typing_check(model, gamma)["fully_faithful"]
    types_over, types, short = natmodel.all_types_over, [], []

    def one_rule_short(*args):
        types.extend(types_over(*args))
        short.append(next(t for t in types if _plan(t).rules))
        src = short[0] if side == "type" else comprehension(short[0]).presheaf
        object.__setattr__(src, "_plan", _plan(src)._replace(rules=_plan(src).rules[1:]))
        return types
    monkeypatch.setattr(natmodel, "all_types_over", one_rule_short)
    report = typing_check(model, gamma)
    assert report["essential_surjectivity"] and not report["fully_faithful"]
    a, b = report["witness"]
    assert a is short[0]
    assert report["type_pairs"] == types.index(a) * len(types) + types.index(b) + 1


def test_a_type_map_enumerated_twice_breaks_full_faithfulness(monkeypatch):
    """The induced families are a set; a repeated type map shows only in
    their count."""
    cat, gamma = _two_element_context("chain3")
    flat_maps = natmodel._flat_maps

    def repeated(source, target, *rest):
        ends, families = flat_maps(source, target, *rest)
        if isinstance(source, TypeOverContext):
            families = families + families[-1:]
        return ends, families
    monkeypatch.setattr(natmodel, "_flat_maps", repeated)
    report = typing_check(NaturalModel(cat, 2), gamma)
    assert report["essential_surjectivity"] and not report["fully_faithful"]
