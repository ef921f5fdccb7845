"""The table core shared by presheaves and types against its earlier bodies.

Presheaves and types over a context are both finite functors stored as
tables, and ``boxsem.presheaf`` validates them, checks the naturality of
their maps and builds their products and subfunctors with one body each.
The ``_ref_*`` functions below are the bodies each level had of its own
before, kept as a differential oracle, with the raw candidate tables of
the earlier ``_action_tables``.

Inputs: every raw candidate at bound 2 on each shipped category and on
its slices, and over each context of at most 3 elements on ``two``,
``chain3``, ``sierpinski``, ``arrow`` and ``disc2``, plus hand-made
tables that are missing, the wrong length or out of range.  Presheaf
error lists must equal the oracle's; type error lists must be empty
exactly when the oracle's are, and when the type read as a presheaf on
the category of elements is lawful (``_to_elements``).
Map and section validators, products and subfunctors must agree on every
raw component tuple between the small lawful functors, natural or not.

Presheaves and types are searched with their laws, not filtered, so the
lawful raw candidates, in their order, are what ``all_presheaves`` and
``all_types_over`` must return, each table dict listing the proper arrows
and then the identities.  ``Universe.encode`` finds codes by their
tables; on every type within the bound over each context of at most 2
elements it must give the position, in the universe's list, of the slice
presheaf that the type stands for at each element.
"""

from itertools import product as iproduct

import pytest

from boxsem.cli import load_model
from boxsem.fincat import slice_category
from boxsem.natmodel import (ModelError, NaturalModel, TermOverContext, TypeMap,
                             TypeOverContext, TypeProduct, all_presheaves, all_types_over,
                             hs_universe, sub_type, type_product)
from boxsem.presheaf import (Presheaf, PresheafMap, Product, category_of_elements, product,
                             sub_presheaf)
from test_elements_oracles import _to_elements

MODELS = ["one", "two", "chain3", "sierpinski", "disc2", "arrow"]


# ---------------------------------------------------------------------------
# The earlier bodies


def _ref_action_tables(objs, arrows, identities, bound):
    for sizes_t in iproduct(range(bound + 1), repeat=len(objs)):
        sizes = dict(zip(objs, sizes_t))
        choices = [list(iproduct(range(sizes[s]), repeat=sizes[t])) for (_, s, t) in arrows]
        for combo in iproduct(*choices):
            tables = {name: tb for (name, _, _), tb in zip(arrows, combo)}
            tables.update((name, tuple(range(sizes[o]))) for name, o in identities)
            yield sizes, tables


def _ref_elements(gamma):
    c = gamma.base
    return ([(i, g) for i in c.objects for g in gamma.elements(i)],
            [((f, g), (c.dst[f], g), (c.src[f], gamma.act(f, g)))
             for f in c.morphisms if not c.is_identity(f) for g in gamma.elements(c.dst[f])])


def _ref_presheaf_candidates(c, bound):
    return _ref_action_tables(c.objects, [(m, c.src[m], c.dst[m]) for m in c.morphisms
                                          if not c.is_identity(m)],
                              [(c.id(o), o) for o in c.objects], bound)


def _ref_type_candidates(gamma, bound):
    keys, arrows = _ref_elements(gamma)
    return _ref_action_tables(keys, [(fg, k2, k) for fg, k, k2 in arrows],
                              [((gamma.base.id(i), g), (i, g)) for (i, g) in keys], bound)


def _ref_presheaf_validate(self):
    c = self.base
    errs = []
    for o in c.objects:
        if self.sizes.get(o, -1) < 0:
            errs.append(f"missing carrier size at {o!r}")
    for f in c.morphisms:
        t = self.action.get(f)
        if t is None:
            errs.append(f"missing action along {f!r}")
            continue
        if len(t) != self.sizes[c.dst[f]]:
            errs.append(f"action along {f!r} has wrong domain size")
            continue
        if any(not (0 <= v < self.sizes[c.src[f]]) for v in t):
            errs.append(f"action along {f!r} escapes its codomain")
    if errs:
        return errs
    for o in c.objects:
        if self.action[c.id(o)] != tuple(range(self.sizes[o])):
            errs.append(f"identity action at {o!r} is not the identity")
    for g in c.morphisms:
        for f in c.morphisms:
            if c.dst[f] != c.src[g]:
                continue
            gf = c.compose(g, f)
            got = tuple(self.action[f][self.action[g][z]]
                        for z in range(self.sizes[c.dst[g]]))
            if got != self.action[gf]:
                errs.append(f"contravariant functoriality fails at ({g!r}, {f!r})")
    return errs


def _ref_type_validate(self):
    c = self.context.base
    errs = []
    for i in c.objects:
        for g in self.context.elements(i):
            if (i, g) not in self.fiber:
                errs.append(f"missing fiber at ({i!r}, {g})")
    for f in c.morphisms:
        i = c.dst[f]
        for g in self.context.elements(i):
            t = self.restriction.get((f, g))
            if t is None or len(t) != self.fiber.get((i, g), -1):
                errs.append(f"bad restriction along ({f!r}, {g})")
                continue
            tgt = self.fiber[(c.src[f], self.context.act(f, g))]
            if any(not (0 <= v < tgt) for v in t):
                errs.append(f"restriction along ({f!r}, {g}) escapes its fiber")
    if errs:
        return errs
    for i in c.objects:
        for g in self.context.elements(i):
            if self.restriction[(c.id(i), g)] != tuple(range(self.fiber[(i, g)])):
                errs.append(f"identity restriction at ({i!r}, {g}) not identity")
    for m2 in c.morphisms:
        for m1 in c.morphisms:
            if c.dst[m1] != c.src[m2]:
                continue
            m21 = c.compose(m2, m1)
            for g in self.context.elements(c.dst[m2]):
                lhs = self.restriction[(m21, g)]
                step = self.restriction[(m2, g)]
                g2 = self.context.act(m2, g)
                rhs = tuple(self.restriction[(m1, g2)][v] for v in step)
                if lhs != rhs:
                    errs.append(f"functoriality fails at ({m2!r}, {m1!r}, {g})")
    return errs


def _ref_presheaf_map_validate(self):
    if self.source.base != self.target.base:
        return ["source and target live over different categories"]
    c = self.source.base
    errs = []
    for o in c.objects:
        t = self.component.get(o)
        if t is None or len(t) != self.source.sizes[o]:
            errs.append(f"bad component at {o!r}")
        elif any(not (0 <= v < self.target.sizes[o]) for v in t):
            errs.append(f"component at {o!r} escapes the target")
    if errs:
        return errs
    for f in c.morphisms:
        i, j = c.src[f], c.dst[f]
        for x in range(self.source.sizes[j]):
            if self.component[i][self.source.act(f, x)] != \
                    self.target.act(f, self.component[j][x]):
                errs.append(f"naturality fails along {f!r} at {x}")
                break
    return errs


def _ref_type_map_validate(self):
    if self.source.context != self.target.context:
        return ["source and target sit over different contexts"]
    c = self.source.context.base
    ctx = self.source.context
    errs = []
    for i in c.objects:
        for g in ctx.elements(i):
            t = self.component.get((i, g))
            if t is None or len(t) != self.source.fiber[(i, g)]:
                errs.append(f"bad component at ({i!r}, {g})")
            elif any(not (0 <= v < self.target.fiber[(i, g)]) for v in t):
                errs.append(f"component at ({i!r}, {g}) escapes the target fiber")
    if errs:
        return errs
    for f in c.morphisms:
        i = c.dst[f]
        for g in ctx.elements(i):
            g2 = ctx.act(f, g)
            for a in range(self.source.fiber[(i, g)]):
                lhs = self.component[(c.src[f], g2)][self.source.restrict(f, g, a)]
                rhs = self.target.restrict(f, g, self.component[(i, g)][a])
                if lhs != rhs:
                    errs.append(f"fiber map not natural along ({f!r}, {g})")
                    break
    return errs


def _ref_term_validate(self):
    a = self.type
    c = a.context.base
    errs = []
    for i in c.objects:
        for g in a.context.elements(i):
            v = self.pick.get((i, g), -1)
            if not (0 <= v < a.fiber[(i, g)]):
                errs.append(f"pick at ({i!r}, {g}) out of fiber")
    if errs:
        return errs
    for f in c.morphisms:
        i = c.dst[f]
        for g in a.context.elements(i):
            if a.restrict(f, g, self.pick[(i, g)]) != \
                    self.pick[(c.src[f], a.context.act(f, g))]:
                errs.append(f"section not natural along ({f!r}, {g})")
    return errs


def _ref_product(p, q):
    c = p.base
    sizes = {o: p.sizes[o] * q.sizes[o] for o in c.objects}
    action = {}
    for f in c.morphisms:
        j = c.dst[f]
        action[f] = tuple(p.act(f, v // q.sizes[j]) * q.sizes[c.src[f]] + q.act(f, v % q.sizes[j])
                          for v in range(sizes[j]))
    pr = Presheaf(c, sizes, action)
    fst = PresheafMap(pr, p, {o: tuple(v // q.sizes[o] for v in range(sizes[o]))
                              for o in c.objects})
    snd = PresheafMap(pr, q, {o: tuple(v % q.sizes[o] for v in range(sizes[o]))
                              for o in c.objects})
    return Product(pr, p, q, fst, snd)


def _ref_type_product(a, b):
    gamma = a.context
    c = gamma.base
    fiber = {k: a.fiber[k] * b.fiber[k] for k in a.fiber}
    restriction = {}
    for f in c.morphisms:
        j = c.dst[f]
        for g in gamma.elements(j):
            ra, rb = a.restriction[(f, g)], b.restriction[(f, g)]
            n2 = b.fiber[(c.src[f], gamma.act(f, g))]
            vals = []
            for x in range(a.fiber[(j, g)]):
                for y in range(b.fiber[(j, g)]):
                    vals.append(ra[x] * n2 + rb[y])
            restriction[(f, g)] = tuple(vals)
    return TypeProduct(TypeOverContext(gamma, fiber, restriction), a, b)


def _ref_type_projections(pr):
    def proj(which):
        return {k: tuple(pr.split(k[0], k[1], v)[which] for v in range(n))
                for k, n in pr.type.fiber.items()}
    return (TypeMap(pr.type, pr.left, proj(0)), TypeMap(pr.type, pr.right, proj(1)))


def _ref_sub_presheaf(p, sel):
    c = p.base
    keep = {o: tuple(sorted(sel.get(o, frozenset()))) for o in c.objects}
    index = {o: {x: k for k, x in enumerate(keep[o])} for o in c.objects}
    sizes = {o: len(keep[o]) for o in c.objects}
    action = {}
    for m in c.morphisms:
        i, j = c.src[m], c.dst[m]
        column = []
        for x in keep[j]:
            y = p.act(m, x)
            if y not in index[i]:
                raise ValueError(f"selection not closed under {m!r} at {x}")
            column.append(index[i][y])
        action[m] = tuple(column)
    s = Presheaf(c, sizes, action)
    inc = PresheafMap(s, p, {o: keep[o] for o in c.objects})
    return s, inc.assert_valid()


def _ref_sub_type(a, keep):
    gamma = a.context
    c = gamma.base
    kept = {k: tuple(sorted(keep.get(k, frozenset()))) for k in a.fiber}
    index = {k: {x: n for n, x in enumerate(v)} for k, v in kept.items()}
    fiber = {k: len(v) for k, v in kept.items()}
    restriction = {}
    for f in c.morphisms:
        j = c.dst[f]
        for g in gamma.elements(j):
            key = (c.src[f], gamma.act(f, g))
            table = a.restriction[(f, g)]
            vals = []
            for x in kept[(j, g)]:
                if table[x] not in index[key]:
                    raise ModelError(f"subset not closed under {f!r} at {(j, g, x)}")
                vals.append(index[key][table[x]])
            restriction[(f, g)] = tuple(vals)
    s = TypeOverContext(gamma, fiber, restriction)
    return s, TypeMap(s, a, {k: kept[k] for k in kept})


# ---------------------------------------------------------------------------
# Inputs


def _categories():
    """Each shipped category once, then each of its slices."""
    out = []
    for name in MODELS:
        c = load_model(name).category
        if c not in out:
            out.append(c)
    return out + [slice_category(c, o).cat for c in out for o in c.objects]


CATEGORIES = _categories()


def _contexts():
    """The lawful contexts with one to three elements on ``two``,
    ``chain3``, ``sierpinski``, ``arrow`` and ``disc2``, read off the
    oracle."""
    out = []
    for name in ("two", "chain3", "sierpinski", "arrow", "disc2"):
        c = load_model(name).category
        for sizes, tables in _ref_presheaf_candidates(c, 3):
            p = Presheaf(c, sizes, tables)
            if 0 < sum(sizes.values()) <= 3 and not _ref_presheaf_validate(p):
                out.append(p)
    return out


CONTEXTS = _contexts()


def _small(items, sizes):
    """The lawful functors with at most three elements in all."""
    return [x for x in items if sum(sizes(x).values()) <= 3]


def _raw_maps(src, tgt, keys):
    """Every family of functions ``src[k] -> tgt[k]``, natural or not."""
    for cols in iproduct(*[list(iproduct(range(tgt[k]), repeat=src[k])) for k in keys]):
        yield dict(zip(keys, cols))


def _selections(sizes, keys):
    """Every choice of a subset of the carrier at each key."""
    for masks in iproduct(*[range(1 << sizes[k]) for k in keys]):
        yield {k: frozenset(x for x in range(sizes[k]) if m >> x & 1)
               for k, m in zip(keys, masks)}


def _outcome(build):
    """A construction's result, or the type and message of its error."""
    try:
        return build()
    except (ValueError, ModelError) as e:
        return type(e), str(e)


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("c", CATEGORIES, ids=lambda c: c.name)
def test_presheaf_validation_matches_the_oracle(c):
    """Every raw candidate at bound 2, with the same errors in the same
    order; the lawful ones are ``all_presheaves`` in its order."""
    lawful = []
    raw = list(_ref_presheaf_candidates(c, 2))
    assert len(raw) <= 111
    for sizes, tables in raw:
        p = Presheaf(c, sizes, tables)
        errs = _ref_presheaf_validate(p)
        assert p.validate() == errs
        if not errs:
            lawful.append(p)
    assert all_presheaves(c, 2) == lawful


@pytest.mark.parametrize("c", CATEGORIES, ids=lambda c: c.name)
def test_presheaf_maps_products_and_subpresheaves_match_the_oracle(c):
    small = _small(all_presheaves(c, 2), lambda p: p.sizes)
    for p in small:
        for q in small:
            for comp in _raw_maps(p.sizes, q.sizes, c.objects):
                m = PresheafMap(p, q, comp)
                assert m.validate() == _ref_presheaf_map_validate(m)
            assert product(p, q) == _ref_product(p, q)
        for sel in _selections(p.sizes, c.objects):
            assert _outcome(lambda: sub_presheaf(p, sel)) == \
                _outcome(lambda: _ref_sub_presheaf(p, sel))


@pytest.mark.parametrize("gamma", CONTEXTS, ids=lambda g: f"{g.base.name}{g.sizes}")
def test_type_validation_matches_the_oracle(gamma):
    """Every raw candidate type at bound 2 is lawful exactly when the
    oracle says so, and exactly when it is a lawful presheaf on the
    category of elements; the lawful ones are ``all_types_over``."""
    el = category_of_elements(gamma)
    lawful = []
    for fiber, restriction in _ref_type_candidates(gamma, 2):
        a = TypeOverContext(gamma, fiber, restriction)
        ok = not _ref_type_validate(a)
        assert not a.validate() == ok == (not _ref_presheaf_validate(_to_elements(a, el)))
        if ok:
            lawful.append(a)
    assert all_types_over(NaturalModel(gamma.base, 2), gamma, 2) == lawful


@pytest.mark.parametrize("gamma", CONTEXTS, ids=lambda g: f"{g.base.name}{g.sizes}")
def test_type_maps_sections_products_and_subtypes_match_the_oracle(gamma):
    small = _small(all_types_over(NaturalModel(gamma.base, 2), gamma, 2), lambda a: a.fiber)
    keys = _ref_elements(gamma)[0]
    for a in small:
        for pick in _raw_maps(dict.fromkeys(keys, 1), a.fiber, keys):
            t = TermOverContext(a, {k: col[0] for k, col in pick.items()})
            assert not t.validate() == (not _ref_term_validate(t))
        for b in small:
            for comp in _raw_maps(a.fiber, b.fiber, keys):
                m = TypeMap(a, b, comp)
                assert not m.validate() == (not _ref_type_map_validate(m))
            got, ref = type_product(a, b), _ref_type_product(a, b)
            assert got == ref and (got.fst, got.snd) == _ref_type_projections(ref)
        for sel in _selections(a.fiber, keys):
            got, ref = _outcome(lambda: sub_type(a, sel)), _outcome(lambda: _ref_sub_type(a, sel))
            # a subset that is not closed raises ModelError either way; the
            # message names the arrow of the elements now
            assert got[0] is ModelError if ref[0] is ModelError else got == ref


def _spoiled(table, n):
    """A table missing, one short, one long, and with a value out of range
    either way, for a carrier of size ``n``."""
    return [None, table[1:], table + (0,), (n,) + table[1:], (-1,) + table[1:]]


def _with(tables, key, value):
    out = {k: v for k, v in tables.items() if k != key}
    if value is not None:
        out[key] = value
    return out


@pytest.mark.parametrize("c", CATEGORIES, ids=lambda c: c.name)
def test_hand_made_tables_match_the_oracle(c):
    """Tables that are missing, the wrong length or out of range give the
    oracle's errors for presheaves and their maps, and are refused by both
    validators for types, type maps and sections."""
    p = next(p for p in all_presheaves(c, 2) if all(p.sizes.values()))
    f, o = c.morphisms[0], c.objects[0]
    for t in _spoiled(p.action[f], p.sizes[c.src[f]]):
        bad = Presheaf(c, p.sizes, _with(p.action, f, t))
        assert bad.validate() == _ref_presheaf_validate(bad) != []
    two = next(p for p in all_presheaves(c, 2) if all(n == 2 for n in p.sizes.values()))
    for i in c.objects:
        bad = Presheaf(c, two.sizes, _with(two.action, c.id(i), (1, 0)))
        assert bad.validate() == _ref_presheaf_validate(bad) != []
    ident = {k: tuple(range(n)) for k, n in p.sizes.items()}
    for t in _spoiled(ident[o], p.sizes[o]):
        m = PresheafMap(p, p, _with(ident, o, t))
        assert m.validate() == _ref_presheaf_map_validate(m) != []
    keys = _ref_elements(p)[0]
    a = TypeOverContext(p, dict.fromkeys(keys, 1), {(f, g): (0,) for f in c.morphisms
                                                    for g in p.elements(c.dst[f])})
    fg, k = next(iter(a.restriction)), keys[0]
    for t in _spoiled((0,), 1):
        bad = TypeOverContext(p, a.fiber, _with(a.restriction, fg, t))
        assert bad.validate() and _ref_type_validate(bad)
        m = TypeMap(a, a, _with(dict.fromkeys(keys, (0,)), k, t))
        assert m.validate() and _ref_type_map_validate(m)
    for v in (1, -1):
        t = TermOverContext(a, {**dict.fromkeys(keys, 0), k: v})
        assert t.validate() and _ref_term_validate(t)


def test_a_missing_carrier_size_is_reported_not_raised():
    """The earlier presheaf validator looked the size up and raised
    ``KeyError``; the shared one reports it."""
    c = load_model("two").category
    p = Presheaf(c, {"1": 1}, {"id_0": (), "id_1": (0,), "0->1": (0,)})
    with pytest.raises(KeyError):
        _ref_presheaf_validate(p)
    assert p.validate()[0] == "missing carrier size at '0'"


@pytest.mark.parametrize("c", CATEGORIES, ids=lambda c: c.name)
def test_enumerated_presheaves_list_proper_arrows_then_identities(c):
    order = [m for m in c.morphisms if not c.is_identity(m)] + [c.id(o) for o in c.objects]
    for p in all_presheaves(c, 2):
        assert list(p.sizes) == list(c.objects) and list(p.action) == order


@pytest.mark.parametrize("gamma", CONTEXTS, ids=lambda g: f"{g.base.name}{g.sizes}")
def test_enumerated_types_list_proper_arrows_then_identities(gamma):
    keys, arrows = _ref_elements(gamma)
    order = [fg for fg, _, _ in arrows] + [(gamma.base.id(i), g) for i, g in keys]
    for a in all_types_over(NaturalModel(gamma.base, 2), gamma, 2):
        assert list(a.fiber) == keys and list(a.restriction) == order


@pytest.mark.parametrize("name", MODELS)
def test_encode_finds_the_code_of_each_slice_presheaf(name):
    """The code of a type at ``(I, g)`` is the presheaf on ``C/I`` whose
    carrier at ``f`` is the fiber at ``g.f`` and whose action along
    ``h@f`` is the restriction along ``h`` at ``g.f``."""
    model = load_model(name)
    c = model.category
    u = hs_universe(NaturalModel(c, model.bound))
    types = 0
    for gamma in all_presheaves(c, 2):
        if sum(gamma.sizes.values()) > 2:
            continue
        for a in all_types_over(u.model, gamma, model.bound):
            code = u.encode(a)
            for i in c.objects:
                sl = u.slices[i].cat
                for g in gamma.elements(i):
                    x = Presheaf(sl, {f: a.fiber[(c.src[f], gamma.act(f, g))]
                                      for f in sl.objects},
                                 {n: a.restriction[(h, gamma.act(f, g))]
                                  for n in sl.morphisms for h, f in [n.split("@", 1)]})
                    assert code.apply(i, g) == u.codes[i].index(x)
            types += 1
    assert types > 0
