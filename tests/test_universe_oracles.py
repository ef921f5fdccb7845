"""The universe checks against the enumerations they replaced.

``typing_check`` enumerates the maps over the context between two
comprehensions directly, one block of the target per slot; the
``_ref_typing_check`` below enumerates every map and keeps those over the
context.  ``classifier_check`` builds one representable per object;
the reference builds one per code.  ``realignment_check`` builds each
context's codes and each code's type once, and skips a pair of types at
once when their fibers differ; the reference rebuilds and decodes codes
for every case and searches every pair for isos.

Each pair must give the same report on every shipped model at bounds 1
and 2, without its witness: for ``realignment_check`` at every case
ceiling tried, and when ``realign`` is made to fail at a chosen call, so
that a truncated or failing run stops at the same case on both sides.

The checks compare maps as flat families and build a map object only
where they return one.  ``_obj_typing_check``, ``_ref_display_maps_into``
and ``_ref_isos`` are the object-based bodies they had before: the
induced maps as ``PresheafMap`` sets, display maps and isos filtered as
built maps.  A fault injected into the flat comparison (an induced
family shifted by one, a family that is not a bijection let through the
iso filter) must make the check fail.  So must two entries of the code
index exchanged, after the universe is built or while it is.

``InternalCategory.validate`` checks associativity at the composable
triples alone, its morphisms grouped by target; ``_ref_validate`` is the
loop it replaced, over every composable pair and every morphism.  Both
must give the same error list, in order, on the universe category of
every shipped model and on one with two composites exchanged.
"""

from dataclasses import replace

import pytest

from boxsem import natmodel
from boxsem.cli import load_model
from boxsem.coalg import universe_internal_category
from boxsem.fincat import slice_category
from boxsem.natmodel import (NaturalModel, TypeOverContext, all_display_maps_into,
                             all_presheaves, all_types_over, classifier_check,
                             comprehension, hs_universe, is_display, realignment_check,
                             straighten, subst_type, subst_type_map, type_maps, typing_check)
from boxsem.presheaf import (PresheafMap, _flat_maps, _fibers_within, compose_maps, hom_maps,
                             mono_maps, yoneda, yoneda_map)

MODELS = ["one", "two", "disc2", "chain3", "sierpinski"]
CONFIGS = [(name, bound) for name in MODELS for bound in (1, 2)]
REALIGN = natmodel.realign


def _ref_typing_check(model, gamma, size_bound=None):
    if size_bound is None:
        size_bound = model.bound * max(1, max(gamma.sizes.values(), default=1))
    report = {"essential_surjectivity": True, "fully_faithful": True,
              "display_maps": 0, "type_pairs": 0}
    for m in all_display_maps_into(model, gamma, size_bound):
        report["display_maps"] += 1
        a, iso = straighten(m)
        ca = comprehension(a)
        iso.assert_valid()
        if not iso.is_iso() or compose_maps(m, iso) != ca.p:
            report["essential_surjectivity"] = False
            report["witness"] = (m, a)
            return report
    types = all_types_over(model, gamma, model.bound)
    for a in types:
        ca = comprehension(a)
        for b in types:
            report["type_pairs"] += 1
            cb = comprehension(b)
            tms = type_maps(a, b)
            over = [h for h in hom_maps(ca.presheaf, cb.presheaf)
                    if compose_maps(cb.p, h) == ca.p]
            induced = set()
            for tm in tms:
                comp = {i: tuple(cb.encode(i, g, tm.apply(i, g, x))
                                 for g in gamma.elements(i)
                                 for x in range(a.fiber[(i, g)]))
                        for i in gamma.base.objects}
                induced.add(PresheafMap(ca.presheaf, cb.presheaf, comp))
            if induced != set(over) or len(induced) != len(tms):
                report["fully_faithful"] = False
                report["witness"] = (a, b)
                return report
    return report


def _ref_display_maps_into(model, gamma, size_bound):
    return [m for e in all_presheaves(model.base, size_bound) for m in hom_maps(e, gamma)
            if is_display(m, model.bound)]


def _obj_typing_check(model, gamma, size_bound=None):
    """``typing_check`` with the maps over ``gamma`` enumerated by block
    and compared as ``PresheafMap`` sets."""
    if size_bound is None:
        size_bound = model.bound * max(1, max(gamma.sizes.values(), default=1))
    report = {"essential_surjectivity": True, "fully_faithful": True,
              "display_maps": 0, "type_pairs": 0}
    for m in _ref_display_maps_into(model, gamma, size_bound):
        report["display_maps"] += 1
        a, iso = straighten(m)
        if not iso.is_iso() or compose_maps(m, iso) != comprehension(a).p:
            report["essential_surjectivity"] = False
            return report
    types = all_types_over(model, gamma, model.bound)
    for a in types:
        ca = comprehension(a)
        for b in types:
            report["type_pairs"] += 1
            cb = comprehension(b)
            tms = type_maps(a, b)
            blocks = {}
            for i in gamma.base.objects:
                for v in ca.presheaf.elements(i):
                    g = ca.p.apply(i, v)
                    start = cb.offsets[(i, g)]
                    blocks[(i, v)] = range(start, start + b.fiber[(i, g)])
            over = hom_maps(ca.presheaf, cb.presheaf, blocks)
            induced = {PresheafMap(ca.presheaf, cb.presheaf,
                                   {i: tuple(cb.encode(i, g, tm.apply(i, g, x))
                                             for g in gamma.elements(i)
                                             for x in range(a.fiber[(i, g)]))
                                    for i in gamma.base.objects})
                       for tm in tms}
            if induced != set(over) or len(induced) != len(tms):
                report["fully_faithful"] = False
                return report
    return report


def _ref_isos(a, b):
    return [m for m in type_maps(a, b) if m.is_iso()]


def _ref_classifier_check(u, size_bound=None):
    model = u.model
    c = model.base
    report = {"bijective": True, "natural": True}

    def code_to_type(i, idx):
        x = u.codes[i][idx]
        fiber, restriction = {}, {}
        for j in c.objects:
            for n, f in enumerate(c.hom(j, i)):
                fiber[(j, n)] = x.sizes[f]
        for g in c.morphisms:
            for n, f in enumerate(c.hom(c.dst[g], i)):
                restriction[(g, n)] = x.action[f"{g}@{f}"]
        return TypeOverContext(yoneda(c, i), fiber, restriction)

    for i in c.objects:
        types = {code_to_type(i, n) for n in range(len(u.codes[i]))}
        bounded = set(all_types_over(model, yoneda(c, i), model.bound))
        if types != bounded or len(u.codes[i]) != len(types):
            report["bijective"] = False
            report["witness"] = i
            return report
    for f in c.morphisms:
        j, i = c.src[f], c.dst[f]
        yf = yoneda_map(c, f)
        for n in range(len(u.codes[i])):
            if code_to_type(j, u.presheaf.act(f, n)) != subst_type(code_to_type(i, n), yf):
                report["natural"] = False
                report["witness"] = (f, n)
                return report
    return report


def _ref_realignment_check(u, size_bound, max_cases=None):
    cases = 0
    contexts = all_presheaves(u.model.base, size_bound)
    for delta in contexts:
        for gamma in contexts:
            for mono in mono_maps(delta, gamma):
                for a_code in hom_maps(delta, u.presheaf):
                    ta = u.decode(a_code)
                    for b_code in hom_maps(gamma, u.presheaf):
                        tb = u.decode(b_code)
                        tbm = subst_type(tb, mono)
                        for phi in type_maps(ta, tbm):
                            if not phi.is_iso():
                                continue
                            cases += 1
                            if max_cases is not None and cases > max_cases:
                                return {"ok": True, "cases": cases - 1, "truncated": True}
                            b2, phi2 = natmodel.realign(u, mono, ta, tb, phi)
                            if compose_maps(b2, mono) != a_code:
                                return {"ok": False, "cases": cases,
                                        "reason": "code does not restrict on the nose"}
                            if not phi2.is_iso() or subst_type_map(phi2, mono) != phi:
                                return {"ok": False, "cases": cases,
                                        "reason": "iso does not restrict to phi"}
                            if u.decode(b2) != phi2.source:
                                return {"ok": False, "cases": cases,
                                        "reason": "decoded realigned code disagrees"}
    return {"ok": True, "cases": cases, "truncated": False}


def _universe(name, bound):
    return hs_universe(NaturalModel(load_model(name).category, bound))


def _unwitnessed(report):
    return {k: v for k, v in report.items() if k != "witness"}


def _ref_validate(cat):
    """``InternalCategory.validate`` as it was: associativity tried at
    every composable pair and every morphism, whatever its target."""
    errs = []
    for m in (cat.src, cat.tgt, cat.ident, cat.comp):
        errs.extend(m.validate())
    if errs:
        return errs
    for o in cat.obj.base.objects:
        for x in cat.obj.elements(o):
            e = cat.ident.apply(o, x)
            if cat.src.apply(o, e) != x or cat.tgt.apply(o, e) != x:
                errs.append(f"identity at ({o!r}, {x}) has wrong endpoints")
        for (m2, m1) in cat.pairs.pairs[o]:
            v = cat.compose_at(o, m2, m1)
            if cat.src.apply(o, v) != cat.src.apply(o, m1) or \
                    cat.tgt.apply(o, v) != cat.tgt.apply(o, m2):
                errs.append(f"composition at ({o!r}, {m2}, {m1}) has wrong endpoints")
        for m in cat.mor.elements(o):
            le = cat.ident.apply(o, cat.tgt.apply(o, m))
            re = cat.ident.apply(o, cat.src.apply(o, m))
            if cat.compose_at(o, le, m) != m or cat.compose_at(o, m, re) != m:
                errs.append(f"unit law fails at ({o!r}, {m})")
        for m3, m2 in cat.pairs.pairs[o]:
            for m1 in cat.mor.elements(o):
                if cat.src.apply(o, m2) == cat.tgt.apply(o, m1) and \
                        cat.compose_at(o, cat.compose_at(o, m3, m2), m1) != \
                        cat.compose_at(o, m3, cat.compose_at(o, m2, m1)):
                    errs.append(f"associativity fails at ({o!r})")
    return errs


# each shipped model at its own bound, but sierpinski at 1: at its bound 2
# the cubic reference runs for minutes
@pytest.mark.parametrize("name,bound", [("arrow", 1), ("arrow", 2), ("chain3", 1), ("disc2", 2),
                                        ("one", 3), ("sierpinski", 1), ("two", 1), ("two", 2)])
def test_internal_category_validation_agrees_with_the_cubic_loop(name, bound):
    cat = universe_internal_category(_universe(name, bound)).cat
    assert cat.validate() == _ref_validate(cat) == []


def test_exchanged_composites_fail_both_validations_alike():
    """Two composites with the same endpoints and different values
    exchanged, over the one-object category, where any column is
    natural: the unit law and associativity fail, with the same list."""
    cat = universe_internal_category(_universe("one", 2)).cat
    o = cat.obj.base.objects[0]
    pairs, col = cat.pairs.pairs[o], list(cat.comp.component[o])
    src, tgt, seen = cat.src.component[o], cat.tgt.component[o], {}
    for i, (m2, m1) in enumerate(pairs):
        j = next((j for j in seen.get((src[m1], tgt[m2]), []) if col[j] != col[i]), None)
        if j is not None:
            break
        seen.setdefault((src[m1], tgt[m2]), []).append(i)
    col[i], col[j] = col[j], col[i]
    bad = replace(cat, comp=replace(cat.comp, component={**cat.comp.component, o: tuple(col)}))
    errs = bad.validate()
    assert errs == _ref_validate(bad)
    assert "associativity fails at ('*')" in errs and any("unit law" in e for e in errs)


@pytest.mark.parametrize("name,bound", CONFIGS)
def test_typing_check_agrees(name, bound):
    cat = load_model(name).category
    for gamma in all_presheaves(cat, 1)[:6]:
        got = typing_check(NaturalModel(cat, bound), gamma)
        want = _ref_typing_check(NaturalModel(cat, bound), gamma)
        assert _unwitnessed(got) == _unwitnessed(want)
        assert got["type_pairs"] > 0


@pytest.mark.parametrize("name,bound", CONFIGS)
def test_flat_checks_agree_with_their_object_bodies(name, bound):
    cat = load_model(name).category
    model = NaturalModel(cat, bound)
    for gamma in all_presheaves(cat, 1)[:6]:
        # sources of size 2 over a fiber bound of 1 exercise the filter
        got = all_display_maps_into(model, gamma, 2)
        assert got == _ref_display_maps_into(model, gamma, 2)
        assert _unwitnessed(typing_check(model, gamma)) == _obj_typing_check(model, gamma)
        types = all_types_over(model, gamma, bound)
        for a in types:
            for b in types:
                if a.fiber != b.fiber:
                    continue
                ends, families = _flat_maps(a, b)
                kept = [f for f in families if _fibers_within(ends, f, 1)]
                assert kept == [tuple(x for col in m.component.values() for x in col)
                                for m in _ref_isos(a, b)]


@pytest.mark.parametrize("name,bound", CONFIGS)
def test_realignment_case_counts_agree(name, bound):
    want = _ref_realignment_check(_universe(name, bound), bound, max_cases=300)
    assert realignment_check(_universe(name, bound), bound, max_cases=300) == want
    assert want["ok"] and want["cases"] > 0


def test_a_shifted_offset_breaks_full_faithfulness(monkeypatch):
    cat = load_model("chain3").category
    gamma = next(g for g in all_presheaves(cat, 1) if sum(g.sizes.values()) == 2)
    assert typing_check(NaturalModel(cat, 2), gamma)["fully_faithful"]
    starts = natmodel._block_starts

    def shifted(a, cb):
        s = starts(a, cb)
        return s[:1] and (s[0] + 1, *s[1:])
    monkeypatch.setattr(natmodel, "_block_starts", shifted)
    report = typing_check(NaturalModel(cat, 2), gamma)
    assert report["essential_surjectivity"] and not report["fully_faithful"]


def test_a_non_bijection_through_the_iso_filter_fails_realignment(monkeypatch):
    assert realignment_check(_universe("two", 2), 1)["ok"]
    monkeypatch.setattr(natmodel, "_fibers_within", lambda ends, fam, bound: True)
    with pytest.raises(AssertionError, match="not an isomorphism"):
        realignment_check(_universe("two", 2), 1)


@pytest.mark.parametrize("name,bound", CONFIGS)
def test_classifier_check_agrees(name, bound):
    got = classifier_check(_universe(name, bound), bound)
    assert _unwitnessed(got) == _unwitnessed(_ref_classifier_check(_universe(name, bound), bound))
    assert got == {"bijective": True, "natural": True}


@pytest.mark.parametrize("name,bound", CONFIGS)
def test_realignment_check_agrees_at_every_ceiling(name, bound):
    for max_cases in (1, 7, 100, 1000):
        got = realignment_check(_universe(name, bound), 1, max_cases=max_cases)
        assert got == _ref_realignment_check(_universe(name, bound), 1, max_cases=max_cases)


def _realign_failing_at(n):
    """``realign`` that, at its ``n``-th call, returns another code of the
    same context in place of the realigned one."""
    calls = {"n": 0, "fired": False}

    def realign(u, mono, ta, tb, phi):
        b2, phi2 = REALIGN(u, mono, ta, tb, phi)
        calls["n"] += 1
        if calls["n"] == n:
            other = next((m for m in hom_maps(mono.target, u.presheaf) if m != b2), None)
            if other is not None:
                calls["fired"] = True
                b2 = other
        return b2, phi2
    return realign, calls


@pytest.mark.parametrize("name,bound", CONFIGS)
def test_realignment_check_stops_at_the_same_fault(name, bound, monkeypatch):
    faults = 0
    for n in (1, 5, 40, 150):
        fake, calls = _realign_failing_at(n)
        monkeypatch.setattr(natmodel, "realign", fake)
        got = realignment_check(_universe(name, bound), 1, max_cases=1000)
        fired = calls["fired"]
        fake, calls = _realign_failing_at(n)
        monkeypatch.setattr(natmodel, "realign", fake)
        want = _ref_realignment_check(_universe(name, bound), 1, max_cases=1000)
        assert got == want
        assert calls["fired"] == fired
        if fired:
            assert not got["ok"] and got["cases"] == n
            faults += 1
    assert faults > 0


def test_a_swapped_code_index_fails_realignment():
    """``encode`` finds codes through the index alone: with two of its
    entries exchanged after the universe is built, realigned codes come
    back wrong and realignment fails."""
    u = _universe("two", 2)
    assert realignment_check(u, 1)["ok"]
    index = u.index["1"]
    k0, k1 = [k for k, n in index.items() if n in (0, 1)]
    index[k0], index[k1] = 1, 0
    assert not realignment_check(u, 1)["ok"]


def test_a_code_index_swapped_while_building_fails_both_checks(monkeypatch):
    """``hs_universe`` restricts codes through the index: with two entries
    exchanged as it is built, code restriction is no longer substitution
    along the Yoneda action, and realignment fails too."""
    build = natmodel._code_key
    cat = load_model("two").category
    first = [build(x) for x in all_presheaves(slice_category(cat, "0").cat, 2)[:2]]
    swap = dict(zip(first, reversed(first)))
    monkeypatch.setattr(natmodel, "_code_key", lambda x: swap.get(build(x), build(x)))
    u = _universe("two", 2)
    assert u.index["0"][first[0]] == 1
    assert classifier_check(u, 2)["natural"] is False
    assert not realignment_check(u, 1)["ok"]
