"""Sub-coalgebras, the two classifiers and the structured dependent
product against their earlier versions.

The dependent product and both classifiers carve their carrier out of a
cofree box with one body, ``_Level.carve``: it keeps the elements of a
stage-wise set ``holds`` whose points of ``delta`` all lie in ``holds``,
reading those points without building the box of the box, and equips
the result with its structure.  ``sub_coalgebras`` keeps the
subpresheaves that hold the box points of their elements' structure.
The ``_ref_*`` versions below are the earlier ones:

* ``_ref_sub_coalgebra`` restricts a coalgebra to a selection, reading
  the box points of its structure, and raises ``ComonadError`` on a
  selection not closed under restriction and structure;
* ``_ref_kock_wraith`` keeps the fixed points of ``box(b) . delta``;
* ``_ref_coalgebra_classifier`` tests the endpoint conditions as boxed
  maps, through ``box(beta)`` and ``comult(U)``, and restricts the whole
  cofree coalgebra;
* ``_ref_fiber_comult_pi`` restricts the box of the plain dependent
  product along ``fiber_comult``;
* ``_ref_largest_sub_coalgebra`` alternates closing the selection under
  restriction with rebuilding the subpresheaf and boxing its inclusion,
  until neither removes anything: the largest sub-coalgebra inside the
  members;
* ``_ref_sub_coalgebras`` builds the sub-coalgebra on every subpresheaf
  and keeps those whose construction raises no ``ComonadError``.

Each carving must give the same carrier, structure and inclusion.
"""

import itertools

import pytest

from boxsem import coalg
from boxsem.cli import load_model
from boxsem.coalg import (Coalgebra, ComonadError, _Level, _positions, _presheaf_level,
                          _type_level, classifier_report, coalg_exponential, coalg_extension,
                          coalg_pi, coalgebra_classifier, coalgebra_types_over, code_actions,
                          cofree_coalgebra, comonad_from_adjunction, enumerate_coalgebras,
                          identity_comonad, kock_wraith_classifier, kock_wraith_report,
                          sieve_action, sub_coalgebras, terminal_coalgebra,
                          universe_internal_category, validate_comonad)
from boxsem.fincat import Functor
from boxsem.natmodel import ModelError, NaturalModel, all_presheaves, hs_universe, pi_type
from boxsem.presheaf import (KanAdjunction, compose_maps, product, sub_presheaf,
                             subobject_classifier, subpresheaves)
from boxsem.standard import walking_arrow
from test_fincat import chain
from test_structured_oracles import FUNCTORS, _comonad, _ladder


# ---------------------------------------------------------------------------
# Reference versions


def _ref_restrict(level, x, theta, keep, what):
    """``theta`` on the subobject ``keep`` of ``x``, with its inclusion,
    read at the box points of ``theta``."""
    try:
        sub, inc = level.sub(x, keep)
    except (ValueError, ModelError) as e:
        raise ComonadError(str(e)) from None
    index = {k: {v: n for n, v in enumerate(col)} for k, col in inc.component.items()}
    points, points_sub = level.points(x), level.points(sub)
    comp = {}
    for k, col in inc.component.items():
        fibers, pts, _ = points(k)
        comp[k] = _positions(points_sub(k)[2], (tuple(index[f].get(p) for f, p in zip(
            fibers, pts[theta[k][v]])) for v in col),
            f"{what} is not closed under its structure", k)
    return level.structure(sub, comp, f"{what} carries no lawful structure"), inc


def _ref_sub_coalgebra(w, cg, sel):
    th, inc = _ref_restrict(_presheaf_level(w), cg.carrier, cg.structure.component, sel,
                            "subpresheaf")
    return Coalgebra(th.source, th), inc


def _ref_with_points_in(holds, structure, points):
    """The elements of ``holds`` whose structure has every box point in
    ``holds``, read in the box of the box."""
    return {key: frozenset(v for v in holds[key] if all(
        p in holds[f] for f, p in zip(points(key)[0], points(key)[1][col[v]])))
        for key, col in structure.items()}


def _ref_kock_wraith(w):
    om = subobject_classifier(w.model.base)
    endo = compose_maps(w.box_map(sieve_action(w, om)), w.comult(om.presheaf))
    members = {o: frozenset(x for x in w.box(om.presheaf).elements(o)
                            if endo.apply(o, x) == x)
               for o in w.model.base.objects}
    return _ref_sub_coalgebra(w, cofree_coalgebra(w, om.presheaf), members)


def _ref_coalgebra_classifier(w):
    u = hs_universe(w.model)
    uc = universe_internal_category(u)
    q = product(u.presheaf, uc.cat.mor)
    bq = w.box(q.presheaf)
    bfst, bsnd = w.box_map(q.fst), w.box_map(q.snd)
    bsrc, btgt = w.box_map(uc.cat.src), w.box_map(uc.cat.tgt)
    beta, eps_code, dlt_code, bmor = code_actions(w, uc)
    bbeta, dlt0 = w.box_map(beta), w.comult(u.presheaf)
    eps0, eps1 = w.counit(u.presheaf), w.counit(uc.cat.mor)

    def lawful(o, v):
        phi, psi = bfst.apply(o, v), bsnd.apply(o, v)
        if bsrc.apply(o, psi) != phi or btgt.apply(o, psi) != bbeta.apply(o, dlt0.apply(o, phi)):
            return False
        m = eps1.apply(o, psi)
        return (uc.cat.compose_at(o, eps_code.apply(o, phi), m)
                == uc.cat.ident.apply(o, eps0.apply(o, phi))
                and uc.cat.compose_at(o, dlt_code.apply(o, phi), m)
                == uc.cat.compose_at(o, bmor.apply(o, psi), m))

    holds = {o: frozenset(v for v in bq.elements(o) if lawful(o, v)) for o in w.model.base.objects}
    cofree = cofree_coalgebra(w, q.presheaf)
    members = _ref_with_points_in(holds, cofree.structure.component,
                                  lambda o: w.box_points(bq, o))
    return _ref_sub_coalgebra(w, cofree, members)


def _ref_fiber_comult_pi(w, x, yb):
    """The structured dependent product's structure and inclusion."""
    cg, a = x.coalg, x.type
    cge, _, _ = coalg_extension(w, x)
    plain = pi_type(a, yb.type)
    box_pi = w.bbox_type(cg, plain.type)
    eps, dlt = w.fiber_counit(cg, plain.type), w.fiber_comult(cg, plain.type)
    app, encode = plain.app, plain.comp.encode
    points_p, points_a = w.bbox_points(cg, plain.type), w.bbox_points(cg, a)
    points_b = w.bbox_points(cge, yb.type)
    holds = {}
    for (o, g), n in box_pi.fiber.items():
        fibers, pts_p, _ = points_p((o, g))
        pts_a, ta, ec = points_a((o, g))[1], x.theta.component[(o, g)], eps.component[(o, g)]
        args = []
        for t in range(a.fiber[(o, g)]):
            gt = encode(o, g, t)
            args.append((t, pts_a[ta[t]], points_b((o, gt))[1], yb.theta.component[(o, gt)]))
        holds[(o, g)] = frozenset(v for v in range(n) if all(
            tuple(app(*f, e, p) for f, e, p in zip(fibers, pts_p[v], pts_t))
            == pts_b[tb[app(o, g, ec[v], t)]] for t, pts_t, pts_b, tb in args))
    keep = _ref_with_points_in(holds, dlt.component, w.bbox_points(cg, box_pi))
    return _ref_restrict(_type_level(w, cg), box_pi, dlt.component, keep,
                         "dependent product of structured types")


def _ref_largest_sub_coalgebra(w, cg, members):
    p = cg.carrier
    c = p.base
    sel = {o: frozenset(members.get(o, frozenset())) for o in c.objects}
    while True:
        changed = True
        while changed:
            changed = False
            for f in c.morphisms:
                i, j = c.src[f], c.dst[f]
                good = frozenset(x for x in sel[j] if p.act(f, x) in sel[i])
                if good != sel[j]:
                    sel[j] = good
                    changed = True
        sub, inc = sub_presheaf(p, sel)
        bm = w.box_map(inc)
        kept = {}
        shrunk = False
        for o in c.objects:
            image = set(bm.component[o])
            good = []
            for x in sel[o]:
                if cg.structure.apply(o, x) in image:
                    good.append(x)
                else:
                    shrunk = True
            kept[o] = frozenset(good)
        if not shrunk:
            break
        sel = kept
    scg, inc = _ref_sub_coalgebra(w, cg, sel)
    return scg, inc, sel


def _ref_sub_coalgebras(w, cg):
    out = []
    for sel in subpresheaves(cg.carrier):
        try:
            _ref_sub_coalgebra(w, cg, sel)
        except ComonadError:
            continue
        out.append(sel)
    return out


# ---------------------------------------------------------------------------
# Comparisons


MODELS = ["one", "two", "chain3", "disc2", "arrow"]


def collapse():
    """The walking arrow onto the one-object poset."""
    return Functor("collapse", walking_arrow(), chain(1), {"0": "0", "1": "0"},
                   {"id_0": "id_0", "id_1": "id_0", "0->1": "id_0"})


def _kan(functor, bound):
    return lambda: comonad_from_adjunction(KanAdjunction(functor()), bound)


COMONADS = {
    **{m: lambda m=m: load_model(m).comonad for m in MODELS},
    **{f"{name} at {b}": _kan(functor, b)
       for name, functor in [*FUNCTORS.items(), ("collapse", collapse)] for b in (1, 2)},
    "identity of two at 2": lambda: identity_comonad(NaturalModel(walking_arrow(), 2)),
}


def _assert_same_coalgebra(scg, inc, ref_scg, ref_inc):
    assert scg.carrier == ref_scg.carrier and scg.structure == ref_scg.structure
    assert inc == ref_inc


def _assert_keeps_every_member(w, x, th, inc):
    """The carving ``th``, ``inc`` of the cofree coalgebra on ``x`` is the
    earlier largest sub-coalgebra inside its members."""
    members = {o: frozenset(col) for o, col in inc.component.items()}
    ref_scg, ref_inc, ref_sel = _ref_largest_sub_coalgebra(w, cofree_coalgebra(w, x), members)
    assert ref_sel == members
    _assert_same_coalgebra(Coalgebra(th.source, th), inc, ref_scg, ref_inc)


@pytest.mark.parametrize("name", MODELS)
def test_sub_coalgebras_agree_on_every_model(name):
    w = load_model(name).comonad
    n = 0
    for cg in enumerate_coalgebras(w, 2):
        assert sub_coalgebras(w, cg) == _ref_sub_coalgebras(w, cg)
        n += 1
    assert n > 0


@pytest.mark.parametrize("name", [*MODELS, *FUNCTORS])
def test_classifiers_agree_on_every_model(name, monkeypatch):
    """Both classifiers carve their carrier out of a cofree coalgebra;
    the earlier largest sub-coalgebra inside each carving's members must
    keep all of them."""
    w = _comonad(name)
    carved = []
    carve = _Level.carve

    def checked(level, x, holds, what):
        th, inc = carve(level, x, holds, what)
        carved.append(what)
        _assert_keeps_every_member(w, x, th, inc)
        return th, inc

    monkeypatch.setattr(_Level, "carve", checked)
    coalgebra_classifier(w)
    kock_wraith_classifier(w)
    assert len(carved) == 2


@pytest.mark.parametrize("name", COMONADS)
def test_carvings_agree_with_their_boxed_forms(name):
    """Ω, the type classifier and the dependent products over each
    extension by a structured type of fiber 1, at fibers up to 2, against
    their forms that build the box of the box."""
    w = COMONADS[name]()
    kw = kock_wraith_classifier(w)
    _assert_same_coalgebra(kw.coalgebra, kw.inclusion, *_ref_kock_wraith(w))
    clf = coalgebra_classifier(w)
    _assert_same_coalgebra(clf.coalgebra, clf.inclusion, *_ref_coalgebra_classifier(w))
    one, n = terminal_coalgebra(w), 0
    for xt in coalgebra_types_over(w, one, 1):
        cge, _, _ = coalg_extension(w, xt)
        for yb in coalgebra_types_over(w, cge, 2):
            cp, (th, inc) = coalg_pi(w, xt, yb), _ref_fiber_comult_pi(w, xt, yb)
            assert cp.type.type == th.source and cp.type.theta == th
            assert cp.inclusion == inc
            n += 1
    assert n > 0


def test_largest_sub_coalgebra_agrees_on_every_selection():
    """Under the identity comonad on the walking arrow, on the cofree
    coalgebra over every carrier of sizes up to 2, with every selection
    of members, closed under restriction or not: the carve succeeds where
    the largest sub-coalgebra inside the members keeps them all, and
    raises ``ComonadError`` where it drops some."""
    w = identity_comonad(NaturalModel(walking_arrow(), 2))
    level = _presheaf_level(w)
    cases, open_cases = 0, 0
    for q in all_presheaves(w.model.base, 2):
        elems = [(o, x) for o in q.base.objects for x in q.elements(o)]
        closed = subpresheaves(q)
        for mask in range(1 << len(elems)):
            members = {o: frozenset(x for k, (o2, x) in enumerate(elems)
                                    if o2 == o and mask >> k & 1)
                       for o in q.base.objects}
            if _ref_largest_sub_coalgebra(w, cofree_coalgebra(w, q), members)[2] == members:
                _assert_keeps_every_member(w, q, *level.carve(q, members, "a selection"))
            else:
                with pytest.raises(ComonadError):
                    level.carve(q, members, "a selection")
            cases += 1
            open_cases += members not in closed
    assert cases == 99
    assert open_cases > 0


def test_the_classifier_carve_can_fail(monkeypatch):
    """Along the walking arrow onto the one-object poset, at display bound
    2, the stage-wise set of the type classifier is larger than its
    carrier, so the classifier is wrong without its delta-point closure."""
    w = _kan(collapse, 2)()
    seen = []
    closure = coalg._with_points_in

    def spy(holds, read):
        seen.append({o: len(vs) for o, vs in holds.items()})
        return closure(holds, read)

    monkeypatch.setattr(coalg, "_with_points_in", spy)
    clf = coalgebra_classifier(w)
    assert seen == [{"0": 22, "1": 4}]
    assert clf.coalgebra.carrier.sizes == {"0": 4, "1": 4}
    assert classifier_report(w, clf)["ok"]
    assert kock_wraith_report(w, kock_wraith_classifier(w))["ok"]
    report = validate_comonad(w)
    assert report["ok"] and report["witnesses"] == []
    monkeypatch.setattr(coalg, "_with_points_in", lambda holds, read: holds)
    with pytest.raises(ComonadError, match="not closed under its structure"):
        coalgebra_classifier(_kan(collapse, 2)())


@pytest.mark.parametrize("name", ["two", "chain3"])
def test_products_build_no_box_of_a_box(name, monkeypatch):
    """With ``fiber_comult``, whose target is the box of a box, made to
    raise, dependent products and exponentials over the ladder, built
    afresh, give what they gave before."""
    w = load_model(name).comonad
    ladder = list(_ladder(w, 2))
    pairs = [(x, y) for _, types in ladder for x, y in itertools.product(types, repeat=2)]
    pis = [(xt, yb) for xt, (_, fams) in zip(
        coalgebra_types_over(w, terminal_coalgebra(w), 1), ladder[1:]) for yb in fams]
    before = [(e.type, e.inclusion, e.ev) for e in (coalg_exponential(w, x, y) for x, y in pairs)]
    before_pi = [(cp.type, cp.inclusion) for cp in (coalg_pi(w, x, y) for x, y in pis)]

    def boom(*args):
        raise AssertionError("fiber_comult builds the box of a box")

    monkeypatch.setattr(coalg.NaturalModelComonad, "fiber_comult", boom)
    w._built.clear()
    assert [(e.type, e.inclusion, e.ev) for e in
            (coalg_exponential(w, x, y) for x, y in pairs)] == before
    assert [(cp.type, cp.inclusion) for cp in (coalg_pi(w, x, y) for x, y in pis)] == before_pi
    assert pis and pairs


@pytest.mark.parametrize("name", ["two", "chain3", "collapse at 2"])
def test_classifiers_box_no_box_of_their_object(name, monkeypatch):
    """Each classifier boxes its object ``Q`` (``U x Mor`` or Ω), the
    cofree carrier, and never boxes ``box(Q)``.  On these comonads both
    carriers are smaller than ``box(Q)``; where a carrier is all of it
    (the Kan comonads along a fully faithful functor), ``box(box(Q))`` is
    the box of the carrier, the target of its structure."""
    boxed = []
    box_data = coalg.AdjunctionComonad.box_data

    def spy(w, p):
        boxed.append(p)
        return box_data(w, p)

    monkeypatch.setattr(coalg.AdjunctionComonad, "box_data", spy)
    for build, q in [(coalgebra_classifier, lambda c: c.pairing.presheaf),
                     (kock_wraith_classifier, lambda c: c.omega.presheaf)]:
        w = COMONADS[name]()
        boxed.clear()
        c = build(w)
        seen = list(boxed)
        assert q(c) in seen and c.coalgebra.carrier != w.box(q(c))
        assert w.box(q(c)) not in seen
