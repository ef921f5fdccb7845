"""Sub-coalgebras and the two classifiers against their earlier versions.

Both classifiers carve their carrier out of a cofree coalgebra as an
equalizer of coalgebra maps, which is closed, and hand it to
``sub_coalgebra``, which raises ``ComonadError`` on a selection not
closed under restriction and structure.  ``sub_coalgebras`` keeps
the subpresheaves that hold the box points of their elements'
structure.  The ``_ref_*`` versions below are the earlier ones.
``_ref_largest_sub_coalgebra`` alternates closing the selection under
restriction with rebuilding the subpresheaf and boxing its inclusion,
until neither removes anything: the largest sub-coalgebra inside the
members.  It must keep every member of each carving, with the same
carrier, structure and inclusion, and ``sub_coalgebra`` must succeed
exactly where it keeps every member.  ``_ref_sub_coalgebras`` builds
the sub-coalgebra on every subpresheaf and keeps those whose
construction raises no ``ComonadError``.
"""

import pytest

from boxsem import coalg
from boxsem.cli import load_model
from boxsem.coalg import (ComonadError, cofree_coalgebra, coalgebra_classifier,
                          enumerate_coalgebras, identity_comonad, kock_wraith_classifier,
                          sub_coalgebra, sub_coalgebras)
from boxsem.natmodel import NaturalModel, all_presheaves
from boxsem.presheaf import sub_presheaf, subpresheaves
from boxsem.standard import walking_arrow
from test_structured_oracles import FUNCTORS, _comonad


# ---------------------------------------------------------------------------
# Reference versions


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
    scg, inc = sub_coalgebra(w, cg, sel)
    return scg, inc, sel


def _ref_sub_coalgebras(w, cg):
    out = []
    for sel in subpresheaves(cg.carrier):
        try:
            sub_coalgebra(w, cg, sel)
        except ComonadError:
            continue
        out.append(sel)
    return out


# ---------------------------------------------------------------------------
# Comparisons


MODELS = ["one", "two", "chain3", "disc2", "arrow"]


def _assert_keeps_every_member(w, cg, members):
    scg, inc = sub_coalgebra(w, cg, members)
    ref_scg, ref_inc, ref_sel = _ref_largest_sub_coalgebra(w, cg, members)
    assert ref_sel == {o: frozenset(members.get(o, ())) for o in cg.carrier.base.objects}
    assert scg.carrier == ref_scg.carrier and scg.structure == ref_scg.structure
    assert inc == ref_inc
    return scg, inc


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

    def checked(w, cg, members):
        carved.append(members)
        return _assert_keeps_every_member(w, cg, members)

    monkeypatch.setattr(coalg, "sub_coalgebra", checked)
    coalgebra_classifier(w)
    kock_wraith_classifier(w)
    assert len(carved) == 2


def test_largest_sub_coalgebra_agrees_on_every_selection():
    """Under the identity comonad on the walking arrow, on the cofree
    coalgebra over every carrier of sizes up to 2, with every selection
    of members, closed under restriction or not: ``sub_coalgebra``
    succeeds where the largest sub-coalgebra inside the members keeps
    them all, and raises ``ComonadError`` where it drops some."""
    w = identity_comonad(NaturalModel(walking_arrow(), 2))
    cases, open_cases = 0, 0
    for q in all_presheaves(w.model.base, 2):
        cg = cofree_coalgebra(w, q)
        elems = [(o, x) for o in q.base.objects for x in q.elements(o)]
        closed = subpresheaves(q)
        for mask in range(1 << len(elems)):
            members = {o: frozenset(x for k, (o2, x) in enumerate(elems)
                                    if o2 == o and mask >> k & 1)
                       for o in q.base.objects}
            if _ref_largest_sub_coalgebra(w, cg, members)[2] == members:
                _assert_keeps_every_member(w, cg, members)
            else:
                with pytest.raises(ComonadError):
                    sub_coalgebra(w, cg, members)
            cases += 1
            open_cases += members not in closed
    assert cases == 99
    assert open_cases > 0
