"""Sub-coalgebras and the two classifiers against their earlier versions.

``largest_sub_coalgebra`` and ``sub_coalgebras`` read the box through
its points: an element of the carrier needs its restrictions and the box
points of its structure, and one greatest fixed point
(``_largest_closed``) keeps what has all it needs.  The ``_ref_*``
versions below are the earlier ones.  ``_ref_largest_sub_coalgebra``
alternates closing the selection under restriction with rebuilding the
subpresheaf and boxing its inclusion, until neither removes anything.
``_ref_sub_coalgebras`` builds the sub-coalgebra on every subpresheaf
and keeps those whose construction raises no ``ComonadError``.  Both
must give the same selections, carriers, structures and inclusions.
"""

import itertools

import pytest

from boxsem import coalg
from boxsem.cli import load_model
from boxsem.coalg import (ComonadError, _largest_closed, cofree_coalgebra,
                          coalgebra_classifier, enumerate_coalgebras, identity_comonad,
                          kock_wraith_classifier, largest_sub_coalgebra, sub_coalgebra,
                          sub_coalgebras)
from boxsem.natmodel import NaturalModel, all_presheaves
from boxsem.presheaf import sub_presheaf, subpresheaves
from boxsem.standard import walking_arrow


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


MODELS = ["one", "two", "chain3", "disc2"]


def _assert_same_largest(w, cg, members):
    scg, inc, sel = largest_sub_coalgebra(w, cg, members)
    ref_scg, ref_inc, ref_sel = _ref_largest_sub_coalgebra(w, cg, members)
    assert sel == ref_sel
    assert scg.carrier == ref_scg.carrier and scg.structure == ref_scg.structure
    assert inc == ref_inc
    return scg, inc, sel


@pytest.mark.parametrize("name", MODELS)
def test_sub_coalgebras_agree_on_every_model(name):
    w = load_model(name).comonad
    n = 0
    for cg in enumerate_coalgebras(w, 2):
        assert sub_coalgebras(w, cg) == _ref_sub_coalgebras(w, cg)
        n += 1
    assert n > 0


@pytest.mark.parametrize("name", MODELS)
def test_classifiers_agree_on_every_model(name, monkeypatch):
    """Both classifiers carve their carrier out of a cofree coalgebra;
    each carving is compared with the earlier version on the same
    members."""
    w = load_model(name).comonad
    carved = []

    def both(w, cg, members):
        carved.append(members)
        return _assert_same_largest(w, cg, members)

    monkeypatch.setattr(coalg, "largest_sub_coalgebra", both)
    coalgebra_classifier(w)
    kock_wraith_classifier(w)
    assert len(carved) == 2


def test_largest_sub_coalgebra_agrees_on_every_selection():
    """Under the identity comonad on the walking arrow, on the cofree
    coalgebra over every carrier of sizes up to 2, with every selection
    of members, closed under restriction or not."""
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
            _assert_same_largest(w, cg, members)
            cases += 1
            open_cases += members not in closed
    assert cases == 99
    assert open_cases > 0


def test_largest_closed_drops_whatever_needs_a_dropped_element():
    """On the needs of lawful structures one pass over the candidates
    already reaches the fixed point, since what an element needs holds
    what its needs need.  Here needs are arbitrary: three candidates,
    each needing any set of them and of one element outside ``keep``,
    against dropping until nothing changes."""
    outside = ("b", 0)
    elements = [("a", 0), ("a", 1), ("a", 2), outside]
    chains = 0
    for choice in itertools.product(range(1 << 4), repeat=3):
        graph = {("a", v): [e for k, e in enumerate(elements) if choice[v] >> k & 1]
                 for v in range(3)}
        alive = set(elements[:3])
        while any(n not in alive for e in alive for n in graph[e]):
            alive = {e for e in alive if all(n in alive for n in graph[e])}
        got = _largest_closed({"a": [0, 1, 2]}, lambda k, v: graph[(k, v)])
        assert got == {"a": frozenset(v for _, v in alive)}
        chains += alive != {e for e in elements[:3] if outside not in graph[e]}
    assert chains > 0
