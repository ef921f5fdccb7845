"""``comparison_check`` against the construction it replaced.

``_ref_comparison_check`` decides faithfulness with a separate pass over
every hom set (``left_adjoint_faithful``) and essential surjectivity by
testing each image against each coalgebra class for isomorphism.  The
checker decides both inside its single pass over the hom sets.  The two
must agree on every field but the witness text, for comonadic functors
and for functors whose restriction is not faithful.
"""

import pytest

from boxsem.coalg import (Coalgebra, coalgebra_laws, coalgebra_maps, comonad_from_adjunction,
                          comparison_check, comparison_object, enumerate_coalgebras,
                          left_adjoint_faithful)
from boxsem.fincat import Functor, discrete_subcategory
from boxsem.natmodel import all_presheaves
from boxsem.presheaf import KanAdjunction, hom_maps, iso_maps
from boxsem.standard import walking_arrow
from test_fincat import chain, identity_functor, terminal_category


def _ref_comparison_check(adj, w, size_bound):
    faithful, witness = left_adjoint_faithful(adj, size_bound)
    ps = all_presheaves(adj.big, size_bound)
    images = [comparison_object(w, p) for p in ps]
    for cg in images:
        errs = coalgebra_laws(w, cg)
        if errs:
            return {"ok": False, "witness": f"comparison image breaks laws: {errs[0]}"}
    cgs = enumerate_coalgebras(w, size_bound)

    def iso_classes(items, is_iso_pair):
        classes = []
        for i in range(len(items)):
            for cl in classes:
                if is_iso_pair(items[cl[0]], items[i]):
                    cl.append(i)
                    break
            else:
                classes.append([i])
        return classes

    def coalg_iso(a: Coalgebra, b: Coalgebra) -> bool:
        return any(h.is_iso() for h in coalgebra_maps(w, a, b))

    p_classes = iso_classes(ps, lambda a, b: bool(iso_maps(a, b)))
    c_classes = iso_classes(cgs, coalg_iso)
    surjective = all(any(coalg_iso(images[cl[0]], cg) for cl in p_classes)
                     for cg in (cgs[cl[0]] for cl in c_classes))
    hom_ok, hom_witness = True, None
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            upstairs = hom_maps(p, q)
            image = {w.adj.restrict_map(h) for h in upstairs}
            downstairs = set(coalgebra_maps(w, images[i], images[j]))
            if len(image) != len(upstairs) or image != downstairs:
                hom_ok = False
                hom_witness = f"hom sets differ between {p.sizes} and {q.sizes}"
                break
        if not hom_ok:
            break
    ok = faithful and surjective and hom_ok and len(p_classes) == len(c_classes)
    return {"ok": ok,
            "faithful": faithful,
            "presheaf_count": len(ps),
            "coalgebra_count": len(cgs),
            "presheaf_classes": len(p_classes),
            "coalgebra_classes": len(c_classes),
            "essentially_surjective": surjective,
            "hom_sets_match": hom_ok,
            "witness": witness or hom_witness}


def _onto(target, obj):
    one = terminal_category()
    return Functor(f"at_{obj}", one, target, {"*": obj}, {"id_*": target.id(obj)})


def _functors():
    two, c3 = walking_arrow(), chain(3)
    return {
        "points of two": discrete_subcategory(two)[1],
        "points of chain3": discrete_subcategory(c3)[1],
        "identity of two": identity_functor(two),
        "onto 0 of two": _onto(two, "0"),
        "onto 1 of two": _onto(two, "1"),
        "two onto 0->2 of chain3": Functor("skip", two, c3, {"0": "0", "1": "2"},
                                           {"id_0": "id_0", "id_1": "id_2",
                                            "0->1": "0->2"}),
    }


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("name", list(_functors()))
def test_comparison_check_matches_the_two_pass_construction(name, bound):
    adj = KanAdjunction(_functors()[name])
    w = comonad_from_adjunction(adj)
    got = comparison_check(adj, w, bound)
    want = _ref_comparison_check(adj, w, bound)
    assert set(got) == set(want)
    assert {k: v for k, v in got.items() if k != "witness"} == \
        {k: v for k, v in want.items() if k != "witness"}
    assert (got["witness"] is None) == (want["witness"] is None)


def test_the_oracle_panel_reaches_unfaithful_restriction():
    # without these the panel would not exercise the faithfulness verdict
    for name in ("onto 0 of two", "onto 1 of two"):
        adj = KanAdjunction(_functors()[name])
        assert not comparison_check(adj, comonad_from_adjunction(adj), 2)["faithful"]
