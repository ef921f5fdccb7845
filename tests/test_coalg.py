"""Comonads, their coalgebras, and the structured type theory inside."""

from pathlib import Path

import pytest

from boxsem.cli import load_model
from boxsem.coalg import (
    Coalgebra,
    ComonadError,
    EnumerationCeiling,
    coalg_exponential,
    coalg_extension,
    coalg_pi,
    coalg_sigma,
    coalg_subst,
    coalgebra_category,
    coalgebra_classifier,
    coalgebra_laws,
    coalgebra_maps,
    coalgebra_term_laws,
    coalgebra_type_laws,
    coalgebra_types_over,
    classifier_report,
    cofree_coalgebra,
    comonad_from_adjunction,
    comparison_check,
    enumerate_coalgebras,
    exponential_up_check,
    identity_comonad,
    kock_wraith_classifier,
    kock_wraith_report,
    pi_up_check,
    sub_coalgebras,
    terminal_coalgebra,
    validate_comonad,
)
from boxsem.fincat import Functor
from boxsem.natmodel import NaturalModel, all_presheaves, hs_universe
from boxsem.presheaf import KanAdjunction, Presheaf, compose_maps, hom_maps, identity_map
from boxsem.standard import walking_arrow
from test_fincat import discrete, terminal_category


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def flagship():
    """The comonad of the two-point discrete cover of the walking arrow."""
    two = walking_arrow()
    d2 = discrete(2)
    u = Functor("incl", d2, two,
                {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1"})
    return comonad_from_adjunction(KanAdjunction(u))


@pytest.fixture(scope="module")
def ident():
    return identity_comonad(NaturalModel(walking_arrow(), 1))


def test_flagship_comonad_laws(flagship):
    report = validate_comonad(flagship)
    assert report["witnesses"] == []
    assert report["ok"]
    for part in ("laws", "cartesian", "display", "tau", "fiber_laws", "faithful"):
        assert report[part], part


def test_identity_comonad_laws(ident):
    report = validate_comonad(ident)
    assert report["ok"]


def test_counit_comult_equations_pointwise(flagship):
    for p in all_presheaves(flagship.model.base, 1):
        bp = flagship.box(p)
        eps = flagship.counit(p)
        dlt = flagship.comult(p)
        # comultiplying then erasing either box is the identity
        assert compose_maps(flagship.counit(bp), dlt) == identity_map(bp)
        assert compose_maps(flagship.box_map(eps), dlt) == identity_map(bp)
        # coassociativity
        assert compose_maps(flagship.comult(bp), dlt) == \
            compose_maps(flagship.box_map(dlt), dlt)


def test_coalgebra_count_matches_presheaves_upstairs(flagship):
    # one coalgebra per presheaf on the arrow: 11 of each at bound 2
    cgs = enumerate_coalgebras(flagship, 2)
    want = sum(s0 ** s1 for s0 in range(3) for s1 in range(3)
               if s0 > 0 or s1 == 0)
    assert len(cgs) == want == 11
    for cg in cgs:
        assert coalgebra_laws(flagship, cg) == []


def test_enumeration_ceiling_raises(flagship):
    with pytest.raises(EnumerationCeiling):
        enumerate_coalgebras(flagship, 2, max_carriers=3)


def test_cofree_coalgebra_is_right_adjoint_to_forgetting(flagship):
    # maps of coalgebras into the cofree one correspond to plain maps
    # out of the carrier, by composing with the counit
    for cg in enumerate_coalgebras(flagship, 1):
        for q in all_presheaves(flagship.model.base, 1):
            cf = cofree_coalgebra(flagship, q)
            structured = coalgebra_maps(flagship, cg, cf)
            plain = hom_maps(cg.carrier, q)
            assert len(structured) == len(plain)
            down = {compose_maps(flagship.counit(q), h) for h in structured}
            assert down == set(plain)


def test_cofree_coalgebra_on_a_wide_carrier_over_chain3():
    """The points comonad of ``0 -> 1 -> 2`` sends carrier sizes
    ``(n0, n1, n2)`` to ``(n0, n0 n1, n0 n1 n2)``: a family at ``k``
    picks one element over every point below ``k``.  The Kan extension
    used to locate restricted families by linear scan, which made this
    carrier take over a minute."""
    w = load_model(str(ROOT / "models" / "chain3.json")).comonad
    small = w.model.base
    sizes = dict(zip(small.objects, (3, 3, 3)))
    q = Presheaf(small, sizes, {small.id(o): tuple(range(n)) for o, n in sizes.items()})
    f = cofree_coalgebra(w, q)
    assert tuple(f.carrier.sizes[o] for o in small.objects) == (3, 9, 27)
    assert coalgebra_laws(w, f) == []


def test_terminal_coalgebra_is_terminal(flagship):
    t = terminal_coalgebra(flagship)
    assert coalgebra_laws(flagship, t) == []
    for cg in enumerate_coalgebras(flagship, 1):
        assert len(coalgebra_maps(flagship, cg, t)) == 1


def test_triangle_report(flagship):
    cat = coalgebra_category(flagship, 1)
    rep = cat.triangle_report()
    assert rep["ok"], rep


def test_comparison_with_presheaves_upstairs(flagship):
    rep = comparison_check(flagship.adj, flagship, 2)
    assert rep["ok"], rep
    assert rep["presheaf_count"] == rep["coalgebra_count"] == 11
    assert rep["presheaf_classes"] == rep["coalgebra_classes"] == 8
    assert rep["essentially_surjective"]
    assert rep["hom_sets_match"]
    assert rep["faithful"]


def test_structured_types_extend_to_coalgebras(flagship):
    for cg in enumerate_coalgebras(flagship, 1):
        for xt in coalgebra_types_over(flagship, cg, 2):
            assert coalgebra_type_laws(flagship, xt) == []
            cge, proj, generic = coalg_extension(flagship, xt)
            assert coalgebra_laws(flagship, cge) == []
            assert coalgebra_term_laws(flagship, generic) == []


def test_sigma_of_structured_types(flagship):
    # a sample; the acceptance suite runs the full sweep
    cg = terminal_coalgebra(flagship)
    for xt in coalgebra_types_over(flagship, cg, 2)[:5]:
        cge, _, _ = coalg_extension(flagship, xt)
        for yt in coalgebra_types_over(flagship, cge, 2)[:4]:
            sg = coalg_sigma(flagship, xt, yt)
            assert coalgebra_type_laws(flagship, sg.type) == []
            enc = sg.sigma.comp
            for o in cg.carrier.base.objects:
                for g in cg.carrier.elements(o):
                    want = sum(yt.type.fiber[(o, enc.encode(o, g, x))]
                               for x in range(xt.type.fiber[(o, g)]))
                    assert sg.type.type.fiber[(o, g)] == want


def test_exponential_universal_property(flagship):
    cg = terminal_coalgebra(flagship)
    types = coalgebra_types_over(flagship, cg, 2)
    x, y = types[1], types[-1]
    exp = coalg_exponential(flagship, x, y)
    for z in types:
        rep = exponential_up_check(flagship, exp, z)
        assert rep["ok"], rep


def test_pi_universal_property(flagship):
    # a sample; the acceptance suite runs the full sweep
    cg = terminal_coalgebra(flagship)
    for xt in coalgebra_types_over(flagship, cg, 2)[:4]:
        cge, _, _ = coalg_extension(flagship, xt)
        for yt in coalgebra_types_over(flagship, cge, 2)[:3]:
            rep = pi_up_check(flagship, coalg_pi(flagship, xt, yt))
            assert rep["ok"], rep


def test_coalgebra_natural_model_round_trip(flagship):
    cg = terminal_coalgebra(flagship)
    for xt in coalgebra_types_over(flagship, cg, 2):
        cge, proj, generic = coalg_extension(flagship, xt)
        weak = coalg_subst(flagship, xt, cge, proj)
        assert coalgebra_type_laws(flagship, weak) == []


def test_classifier_certifies_structured_types(flagship):
    clf = coalgebra_classifier(flagship)
    rep = classifier_report(flagship, clf, size_bound=1)
    assert rep["ok"], rep["witnesses"][:3]


def test_identity_classifier_is_the_universe_on_the_nose():
    for base in (terminal_category(), walking_arrow()):
        model = NaturalModel(base, 1)
        w = identity_comonad(model)
        clf = coalgebra_classifier(w)
        assert clf.coalgebra.carrier == hs_universe(model).presheaf


def test_kock_wraith_classifies_sub_coalgebras(flagship):
    kw = kock_wraith_classifier(flagship)
    rep = kock_wraith_report(flagship, kw, size_bound=1)
    assert rep["ok"], rep["witnesses"][:3]
    # each instance reports its sub-coalgebra count
    assert all(isinstance(n, int) for _, n, _ in rep["instances"])


def test_sub_coalgebras_are_structure_closed(flagship):
    for cg in enumerate_coalgebras(flagship, 1):
        for sel in sub_coalgebras(flagship, cg)[0]:
            for o, keep in sel.items():
                for x in keep:
                    cg.structure.apply(o, x)  # stays defined


def test_non_closed_selection_is_rejected(flagship):
    """A selection not closed under restriction or structure is no
    sub-coalgebra, and the sub-coalgebra classifier refuses to classify
    one closed under restriction alone."""
    kw = kock_wraith_classifier(flagship)
    cgs = [c for c in enumerate_coalgebras(flagship, 2)
           if c.carrier.sizes == {"0": 2, "1": 2}]
    rejected = 0
    for cg in cgs:
        subs, others = sub_coalgebras(flagship, cg)
        for sel in ({"0": frozenset({0}), "1": frozenset({0, 1})},
                    {"0": frozenset(), "1": frozenset({0})}):
            if sel in subs:
                continue
            rejected += 1
            if sel in others:  # closed under restriction only
                with pytest.raises(ComonadError):
                    kw.classify(cg, sel)
    assert rejected > 0
