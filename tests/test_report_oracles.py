"""The coalgebra reports against the forms they replaced.

* ``_ref_classifier_report`` is the two-pass classifier report: its
  second pass decodes, checks and re-encodes every point, including the
  ones the first pass already round-tripped, and its naturality squares
  encode each structured type again.  ``classifier_report`` visits only
  the points the first pass left unseen and reuses its encodings, so the
  two must return the same dict, on passing runs and under faults that
  leave points unseen.
* ``_ref_transpose`` builds ``box_map(chi)`` over the whole box of the
  carrier and composes it with the structure; ``_transpose`` reads the
  box at the image of the structure only.  They must agree on every
  encoding and every characteristic map, raising the same message where
  a selection is no sub-coalgebra.
* ``_ref_coalgebras_iso`` builds every coalgebra map and asks each
  whether it is an iso; ``_coalgebras_iso`` tests the flat families
  between carriers of equal sizes only.
"""

import itertools

import pytest

from boxsem.coalg import (CoalgebraClassifier, ComonadError, _coalgebras_iso, _lift,
                          _transpose, classifier_report, coalg_subst, coalgebra_classifier,
                          coalgebra_maps, coalgebra_type_laws, coalgebra_types_over,
                          enumerate_coalgebras, kock_wraith_classifier)
from boxsem.presheaf import PresheafMap, characteristic_map, compose_maps, subpresheaves
from test_structured_oracles import _comonad


def _ref_classifier_report(w, clf, size_bound=1):
    witnesses = []
    pairs = []
    for cg in enumerate_coalgebras(w, size_bound):
        xts = coalgebra_types_over(w, cg, w.model.bound)
        maps = coalgebra_maps(w, cg, clf.coalgebra)
        members, seen = set(maps), []
        for xt in xts:
            h = clf.encode_point(xt)
            if h not in members:
                witnesses.append(f"classifying map of a type over {cg.carrier.sizes} "
                                 "is not a coalgebra map")
                continue
            back = clf.decode_point(cg, h)
            if back.type != xt.type or back.theta != xt.theta:
                witnesses.append(f"decode of encode differs over {cg.carrier.sizes}")
            seen.append(h)
        if len(set(seen)) != len(xts):
            witnesses.append(f"classification not injective over {cg.carrier.sizes}")
        for h in maps:
            xt = clf.decode_point(cg, h)
            if coalgebra_type_laws(w, xt):
                witnesses.append(f"a point over {cg.carrier.sizes} decodes "
                                 "to a broken structured type")
            elif clf.encode_point(xt) != h:
                witnesses.append(f"encode of decode differs over {cg.carrier.sizes}")
        pairs.append((cg, xts, len(maps)))
        if len(xts) != len(maps):
            witnesses.append(f"{len(xts)} structured types vs {len(maps)} points "
                             f"over {cg.carrier.sizes}")
    for cg, _, _ in pairs[:3]:
        for cg2, xts2, _ in pairs[:3]:
            for h in coalgebra_maps(w, cg, cg2)[:4]:
                for xt in xts2[:4]:
                    lhs = clf.encode_point(coalg_subst(w, xt, cg, h))
                    rhs = compose_maps(clf.encode_point(xt), h)
                    if lhs != rhs:
                        witnesses.append("classification is unnatural")
    return {"ok": not witnesses,
            "instances": [(dict(cg.carrier.sizes), len(xts), m) for cg, xts, m in pairs],
            "witnesses": witnesses}


def _ref_transpose(clf, cg, chi, error):
    kappa = compose_maps(clf.comonad.box_map(chi), cg.structure)
    return PresheafMap(cg.carrier, clf.coalgebra.carrier, _lift(
        clf.inclusion.component, kappa.component, lambda o, x: f"{error} at ({o!r}, {x})"))


def _ref_coalgebras_iso(w, a, b):
    return any(h.is_iso() for h in coalgebra_maps(w, a, b))


def _outcome(transpose, *args):
    """The map a transpose gives, or the message of the error it raises."""
    try:
        return transpose(*args)
    except ComonadError as e:
        return str(e)


def _paired(clf, xt):
    """The map into the pairing whose transpose ``encode_point`` returns."""
    mu = clf.ucat.encode_map(xt.theta)
    return clf.pairing.tuple_map(compose_maps(clf.ucat.cat.src, mu), mu)


_CLASSIFIERS = {}


def _classifier(name):
    if name not in _CLASSIFIERS:
        w = _comonad(name)
        _CLASSIFIERS[name] = w, coalgebra_classifier(w)
    return _CLASSIFIERS[name]


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("name", ["one", "two", "chain3", "disc2", "arrow"])
def test_the_classifier_report_agrees_with_its_two_pass_form(name, bound):
    w, clf = _classifier(name)
    got = classifier_report(w, clf, size_bound=bound)
    assert got["ok"], got["witnesses"][:3]
    assert got == _ref_classifier_report(w, clf, size_bound=bound)


def _a_structured_type(w, size_bound):
    """The first coalgebra carrying the most structured types, and those types."""
    return max(((cg, coalgebra_types_over(w, cg, w.model.bound))
                for cg in enumerate_coalgebras(w, size_bound)), key=lambda p: len(p[1]))


def _assert_same_failing_report(w, clf, bound):
    got = classifier_report(w, clf, size_bound=bound)
    assert not got["ok"]
    assert got == _ref_classifier_report(w, clf, size_bound=bound)
    return got["witnesses"]


@pytest.mark.parametrize("name", ["two", "chain3"])
def test_a_wrong_decoding_of_one_point_is_seen_by_both_forms(name, monkeypatch):
    """One point decodes to another structured type: the first pass does
    not round-trip it, so the second pass must still check it."""
    w, clf = _classifier(name)
    cg, xts = _a_structured_type(w, 2)
    faulty, decode = clf.encode_point(xts[0]), CoalgebraClassifier.decode_point

    def wrong(self, cg2, h):
        return xts[1] if h == faulty else decode(self, cg2, h)

    monkeypatch.setattr(CoalgebraClassifier, "decode_point", wrong)
    witnesses = _assert_same_failing_report(w, clf, 2)
    assert f"decode of encode differs over {cg.carrier.sizes}" in witnesses
    assert f"encode of decode differs over {cg.carrier.sizes}" in witnesses


@pytest.mark.parametrize("name", ["two", "chain3"])
def test_an_encoding_outside_the_coalgebra_maps_is_seen_by_both_forms(name, monkeypatch):
    """One structured type is encoded to a map that is no coalgebra map:
    its true point goes unseen by the first pass and is caught by the
    second."""
    w, clf = _classifier(name)
    cg, xts = _a_structured_type(w, 2)
    members = set(coalgebra_maps(w, cg, clf.coalgebra))
    sizes, target = cg.carrier.sizes, clf.coalgebra.carrier
    columns = [itertools.product(range(target.sizes[o]), repeat=n) for o, n in sizes.items()]
    outside = next(m for m in (PresheafMap(cg.carrier, target, dict(zip(sizes, cols)))
                               for cols in itertools.product(*columns)) if m not in members)
    encode = CoalgebraClassifier.encode_point

    def escaping(self, xt):
        return outside if xt == xts[0] else encode(self, xt)

    monkeypatch.setattr(CoalgebraClassifier, "encode_point", escaping)
    witnesses = _assert_same_failing_report(w, clf, 2)
    assert f"classifying map of a type over {cg.carrier.sizes} is not a coalgebra map" \
        in witnesses
    assert f"encode of decode differs over {cg.carrier.sizes}" in witnesses


@pytest.mark.parametrize("name, rejects", [("two", True), ("chain3", True), ("arrow", False)])
def test_the_transpose_agrees_with_its_whole_box_form(name, rejects):
    """On every coalgebra with carrier up to 2: the transpose of each
    encoding, and of each characteristic map of a subpresheaf, including
    the selections that are no sub-coalgebra, which both forms reject
    with one message.  Under the identity comonad of ``arrow`` every
    subpresheaf is a sub-coalgebra."""
    w, clf = _classifier(name)
    kw = kock_wraith_classifier(w)
    error = "selection is not a sub-coalgebra"
    encoded = rejected = 0
    for cg in enumerate_coalgebras(w, 2):
        for xt in coalgebra_types_over(w, cg, w.model.bound):
            args = clf, cg, _paired(clf, xt), "structured type escapes the classifier"
            assert _transpose(*args) == _ref_transpose(*args)
            encoded += 1
        for sel in subpresheaves(cg.carrier):
            args = kw, cg, characteristic_map(kw.omega, cg.carrier, sel), error
            got = _outcome(_transpose, *args)
            assert got == _outcome(_ref_transpose, *args)
            rejected += isinstance(got, str)
    assert encoded > 0 and (rejected > 0) == rejects


@pytest.mark.parametrize("name", ["two", "chain3", "arrow"])
def test_the_coalgebra_iso_test_agrees_with_testing_every_map(name):
    w = _comonad(name)
    cgs = enumerate_coalgebras(w, 2)
    isos = 0
    for a in cgs:
        for b in cgs:
            got = _coalgebras_iso(w, a, b)
            assert got == _ref_coalgebras_iso(w, a, b)
            isos += got
    assert len(cgs) < isos < len(cgs) ** 2
