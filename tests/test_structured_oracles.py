"""Dependent products and universal-property checks against their earlier
versions.

``coalg_pi`` keeps an element of the exponential into the structured sum
when each of its box points is a section of the first projection.  The
``_ref_coalg_pi`` below is its earlier version, kept as a differential
oracle: it builds the exponential ``x^x`` and keeps the elements whose
boxed post-composition with the projection is the boxed identity.

``exponential_up_check`` and ``pi_up_check`` walk one side of each
bijection and compare sizes.  The ``_ref_*_up_check`` below are their
earlier versions, which also walk the other side, with list membership.
Both must give the same subtypes, structures and reports.
"""

import itertools

import pytest

from boxsem.cli import load_model
from boxsem.coalg import (CoalgebraPi, CoalgebraType, _sub_theta, coalg_exponential,
                          coalg_extension, coalg_pi, coalg_product, coalg_sigma,
                          coalg_terminal, coalgebra_term_laws, coalgebra_terms,
                          coalgebra_type_laws, coalgebra_type_maps, coalgebra_types_over,
                          exponential_up_check, pi_up_check, terminal_coalgebra,
                          type_tuple_map)
from boxsem.natmodel import (TypeMap, all_types_over, compose_type_maps, exp_ev,
                             exp_transpose, type_product)


# ---------------------------------------------------------------------------
# Reference versions


def _ref_coalg_pi(w, x, yb):
    cg = x.coalg
    a = x.type
    sm = coalg_sigma(w, x, yb)
    es = coalg_exponential(w, x, sm.type)
    ea = coalg_exponential(w, x, x)

    pr_sa = type_product(es.plain.type, a)
    post_plain = exp_transpose(
        ea.plain, pr_sa,
        compose_type_maps(sm.proj, exp_ev(es.plain, pr_sa, sm.type.type)))
    bpost = w.bbox_type_map(cg, post_plain)

    one = coalg_terminal(w, cg)
    pr_1a = type_product(one.type, a)
    tr_id = ea.transpose(w, one, pr_1a, pr_1a.snd)

    keep = {}
    for (o, g), n in es.type.type.fiber.items():
        ident = ea.inclusion.component[(o, g)][tr_id.component[(o, g)][0]]
        keep[(o, g)] = frozenset(
            v for v in range(n)
            if bpost.component[(o, g)][es.inclusion.component[(o, g)][v]] == ident)
    xt, inc = _sub_theta(w, cg, es.type.type, es.type.theta, keep,
                         "dependent product of structured types")
    return CoalgebraPi(x, yb, xt, sm, es, inc)


def _ref_exponential_up_check(w, exp, z):
    y = exp.target
    zx, pr_zx = coalg_product(w, z, exp.source)
    uncurried = coalgebra_type_maps(w, zx, y)
    curried = coalgebra_type_maps(w, z, exp.type)
    ok = len(uncurried) == len(curried)
    for m in uncurried:
        tr = exp.transpose(w, z, pr_zx, m)
        if tr not in curried:
            return {"ok": False, "witness": "transpose is not structured"}
        back = compose_type_maps(exp.ev, type_tuple_map(
            exp.ev_product, compose_type_maps(tr, pr_zx.fst), pr_zx.snd))
        if back != m:
            return {"ok": False, "witness": "evaluation does not undo currying"}
    for h in curried:
        u_h = compose_type_maps(exp.ev, type_tuple_map(
            exp.ev_product, compose_type_maps(h, pr_zx.fst), pr_zx.snd))
        if u_h not in uncurried:
            return {"ok": False, "witness": "uncurrying leaves the structured maps"}
        if exp.transpose(w, z, pr_zx, u_h) != h:
            return {"ok": False, "witness": "currying does not undo evaluation"}
    return {"ok": ok, "uncurried": len(uncurried), "curried": len(curried)}


def _ref_pi_up_check(w, cp):
    pis = coalgebra_terms(w, cp.type)
    fams = coalgebra_terms(w, cp.family)
    if len(pis) != len(fams):
        return {"ok": False, "products": len(pis), "families": len(fams),
                "witness": "term counts differ"}
    for ct in pis:
        body = cp.app_term(w, ct)
        if coalgebra_term_laws(w, body):
            return {"ok": False, "witness": "application is not structured"}
        if cp.intro_term(w, body).term != ct.term:
            return {"ok": False, "witness": "abstraction does not undo application"}
    for ct in fams:
        lam = cp.intro_term(w, ct)
        if coalgebra_term_laws(w, lam):
            return {"ok": False, "witness": "abstraction is not structured"}
        if cp.app_term(w, lam).term != ct.term:
            return {"ok": False, "witness": "application does not undo abstraction"}
    return {"ok": True, "products": len(pis), "families": len(fams)}


# ---------------------------------------------------------------------------
# Comparisons


@pytest.fixture(scope="module")
def flagship():
    return load_model("two").comonad


@pytest.fixture(scope="module")
def types2(flagship):
    return coalgebra_types_over(flagship, terminal_coalgebra(flagship), 2)


def _structured_types(w, over, bound):
    """Structured types over a coalgebra, lazily and in the order of
    criterion 06, which draws its fiber-3 panel from the same stream."""
    for a in all_types_over(w.model, over.carrier, bound):
        ba = w.bbox_type(over, a)
        eps = w.fiber_counit(over, a)
        keys = sorted(a.fiber)
        pools = [list(itertools.product(*[[v for v in range(ba.fiber[k])
                                           if eps.component[k][v] == x]
                                          for x in range(a.fiber[k])]))
                 for k in keys]
        for choice in itertools.product(*pools):
            xt = CoalgebraType(over, a, TypeMap(a, ba, dict(zip(keys, choice))))
            if not coalgebra_type_laws(w, xt):
                yield xt


@pytest.fixture(scope="module")
def reps3(flagship):
    """One fiber-3 structured type over the terminal coalgebra per fiber
    profile, the first in enumeration order."""
    reps = {}
    for xt in _structured_types(flagship, terminal_coalgebra(flagship), 3):
        reps.setdefault((xt.type.fiber[("0", 0)], xt.type.fiber[("1", 0)]), xt)
    return reps


def _assert_same_pi(w, x, yb):
    new, ref = coalg_pi(w, x, yb), _ref_coalg_pi(w, x, yb)
    assert new.inclusion == ref.inclusion
    assert new.type.type == ref.type.type
    assert new.type.theta == ref.type.theta
    assert pi_up_check(w, new) == _ref_pi_up_check(w, ref)


def test_exponential_checks_agree_on_the_fiber_two_grid(flagship, types2):
    assert len(types2) == 11
    for x, y in itertools.product(types2, repeat=2):
        e = coalg_exponential(flagship, x, y)
        for z in types2:
            new = exponential_up_check(flagship, e, z)
            assert new == _ref_exponential_up_check(flagship, e, z)
            assert new["ok"]


def test_products_agree_on_the_fiber_two_grid(flagship, types2):
    n = 0
    for xt in types2:
        cge, _, _ = coalg_extension(flagship, xt)
        for yb in coalgebra_types_over(flagship, cge, 2):
            _assert_same_pi(flagship, xt, yb)
            n += 1
    assert n > 0


# the exponential panel of criterion 06: fiber profiles of x, y and z
PANEL = [((1, 3), (1, 3), (1, 2)), ((3, 1), (3, 1), (2, 1)),
         ((2, 3), (2, 2), (1, 2)), ((2, 2), (2, 3), (2, 2)),
         ((2, 2), (3, 3), (1, 1)), ((3, 3), (1, 1), (1, 1)),
         ((3, 2), (2, 2), (1, 1))]


def test_exponential_checks_agree_on_the_fiber_three_panel(flagship, reps3):
    for px, py, pz in PANEL:
        e = coalg_exponential(flagship, reps3[px], reps3[py])
        new = exponential_up_check(flagship, e, reps3[pz])
        assert new == _ref_exponential_up_check(flagship, e, reps3[pz])
        assert new["ok"]


def test_products_agree_on_a_fiber_three_sample(flagship, reps3):
    for p in [(1, 3), (3, 1), (3, 3)]:
        x = reps3[p]
        cge, _, _ = coalg_extension(flagship, x)
        fams = list(itertools.islice(_structured_types(flagship, cge, 3), 25))
        for yb in (fams[0], fams[len(fams) // 2], fams[-1]):
            _assert_same_pi(flagship, x, yb)
