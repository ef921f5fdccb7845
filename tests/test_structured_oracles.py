"""Structured products, exponentials, dependent products and their
universal-property checks against their earlier versions.

The checker reads the box through its points.  ``coalg_product`` pairs
the box points of the two structures.  ``coalg_pi`` keeps an element of
the box of the plain dependent product when its equation, read at the
identity slot of each function, holds at every box point of its
comultiplication, which is closed by construction; ``coalg_exponential``
is ``coalg_pi`` of the target weakened to the extension by the source.
``_Level.carve`` keeps the largest closed subtype inside a selection,
and raises ``ComonadError`` when handed one that is not closed.  The ``_ref_*``
versions below are the earlier ones, which box whole maps: the product
through the inverse of the comparison map (``_ref_pack_map``), the
exponential by comparing two maps into a second exponential over the
boxed fibers and then closing the kept set under the structure,
rebuilding the subtype and boxing its inclusion until nothing drops,
and the transpose by boxing the plain transpose over the whole box.

``_ref_coalg_pi`` builds the earlier dependent product, ``_RefPi``:
inside the reference exponential into the structured sum, the elements
whose boxed post-composition with the first projection is the boxed
identity.  Its application splits the sum reached by evaluation, and
its abstraction curries a map out of the fiberwise terminal type.  The
two products sit in different boxes, so their inclusions are compared
through the canonical map: each point of the reference's is a family of
pairs over the slots ``(j, f, x)``, and its family of second components
must be the same point of the new one.

``exponential_up_check`` and ``pi_up_check`` walk one side of each
bijection and compare sizes.  ``_ref_two_sided_up_check`` and
``_ref_pi_up_check`` are their earlier versions, which also walk the
other side, with list membership.  Both must give the same subtypes,
structures and reports, on the nose.

``exponential_up_check`` reads both hom sets as flat families and
curries each map by lookups into index tables built once per exponential
and test type.  ``_ref_exponential_up_check`` is the check it replaced,
which builds ``TypeMap``s per map, from ``coalgebra_type_maps``: the
transpose boxed at the points it reads (``_ref_transpose``, through
``exp_transpose`` and ``_lift``) and evaluation composed back.  The two
must return the same dict, on the grids below and under injected faults
(``test_pointwise_oracles``).  ``coalgebra_type_maps``,
``type_exponential``, ``exp_transpose``, ``exp_ev``, ``type_tuple_map``
and ``type_terminal`` are the helpers the references are built from;
nothing in the package reads them.
"""

import itertools
from dataclasses import dataclass

import pytest

from boxsem import coalg
from boxsem.cli import load_model
from boxsem.coalg import (CoalgebraSigma, CoalgebraTerm, CoalgebraType, ComonadError, _lift,
                          _type_level, _positions, _with_points_in, coalg_exponential,
                          coalg_extension, coalg_pi, coalg_product, coalg_sigma,
                          coalgebra_term_laws,
                          coalgebra_terms, coalgebra_type_laws,
                          coalgebra_types_over, comonad_from_adjunction,
                          exponential_up_check, pi_up_check, terminal_coalgebra)
from boxsem.fincat import Functor
from boxsem.natmodel import (Pi, TermOverContext, TypeMap, TypeOverContext, TypeProduct,
                             all_types_over, comprehension, pi_type,
                             sub_type, subst_type, type_product)
from boxsem.presheaf import KanAdjunction, Presheaf, _components, compose_maps, subpresheaves
from boxsem.standard import walking_arrow
from test_fincat import chain, identity_functor


# ---------------------------------------------------------------------------
# Helpers the references are built from


def coalgebra_type_maps(w, x: CoalgebraType, y: CoalgebraType) -> list[TypeMap]:
    """The structured maps ``x -> y`` as ``TypeMap``s, cut from the flat
    families of ``coalg._structured_families`` (looked up when called, so
    a patched enumerator is read), in their order."""
    ends, families = coalg._structured_families(w, x, y)
    keys = x.type._tables()[1].keys
    return [TypeMap(x.type, y.type, _components(keys, ends, f)) for f in families]


def type_exponential(a: TypeOverContext, b: TypeOverContext) -> Pi:
    """Exponential ``B^A`` in the fiber over the context: the dependent
    product along ``A`` of ``B`` weakened to ``Gamma.A``."""
    assert a.context == b.context
    return pi_type(a, subst_type(b, comprehension(a).p))


def type_terminal(gamma: Presheaf) -> TypeOverContext:
    """The type with a single point in every fiber over ``gamma``."""
    c = gamma.base
    fiber = {(i, g): 1 for i in c.objects for g in gamma.elements(i)}
    restriction = {(f, g): (0,) for f in c.morphisms
                   for g in gamma.elements(c.dst[f])}
    return TypeOverContext(gamma, fiber, restriction)


def type_tuple_map(pr: TypeProduct, m1: TypeMap, m2: TypeMap) -> TypeMap:
    """Pair two fiberwise maps into a fiberwise product."""
    assert m1.source == m2.source
    comp = {}
    for (o, g), n in m1.source.fiber.items():
        comp[(o, g)] = tuple(pr.pair(o, g, m1.component[(o, g)][v],
                                     m2.component[(o, g)][v])
                             for v in range(n))
    return TypeMap(m1.source, pr.type, comp)


def exp_ev(e: Pi, pr: TypeProduct, b: TypeOverContext) -> TypeMap:
    """Evaluation ``B^A x A -> B`` for an exponential built by
    ``type_exponential(a, b)``, with ``pr = type_product(e.type, a)``."""
    assert pr.left == e.type and pr.right == e.base_type
    comp = {}
    for (i, g), n in pr.type.fiber.items():
        vals = []
        for v in range(n):
            w, x = pr.split(i, g, v)
            vals.append(e.app(i, g, w, x))
        comp[(i, g)] = tuple(vals)
    return TypeMap(pr.type, b, comp)


def exp_transpose(e: Pi, pr: TypeProduct, m: TypeMap) -> TypeMap:
    """Curry ``m : C x A -> B`` through ``type_exponential(a, b)`` into
    ``C -> B^A``, with ``pr = type_product(c, a)``."""
    c_type = pr.left
    assert pr.right == e.base_type and m.source == pr.type
    gamma = c_type.context
    comp = {}
    for (i, g), n in c_type.fiber.items():
        vals = []
        for c in range(n):
            fam = []
            for (j, f, x) in e.tables[(i, g)].slots:
                gf = gamma.act(f, g)
                cf = c_type.restrict(f, g, c)
                fam.append(m.component[(j, gf)][pr.pair(j, gf, cf, x)])
            vals.append(e.family_index(i, g, tuple(fam)))
        comp[(i, g)] = tuple(vals)
    return TypeMap(c_type, e.type, comp)


# ---------------------------------------------------------------------------
# Reference versions


def _ref_pack_map(w, cg, pr):
    """The inverse of the comparison from a boxed product to the product
    of the boxes, plus the product of boxes it starts from."""
    bl = w.bbox_type(cg, pr.left)
    br = w.bbox_type(cg, pr.right)
    prb = type_product(bl, br)
    bprod = w.bbox_type(cg, pr.type)
    unpack = type_tuple_map(prb, w.bbox_type_map(cg, pr.fst),
                            w.bbox_type_map(cg, pr.snd))
    unpack = TypeMap(bprod, prb.type, unpack.component)
    if not unpack.is_iso():
        raise ComonadError("box does not preserve this fiberwise product")
    return unpack.inverse(), prb


def _ref_coalg_product(w, x, y):
    cg = x.coalg
    pr = type_product(x.type, y.type)
    pack, prb = _ref_pack_map(w, cg, pr)
    th = compose_maps(pack, type_tuple_map(
        prb, compose_maps(x.theta, pr.fst), compose_maps(y.theta, pr.snd)))
    xt = CoalgebraType(cg, pr.type, th)
    errs = coalgebra_type_laws(w, xt)
    if errs:
        raise ComonadError("product structure is broken: " + errs[0])
    return xt, pr


def _ref_sub_theta(w, cg, big, dlt_like, keep, what, drops=None):
    keep = {k: frozenset(v) for k, v in keep.items()}
    wanted = sum(map(len, keep.values()))
    while True:
        sub, inc = sub_type(big, keep)
        binc = w.bbox_type_map(cg, inc)
        new_keep = {}
        shrunk = False
        for (o, g), n in sub.fiber.items():
            good = []
            image = set(binc.component[(o, g)])
            for v in range(n):
                kept = inc.component[(o, g)][v]
                if dlt_like.apply(o, g, kept) in image:
                    good.append(kept)
                else:
                    shrunk = True
            new_keep[(o, g)] = frozenset(good)
        if not shrunk:
            break
        keep = new_keep
    comp = _lift(binc.component,
                 {k: tuple(dlt_like.component[k][x] for x in col)
                  for k, col in inc.component.items()},
                 lambda k, n: f"{what} is not closed under its structure at {k}")
    th = TypeMap(sub, w.bbox_type(cg, sub), comp)
    xt = CoalgebraType(cg, sub, th)
    errs = coalgebra_type_laws(w, xt)
    if errs:
        raise ComonadError(f"{what} carries no lawful structure: " + errs[0])
    if drops is not None:
        drops.append(wanted - sum(sub.fiber.values()))
    return xt, inc


@dataclass(frozen=True)
class _RefExponential:
    """The earlier exponential, with the product its evaluation leaves."""

    source: CoalgebraType
    target: CoalgebraType
    type: CoalgebraType
    plain: Pi
    inclusion: TypeMap
    ev: TypeMap
    ev_product: TypeProduct

    def transpose(self, w, z, pr, m):
        cg = self.source.coalg
        lam = exp_transpose(self.plain, pr, m)
        t = compose_maps(w.bbox_type_map(cg, lam), z.theta)
        return TypeMap(z.type, self.type.type, _lift(
            self.inclusion.component, t.component,
            lambda k, n: "transpose of an unstructured map"))


def _ref_coalg_exponential(w, x, y, drops=None):
    cg = x.coalg
    if y.coalg != cg:
        raise ComonadError("exponential needs both types over one coalgebra")
    a, b = x.type, y.type
    e_plain = type_exponential(a, b)
    box_exp = w.bbox_type(cg, e_plain.type)
    bb = w.bbox_type(cg, b)
    exp_bb = type_exponential(a, bb)

    pr_ea = type_product(e_plain.type, a)
    ev_plain = exp_ev(e_plain, pr_ea, b)
    v1 = compose_maps(
        exp_transpose(exp_bb, pr_ea, compose_maps(y.theta, ev_plain)),
        w.fiber_counit(cg, e_plain.type))

    pack, prb = _ref_pack_map(w, cg, pr_ea)
    pr_box = type_product(box_exp, a)
    into_pack = type_tuple_map(prb, pr_box.fst,
                               compose_maps(x.theta, pr_box.snd))
    applied = compose_maps(w.bbox_type_map(cg, ev_plain),
                           compose_maps(pack, into_pack))
    v2 = exp_transpose(exp_bb, pr_box, applied)

    keep = {k: frozenset(v for v in range(n)
                         if v1.component[k][v] == v2.component[k][v])
            for k, n in box_exp.fiber.items()}
    xt, inclusion = _ref_sub_theta(w, cg, box_exp, w.fiber_comult(cg, e_plain.type),
                                   keep, "exponential of structured types", drops)
    pr_sub = type_product(xt.type, a)
    first = compose_maps(w.fiber_counit(cg, e_plain.type),
                         compose_maps(inclusion, pr_sub.fst))
    ev = compose_maps(ev_plain, type_tuple_map(pr_ea, first, pr_sub.snd))
    return _RefExponential(x, y, xt, e_plain, inclusion, ev, pr_sub)


@dataclass(frozen=True)
class _RefPi:
    """The earlier dependent product: sections of the structured first
    projection inside the exponential into the structured sum, with the
    fiberwise terminal structured type its abstraction curries from."""

    base: CoalgebraType
    family: CoalgebraType
    type: CoalgebraType
    sum: CoalgebraSigma
    exponential: _RefExponential
    inclusion: TypeMap
    one: CoalgebraType

    def app(self, obj, g, v, x):
        exp = self.exponential
        s = exp.ev.apply(obj, g, exp.ev_product.pair(obj, g, self.inclusion.apply(obj, g, v), x))
        x2, y = self.sum.split(obj, g, s)
        if x2 != x:
            raise ComonadError("product element is not a section")
        return y

    def app_term(self, ct):
        cext = comprehension(self.base.type)
        pick = {}
        for o in cext.presheaf.base.objects:
            for e in range(cext.presheaf.sizes[o]):
                g, x = cext.decode(o, e)
                pick[(o, e)] = self.app(o, g, ct.term.pick[(o, g)], x)
        return CoalgebraTerm(self.family, TermOverContext(self.family.type, pick))

    def intro_term(self, w, ct):
        a = self.base.type
        pr = type_product(self.one.type, a)
        cext = comprehension(a)
        comp = {}
        for (o, g), n in pr.type.fiber.items():
            vals = []
            for v in range(n):
                _, x = pr.split(o, g, v)
                y = ct.term.pick[(o, cext.encode(o, g, x))]
                vals.append(self.sum.pair(o, g, x, y))
            comp[(o, g)] = tuple(vals)
        m = TypeMap(pr.type, self.sum.type.type, comp)
        tr = self.exponential.transpose(w, self.one, pr, m)
        lifted = _lift(self.inclusion.component, tr.component,
                       lambda k, n: "abstraction escapes the dependent product")
        pick = {k: vals[0] for k, vals in lifted.items()}
        return CoalgebraTerm(self.type, TermOverContext(self.type.type, pick))


def _ref_coalg_pi(w, x, yb):
    cg = x.coalg
    a = x.type
    sm = coalg_sigma(w, x, yb)
    es = _ref_coalg_exponential(w, x, sm.type)
    ea = _ref_coalg_exponential(w, x, x)

    pr_sa = type_product(es.plain.type, a)
    post_plain = exp_transpose(
        ea.plain, pr_sa,
        compose_maps(sm.proj, exp_ev(es.plain, pr_sa, sm.type.type)))
    bpost = w.bbox_type_map(cg, post_plain)

    t1 = type_terminal(cg.carrier)
    b1 = w.bbox_type(cg, t1)
    if any(n != 1 for n in b1.fiber.values()):
        raise ComonadError("box does not preserve the fiberwise terminal")
    one = CoalgebraType(cg, t1, TypeMap(t1, b1, {k: (0,) * n for k, n in t1.fiber.items()}))
    pr_1a = type_product(one.type, a)
    tr_id = ea.transpose(w, one, pr_1a, pr_1a.snd)

    keep = {}
    for (o, g), n in es.type.type.fiber.items():
        ident = ea.inclusion.component[(o, g)][tr_id.component[(o, g)][0]]
        keep[(o, g)] = frozenset(
            v for v in range(n)
            if bpost.component[(o, g)][es.inclusion.component[(o, g)][v]] == ident)
    xt, inc = _ref_sub_theta(w, cg, es.type.type, es.type.theta, keep,
                             "dependent product of structured types")
    return _RefPi(x, yb, xt, sm, es, inc, one)


def _ref_transpose(w, exp, z, pr, m):
    """The transpose the check used to build per map, as a ``TypeMap``:
    ``v`` goes to the element of the box of the plain exponential whose
    points are the plain transpose (``exp_transpose``) applied to those of
    ``theta_z(v)``, lifted through the inclusion (``_lift``)."""
    cg, lam = exp.source.coalg, exp_transpose(exp.plain, pr, m).component
    points_z, points_e = w.bbox_points(cg, z.type), w.bbox_points(cg, exp.plain.type)
    boxed = {}
    for k, col in z.theta.component.items():
        fibers, pts, _ = points_z(k)
        pos = points_e(k)[2]
        boxed[k] = _positions(pos, (tuple(lam[f][p] for f, p in zip(fibers, pts[e]))
                                    for e in col), "transpose leaves the box", k)
    return TypeMap(z.type, exp.type.type, _lift(
        exp.inclusion.component, boxed, lambda k, n: "transpose of an unstructured map"))


def _ref_exponential_up_check(w, exp, z):
    """``exponential_up_check`` as it was, by ``TypeMap``s: the transpose
    through ``exp_transpose`` and ``_lift``, evaluation composed back with
    ``compose_maps`` and ``type_tuple_map``, and membership of the
    transpose in a set of ``TypeMap``s."""
    zx, pr_zx = coalg_product(w, z, exp.source)
    ev_product = type_product(exp.type.type, exp.source.type)
    uncurried = coalgebra_type_maps(w, zx, exp.target)
    curried = set(coalgebra_type_maps(w, z, exp.type))
    for m in uncurried:
        try:
            tr = _ref_transpose(w, exp, z, pr_zx, m)
        except ComonadError as e:
            return {"ok": False, "witness": f"transpose leaves the box: {e}"}
        if tr not in curried:
            return {"ok": False, "witness": "transpose is not structured"}
        back = compose_maps(exp.ev, type_tuple_map(
            ev_product, compose_maps(tr, pr_zx.fst), pr_zx.snd))
        if back != m:
            return {"ok": False, "witness": "evaluation does not undo currying"}
    return {"ok": len(uncurried) == len(curried), "uncurried": len(uncurried),
            "curried": len(curried)}


def _ref_two_sided_up_check(w, exp, z):
    y = exp.target
    zx, pr_zx = _ref_coalg_product(w, z, exp.source)
    uncurried = coalgebra_type_maps(w, zx, y)
    curried = coalgebra_type_maps(w, z, exp.type)
    ok = len(uncurried) == len(curried)
    for m in uncurried:
        tr = exp.transpose(w, z, pr_zx, m)
        if tr not in curried:
            return {"ok": False, "witness": "transpose is not structured"}
        back = compose_maps(exp.ev, type_tuple_map(
            exp.ev_product, compose_maps(tr, pr_zx.fst), pr_zx.snd))
        if back != m:
            return {"ok": False, "witness": "evaluation does not undo currying"}
    for h in curried:
        u_h = compose_maps(exp.ev, type_tuple_map(
            exp.ev_product, compose_maps(h, pr_zx.fst), pr_zx.snd))
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
        body = cp.app_term(ct)
        if coalgebra_term_laws(w, body):
            return {"ok": False, "witness": "application is not structured"}
        if cp.intro_term(w, body).term != ct.term:
            return {"ok": False, "witness": "abstraction does not undo application"}
    for ct in fams:
        lam = cp.intro_term(w, ct)
        if coalgebra_term_laws(w, lam):
            return {"ok": False, "witness": "abstraction is not structured"}
        if cp.app_term(lam).term != ct.term:
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
    assert new.type.type == ref.type.type
    assert new.type.theta == ref.type.theta
    assert pi_up_check(w, new) == _ref_pi_up_check(w, ref)
    # the two products sit in different boxes: the reference's inclusion
    # reaches the box of the plain exponential into the sum, whose points
    # are families of pairs over the slots ``(j, f, x)``; their second
    # components are the points of the new inclusion, in the box of the
    # plain dependent product, and their first components the arguments
    cg, gamma, es = x.coalg, x.coalg.carrier, ref.exponential
    points_new, points_ref = w.bbox_points(cg, new.plain.type), w.bbox_points(cg, es.plain.type)
    for (o, g), col in new.inclusion.component.items():
        fibers, pts_new, _ = points_new((o, g))
        pts_ref = points_ref((o, g))[1]
        for v, e in enumerate(col):
            be = es.inclusion.component[(o, g)][ref.inclusion.component[(o, g)][v]]
            for key, i_new, i_ref in zip(fibers, pts_new[e], pts_ref[be]):
                t_new, t_ref = new.plain.tables[key], es.plain.tables[key]
                assert t_new.slots == t_ref.slots
                split = [ref.sum.split(j, gamma.act(f, key[1]), s)
                         for (j, f, _), s in zip(t_ref.slots, t_ref.families[i_ref])]
                assert [arg for _, _, arg in t_ref.slots] == [x2 for x2, _ in split]
                assert t_new.families[i_new] == tuple(y for _, y in split)
            for t in range(x.type.fiber[(o, g)]):
                assert new.app(o, g, v, t) == ref.app(o, g, v, t)


def _assert_same_exponential(w, x, y):
    new, ref = coalg_exponential(w, x, y), _ref_coalg_exponential(w, x, y)
    assert new.inclusion == ref.inclusion
    assert new.type.type == ref.type.type
    assert new.type.theta == ref.type.theta
    assert new.ev == ref.ev
    return new, ref


def _assert_same_product(w, x, y):
    new, pr = coalg_product(w, x, y)
    ref, _ = _ref_coalg_product(w, x, y)
    assert new.type == ref.type and new.theta == ref.theta
    return new, pr


def test_exponential_checks_agree_on_the_fiber_two_grid(flagship, types2):
    assert len(types2) == 11
    for x, y in itertools.product(types2, repeat=2):
        e, r = _assert_same_exponential(flagship, x, y)
        for z in types2:
            new = exponential_up_check(flagship, e, z)
            assert new == _ref_two_sided_up_check(flagship, r, z)
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
        e, r = _assert_same_exponential(flagship, reps3[px], reps3[py])
        new = exponential_up_check(flagship, e, reps3[pz])
        assert new == _ref_two_sided_up_check(flagship, r, reps3[pz])
        assert new["ok"]


# the fiber-2 grid over the terminal coalgebra: whole on two and arrow; on
# chain3, whose 47 types make 103,823 triples, every 4th source, 5th target
# and 9th test type
GRIDS = {"two": ((1, 1, 1), 1331), "arrow": ((1, 1, 1), 1331), "chain3": ((4, 5, 9), 720)}


@pytest.mark.parametrize("name", GRIDS)
def test_the_check_agrees_with_its_typemap_form(name):
    """The check by index tables and the check by ``TypeMap``s it
    replaced return the same dict on every triple of the grid."""
    w = _comonad(name)
    types = coalgebra_types_over(w, terminal_coalgebra(w), 2)
    (sx, sy, sz), triples = GRIDS[name]
    n = 0
    for x, y in itertools.product(types[::sx], types[::sy]):
        e = coalg_exponential(w, x, y)
        for z in types[::sz]:
            new = exponential_up_check(w, e, z)
            assert new == _ref_exponential_up_check(w, e, z)
            assert new["ok"]
            n += 1
    assert n == triples


def test_the_check_agrees_with_its_typemap_form_at_fiber_three(flagship, reps3):
    """The exponential from fiber profile (3, 3) to (2, 2) on ``two``,
    against the test type of profile (3, 3): 131,072 maps each way."""
    e = coalg_exponential(flagship, reps3[(3, 3)], reps3[(2, 2)])
    new = exponential_up_check(flagship, e, reps3[(3, 3)])
    assert new == _ref_exponential_up_check(flagship, e, reps3[(3, 3)])
    assert new == {"ok": True, "uncurried": 131072, "curried": 131072}


def test_products_agree_on_a_fiber_three_sample(flagship, reps3):
    for p in [(1, 3), (3, 1), (3, 3)]:
        x = reps3[p]
        cge, _, _ = coalg_extension(flagship, x)
        fams = list(itertools.islice(_structured_types(flagship, cge, 3), 25))
        for yb in (fams[0], fams[len(fams) // 2], fams[-1]):
            _assert_same_pi(flagship, x, yb)


def test_transposes_agree_on_every_structured_map(flagship, types2, reps3):
    """Every uncurried map of a sample of exponentials and test types,
    with fibers up to 3, curries to the same map both ways."""
    n = 0
    for x, y, z in [*itertools.product(types2[::3], types2[::4], types2[::5]),
                    *((reps3[px], reps3[py], reps3[pz]) for px, py, pz in PANEL[:3])]:
        e, r = coalg_exponential(flagship, x, y), _ref_coalg_exponential(flagship, x, y)
        zx, pr = coalg_product(flagship, z, x)
        for m in coalgebra_type_maps(flagship, zx, y):
            assert _ref_transpose(flagship, e, z, pr, m) == r.transpose(flagship, z, pr, m)
            n += 1
    assert n > 0


@pytest.mark.parametrize("name, bound", [("two", 2), ("chain3", 1)])
def test_carve_agrees_on_every_closed_selection(name, bound, monkeypatch):
    """``_Level.carve`` of structured types out of the cofree box, from
    every selection closed under restriction of every boxed type over the
    terminal coalgebra.  Unlike the kept sets of exponentials and
    dependent products, many of these are not closed under the structure:
    where the earlier fixed point drops elements, the carve must drop the
    same ones, and with its delta-point closure replaced by the identity
    it must raise; everywhere it must agree with the fixed point."""
    w = load_model(name).comonad
    one = terminal_coalgebra(w)
    level = _type_level(w, one)
    cases, shrunk = 0, 0
    for a in all_types_over(w.model, one.carrier, bound):
        big, dlt = w.bbox_type(one, a), w.fiber_comult(one, a)
        ext = comprehension(big)
        for sel in subpresheaves(ext.presheaf):
            keep = {k: set() for k in big.fiber}
            for o, es in sel.items():
                for e in es:
                    g, v = ext.decode(o, e)
                    keep[(o, g)].add(v)
            ref, ref_inc = _ref_sub_theta(w, one, big, dlt, keep, "a subtype")
            cases += 1
            th, inc = level.carve(a, keep, "a subtype")
            assert inc == ref_inc
            assert th.source == ref.type and th == ref.theta
            if sum(ref.type.fiber.values()) < sum(map(len, keep.values())):
                shrunk += 1
                with monkeypatch.context() as m:
                    m.setattr(coalg, "_with_points_in", lambda holds, read: holds)
                    with pytest.raises(ComonadError, match="not closed under its structure"):
                        level.carve(a, keep, "a subtype")
    assert (cases, shrunk) == {"two": (101, 50), "chain3": (20, 5)}[name]


def test_exponentials_agree_where_the_counit_equation_is_not_closed(monkeypatch):
    """Under the points comonad of ``chain3``, at fiber 2, the earlier
    exponential keeps elements at the counit that its fixed point then
    drops: the equation at the top stage leaves the middle function free
    at arguments the structure never reaches.  The exponential tests the
    equation at every box point of the comultiplication instead, and
    must agree, universal property included; so must the dependent
    products, over each extension by a fiber-1 type, 6 of which keep
    fewer elements than solve their equation at the counit."""
    shrinks = []

    def spy(holds, read):
        out = _with_points_in(holds, read)
        shrinks.append(out != holds)
        return out

    monkeypatch.setattr(coalg, "_with_points_in", spy)
    w = load_model("chain3").comonad
    one = terminal_coalgebra(w)
    types = coalgebra_types_over(w, one, 2)
    drops, n = [], 0
    for x, y in itertools.product(types[::4], types[::5]):
        e, r = coalg_exponential(w, x, y), _ref_coalg_exponential(w, x, y, drops)
        assert e.inclusion == r.inclusion
        assert e.type.type == r.type.type and e.type.theta == r.type.theta
        assert e.ev == r.ev
        if drops[-1]:
            for z in types[::9]:
                assert exponential_up_check(w, e, z)["ok"]
            n += 1
    assert (len(drops), n) == (120, 19)
    n_pi = n_shrunk = 0
    for xt in coalgebra_types_over(w, one, 1):
        cge, _, _ = coalg_extension(w, xt)
        for yb in coalgebra_types_over(w, cge, 2):
            shrinks.clear()
            _assert_same_pi(w, xt, yb)
            n_pi += 1
            n_shrunk += shrinks[0]
    assert (n_pi, n_shrunk) == (62, 6)


# Kan comonads along functors out of the walking arrow: unlike the shipped
# points comonads, whose base is discrete, these give the families of an
# exponential slots besides the identity one
FUNCTORS = {
    "identity of two": lambda: identity_functor(walking_arrow()),
    "two onto 0->2 of chain3": lambda: Functor(
        "skip", walking_arrow(), chain(3), {"0": "0", "1": "2"},
        {"id_0": "id_0", "id_1": "id_2", "0->1": "0->2"}),
}


def _comonad(name):
    if name in FUNCTORS:
        return comonad_from_adjunction(KanAdjunction(FUNCTORS[name]()))
    return load_model(name).comonad


def _ladder(w, bound):
    """Structured types at fibers up to ``bound``, over the terminal
    coalgebra and over its extension by each structured type of fiber 1."""
    one = terminal_coalgebra(w)
    yield one, coalgebra_types_over(w, one, bound)
    for xt in coalgebra_types_over(w, one, 1):
        cge, _, _ = coalg_extension(w, xt)
        yield cge, coalgebra_types_over(w, cge, bound)


@pytest.mark.parametrize("name, bound", [("two", 2), ("chain3", 2), ("one", 2), ("disc2", 2),
                                         *((f, 2) for f in FUNCTORS)])
def test_products_agree_on_every_model(name, bound):
    w = _comonad(name)
    n = 0
    for _, types in _ladder(w, bound):
        for x, y in itertools.product(types, repeat=2):
            _assert_same_product(w, x, y)
            n += 1
    assert n > 0


def test_exponentials_agree_over_extensions(flagship, types2):
    """Exponentials between the structured types over each extension."""
    n = 0
    for _, types in itertools.islice(_ladder(flagship, 2), 1, None):
        for x, y in itertools.product(types, repeat=2):
            e, r = _assert_same_exponential(flagship, x, y)
            for z in types:
                assert exponential_up_check(flagship, e, z) == \
                    _ref_two_sided_up_check(flagship, r, z)
            n += 1
    assert n > 0


@pytest.mark.parametrize("name, bound", [("chain3", 1), ("one", 2), ("disc2", 2), ("arrow", 2),
                                         *((f, 2) for f in FUNCTORS)])
def test_structured_constructions_agree_on_other_models(name, bound):
    """Exponentials with their universal property, and dependent
    products, on the other comonad models (the points comonad of a
    three-object chain, two identity comonads and the identity functor of
    the walking arrow) and on Kan comonads over a base with a
    non-identity arrow."""
    w = _comonad(name)
    ladder = list(_ladder(w, bound))
    n = 0
    for _, types in ladder:
        for x, y in itertools.product(types, repeat=2):
            e, r = _assert_same_exponential(w, x, y)
            for z in types[::3]:
                assert exponential_up_check(w, e, z) == _ref_two_sided_up_check(w, r, z)
            n += 1
    for xt, (_, fams) in zip(coalgebra_types_over(w, terminal_coalgebra(w), 1), ladder[1:]):
        for yb in fams:
            _assert_same_pi(w, xt, yb)
            n += 1
    assert n > 0
