"""The pointwise box actions and the constructions built on them, against
their earlier versions.

``NaturalModelComonad`` derives ``box_map``, ``tp_box_map`` and
``tm_box`` from ``box_points`` and ``tp_box_points``: an element of a box
is determined by its points, and the box acts on them one by one.
``tau`` pairs ``box(p)`` with the boxed generic term ``box(v)``.
``coalg_extension`` gives the element at ``(g, x)`` the points
``(g_k, x_k)`` directly, and ``coalg_sigma`` pairs the points of the two
structures, as ``coalg_product`` does.  The ``_ref_*`` versions below are
the earlier ones: the Kan comonad's actions read off its family tables
(``box_map`` through ``KanAdjunction.ran_map``), the identity comonad's
``tau`` as an identity, the extension through the inverse of ``tau``, and
the sum transported from the twice-extended coalgebra along the
reassociation iso of iterated comprehension and read back through
``tau`` (``_ref_structure_to_theta``).  ``CoalgebraPi.app`` reads the
plain dependent product at the counit of the box; the earlier product's
application (``_RefPi.app`` in ``test_structured_oracles``) splits the
sum reached by the evaluation of its exponential.  All must agree on the
nose.

The law checks read the box only at the points of a structure's image
(``_commutes``): the comult law of a coalgebra and of a structured type,
the square of a coalgebra map, the comult filter of
``coalgebra_types_over`` and the structured projection of a sum.  The
``_ref_*`` law checks below are their earlier whole-box forms, which
compose with ``box_map``/``bbox_type_map`` of the whole structure; both
must give the same verdicts on lawful and unlawful candidates alike.

The comonad induced over a coalgebra ``(Gamma, theta)`` is built at the
image of ``theta``: ``bbox_type`` from the tables of ``tp_box(A)`` there,
``fiber_counit`` and ``fiber_comult`` from the points of the elements
and of ``delta``, and ``bbox_term`` from the points of the term.  The
comult law of a coalgebra is read at the points of ``delta``.  The
``_ref_*`` forms below are the earlier ones: ``tp_box``, ``tp_counit``,
``tp_comult`` and ``tm_box`` pulled back whole along ``theta``, and the
comult law read off the ``comult`` table.  The whole maps are derived
from the points too, and ``_ref_kan_*`` are the Kan comonad's earlier
hand-written table forms of them.
"""

import itertools
import json
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from boxsem import coalg
from boxsem.cli import load_model, main
from boxsem.coalg import (AdjunctionComonad, CoalgebraSigma,
                          CoalgebraTerm, CoalgebraType, Coalgebra, ComonadError,
                          IdentityComonad, _halves, _presheaf_level, _commutes,
                          _counit_domains, cofree_coalgebra, coalg_exponential, coalg_extension,
                          coalg_pi, coalg_product, coalg_sigma, coalg_subst, coalgebra_laws,
                          coalgebra_maps, coalgebra_term_laws, coalgebra_type_laws,
                          coalgebra_types_over, enumerate_coalgebras,
                          exponential_up_check, is_coalgebra_map, pi_up_check, terminal_coalgebra)
from boxsem.natmodel import (NaturalModel, TermOverContext, TypeMap, TypeProduct,
                             all_presheaves, all_types_over, comprehension,
                             identity_type_map, sigma_type, subst_term, subst_type,
                             subst_type_map, terms_of, type_maps)
from boxsem.presheaf import PresheafMap, compose_maps, hom_maps, identity_map
from boxsem.standard import walking_arrow
from test_structured_oracles import (FUNCTORS, _comonad, _ref_coalg_pi,
                                     _ref_exponential_up_check, coalgebra_type_maps,
                                     type_terminal)


# ---------------------------------------------------------------------------
# Reference versions


def _ref_box_map(w, m):
    comp = w.adj.ran_map(m).component
    om = w.adj.u.obj_map
    return PresheafMap(w.box(m.source), w.box(m.target),
                       {x: comp[om[x]] for x in w.model.base.objects})


def _ref_tp_box_map(w, m):
    bd = w.box_data(m.source.context)
    comp = {}
    for x in w.model.base.objects:
        t = bd.tables[x]
        for pi, phi in enumerate(t.families):
            cols = [m.component[(j, v)] for (j, _), v in zip(t.slots, phi)]
            pos = w.tp_table(m.target, (x, pi))[2]
            comp[(x, pi)] = tuple(pos[tuple(col[u] for col, u in zip(cols, fam))]
                                  for fam in w.tp_table(m.source, (x, pi))[1])
    return TypeMap(w.tp_box(m.source), w.tp_box(m.target), comp)


def _ref_tm_box(w, t):
    bd = w.box_data(t.type.context)
    pick = {}
    for x in w.model.base.objects:
        tx = bd.tables[x]
        for pi, phi in enumerate(tx.families):
            fam = tuple(t.pick[(j, v)] for (j, _), v in zip(tx.slots, phi))
            pick[(x, pi)] = w.tp_table(t.type, (x, pi))[2][fam]
    return TermOverContext(w.tp_box(t.type), pick)


def _ref_tau(w, a):
    if isinstance(w, IdentityComonad):
        return identity_map(comprehension(a).presheaf)
    ca = comprehension(a)
    bde = w.box_data(ca.presheaf)
    bd = w.box_data(a.context)
    ext2 = comprehension(w.tp_box(a))
    comp = {}
    for x in w.model.base.objects:
        t = bde.tables[x]
        vals = []
        for fam in t.families:
            gs, xs = [], []
            for (j, _), v in zip(t.slots, fam):
                g, aa = ca.decode(j, v)
                gs.append(g)
                xs.append(aa)
            pi = bd.tables[x].family_pos[tuple(gs)]
            vals.append(ext2.encode(x, pi, w.tp_table(a, (x, pi))[2][tuple(xs)]))
        comp[x] = tuple(vals)
    return PresheafMap(bde.presheaf, ext2.presheaf, comp)


def _ref_bbox_type(w, cg, a):
    return subst_type(w.tp_box(a), cg.structure)


def _ref_bbox_term(w, cg, t):
    return subst_term(w.tm_box(t), cg.structure)


def _ref_fiber_counit(w, cg, a):
    m = subst_type_map(w.tp_counit(a), cg.structure)
    if m.target != a:
        raise ComonadError("fiber counit does not land back in its type")
    return TypeMap(m.source, a, m.component)


def _ref_fiber_comult(w, cg, a):
    m = subst_type_map(w.tp_comult(a), cg.structure)
    bb = _ref_bbox_type(w, cg, _ref_bbox_type(w, cg, a))
    if m.target != bb:
        raise ComonadError("fiber comult is not strict over this coalgebra")
    return TypeMap(m.source, bb, m.component)


def _ref_comult_law(w, cg):
    """``delta . theta == box(theta) . theta``, reading ``delta`` off the
    ``comult`` table at the image of ``theta``."""
    return _commutes(cg.structure.component, _halves(w, cg),
                     _halves(w, cofree_coalgebra(w, cg.carrier)))


def _ref_kan_comult(w, p):
    bd, bb, c = w.box_data(p), w.box_data(w.box(p)), w.adj.big
    comp = {}
    for x in w.model.base.objects:
        t = bd.tables[x]
        # slot (j, f) of the doubled family is the family at j that
        # reads slot (j2, f.f2) of the original one at its slot (j2, f2)
        inner = [(bd.tables[j].family_pos,
                  t.select((j2, c.compose(f, f2)) for (j2, f2) in bd.tables[j].slots))
                 for (j, f) in t.slots]
        pos = bb.tables[x].family_pos
        comp[x] = tuple(pos[tuple(fp[tuple(fam[k] for k in sel)] for fp, sel in inner)]
                        for fam in t.families)
    return PresheafMap(bd.presheaf, bb.presheaf, comp)


def _ref_kan_tp_counit(w, a):
    bd, c, u = w.box_data(a.context), w.adj.big, w.adj.u
    comp = {}
    for x in w.model.base.objects:
        k_id = bd.tables[x].slot_pos[(x, c.id(u.obj_map[x]))]
        for pi in range(len(bd.tables[x].families)):
            comp[(x, pi)] = tuple(fam[k_id] for fam in w.tp_table(a, (x, pi))[1])
    return TypeMap(w.tp_box(a), subst_type(a, w.adj.counit(a.context)), comp)


def _ref_kan_tp_comult(w, a):
    b, bd, c = w.tp_box(a), w.box_data(a.context), w.adj.big
    dlt = _ref_kan_comult(w, a.context)
    comp = {}
    for x in w.model.base.objects:
        t = bd.tables[x]
        sels = [(j, t.select((j2, c.compose(f, f2)) for (j2, f2) in bd.tables[j].slots))
                for (j, f) in t.slots]
        for pi, phi in enumerate(t.families):
            blocks = [(w.tp_table(a, (j, bd.tables[j].family_pos[tuple(phi[k] for k in sel)]))[2],
                       sel) for (j, sel) in sels]
            pos = w.tp_table(b, (x, dlt.apply(x, pi)))[2]
            comp[(x, pi)] = tuple(
                pos[tuple(fp[tuple(fam[k] for k in sel)] for fp, sel in blocks)]
                for fam in w.tp_table(a, (x, pi))[1])
    return TypeMap(b, subst_type(w.tp_box(b), dlt), comp)


def _ref_coalg_extension(w, xt):
    cg, a, th = xt.coalg, xt.type, xt.theta
    ext = comprehension(a)
    ext2 = comprehension(w.tp_box(a))
    ti = _ref_tau(w, a).inverse()
    comp = {}
    for o in cg.carrier.base.objects:
        vals = []
        for e in range(ext.presheaf.sizes[o]):
            g, x = ext.decode(o, e)
            e2 = ext2.encode(o, cg.structure.apply(o, g), th.component[(o, g)][x])
            vals.append(ti.apply(o, e2))
        comp[o] = tuple(vals)
    cge = Coalgebra(ext.presheaf, PresheafMap(ext.presheaf, w.box(ext.presheaf), comp))
    errs = coalgebra_laws(w, cge)
    if errs:
        raise ComonadError("extension is not a coalgebra: " + errs[0])
    if not is_coalgebra_map(w, cge, cg, ext.p):
        raise ComonadError("projection of the extension is not a coalgebra map")
    weak = coalg_subst(w, xt, cge, ext.p)
    generic = CoalgebraTerm(weak, ext.v)
    if coalgebra_term_laws(w, generic):
        raise ComonadError("generic term of the extension is not structured")
    return cge, ext.p, generic


def _ref_structure_to_theta(w, cg, a, g_ext):
    ext = comprehension(a)
    ext2 = comprehension(w.tp_box(a))
    t = _ref_tau(w, a)
    ba = w.bbox_type(cg, a)
    comp = {}
    for (o, g), n in a.fiber.items():
        vals = []
        for x in range(n):
            e2 = t.apply(o, g_ext.apply(o, ext.encode(o, g, x)))
            phi, tv = ext2.decode(o, e2)
            if phi != cg.structure.apply(o, g):
                raise ComonadError(
                    f"extension structure does not lie over the base at ({o!r}, {g})")
            vals.append(tv)
        comp[(o, g)] = tuple(vals)
    return TypeMap(a, ba, comp)


def _ref_coalg_sigma(w, xt, yb):
    cg = xt.coalg
    cge, _, _ = _ref_coalg_extension(w, xt)
    if yb.coalg != cge:
        raise ComonadError("family is not structured over the extension")
    sg = sigma_type(xt.type, yb.type)
    ca = sg.comp
    cs = comprehension(sg.type)
    cb = comprehension(yb.type)
    comp = {}
    for o in cg.carrier.base.objects:
        vals = []
        for e in range(cs.presheaf.sizes[o]):
            g, s = cs.decode(o, e)
            x, y = sg.split(o, g, s)
            vals.append(cb.encode(o, ca.encode(o, g, x), y))
        comp[o] = tuple(vals)
    assoc = PresheafMap(cs.presheaf, cb.presheaf, comp).assert_valid()
    if not assoc.is_iso():
        raise ComonadError("iterated comprehension failed to reassociate")
    cgb, _, _ = _ref_coalg_extension(w, yb)
    gamma_s = compose_maps(w.box_map(assoc.inverse()),
                           compose_maps(cgb.structure, assoc))
    th = _ref_structure_to_theta(w, cg, sg.type, gamma_s)
    st = CoalgebraType(cg, sg.type, th)
    errs = coalgebra_type_laws(w, st)
    if errs:
        raise ComonadError("transported sum structure is broken: " + errs[0])
    proj = TypeMap(sg.type, xt.type,
                   {k: tuple(sg.split(k[0], k[1], v)[0] for v in range(n))
                    for k, n in sg.type.fiber.items()})
    if compose_maps(xt.theta, proj) != \
            compose_maps(w.bbox_type_map(cg, proj), th):
        raise ComonadError("first projection of the sum is not structured")
    return CoalgebraSigma(st, sg, proj)


# ---------------------------------------------------------------------------
# The comonads: five shipped models and two Kan comonads out of the walking
# arrow, at fibers up to 2 (up to 1 on chain3, whose boxes grow fastest)

CASES = [("two", 2), ("chain3", 1), ("one", 2), ("disc2", 2), ("arrow", 2),
         *((f, 2) for f in FUNCTORS)]
KAN = [(n, b) for n, b in CASES if n not in ("one", "disc2")]


def _ladder(w, bound):
    """Structured types over the terminal coalgebra at fibers up to
    ``bound``, each with the structured types over its extension."""
    one = terminal_coalgebra(w)
    for xt in coalgebra_types_over(w, one, bound):
        cge, _, _ = coalg_extension(w, xt)
        yield xt, cge, coalgebra_types_over(w, cge, bound)


def _coalgebras(w, bound):
    """The terminal coalgebra and its extensions, as in :func:`_ladder`,
    each with the structured types over it."""
    ladder = list(_ladder(w, bound))
    return [(terminal_coalgebra(w), [xt for xt, _, _ in ladder]),
            *((cge, fams) for _, cge, fams in ladder)]


@pytest.mark.parametrize("name, bound", CASES)
def test_tau_agrees(name, bound):
    """``tau`` of every type up to the bound over the terminal presheaf
    and over each extension by a structured type."""
    w = _comonad(name)
    n = 0
    for cg, _ in _coalgebras(w, bound):
        for a in all_types_over(w.model, cg.carrier, bound):
            assert w.tau(a) == _ref_tau(w, a)
            n += 1
    assert n > 0


@pytest.mark.parametrize("name, bound", CASES)
def test_extensions_and_sums_agree(name, bound):
    """Every extension of the terminal coalgebra by a structured type up
    to the bound, the extension of that by each structured family, and
    the sum of each family."""
    w = _comonad(name)
    n_ext = n_sum = 0
    for xt, cge, fams in _ladder(w, bound):
        ref, ref_p, ref_generic = _ref_coalg_extension(w, xt)
        new, p, generic = coalg_extension(w, xt)
        assert new == ref and p == ref_p
        assert generic.ctype == ref_generic.ctype and generic.term == ref_generic.term
        n_ext += 1
        for yb in fams:
            assert coalg_extension(w, yb)[0] == _ref_coalg_extension(w, yb)[0]
            new_s, ref_s = coalg_sigma(w, xt, yb), _ref_coalg_sigma(w, xt, yb)
            assert new_s.type.type == ref_s.type.type
            assert new_s.type.theta == ref_s.type.theta
            assert new_s.proj == ref_s.proj
            n_sum += 1
    assert n_ext > 0 and n_sum > 0


@pytest.mark.parametrize("name, bound", KAN)
def test_kan_actions_agree(name, bound):
    """``box_map`` on every map between presheaves up to the bound; over
    the coalgebras of :func:`_coalgebras`, ``tp_box_map`` on every
    structure and on the maps between the first types up to the bound,
    and ``tm_box`` on every term of every type up to the bound."""
    w = _comonad(name)
    assert isinstance(w, AdjunctionComonad)
    ps = all_presheaves(w.model.base, bound)
    n = 0
    for p, q in itertools.product(ps, repeat=2):
        for h in hom_maps(p, q):
            assert w.box_map(h) == _ref_box_map(w, h)
            n += 1
    for cg, structured in _coalgebras(w, bound):
        for xt in structured:
            assert w.tp_box_map(xt.theta) == _ref_tp_box_map(w, xt.theta)
            n += 1
        types = all_types_over(w.model, cg.carrier, bound)
        for a, b in itertools.product(types[:6], repeat=2):
            for m in type_maps(a, b):
                assert w.tp_box_map(m) == _ref_tp_box_map(w, m)
                n += 1
        for a in types:
            for t in terms_of(a):
                assert w.tm_box(t) == _ref_tm_box(w, t)
                n += 1
    assert n > 0


INDEXED_CASES = [(n, b) for n in ("two", "chain3", "arrow", "one", "disc2", *FUNCTORS)
                 for b in (1, 2)]


@pytest.mark.parametrize("name, bound", INDEXED_CASES)
def test_the_indexed_comonad_agrees_with_its_whole_box_forms(name, bound):
    """Over the terminal coalgebra and its extensions by the first three
    and the last three structured types up to the bound: ``bbox_type``, ``fiber_counit`` and
    ``fiber_comult`` at every type up to the bound, and ``bbox_term`` at
    its every term.  The comult law at the points of ``delta``, on every
    map of a carrier up to the bound into its box with the counit built
    into its slots, and on the cofree coalgebra on each carrier."""
    w = _comonad(name)
    n = laws = 0
    one = terminal_coalgebra(w)
    types = coalgebra_types_over(w, one, bound)
    for cg in [one, *(coalg_extension(w, xt)[0] for xt in {*types[:3], *types[-3:]})]:
        for a in all_types_over(w.model, cg.carrier, bound):
            assert w.bbox_type(cg, a) == _ref_bbox_type(w, cg, a)
            assert w.fiber_counit(cg, a) == _ref_fiber_counit(w, cg, a)
            assert w.fiber_comult(cg, a) == _ref_fiber_comult(w, cg, a)
            for t in terms_of(a):
                assert w.bbox_term(cg, t) == _ref_bbox_term(w, cg, t)
            n += 1
    for p in all_presheaves(w.model.base, bound):
        domains = _counit_domains(w.counit(p).component, p.sizes)
        for cg in [*(Coalgebra(p, h) for h in hom_maps(p, w.box(p), domains)),
                   cofree_coalgebra(w, p)]:
            th = cg.structure.component
            level = _presheaf_level(w)
            got = _commutes(th, level.read(cg.carrier, th), level.cofree(cg.carrier))
            assert got == _ref_comult_law(w, cg)
            laws += got
    assert n > 0 and laws > 0


def _raises(build):
    try:
        build()
    except ComonadError:
        return True
    return False


@pytest.mark.parametrize("name", ["two", "chain3", "arrow", "one"])
def test_the_fiber_structure_maps_refuse_a_structure_that_breaks_a_law(name):
    """Over the first 64 natural maps of each carrier up to 2 into its
    box, at the first types of fiber up to 1 over the carrier:
    ``fiber_counit`` and ``fiber_comult`` raise exactly where the counit
    and the comult law of the structure fail, and at least wherever their
    whole-box forms raise."""
    w = _comonad(name)
    seen = set()
    for p in all_presheaves(w.model.base, 2):
        for h in hom_maps(p, w.box(p))[:64]:
            cg = Coalgebra(p, h)
            laws = coalgebra_laws(w, cg)
            for a in all_types_over(w.model, p, 1)[:3]:
                for new, ref, law in [(w.fiber_counit, _ref_fiber_counit, "counit law fails"),
                                      (w.fiber_comult, _ref_fiber_comult, "comult law fails")]:
                    raised = _raises(lambda: new(cg, a))
                    assert raised == (law in laws)
                    assert raised or not _raises(lambda: ref(w, cg, a))
                    seen.add((law, raised))
    assert len(seen) == 4


@pytest.mark.parametrize("name, bound", KAN)
def test_kan_whole_maps_agree(name, bound):
    """The counits and comultiplications derived from the points, on
    every presheaf up to the bound and every type up to the bound over
    it, against the Kan comonad's hand-written table forms."""
    w = _comonad(name)
    n = 0
    for p in all_presheaves(w.model.base, bound):
        assert w.counit(p) == w.adj.counit(p)
        assert w.comult(p) == _ref_kan_comult(w, p)
        for a in all_types_over(w.model, p, bound):
            assert w.tp_counit(a) == _ref_kan_tp_counit(w, a)
            assert w.tp_comult(a) == _ref_kan_tp_comult(w, a)
            n += 1
    assert n > 0


def test_pi_application_agrees():
    """``CoalgebraPi.app`` at every argument of every product element,
    over the extensions by a fiber-1 structured type."""
    n = 0
    for name in ("two", "arrow", "one", "chain3"):
        w = _comonad(name)
        for xt, _, fams in _ladder(w, 1):
            for yb in fams:
                cp, ref = coalg_pi(w, xt, yb), _ref_coalg_pi(w, xt, yb)
                for (o, g), size in cp.type.type.fiber.items():
                    for v, x in itertools.product(range(size), range(xt.type.fiber[(o, g)])):
                        assert cp.app(o, g, v, x) == ref.app(o, g, v, x)
                n += 1
    assert n > 0


def _forget_last(points):
    fibers, pts, pos = points
    return fibers, pts, {k: v for k, v in pos.items() if v != len(pts) - 1}


class _Leaky(AdjunctionComonad):
    """A Kan comonad that forgets where the last element of each box is."""

    def box_points(self, p, obj):
        return _forget_last(super().box_points(p, obj))

    def tp_box_points(self, a):
        points = super().tp_box_points(a)
        return lambda key: _forget_last(points(key))


def test_a_point_outside_the_box_is_a_comonad_error():
    w = _comonad("two")
    leaky = _Leaky(w.adj, w.model)
    p = all_presheaves(w.model.base, 1)[-1]
    one = type_terminal(p)
    with pytest.raises(ComonadError, match="box_map leaves the box"):
        leaky.box_map(identity_map(p))
    with pytest.raises(ComonadError, match="tp_box_map leaves the box"):
        leaky.tp_box_map(identity_type_map(one))
    with pytest.raises(ComonadError, match="tm_box leaves the box"):
        leaky.tm_box(terms_of(one)[0])


# ---------------------------------------------------------------------------
# Law checks against their whole-box forms


def _ref_coalgebra_laws(w, cg):
    errs = []
    bp = w.box(cg.carrier)
    if cg.structure.source != cg.carrier or cg.structure.target != bp:
        return ["structure map has the wrong endpoints"]
    errs.extend(cg.structure.validate())
    if errs:
        return errs
    if compose_maps(w.counit(cg.carrier), cg.structure) != identity_map(cg.carrier):
        errs.append("counit law fails")
    if compose_maps(w.comult(cg.carrier), cg.structure) != \
            compose_maps(w.box_map(cg.structure), cg.structure):
        errs.append("comult law fails")
    return errs


def _ref_is_coalgebra_map(w, src, dst, h):
    if h.source != src.carrier or h.target != dst.carrier:
        return False
    return compose_maps(dst.structure, h) == \
        compose_maps(w.box_map(h), src.structure)


def _ref_fiber_comult_holds(w, cg, a, th):
    """The comult filter of ``coalgebra_types_over``."""
    return compose_maps(_ref_fiber_comult(w, cg, a), th) == \
        compose_maps(w.bbox_type_map(cg, th), th)


def _ref_coalgebra_type_laws(w, xt):
    cg, a, th = xt.coalg, xt.type, xt.theta
    ba = _ref_bbox_type(w, cg, a)
    if th.source != a or th.target != ba:
        return ["structure map has the wrong endpoints"]
    errs = [*th.validate()]
    if errs:
        return errs
    if compose_maps(_ref_fiber_counit(w, cg, a), th) != identity_type_map(a):
        errs.append("fiber counit law fails")
    if not _ref_fiber_comult_holds(w, cg, a, th):
        errs.append("fiber comult law fails")
    return errs


def _ref_coalgebra_types_over(w, cg, bound):
    out = []
    for a in all_types_over(w.model, cg.carrier, bound):
        ba = _ref_bbox_type(w, cg, a)
        domains = _counit_domains(_ref_fiber_counit(w, cg, a).component, a.fiber)
        out.extend(CoalgebraType(cg, a, th) for th in type_maps(a, ba, domains=domains)
                   if _ref_fiber_comult_holds(w, cg, a, th))
    return out


def _ref_projection_structured(w, xt, sg, th, proj):
    """The structured-projection check of ``coalg_sigma``."""
    return compose_maps(xt.theta, proj) == \
        compose_maps(w.bbox_type_map(xt.coalg, proj), th)


def _projection_structured(w, xt, sg, th, proj):
    return _commutes(proj.component, _halves(w, CoalgebraType(xt.coalg, sg.type, th)),
                     _halves(w, xt))


LAW_CASES = [(n, b) for n in ("two", "chain3", "arrow", "one", "disc2") for b in (1, 2)]


def _fresh(w):
    """A new comonad like ``w``, with empty caches, to inject faults into."""
    if isinstance(w, AdjunctionComonad):
        return AdjunctionComonad(w.adj, w.model)
    return IdentityComonad(w.model)


def _bump(col, i, size):
    """``col`` with entry ``i`` moved to the next value below ``size``."""
    return col[:i] + ((col[i] + 1) % size,) + col[i + 1:]


@pytest.mark.parametrize("name, bound", LAW_CASES)
def test_coalgebra_laws_agree_on_every_candidate(name, bound):
    """Every map of a carrier up to the bound into its box, with and
    without the counit built into its slots: lawful, unlawful, and
    failing the counit law."""
    w = _comonad(name)
    seen = set()
    for p in all_presheaves(w.model.base, bound):
        bp = w.box(p)
        domains = _counit_domains(w.counit(p).component, p.sizes)
        for h in [*hom_maps(p, bp, domains), *hom_maps(p, bp)]:
            cg = Coalgebra(p, h)
            got = coalgebra_laws(w, cg)
            assert got == _ref_coalgebra_laws(w, cg)
            seen.update(got or ["lawful"])
    # at bound 1 every candidate is lawful
    assert seen == ({"lawful", "counit law fails", "comult law fails"} if bound == 2
                    else {"lawful"})


@pytest.mark.parametrize("name, bound", LAW_CASES)
def test_coalgebra_maps_agree_on_every_map(name, bound):
    """``is_coalgebra_map`` on every natural map between coalgebras up to
    the bound, and ``coalgebra_maps`` as its filter."""
    w = _comonad(name)
    cgs = enumerate_coalgebras(w, bound)
    verdicts = set()
    for src, dst in itertools.product(cgs, repeat=2):
        maps = hom_maps(src.carrier, dst.carrier)
        got = [h for h in maps if is_coalgebra_map(w, src, dst, h)]
        assert got == [h for h in maps if _ref_is_coalgebra_map(w, src, dst, h)]
        assert got == coalgebra_maps(w, src, dst)
        verdicts.add(len(got) == len(maps))
    # at bound 1, and where the box is the identity, every map is one
    assert verdicts == ({True, False} if name in ("two", "chain3") and bound == 2
                        else {True})


@pytest.mark.parametrize("name, bound", LAW_CASES)
def test_structured_type_laws_agree_on_every_candidate(name, bound):
    """Every map of a type up to the bound into its box over the first
    coalgebras up to the bound, with and without the counit built into
    its slots; and the structured types enumerated over each."""
    w = _comonad(name)
    seen = set()
    for cg in enumerate_coalgebras(w, bound)[:4]:
        for a in all_types_over(w.model, cg.carrier, bound):
            ba = w.bbox_type(cg, a)
            domains = _counit_domains(w.fiber_counit(cg, a).component, a.fiber)
            for th in [*type_maps(a, ba, domains=domains), *type_maps(a, ba)]:
                xt = CoalgebraType(cg, a, th)
                got = coalgebra_type_laws(w, xt)
                assert got == _ref_coalgebra_type_laws(w, xt)
                seen.update(got or ["lawful"])
        assert coalgebra_types_over(w, cg, bound) == _ref_coalgebra_types_over(w, cg, bound)
    assert seen == ({"lawful", "fiber counit law fails", "fiber comult law fails"}
                    if bound == 2 else {"lawful"})


@pytest.mark.parametrize("name", ["two", "chain3", "arrow", "one", "disc2"])
def test_sum_projection_checks_agree(name):
    """The structured-projection check of sums over the extensions by the
    first structured types up to fiber 2, each by its two last families
    (at fiber 1 every box fiber has one element), on the sum's own
    structure and on that structure with one value moved to any other
    box element."""
    w = _comonad(name)
    n = rejected = 0
    for xt, _, fams in itertools.islice(_ladder(w, 2), 8):
        for yb in fams[-2:]:
            sm = coalg_sigma(w, xt, yb)
            sg, th = sm.sigma, sm.type.theta
            assert _projection_structured(w, xt, sg, th, sm.proj)
            assert _ref_projection_structured(w, xt, sg, th, sm.proj)
            ba = th.target
            for k, col in th.component.items():
                for v, e in enumerate(col):
                    for e2 in range(ba.fiber[k]):
                        if e2 == e:
                            continue
                        moved = TypeMap(sg.type, ba, {**th.component,
                                                      k: col[:v] + (e2,) + col[v + 1:]})
                        got = _projection_structured(w, xt, sg, moved, sm.proj)
                        assert got == _ref_projection_structured(w, xt, sg, moved, sm.proj)
                        n += 1
                        rejected += not got
    assert n > rejected > 0


@pytest.mark.parametrize("name", ["two", "chain3", "arrow", "one", "disc2"])
def test_a_fault_at_one_image_element_is_rejected(name):
    """Move the comultiplication, then the counit, at one element in the
    image of a lawful structure, where each form reads it; both forms
    must reject the structure, for coalgebras and for structured types.
    The comultiplication moves in the points of ``delta`` at that element,
    which the whole ``comult`` and ``tp_comult`` are built from too; a
    fiber counit moves in ``fiber_counit`` and in ``tp_counit`` alike."""
    base = _comonad(name)
    hits = 0
    for cg in enumerate_coalgebras(base, 2)[:6]:
        p, th = cg.carrier, cg.structure
        for x, col in th.component.items():
            for v, e in enumerate(col):
                dlt, eps = base.comult(p), base.counit(p)
                n_dlt, n_eps = dlt.target.sizes[x], p.sizes[x]
                if n_dlt > 1:
                    w = _fresh(base)
                    bad = list(base.delta_points(p, x))
                    bad[e] = base.box_points(dlt.target, x)[1][(dlt.component[x][e] + 1) % n_dlt]
                    w.delta_points = lambda q, o, bad=bad, x=x, real=w.delta_points: \
                        bad if (q, o) == (p, x) else real(q, o)
                    assert w.comult(p).component[x] == _bump(dlt.component[x], e, n_dlt)
                    assert "comult law fails" in coalgebra_laws(w, cg)
                    assert "comult law fails" in _ref_coalgebra_laws(w, cg)
                    hits += 1
                if n_eps > 1:
                    w = _fresh(base)
                    bad = PresheafMap(eps.source, eps.target, {
                        **eps.component, x: _bump(eps.component[x], e, n_eps)})
                    w.counit = lambda q, bad=bad, real=w.counit: bad if q == p else real(q)
                    assert "counit law fails" in coalgebra_laws(w, cg)
                    assert "counit law fails" in _ref_coalgebra_laws(w, cg)
                    hits += 1
        for xt in coalgebra_types_over(base, cg, 2)[:6]:
            a, s = xt.type, cg.structure
            for (o, g), col in xt.theta.component.items():
                key = (o, s.apply(o, g))
                for e in col:
                    dlt, eps = base.tp_comult(a), base.tp_counit(a)
                    n_dlt, n_eps = dlt.target.fiber[key], a.fiber[(o, g)]
                    if n_dlt > 1:
                        w = _fresh(base)
                        bad = list(base.tp_delta_points(a, key))
                        over = (o, base.comult(cg.carrier).apply(*key))
                        bad[e] = base.tp_box_points(base.tp_box(a))(over)[1][
                            (dlt.component[key][e] + 1) % n_dlt]
                        w.tp_delta_points = lambda b, k, bad=bad, key=key, \
                            real=w.tp_delta_points: bad if (b, k) == (a, key) else real(b, k)
                        assert w.tp_comult(a).component[key] == \
                            _bump(dlt.component[key], e, n_dlt)
                        assert "fiber comult law fails" in coalgebra_type_laws(w, xt)
                        assert "fiber comult law fails" in _ref_coalgebra_type_laws(w, xt)
                        assert xt not in coalgebra_types_over(w, cg, 2)
                        assert xt not in _ref_coalgebra_types_over(w, cg, 2)
                        hits += 1
                    if n_eps > 1:
                        w = _fresh(base)
                        fib = base.fiber_counit(cg, a)
                        bad_fib = TypeMap(fib.source, fib.target, {
                            **fib.component, (o, g): _bump(fib.component[(o, g)], e, n_eps)})
                        bad = TypeMap(eps.source, eps.target, {
                            **eps.component, key: _bump(eps.component[key], e, n_eps)})
                        w.fiber_counit = lambda c, b, bad=bad_fib, real=w.fiber_counit: \
                            bad if (c, b) == (cg, a) else real(c, b)
                        w.tp_counit = lambda b, bad=bad, real=w.tp_counit: \
                            bad if b == a else real(b)
                        assert "fiber counit law fails" in coalgebra_type_laws(w, xt)
                        assert "fiber counit law fails" in _ref_coalgebra_type_laws(w, xt)
                        hits += 1
    assert hits > 0


@pytest.mark.parametrize("name", ["two", "chain3", "arrow"])
def test_a_swapped_slot_read_breaks_the_comonad_laws(name, monkeypatch, capsys, tmp_path):
    """Swap the reads of the first two slots over the top object, so that
    ``delta`` restricts along each slot where the other should be read:
    ``model laws`` prints FAIL for the comonad laws and exits 1, and its
    report names the points of ``delta`` leaving the box of the box.

    ``sierpinski`` declares no comonad, so nothing reads its
    ``slot_reads``.  With at most one element per object every box has at
    most one, and two reads of it agree whatever slots they read, so the
    law suite samples the counit and comult laws at carriers up to 2
    whatever the display bound.  Each model fails with the same witness at
    bound 2 and as shipped, at bound 1.  On ``arrow`` the restriction of
    ``tp_box`` reads the swapped slots too, and ``tau`` fails there.
    """
    spec = json.loads(Path("models", f"{name}.json").read_text())
    spec["bound"] = 2
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    assert "PASS comonad laws" in _laws(path, capsys)[1]
    top = load_model(name).category.objects[-1]
    reads = AdjunctionComonad.slot_reads

    def swapped(self, obj):
        out = list(reads(self, obj))
        if obj == top:
            out[0], out[1] = out[1], out[0]
        return out

    monkeypatch.setattr(AdjunctionComonad, "slot_reads", swapped)
    report = tmp_path / "laws.json"
    for model in (path, name):
        assert _laws(model, capsys, report) == (1, "FAIL comonad laws")
        assert f"comult leaves the box at {top}" in \
            json.loads(report.read_text())["sections"]["comonad"]["witnesses"]
    if name == "arrow":
        w = load_model(name).comonad
        with pytest.raises(ComonadError, match="tp_box restriction leaves the box"):
            for p in all_presheaves(w.model.base, 1):
                for a in all_types_over(w.model, p, 1):
                    w.tau(a)


def _laws(model, capsys, out=None):
    """Exit code and first comonad line of ``model laws``, writing its
    report to ``out`` when given."""
    code = main(["model", "laws", str(model), *(["--out", str(out)] if out else [])])
    lines = capsys.readouterr().out.splitlines()
    return code, next(x for x in lines if x.split()[1] == "comonad")


def test_a_map_that_is_not_natural_is_no_coalgebra_map():
    """Under the identity comonad over the walking arrow the box reads no
    restriction, so the square commutes for every map of carriers: the
    whole-box form accepts a map that is not natural, and
    ``is_coalgebra_map`` refuses it, so ``coalg_subst`` raises."""
    w = IdentityComonad(NaturalModel(walking_arrow(), 2))
    cgs = enumerate_coalgebras(w, 2)
    for src, dst in itertools.product(cgs, repeat=2):
        types = coalgebra_types_over(w, dst, 1)
        bad = next(filter(None, map(_unnatural, hom_maps(src.carrier, dst.carrier))), None)
        if bad is None or not types:
            continue
        assert _ref_is_coalgebra_map(w, src, dst, bad)
        assert not is_coalgebra_map(w, src, dst, bad)
        with pytest.raises(ComonadError, match="not along a coalgebra map"):
            coalg_subst(w, types[0], src, bad)
        return
    pytest.fail("no map that is not natural found")


def _unnatural(h):
    """``h`` with one value moved, so that it is no longer natural, or
    None when every such move stays natural."""
    for x, col in h.component.items():
        for i, v in itertools.product(range(len(col)), h.target.elements(x)):
            bad = PresheafMap(h.source, h.target,
                              {**h.component, x: col[:i] + (v,) + col[i + 1:]})
            if bad.validate():
                return bad
    return None


@pytest.mark.parametrize("name, natural", [("two", True),
                                           ("two onto 0->2 of chain3", False)])
def test_substitution_along_a_bad_map_raises(name, natural):
    """A natural map that is no coalgebra map, and a map that is not
    natural: ``is_coalgebra_map`` refuses both, the whole-box form
    refuses the first and raises or refuses the second, and
    ``coalg_subst`` raises ``ComonadError`` along either.  The shipped
    Kan comonads sit over discrete bases, where every map is natural, so
    the second takes the Kan comonad along the walking arrow onto
    ``0 -> 2``, where every natural map between the coalgebras up to 2
    is a coalgebra map."""
    w = _comonad(name)
    cgs = enumerate_coalgebras(w, 2)
    for src, dst in itertools.product(cgs, repeat=2):
        types = coalgebra_types_over(w, dst, 1)
        for h in hom_maps(src.carrier, dst.carrier) if types else ():
            if natural:
                if is_coalgebra_map(w, src, dst, h):
                    continue
                assert not _ref_is_coalgebra_map(w, src, dst, h)
            else:
                h = _unnatural(h)
                if h is None:
                    continue
                assert not is_coalgebra_map(w, src, dst, h)
                try:
                    assert not _ref_is_coalgebra_map(w, src, dst, h)
                except ComonadError:
                    pass
            with pytest.raises(ComonadError, match="not along a coalgebra map"):
                coalg_subst(w, types[0], src, h)
            return
    pytest.fail("no bad map found")


# ---------------------------------------------------------------------------
# Constructions built once per comonad


def test_asking_again_gives_the_same_answers():
    """A second ``exponential_up_check`` or ``coalg_sigma`` on one comonad
    reads the product or extension built by the first; its verdict,
    counts and sum equal the first and those of a fresh comonad."""
    w = _comonad("two")
    types = coalgebra_types_over(w, terminal_coalgebra(w), 2)
    for x in types[2:5]:
        e = coalg_exponential(w, x, x)
        for z in types:
            first = exponential_up_check(w, e, z)
            assert first["ok"]
            assert exponential_up_check(w, e, z) == first
            fresh = _fresh(w)
            assert exponential_up_check(fresh, coalg_exponential(fresh, x, x), z) == first
            assert coalg_product(w, z, x) == coalg_product(fresh, z, x)
    n = 0
    for xt, _, fams in itertools.islice(_ladder(w, 2), 4):
        for yb in fams:
            first, again = coalg_sigma(w, xt, yb), coalg_sigma(w, xt, yb)
            fresh = coalg_sigma(_fresh(w), xt, yb)
            for s in (again, fresh):
                assert s.type == first.type and s.proj == first.proj
            assert pi_up_check(w, coalg_pi(w, xt, yb)) == \
                pi_up_check(w, coalg_pi(w, xt, yb))
            n += 1
    assert n > 0


def _grid_two():
    w = _comonad("two")
    return w, coalgebra_types_over(w, terminal_coalgebra(w), 2)


def test_a_transpose_that_leaves_the_box_fails_the_check(monkeypatch):
    """``exponential_up_check`` reports a transpose that leaves the box as
    a failed check with its witness, not a raise: first with the element
    one transpose reaches missing from the ``pos`` of the box of the plain
    product, then with it missing from the inclusion.  The check by
    ``TypeMap``s gives the same dicts."""
    w, types = _grid_two()
    e, z, k = coalg_exponential(w, types[2], types[2]), types[3], ("0", 0)
    assert exponential_up_check(w, e, z)["ok"]
    h = coalgebra_type_maps(w, z, e.type)[0]
    reached = e.inclusion.component[k][h.component[k][0]]
    bbox_points = w.bbox_points

    def leaky(cg, a):
        points = bbox_points(cg, a)
        if a is not e.plain.type:
            return points

        def at(key):
            fibers, pts, pos = points(key)
            return fibers, pts, {p: v for p, v in pos.items() if key != k or v != reached}
        return at

    monkeypatch.setattr(w, "bbox_points", leaky)
    out = {"ok": False, "witness": "transpose leaves the box: "
                                   "transpose leaves the box at ('0', 0)"}
    assert exponential_up_check(w, e, z) == _ref_exponential_up_check(w, e, z) == out
    monkeypatch.undo()
    col = tuple(-1 if v == reached else v for v in e.inclusion.component[k])
    e2 = replace(e, inclusion=TypeMap(e.inclusion.source, e.inclusion.target,
                                      {**e.inclusion.component, k: col}))
    out = {"ok": False, "witness": "transpose leaves the box: "
                                   "transpose of an unstructured map"}
    assert exponential_up_check(w, e2, z) == _ref_exponential_up_check(w, e2, z) == out


def test_a_transpose_that_reads_a_wrong_pair_fails_evaluation(monkeypatch):
    """A transpose that reads ``m`` at the pair of ``c.f`` and ``sigma(t)``
    instead of ``t``, for a structured automorphism ``sigma`` of the source,
    curries ``m . (z x sigma)``: structured, but evaluated back it is not
    ``m``.  Both checks read the pair index from ``TypeProduct.pair``."""
    w, types = _grid_two()
    x, z = types[3], types[7]
    e = coalg_exponential(w, x, x)
    assert exponential_up_check(w, e, z)["ok"]
    sigma = next(h for h in coalgebra_type_maps(w, x, x)
                 if h.is_iso() and h != identity_type_map(x.type)).component
    pr_zx, pair = coalg_product(w, z, x)[1], TypeProduct.pair

    def misread(self, obj, g, c, t):
        return pair(self, obj, g, c, sigma[(obj, g)][t] if self is pr_zx else t)

    monkeypatch.setattr(TypeProduct, "pair", misread)
    out = {"ok": False, "witness": "evaluation does not undo currying"}
    assert exponential_up_check(w, e, z) == _ref_exponential_up_check(w, e, z) == out


def test_a_transpose_outside_the_curried_maps_is_not_structured(monkeypatch):
    """With the last structured map into the exponential left out of the
    curried hom set, the map that curries to it is reported, by both
    checks: both read the hom sets from ``_structured_families``."""
    w, types = _grid_two()
    e, z = coalg_exponential(w, types[2], types[2]), types[3]
    assert exponential_up_check(w, e, z)["ok"]
    enumerate_maps = coalg._structured_families

    def short(w, x, y):
        ends, families = enumerate_maps(w, x, y)
        return ends, families[:-1] if y is e.type else families

    monkeypatch.setattr(coalg, "_structured_families", short)
    out = {"ok": False, "witness": "transpose is not structured"}
    assert exponential_up_check(w, e, z) == _ref_exponential_up_check(w, e, z) == out


def test_a_broken_construction_raises_every_time():
    """A product or extension over a structure that breaks the counit law
    raises ``ComonadError`` on every request, and nothing is kept."""
    w = _comonad("two")
    one = terminal_coalgebra(w)
    a = next(a for a in all_types_over(w.model, one.carrier, 2) if a.fiber[("0", 0)] == 2)
    ba = w.bbox_type(one, a)
    broken = next(CoalgebraType(one, a, th) for th in type_maps(a, ba)
                  if coalgebra_type_laws(w, CoalgebraType(one, a, th)))
    for build in (lambda: coalg_product(w, broken, broken),
                  lambda: coalg_extension(w, broken)):
        for _ in range(2):
            with pytest.raises(ComonadError):
                build()
    assert all(broken not in key for key in w._built)


# ---------------------------------------------------------------------------
# Structured types read at the points of delta


@pytest.mark.parametrize("name", ["two", "chain3", "arrow"])
def test_the_cofree_structured_type_is_lawful(name):
    """``cofree_type``, which ``interpret`` reads for every modal
    hypothesis, over the terminal coalgebra and over its extension by the
    last structured type of fiber up to 2: on every type of fiber up to 2
    its structure is ``fiber_comult`` into the box of the box, and obeys
    the fiber laws."""
    w = _comonad(name)
    one = terminal_coalgebra(w)
    ext = coalg_extension(w, coalgebra_types_over(w, one, 2)[-1])[0]
    n = 0
    for cg in (one, ext):
        for a in all_types_over(w.model, cg.carrier, 2):
            xt = w.cofree_type(cg, a)
            assert xt.type == w.bbox_type(cg, a) and xt.theta == w.fiber_comult(cg, a)
            assert coalgebra_type_laws(w, xt) == []
            n += 1
    assert n > 81


def test_the_structured_type_checks_build_no_box_of_a_box(monkeypatch):
    """With ``fiber_comult``, whose target is the box of a box, made to
    raise, ``coalgebra_types_over`` and ``coalgebra_type_laws`` on ``two``
    at fiber up to 2, over the terminal coalgebra and over the extensions
    by its first five structured types, give what they gave before on
    the first maps of each type into its box, with and without the
    counit built into their slots: the comult law is read at the points
    of ``delta``."""
    base = _comonad("two")
    one = terminal_coalgebra(base)
    over = [one, *(coalg_extension(base, xt)[0]
                   for xt in coalgebra_types_over(base, one, 2)[:5])]

    def verdicts(w):
        types, laws = [], []
        for cg in over:
            types.append(coalgebra_types_over(w, cg, 2))
            for a in all_types_over(w.model, cg.carrier, 2)[:8]:
                ba = w.bbox_type(cg, a)
                domains = _counit_domains(w.fiber_counit(cg, a).component, a.fiber)
                laws.extend(coalgebra_type_laws(w, CoalgebraType(cg, a, th))
                            for th in [*type_maps(a, ba, domains)[:16], *type_maps(a, ba)[:16]])
        return types, laws

    before = verdicts(_fresh(base))

    def boom(self, cg, a):
        raise AssertionError("fiber_comult builds the box of a box")

    monkeypatch.setattr(coalg.NaturalModelComonad, "fiber_comult", boom)
    types, laws = verdicts(_fresh(base))
    assert (types, laws) == before
    assert all(types) and [] in laws
    assert any("fiber comult law fails" in errs for errs in laws)


@pytest.mark.parametrize("name", ["two", "chain3", "arrow", "one"])
def test_the_structured_type_checks_refuse_a_structure_that_breaks_a_law(name):
    """Over the first 64 natural maps of each carrier up to 2 into its
    box, as in the test of ``fiber_counit`` and ``fiber_comult`` above,
    and the first 64 of those with the counit built into their slots, as
    in the test of ``coalgebra_laws``:
    ``coalgebra_types_over`` and ``coalgebra_type_laws`` raise that the
    fiber counit does not land back in its type where the counit law
    fails, that the fiber comult is not strict where only the comult law
    fails, and nothing where both hold.  Only on ``chain3`` does a
    candidate that keeps the counit law break the comult law; on the
    others, at carriers up to 2, every such candidate is a coalgebra."""
    w = _comonad(name)
    seen = set()
    for p in all_presheaves(w.model.base, 2):
        bp = w.box(p)
        domains = _counit_domains(w.counit(p).component, p.sizes)
        for h in [*hom_maps(p, bp)[:64], *hom_maps(p, bp, domains)[:64]]:
            cg = Coalgebra(p, h)
            laws = coalgebra_laws(w, cg)
            error = ("fiber counit does not land back" if "counit law fails" in laws else
                     "fiber comult is not strict" if "comult law fails" in laws else None)
            seen.add(error)
            checks = [lambda: coalgebra_types_over(w, cg, 1)]
            for a in all_types_over(w.model, p, 1)[:3]:
                checks.extend(partial(coalgebra_type_laws, w, CoalgebraType(cg, a, th))
                              for th in type_maps(a, w.bbox_type(cg, a))[:2])
            for check in checks:
                if error is None:
                    check()
                else:
                    with pytest.raises(ComonadError, match=error):
                        check()
    assert len(seen) == (3 if name == "chain3" else 2)
