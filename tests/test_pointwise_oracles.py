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
exponential's evaluation; ``_ref_pi_app`` applies the counit of the
boxed plain exponential.  All must agree on the nose.
"""

import itertools

import pytest

from boxsem.coalg import (AdjunctionComonad, CoalgebraSigma, CoalgebraTerm, CoalgebraType,
                          Coalgebra, ComonadError, IdentityComonad, coalg_extension, coalg_pi,
                          coalg_sigma, coalg_subst, coalgebra_laws, coalgebra_term_laws,
                          coalgebra_type_laws, coalgebra_types_over, is_coalgebra_map,
                          terminal_coalgebra)
from boxsem.natmodel import (TermOverContext, TypeMap, all_presheaves, all_types_over,
                             compose_type_maps, comprehension, identity_type_map, sigma_type,
                             terms_of, type_maps, type_terminal)
from boxsem.presheaf import PresheafMap, compose_maps, hom_maps, identity_map
from test_structured_oracles import FUNCTORS, _comonad


# ---------------------------------------------------------------------------
# Reference versions


def _ref_box_map(w, m):
    comp = w.adj.ran_map(m).component
    om = w.adj.u.obj_map
    return PresheafMap(w.box(m.source), w.box(m.target),
                       {x: comp[om[x]] for x in w.model.base.objects})


def _ref_tp_box_map(w, m):
    ta, tb = w.tp_data(m.source), w.tp_data(m.target)
    bd = ta.box
    comp = {}
    for x in w.model.base.objects:
        t = bd.tables[x]
        for pi, phi in enumerate(t.families):
            cols = [m.component[(j, v)] for (j, _), v in zip(t.slots, phi)]
            pos = tb.tables[(x, pi)].family_pos
            comp[(x, pi)] = tuple(pos[tuple(col[u] for col, u in zip(cols, fam))]
                                  for fam in ta.tables[(x, pi)].families)
    return TypeMap(ta.type, tb.type, comp)


def _ref_tm_box(w, t):
    td = w.tp_data(t.type)
    bd = td.box
    pick = {}
    for x in w.model.base.objects:
        tx = bd.tables[x]
        for pi, phi in enumerate(tx.families):
            fam = tuple(t.pick[(j, v)] for (j, _), v in zip(tx.slots, phi))
            pick[(x, pi)] = td.tables[(x, pi)].family_pos[fam]
    return TermOverContext(td.type, pick)


def _ref_tau(w, a):
    if isinstance(w, IdentityComonad):
        return identity_map(comprehension(a).presheaf)
    ca = comprehension(a)
    bde = w.box_data(ca.presheaf)
    bd = w.box_data(a.context)
    td = w.tp_data(a)
    ext2 = comprehension(td.type)
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
            vals.append(ext2.encode(x, pi, td.tables[(x, pi)].family_pos[tuple(xs)]))
        comp[x] = tuple(vals)
    return PresheafMap(bde.presheaf, ext2.presheaf, comp)


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
    if compose_type_maps(xt.theta, proj) != \
            compose_type_maps(w.bbox_type_map(cg, proj), th):
        raise ComonadError("first projection of the sum is not structured")
    return CoalgebraSigma(st, sg, proj)


def _ref_pi_app(w, cp, obj, g, v, x):
    exp = cp.exponential
    e = cp.inclusion.component[(obj, g)][v]
    be = exp.inclusion.component[(obj, g)][e]
    eps = w.fiber_counit(cp.base.coalg, exp.plain.type)
    s = exp.plain.app(obj, g, eps.component[(obj, g)][be], x)
    x2, y = cp.sum.split(obj, g, s)
    if x2 != x:
        raise ComonadError("product element is not a section")
    return y


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


def test_pi_application_agrees():
    """``CoalgebraPi.app`` at every argument of every product element,
    over the extensions by a fiber-1 structured type."""
    n = 0
    for name in ("two", "arrow", "one", "chain3"):
        w = _comonad(name)
        for xt, _, fams in _ladder(w, 1):
            for yb in fams:
                cp = coalg_pi(w, xt, yb)
                for (o, g), size in cp.type.type.fiber.items():
                    for v, x in itertools.product(range(size), range(xt.type.fiber[(o, g)])):
                        assert cp.app(o, g, v, x) == _ref_pi_app(w, cp, o, g, v, x)
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
