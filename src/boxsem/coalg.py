"""Comonads on a presheaf model and their categories of coalgebras.

The central object is :class:`NaturalModelComonad`: a finite-limit
preserving comonad on presheaves over the model's base category, with a
strict action on dependent types and terms.  A comonad supplies its
carriers and the elements of each box as tuples of points, with the
slots along which ``delta`` restricts them.  It acts pointwise, so the
rest is derived from the points: its actions on maps and terms, the
comprehension iso ``tau``, its counits and comultiplications, and its
action on universe codes and sieves (:func:`code_actions`,
:func:`sieve_action`).  Two comonads are provided: the identity, and
restriction followed by right Kan extension along a functor between
finite categories.

Over a coalgebra ``(Gamma, theta)`` only points at the image of
``theta`` are read.  They suffice: ``tp_box(A)`` at ``(x, pi)`` depends
on ``A``, ``x`` and ``pi`` alone, so built at ``pi = theta(g)`` it is
``subst_type(tp_box(A), theta)`` at ``g``; and point ``k`` of
``delta(e)`` is the restriction of ``e`` along slot ``k``
(``ran(P).presheaf.action[f][e]`` at slot ``(j, f)`` of the Kan
comonad), so the comult law holds at ``v`` exactly when that
restriction of ``theta(v)`` is ``theta_j`` of its point ``k``.
Coalgebras and the structured types over one are two levels with the
same laws (Kock and Wraith), checked by one body (:class:`_Level`) that
builds no box of a box.  Only ``comult``, ``tp_comult`` and
``fiber_comult`` build one, as their target, read by the cofree
coalgebra, the action on codes, ``cofree_type`` and the law suite of
:func:`validate_comonad`.

On top of that the module builds the bounded category of coalgebras
with its forgetful and cofree adjunction, the comparison with the
presheaf category upstairs, and the natural model whose contexts are
coalgebras.  Its structured dependent product, type classifier and
subobject classifier are each carved out of a cofree box as an
equalizer of cofree transposes, read at the points of ``delta``
(:meth:`_Level.carve`).

Everything is evaluated elementwise and all laws are decidable checks;
no structure is trusted without being run through its validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, wraps
from itertools import chain, islice
from operator import getitem, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .presheaf import (FamilyTable, KanAdjunction, Omega, Presheaf, PresheafMap,
                       Product, PullbackSquare, Ran, _components, _flat_maps, characteristic_map,
                       compose_maps, hom_maps, identity_map, iso_maps, product, pullback,
                       sub_presheaf, subobject_classifier, subobject_of_char,
                       subpresheaves, terminal_presheaf)
from .natmodel import (ModelError, NaturalModel, Pi, Sigma, TermOverContext, TypeMap,
                       TypeOverContext, TypeProduct, Universe, _display_maps,
                       _types_over, all_presheaves, all_types_over,
                       apply_type_map, comprehension,
                       hs_universe, identity_type_map, is_display,
                       pi_type, sigma_type, sub_type, subst_type,
                       subst_type_map, terms_of, type_maps, type_product)


class ComonadError(Exception):
    """A comonad law or construction precondition failed."""


class EnumerationCeiling(ComonadError):
    """An enumeration would exceed its configured guard."""


# (fibers, points, positions): the elements of a box read as tuples of points
Points = tuple[tuple, Sequence[tuple[int, ...]], Mapping[tuple[int, ...], int]]


def _positions(pos: Mapping[tuple[int, ...], int], points: Iterable[tuple[int, ...]],
               error: str, where: object) -> tuple[int, ...]:
    """Look tuples of points up in the ``pos`` of a box (``box_points``);
    a tuple that is no element raises ``ComonadError`` with ``error`` at
    ``where``."""
    out = tuple(map(pos.get, points))
    if None in out:
        raise ComonadError(f"{error} at {where}")
    return out


def _once(build: Callable) -> Callable:
    """Memoize a construction ``build(w, *args)`` per comonad, by the
    value of its arguments, in ``w._built``; methods of a comonad too.
    A call that raises keeps nothing, so asking again raises again."""
    @wraps(build)
    def memo(w: "NaturalModelComonad", *args):
        key = (build.__name__, *args)
        hit = w._built.get(key)
        if hit is None:
            hit = w._built[key] = build(w, *args)
        return hit
    return memo


# ---------------------------------------------------------------------------
# The comonad interface


class NaturalModelComonad:
    """A comonad on presheaves over the model base, together with its
    strict action on the model's types and terms.

    A subclass supplies the carriers (``box``, ``tp_box``) and the points
    below; the base class derives the rest from them, at the bottom the
    comonad induced on the types over a coalgebra, at the image of its
    structure.  For the Kan comonad these are its table-level actions on
    the nose, its families being its points, numbered lexicographically
    over its slots."""

    name = "comonad"

    def __init__(self, model: NaturalModel):
        self.model = model
        # what this comonad has built, by name and arguments (:func:`_once`)
        self._built: dict[tuple, object] = {}

    # supplied: carriers, and the elements of the box as points ---------------
    def box(self, p: Presheaf) -> Presheaf:
        raise NotImplementedError

    def tp_box(self, a: TypeOverContext) -> TypeOverContext:
        """Transport a type over ``Gamma`` to one over ``box(Gamma)``."""
        raise NotImplementedError

    def box_points(self, p: Presheaf, obj: str) -> Points:
        """The elements of ``box(P)(obj)`` as tuples of points of ``P``.

        Returns ``(fibers, points, pos)``.  Element ``e`` is determined by
        ``points[e]``, whose entry ``k`` lies in ``P(fibers[k])``, and
        ``pos[points[e]] == e``; a tuple that is no element is not in
        ``pos``.  ``fibers`` depends on ``obj`` alone.  The derived
        actions rest on this: ``box_map(h)`` sends ``e`` to the element
        whose entry ``k`` is ``h`` at ``fibers[k]`` of ``points[e][k]``.
        """
        raise NotImplementedError

    def tp_box_points(self, a: TypeOverContext) -> Callable[[tuple[str, int]], Points]:
        """The elements of ``tp_box(A)`` as tuples of points of ``A``: the
        function returned takes ``(obj, pi)``, ``pi`` in ``box(Gamma)(obj)``,
        to the elements over it, as :meth:`box_points` does.  Its
        ``fibers`` lists fiber keys of ``A``, key ``k`` over point ``k`` of
        ``pi``, and depends on ``(obj, pi)`` and the context alone."""
        raise NotImplementedError

    def slot_reads(self, obj: str) -> Sequence[tuple[str, Sequence[int]]]:
        """Per slot ``k`` over ``obj``, ``(fibers[k], sel)``: point ``k`` of
        ``delta(e)``, the restriction of ``e`` along slot ``k``, is the
        element over ``fibers[k]`` whose points are those of ``e`` at ``sel``."""
        raise NotImplementedError

    def tp_box_restriction(self, a: TypeOverContext, m: str, pi: int) -> tuple[int, ...]:
        """``tp_box(A).restriction[(m, pi)]``, at ``pi`` alone if need be."""
        return self.tp_box(a).restriction[(m, pi)]

    # derived: maps and terms, counits and comultiplications, by points -------
    def box_map(self, m: PresheafMap) -> PresheafMap:
        return PresheafMap(self.box(m.source), self.box(m.target), _boxed_columns(
            m.component, self.model.base.objects, partial(self.box_points, m.source),
            partial(self.box_points, m.target), "box_map leaves the box"))

    def tp_box_map(self, m: TypeMap) -> TypeMap:
        ba = self.tp_box(m.source)
        return TypeMap(ba, self.tp_box(m.target), _boxed_columns(
            m.component, ba.fiber, self.tp_box_points(m.source), self.tp_box_points(m.target),
            "tp_box_map leaves the box"))

    def tm_box(self, t: TermOverContext) -> TermOverContext:
        return _boxed_term(t, self.tp_box(t.type), self.tp_box_points(t.type), "tm_box")

    @_once
    def delta_points(self, p: Presheaf, obj: str) -> list[tuple[int, ...]]:
        """The points of ``delta(e)`` for each ``e`` in ``box(P)(obj)``."""
        reads = [(self.box_points(p, j)[2], sel) for j, sel in self.slot_reads(obj)]
        return [tuple(pos[tuple(pt[k] for k in sel)] for pos, sel in reads)
                for pt in self.box_points(p, obj)[1]]

    @_once
    def counit_slot(self, obj: str) -> int:
        """The slot the counit reads: the one restricting along the identity."""
        reads = self.slot_reads(obj)
        return next(k for k, r in enumerate(reads) if r == (obj, [*range(len(reads))]))

    @_once
    def tp_delta_points(self, a: TypeOverContext, key: tuple[str, int]) -> list[tuple[int, ...]]:
        """The points of ``delta`` at each element of ``tp_box(A)`` over
        ``key = (obj, pi)``, point ``k`` over point ``k`` of ``delta(pi)``."""
        d, points = self.delta_points(a.context, key[0])[key[1]], self.tp_box_points(a)
        reads = [(points((j, d[k]))[2], sel) for k, (j, sel) in enumerate(self.slot_reads(key[0]))]
        return [tuple(pos[tuple(pt[k] for k in sel)] for pos, sel in reads)
                for pt in points(key)[1]]

    @_once
    def counit(self, p: Presheaf) -> PresheafMap:
        """The component ``box(P) -> P``."""
        return PresheafMap(self.box(p), p, _counit_columns(
            self.model.base.objects, partial(self.box_points, p), self.counit_slot))

    @_once
    def comult(self, p: Presheaf) -> PresheafMap:
        """The component ``box(P) -> box(box(P))``."""
        bp = self.box(p)
        return PresheafMap(bp, self.box(bp), _comult_columns(
            self.model.base.objects, partial(self.box_points, bp),
            partial(self.delta_points, p), "comult leaves the box"))

    @_once
    def tp_counit(self, a: TypeOverContext) -> TypeMap:
        """``tp_box(A) -> A[counit]`` over ``box(Gamma)``."""
        ba = self.tp_box(a)
        return TypeMap(ba, subst_type(a, self.counit(a.context)), _counit_columns(
            ba.fiber, self.tp_box_points(a), lambda key: self.counit_slot(key[0])))

    @_once
    def tp_comult(self, a: TypeOverContext) -> TypeMap:
        """``tp_box(A) -> tp_box(tp_box(A))[comult]`` over ``box(Gamma)``."""
        b, dlt = self.tp_box(a), self.comult(a.context)
        points = self.tp_box_points(b)
        return TypeMap(b, subst_type(self.tp_box(b), dlt), _comult_columns(
            b.fiber, lambda key: points((key[0], dlt.apply(*key))),
            partial(self.tp_delta_points, a), "tp_comult leaves the box"))

    def tau(self, a: TypeOverContext) -> PresheafMap:
        """The iso ``box(Gamma.A) -> box(Gamma).tp_box(A)``: the pair of
        ``box(p)`` and the boxed generic term ``box(v)``.  ``p`` and ``v``
        split the g-major numbering of ``Gamma.A`` into ``(g, x)``, so these
        decode each point of an element into a point of ``Gamma`` and one
        of ``A``; the type action is strict, so ``box(v)`` lies in
        ``tp_box(A)[box(p)]`` on the nose."""
        ca = comprehension(a)
        ext2 = comprehension(self.tp_box(a))
        bp, bv = self.box_map(ca.p).component, self.tm_box(ca.v).pick
        return PresheafMap(self.box(ca.presheaf), ext2.presheaf, {
            x: tuple(ext2.encode(x, pi, bv[(x, e)]) for e, pi in enumerate(bp[x]))
            for x in self.model.base.objects})

    # derived: the indexed comonad at the image of a coalgebra ---------------
    def _tp_box_along(self, a: TypeOverContext, ctx: Presheaf,
                      s: Mapping[str, Sequence[int]]) -> TypeOverContext:
        """``subst_type(tp_box(A), s)`` for the map into ``box(Gamma)`` with
        columns ``s``, from ``tp_box(A)`` at the image of ``s`` alone."""
        c, points = self.model.base, self.tp_box_points(a)
        return TypeOverContext(
            ctx, {(x, g): len(points((x, pi))[1]) for x in c.objects for g, pi in enumerate(s[x])},
            {(m, g): self.tp_box_restriction(a, m, pi)
             for m in c.morphisms for g, pi in enumerate(s[c.dst[m]])})

    @_once
    def bbox_type(self, cg: "Coalgebra", a: TypeOverContext) -> TypeOverContext:
        """The induced endofunctor on types over the carrier of ``cg``."""
        return self._tp_box_along(a, cg.carrier, cg.structure.component)

    def bbox_type_map(self, cg: "Coalgebra", m: TypeMap) -> TypeMap:
        return TypeMap(self.bbox_type(cg, m.source), self.bbox_type(cg, m.target), _boxed_columns(
            m.component, m.source.fiber, self.bbox_points(cg, m.source),
            self.bbox_points(cg, m.target), "bbox_type_map leaves the box"))

    @_once
    def bbox_points(self, cg: "Coalgebra",
                    a: TypeOverContext) -> Callable[[tuple[str, int]], Points]:
        """The elements of ``bbox_type(cg, a)`` as points: the function
        returned takes a fiber key of ``a`` to those over it."""
        points, s = self.tp_box_points(a), cg.structure.component
        return {key: points((key[0], s[key[0]][key[1]])) for key in a.fiber}.__getitem__

    @_once
    def bbox_delta_points(self, cg: "Coalgebra") -> Callable[[TypeOverContext, tuple], list]:
        """:meth:`tp_delta_points` at the image of the structure, by type and
        fiber key.  Point ``k`` lies over point ``k`` of ``delta(theta(g))``,
        which the comult law of ``cg``, checked, makes ``theta`` of that of
        ``theta(g)``."""
        s = cg.structure.component
        if not _commutes(s, _halves(self, cg), _presheaf_level(self).cofree(cg.carrier)):
            raise ComonadError("fiber comult is not strict over this coalgebra")
        return lambda a, key: self.tp_delta_points(a, (key[0], s[key[0]][key[1]]))

    def bbox_term(self, cg: "Coalgebra", t: TermOverContext) -> TermOverContext:
        return _boxed_term(t, self.bbox_type(cg, t.type), self.bbox_points(cg, t.type),
                           "bbox_term")

    @_once
    def fiber_counit(self, cg: "Coalgebra", a: TypeOverContext) -> TypeMap:
        """Point :meth:`counit_slot` of each element; the counit law of
        ``cg``, checked, makes ``a[counit . theta]`` equal ``a``."""
        if not _counit_holds(self.counit(cg.carrier).component, cg.structure.component):
            raise ComonadError("fiber counit does not land back in its type")
        return TypeMap(self.bbox_type(cg, a), a, _counit_columns(
            a.fiber, self.bbox_points(cg, a), lambda key: self.counit_slot(key[0])))

    @_once
    def fiber_comult(self, cg: "Coalgebra", a: TypeOverContext) -> TypeMap:
        """The cofree structure ``bbox(A) -> bbox(bbox(A))``: ``e`` goes to
        the element whose point ``k`` is its restriction along slot ``k``."""
        ba = self.bbox_type(cg, a)
        return TypeMap(ba, self.bbox_type(cg, ba), _comult_columns(
            a.fiber, self.bbox_points(cg, ba), partial(self.bbox_delta_points(cg), a),
            "fiber comult leaves the box"))

    def cofree_type(self, cg: "Coalgebra", a: TypeOverContext) -> "CoalgebraType":
        """The cofree coalgebra type on a plain type over the carrier."""
        return CoalgebraType(cg, self.bbox_type(cg, a), self.fiber_comult(cg, a))


def _boxed_columns(m: Mapping, keys: Iterable, src: Callable[[object], Points],
                   dst: Callable[[object], Points], error: str) -> dict:
    """The box of the map with columns ``m``: at ``key``, ``e`` goes to the
    element of ``dst(key)`` whose point ``k`` is ``m`` at point ``k`` of ``e``."""
    comp = {}
    for key in keys:
        fibers, pts, _ = src(key)
        cols = [m[f] for f in fibers]
        comp[key] = _positions(dst(key)[2], (tuple(map(getitem, cols, pt)) for pt in pts),
                               error, key)
    return comp


def _counit_columns(keys: Iterable, points: Callable[[object], Points],
                    slot: Callable[[object], int]) -> dict:
    """The counit: point ``slot(key)`` of each element of ``points(key)``."""
    return {key: tuple(map(itemgetter(slot(key)), points(key)[1])) for key in keys}


def _comult_columns(keys: Iterable, outer: Callable[[object], Points],
                    delta: Callable[[object], Sequence[tuple[int, ...]]], error: str) -> dict:
    """The comultiplication: ``delta(key)`` looked up in the box of the box."""
    return {key: _positions(outer(key)[2], delta(key), error, key) for key in keys}


def _boxed_term(t: TermOverContext, ba: TypeOverContext, points: Callable,
                name: str) -> TermOverContext:
    """The term of the box ``ba`` of ``t.type`` whose points are ``t``'s."""
    pick = {}
    for key in ba.fiber:
        fibers, _, pos = points(key)
        pick[key] = _positions(pos, [tuple(map(t.pick.__getitem__, fibers))],
                               f"{name} leaves the box", key)[0]
    return TermOverContext(ba, pick)


# ---------------------------------------------------------------------------
# Identity comonad


class IdentityComonad(NaturalModelComonad):
    """The comonad whose every component is an identity, on the nose."""

    name = "identity"

    def box(self, p):
        return p

    def tp_box(self, a):
        return a

    def box_points(self, p, obj):
        return (obj,), [(v,) for v in p.elements(obj)], {(v,): v for v in p.elements(obj)}

    def tp_box_points(self, a):
        return lambda key: ((key,), [(v,) for v in range(a.fiber[key])],
                            {(v,): v for v in range(a.fiber[key])})

    def slot_reads(self, obj):
        return [(obj, [0])]


def identity_comonad(model: NaturalModel) -> IdentityComonad:
    return IdentityComonad(model)


# ---------------------------------------------------------------------------
# Comonad from restriction and right Kan extension


class AdjunctionComonad(NaturalModelComonad):
    """The comonad ``restrict . ran`` along ``u : D -> C``.

    An element of ``box(P)`` at ``X`` is a natural family assigning to
    every slot ``(J, f : u(J) -> u(X))`` an element of ``P(J)``; all the
    structure maps below are index bookkeeping over these families.
    Families are enumerated canonically, which is what makes the type
    action strict under substitution.
    """

    def __init__(self, adj: KanAdjunction, model: NaturalModel):
        if adj.small != model.base:
            raise ComonadError("adjunction and model disagree on the base category")
        super().__init__(model)
        self.adj = adj
        self.name = f"ran[{adj.u.name}]"

    # named on this class too: perfbench/spans.py wraps its own methods
    comult, tp_comult = NaturalModelComonad.comult, NaturalModelComonad.tp_comult

    # family tables, built once per argument ----------------------------------
    @_once
    def box_data(self, p: Presheaf) -> Ran:
        """``box(P)`` with the family tables realizing its elements: the Kan
        extension's, restricted along ``u``, its table at ``X`` that at ``u(X)``."""
        r, om = self.adj.ran(p), self.adj.u.obj_map
        return Ran(self.adj.restrict(r.presheaf),
                   {x: r.tables[om[x]] for x in self.model.base.objects})

    def box(self, p):
        return self.box_data(p).presheaf

    @_once
    def tp_table(self, a: TypeOverContext, key: tuple[str, int]) -> Points:
        """The families of ``tp_box(A)`` over ``key = (x, pi)`` as points: slot
        ``k`` ranges over ``A`` at point ``k`` of ``pi``, under its restrictions."""
        d, c, u = self.model.base, self.adj.big, self.adj.u
        t = self.box_data(a.context).tables[key[0]]
        phi = t.families[key[1]]
        fibers = tuple((j, v) for (j, _), v in zip(t.slots, phi))
        ft = FamilyTable(t.slots, [a.fiber[f] for f in fibers], [
            ((j, f), (d.src[m], c.compose(f, u.mor_map[m])), a.restriction[(m, phi[k])])
            for k, (j, f) in enumerate(t.slots)
            for m in d.morphisms if d.dst[m] == j and not d.is_identity(m)])
        return fibers, ft.families, ft.family_pos

    @_once
    def tp_data(self, a: TypeOverContext) -> TypeOverContext:
        """``tp_box(A)`` whole: :meth:`tp_table` at every element of ``box(Gamma)``."""
        bg = self.box(a.context)
        return self._tp_box_along(a, bg, {x: bg.elements(x) for x in self.model.base.objects})

    def tp_box(self, a):
        return self.tp_data(a)

    def tp_box_restriction(self, a, m, pi):
        """Restriction along ``m`` is along the slot ``(src m, u(m))``."""
        x, x2, bd = self.model.base.dst[m], self.model.base.src[m], self.box_data(a.context)
        _, sel = self.slot_reads(x)[bd.tables[x].slot_pos[(x2, self.adj.u.mor_map[m])]]
        pos = self.tp_table(a, (x2, bd.presheaf.act(m, pi)))[2]
        return _positions(pos, (tuple(pt[k] for k in sel) for pt in self.tp_table(a, (x, pi))[1]),
                          "tp_box restriction leaves the box", (m, pi))

    # elements as points: the slots and families of the tables -----------------
    def box_points(self, p, obj):
        t = self.box_data(p).tables[obj]
        return tuple(j for (j, _) in t.slots), t.families, t.family_pos

    def tp_box_points(self, a):
        return partial(self.tp_table, a)

    @_once
    def slot_reads(self, obj):
        # the slots over each object are the same in every box
        tables, c = self.box_data(terminal_presheaf(self.model.base)).tables, self.adj.big
        return [(j, tables[obj].select((j2, c.compose(f, f2)) for (j2, f2) in tables[j].slots))
                for (j, f) in tables[obj].slots]


# ---------------------------------------------------------------------------
# Coalgebras


@dataclass(frozen=True)
class Coalgebra:
    """A presheaf with a structure map into its box."""

    carrier: Presheaf
    structure: PresheafMap
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.carrier, self.structure)))
        return self._hash


def _counit_holds(eps: Mapping, theta: Mapping) -> bool:
    """``eps . theta == id``, column by column."""
    return all(eps[key][e] == v for key, col in theta.items() for v, e in enumerate(col))


def _commutes(m: Mapping, src: Mapping, dst: Mapping) -> bool:
    """``dst_theta . m == box(m) . src_theta`` for a natural ``m``, checked
    at the points of each ``src_theta(v)``, from the two structures read at
    their points (:func:`_halves`); the comult law is the square into the
    cofree structure (:meth:`_Level.cofree`).

    This is the equation of the two composites on the nose: ``box(m)``
    sends ``e`` to the element whose point ``k`` is ``m`` at point ``k`` of
    ``e`` (``box_map``), and an element is determined by its points.  The
    composite reads ``box(m)`` only at the image of ``src_theta``; elsewhere
    it could fail only by leaving the box, which a natural ``m`` never does:
    each caller validates ``m`` first or builds it natural.
    """
    for key, (fibers, pts, *_) in src.items():
        mk, cols, after = m[key], [m[f] for f in fibers], dst[key][1]
        if any(after[mk[v]] != tuple(map(getitem, cols, pt)) for v, pt in enumerate(pts)):
            return False
    return True


def _counit_domains(eps: Mapping, sizes: Mapping) -> dict:
    """Slot domains that build in the counit law ``eps . theta == id``.

    ``eps`` maps each key (an object, or a fiber key of a type) to the
    counit's column there and ``sizes`` gives the size at each key.  The
    slot ``(key, x)`` of ``theta`` may take only the box elements over
    ``x``, in increasing order, so the law never needs checking.
    """
    domains = {(key, x): [] for key, n in sizes.items() for x in range(n)}
    for key, col in eps.items():
        for e, x in enumerate(col):
            domains[(key, x)].append(e)
    return domains


def _commuting_rules(src: Mapping, dst: Mapping) -> list:
    """Slot rules that build in ``dst_theta . m == box(m) . src_theta``, from
    the source's half and the target's (:func:`_halves`).  The box acts
    pointwise, so the equation at ``v`` over ``key`` is one rule per point
    ``k``: ``m[(fibers[k], points[v][k])] == tables[k][m[(key, v)]]``.
    """
    rules = []
    for key, (fibers, pts, _) in src.items():
        for k, (fiber, table) in enumerate(zip(fibers, dst[key][2])):
            rules.extend(((key, v), (fiber, pt[k]), table) for v, pt in enumerate(pts))
    return rules


@dataclass(frozen=True)
class _Level:
    """Structures ``x -> box(x)`` of coalgebras (:func:`_presheaf_level`) or
    of types over a coalgebra (:func:`_type_level`), read at the points of
    the box: ``points(x)(key)`` gives ``box(x)`` at a key as points,
    ``counit(x)`` the counit's columns, ``delta(x)(key)`` the points of
    ``delta`` there.  ``maps`` enumerates natural maps of class ``map_type``
    and ``sub`` carves out subobjects, with their inclusions."""

    box: Callable
    points: Callable
    counit: Callable
    delta: Callable
    maps: Callable
    sub: Callable
    map_type: type
    law: str    # the prefix naming its laws

    def read(self, x, theta: Mapping) -> dict:
        """The structure on ``x`` with columns ``theta`` at its points: by
        key, the fibers of the box and the points of ``theta(v)`` by ``v``."""
        points, out = self.points(x), {}
        for key, col in theta.items():
            fibers, pts, _ = points(key)
            out[key] = fibers, [*map(pts.__getitem__, col)]
        return out

    def cofree(self, x) -> dict:
        """The cofree structure ``delta`` on ``box(x)``, read as :meth:`read`
        reads a structure; no box of ``box(x)`` is built."""
        points, delta = self.points(x), self.delta(x)
        return {key: (points(key)[0], delta(key)) for key in x._tables()[2]}

    def laws(self, x, theta) -> list[str]:
        """The counit and comult laws of a structure, once it is natural
        with the right endpoints."""
        if theta.source != x or theta.target != self.box(x):
            return ["structure map has the wrong endpoints"]
        errs = [*theta.validate()]
        if errs:
            return errs
        col = theta.component
        if not _counit_holds(self.counit(x), col):
            errs.append(f"{self.law}counit law fails")
        if not _commutes(col, self.read(x, col), self.cofree(x)):
            errs.append(f"{self.law}comult law fails")
        return errs

    def structure(self, x, comp: Mapping, what: str):
        """The structure with columns ``comp``; a broken law raises."""
        th = self.map_type(x, self.box(x), comp)
        errs = self.laws(x, th)
        if errs:
            raise ComonadError(f"{what}: " + errs[0])
        return th

    def lawful(self, x) -> list:
        """The lawful structures on ``x``, in the order of ``maps``, with the
        counit law built into the slot domains and the comult law tested."""
        maps = self.maps(x, self.box(x), _counit_domains(self.counit(x), x._tables()[2]), ())
        cofree = maps and self.cofree(x)
        return [th for th in maps if _commutes(th.component, self.read(x, th.component), cofree)]

    def carve(self, x, holds: Mapping, what: str) -> tuple:
        """The largest subobject of the cofree ``box(x)`` inside ``holds``
        whose delta-points all lie in ``holds``, with its structure and
        inclusion, read at the points of ``delta`` (:meth:`cofree`): no box
        of ``box(x)`` is built.  The set kept is closed, since the
        delta-points of a delta-point of ``v`` are delta-points of ``v``
        (coassociativity), and it holds every closed set inside ``holds``,
        since ``v`` is the counit-slot point of ``delta(v)``.  A set kept
        that is not closed raises ``ComonadError``."""
        cofree = self.cofree(x)
        try:
            sub, inc = self.sub(self.box(x), _with_points_in(holds, cofree.__getitem__))
        except (ValueError, ModelError) as e:
            raise ComonadError(str(e)) from None
        index = {k: {v: n for n, v in enumerate(col)} for k, col in inc.component.items()}
        points_sub, comp = self.points(sub), {}
        for k, col in inc.component.items():
            fibers, dlt = cofree[k]
            comp[k] = _positions(points_sub(k)[2], (tuple(index[f].get(p) for f, p in zip(
                fibers, dlt[v])) for v in col), f"{what} is not closed under its structure", k)
        return self.structure(sub, comp, f"{what} carries no lawful structure"), inc


# ``hom_maps`` and ``type_maps`` are looked up when called: a traced or patched one is used
def _presheaf_level(w: NaturalModelComonad) -> _Level:
    return _Level(w.box, lambda p: partial(w.box_points, p), lambda p: w.counit(p).component,
                  lambda p: partial(w.delta_points, p), lambda *args: hom_maps(*args),
                  sub_presheaf, PresheafMap, "")


def _type_level(w: NaturalModelComonad, cg: Coalgebra) -> _Level:
    """The types over the carrier of ``cg``, boxed at the image of its structure."""
    return _Level(partial(w.bbox_type, cg), partial(w.bbox_points, cg),
                  lambda a: w.fiber_counit(cg, a).component,
                  lambda a: partial(w.bbox_delta_points(cg), a),
                  lambda *args: type_maps(*args), sub_type, TypeMap, "fiber ")


def coalgebra_laws(w: NaturalModelComonad, cg: Coalgebra) -> list[str]:
    return _presheaf_level(w).laws(cg.carrier, cg.structure)


@_once
def _halves(w: NaturalModelComonad, s) -> dict:
    """Both halves of the square of a map out of or into ``s``, a coalgebra
    or a structured type: by key, ``(fibers, points, tables)``, ``points``
    as :meth:`_Level.read` reads them, table ``k`` their points ``k``."""
    read = _presheaf_level(w).read(s.carrier, s.structure.component) if isinstance(
        s, Coalgebra) else _type_level(w, s.coalg).read(s.type, s.theta.component)
    return {key: (fibers, pts, [*zip(*pts)] or [()] * len(fibers))
            for key, (fibers, pts) in read.items()}


def _structured_families(w: NaturalModelComonad, src, dst) -> tuple[list[int], list[tuple]]:
    """The maps ``src -> dst`` of coalgebras or of structured types, as the
    flat families of :func:`_flat_maps` with their ``ends``, the structure
    equation enumerated as slot rules (:func:`_commuting_rules`)."""
    x, y = (src.carrier, dst.carrier) if isinstance(src, Coalgebra) else (src.type, dst.type)
    return _flat_maps(x, y, rules=_commuting_rules(_halves(w, src), _halves(w, dst)))


def is_coalgebra_map(w: NaturalModelComonad, src: Coalgebra, dst: Coalgebra,
                     h: PresheafMap) -> bool:
    """Whether ``h`` is a natural map of carriers commuting with the two
    structures (:func:`_commutes`)."""
    if h.source != src.carrier or h.target != dst.carrier or h.validate():
        return False
    return _commutes(h.component, _halves(w, src), _halves(w, dst))


def coalgebra_maps(w: NaturalModelComonad, src: Coalgebra, dst: Coalgebra) -> list[PresheafMap]:
    """The coalgebra maps ``src -> dst``, in the order of ``hom_maps``
    (:func:`_structured_families`)."""
    ends, families = _structured_families(w, src, dst)
    return [PresheafMap(src.carrier, dst.carrier, _components(w.model.base.objects, ends, f))
            for f in families]


def cofree_coalgebra(w: NaturalModelComonad, q: Presheaf) -> Coalgebra:
    return Coalgebra(w.box(q), w.comult(q))


def terminal_coalgebra(w: NaturalModelComonad) -> Coalgebra:
    one = terminal_presheaf(w.model.base)
    bo = w.box(one)
    if any(n != 1 for n in bo.sizes.values()):
        raise ComonadError("box does not preserve the terminal presheaf")
    return Coalgebra(one, PresheafMap(one, bo, {o: (0,) for o in bo.sizes}))


def _lift(mono: Mapping, values: Mapping, error: Callable[[object, int], str]) -> dict:
    """Factor values through a mono, key by key.

    ``mono[key]`` is the mono's column at ``key`` and ``values[key]`` a
    tuple of values in its codomain there; the result holds, per key, the
    position of each value in the column.  A value outside the image
    raises ``ComonadError(error(key, n))``, ``n`` its place in
    ``values[key]``.
    """
    out = {}
    for key, vals in values.items():
        pos = {v: k for k, v in enumerate(mono[key])}
        out[key] = lifted = tuple(map(pos.get, vals))
        if None in lifted:
            raise ComonadError(error(key, lifted.index(None)))
    return out


def _with_points_in(holds: Mapping, read: Callable[[object], tuple]) -> dict:
    """The elements of ``holds`` whose points all lie in ``holds``;
    ``read(key)`` gives ``(fibers, points by element)`` at ``key``.

    Every comonad built here, the identity or restriction after right
    Kan extension, acts pointwise on elements determined by their points
    (``box_points``).  So where coalgebra maps ``f, g`` out of
    ``(X, theta)`` agree at ``v``, ``box(f)`` and ``box(g)`` agree at
    ``theta(v)``, both giving the target's structure at ``f(v)``, so ``f``
    and ``g`` agree at each box point of ``theta(v)``: their equalizer is
    closed under the structure, and under restriction by naturality
    (Kock and Wraith).  When ``holds`` solves ``L == R`` for plain natural
    maps out of ``X`` and the points are those of ``theta``, the result is
    the equalizer of the cofree transposes ``box(L) . theta`` and
    ``box(R) . theta``: the largest closed set inside ``holds``, in one pass.
    """
    out = {}
    for key, vs in holds.items():
        fibers, pts = read(key)[:2]
        out[key] = frozenset(v for v in vs if all(p in holds[f] for f, p in zip(fibers, pts[v])))
    return out


def sub_coalgebras(w: NaturalModelComonad, cg: Coalgebra) -> tuple[list[dict], list[dict]]:
    """The subpresheaves of the carrier closed under the structure map, and the rest: the box
    acts pointwise, so the structure of ``x`` lies in the box of a subpresheaf exactly when its
    box points do."""
    half, closed, others = _halves(w, cg), [], []
    for sel in subpresheaves(cg.carrier):
        (closed if _with_points_in(sel, half.__getitem__) == sel else others).append(sel)
    return closed, others


def enumerate_coalgebras(w: NaturalModelComonad, size_bound: int,
                         max_carriers: int | None = None) -> list[Coalgebra]:
    """All coalgebras on carriers with value sizes up to the bound
    (:meth:`_Level.lawful`)."""
    carriers = all_presheaves(w.model.base, size_bound)
    if max_carriers is not None and len(carriers) > max_carriers:
        raise EnumerationCeiling(
            f"{len(carriers)} carriers exceed the guard {max_carriers}")
    level = _presheaf_level(w)
    return [Coalgebra(p, h) for p in carriers for h in level.lawful(p)]


@dataclass(frozen=True)
class CoalgebraCategory:
    """The enumerated bounded coalgebras, with the forgetful and cofree
    adjunction between them and the presheaves."""

    comonad: NaturalModelComonad
    bound: int
    coalgebras: tuple[Coalgebra, ...]

    def triangle_report(self) -> dict:
        """The triangles of the forgetful-cofree adjunction, whose unit at
        a coalgebra is its structure map into the cofree coalgebra on the
        carrier and whose counit is the comonad's."""
        w = self.comonad
        errs = []
        for cg in self.coalgebras:
            if not _counit_holds(w.counit(cg.carrier).component, cg.structure.component):
                errs.append(f"unit-counit triangle fails on carrier {cg.carrier.sizes}")
        for q in all_presheaves(w.model.base, self.bound):
            fq = cofree_coalgebra(w, q)
            lift = w.box_map(w.counit(q))
            if compose_maps(lift, fq.structure) != identity_map(fq.carrier):
                errs.append(f"cofree triangle fails on {q.sizes}")
        return {"ok": not errs, "witnesses": errs}


def coalgebra_category(w: NaturalModelComonad, size_bound: int,
                       max_carriers: int | None = 4096) -> CoalgebraCategory:
    return CoalgebraCategory(w, size_bound,
                             tuple(enumerate_coalgebras(w, size_bound, max_carriers)))


# ---------------------------------------------------------------------------
# Comparison with the presheaf category upstairs


def comparison_object(w: AdjunctionComonad, p: Presheaf) -> Coalgebra:
    """The coalgebra corresponding to a presheaf on the big category."""
    return Coalgebra(w.adj.restrict(p), w.adj.restrict_map(w.adj.unit(p)))


def _restricted_homs(adj: KanAdjunction, ps: Sequence[Presheaf]):
    """Each pair of ``ps``, the maps between them and the set of their
    restrictions, as flat families: restricting keeps the segment of
    ``u(x)`` for each object ``x`` of the small category, in its order."""
    big = {o: n for n, o in enumerate(adj.big.objects)}
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            ends, maps = _flat_maps(p, q)
            kept = [s for x in adj.small.objects for k in (big[adj.u.obj_map[x]],)
                    for s in range(ends[k], ends[k + 1])]
            yield i, j, maps, {tuple(map(h.__getitem__, kept)) for h in maps}


def left_adjoint_faithful(adj: KanAdjunction, size_bound: int) -> tuple[bool, str | None]:
    """Check restriction for faithfulness on the bounded fragment."""
    ps = all_presheaves(adj.big, size_bound)
    for i, j, maps, image in _restricted_homs(adj, ps):
        if len(image) != len(maps):
            return False, f"maps between {ps[i].sizes} and {ps[j].sizes} restrict equally"
    return True, None


def _coalgebras_iso(w: NaturalModelComonad, a: Coalgebra, b: Coalgebra) -> bool:
    """Whether some coalgebra map ``a -> b`` is an iso, testing each flat
    family segment by segment; carriers of different sizes are not isomorphic."""
    if a.carrier.sizes != b.carrier.sizes:
        return False
    ends, families = _structured_families(w, a, b)
    cuts = [*zip(ends, ends[1:])]
    return any(all(len(set(f[s:e])) == e - s for s, e in cuts) for f in families)


def comparison_check(adj: KanAdjunction, w: AdjunctionComonad,
                     size_bound: int) -> dict:
    """Certify the comparison with the coalgebra category on the bounded
    fragment: bijective on isomorphism classes and on hom sets.

    The image ``K(P)`` of a presheaf with carriers up to the bound has a
    carrier up to the bound too, and once its laws hold it is a lawful
    structure on that carrier, so it is itself one of the enumerated
    coalgebras.  As ``K`` preserves isomorphisms, ``K`` is essentially
    surjective exactly when every isomorphism class of coalgebras holds
    an image.  Restriction is faithful exactly when it is injective on
    every hom set, which the pass comparing hom sets sees anyway.  Only
    coalgebras on carriers of equal sizes can be isomorphic, so only
    their maps are enumerated (:func:`_coalgebras_iso`).
    """
    ps = all_presheaves(adj.big, size_bound)
    images = [comparison_object(w, p) for p in ps]
    for cg in images:
        errs = coalgebra_laws(w, cg)
        if errs:
            return {"ok": False, "witness": f"comparison image breaks laws: {errs[0]}"}
    cgs = enumerate_coalgebras(w, size_bound)

    def iso_classes(items, is_iso_pair):
        classes: list[list[int]] = []
        for i in range(len(items)):
            for cl in classes:
                if is_iso_pair(items[cl[0]], items[i]):
                    cl.append(i)
                    break
            else:
                classes.append([i])
        return classes

    p_classes = iso_classes(ps, lambda a, b: bool(iso_maps(a, b)))
    c_classes = iso_classes(cgs, partial(_coalgebras_iso, w))
    imaged = set(images)
    surjective = all(any(cgs[k] in imaged for k in cl) for cl in c_classes)
    faithful, hom_ok, witness = True, True, None
    for i, j, upstairs, image in _restricted_homs(adj, ps):
        ci, cj, p, q = images[i], images[j], ps[i].sizes, ps[j].sizes
        if len(image) != len(upstairs):
            faithful = hom_ok = False
            witness = witness or f"distinct maps between {p} and {q} restrict equally"
        elif image != set(_structured_families(w, ci, cj)[1]):
            hom_ok = False
            witness = witness or f"hom sets differ between {p} and {q}"
    ok = faithful and surjective and hom_ok and len(p_classes) == len(c_classes)
    return {"ok": ok,
            "faithful": faithful,
            "presheaf_count": len(ps),
            "coalgebra_count": len(cgs),
            "presheaf_classes": len(p_classes),
            "coalgebra_classes": len(c_classes),
            "essentially_surjective": surjective,
            "hom_sets_match": hom_ok,
            "witness": witness}


# ---------------------------------------------------------------------------
# Validation


def _fiber_laws(w: NaturalModelComonad, cg: Coalgebra, a: TypeOverContext) -> list[str]:
    """The comonad laws of the comonad induced on types over the carrier
    of ``cg``, at the type ``a``: the counit-comult law and coassociativity
    are the laws of the cofree structure ``fiber_comult``, read at its
    points (:meth:`_Level.laws`); then the boxed-counit law."""
    eps, dlt = w.fiber_counit(cg, a), w.fiber_comult(cg, a)
    errs = ["counit: " + e for e in eps.validate()]
    errs.extend("cofree structure: " + e for e in _type_level(w, cg).laws(dlt.source, dlt))
    if not errs and compose_maps(w.bbox_type_map(cg, eps), dlt) != identity_type_map(dlt.source):
        errs.append("boxed-counit law fails in the fiber")
    return errs


def validate_comonad(w: NaturalModelComonad) -> dict:
    """Run the full law suite and report violations with witnesses.

    The counit, comult and naturality laws run on the first 24 presheaves
    with carriers up to 2 whatever the display bound: with one element
    per object every box has at most one, and two reads of it agree
    whichever slots they read.  The other parts sample the first 24 with
    carriers up to the display bound (at least 1, at most 2).

    Each part fails when it notes a witness.  A structure map that cannot
    be built raises ``ComonadError`` inside its part; the error becomes a
    witness of that part and the remaining parts still run, so the caller
    gets every part's verdict."""
    ps = all_presheaves(w.model.base, min(max(w.model.bound, 1), 2))[:24]
    law_ps = all_presheaves(w.model.base, 2)[:24]
    witnesses = []

    def note(cond: bool, msg: str):
        if not cond:
            witnesses.append(msg)

    def part(check: Callable[[], None]) -> bool:
        before = len(witnesses)
        try:
            check()
        except ComonadError as e:
            witnesses.append(str(e))
        return len(witnesses) == before

    def laws():
        for p in law_ps:
            bp = w.box(p)
            eps, dlt = w.counit(p), w.comult(p)
            note(eps.source == bp and eps.target == p and not eps.validate(),
                 f"counit malformed on {p.sizes}")
            note(dlt.source == bp and dlt.target == w.box(bp) and not dlt.validate(),
                 f"comult malformed on {p.sizes}")
            note(w.box_map(identity_map(p)) == identity_map(bp),
                 f"box of identity is not identity on {p.sizes}")
            note(compose_maps(w.counit(bp), dlt) == identity_map(bp),
                 f"counit law fails on {p.sizes}")
            note(compose_maps(w.box_map(eps), dlt) == identity_map(bp),
                 f"boxed-counit law fails on {p.sizes}")
            note(compose_maps(w.comult(bp), dlt) == compose_maps(w.box_map(dlt), dlt),
                 f"coassociativity fails on {p.sizes}")
        for p, q in zip(law_ps, law_ps[1:]):
            for h in hom_maps(p, q)[:8]:
                bh = w.box_map(h)
                note(not bh.validate(), f"box map not natural for a map {p.sizes} -> {q.sizes}")
                note(compose_maps(w.counit(q), bh) == compose_maps(h, w.counit(p)),
                     f"counit not natural at a map {p.sizes} -> {q.sizes}")
                note(compose_maps(w.comult(q), bh) ==
                     compose_maps(w.box_map(bh), w.comult(p)),
                     f"comult not natural at a map {p.sizes} -> {q.sizes}")

    def cartesian():
        one = terminal_presheaf(w.model.base)
        note(all(n == 1 for n in w.box(one).sizes.values()),
             "box does not preserve the terminal presheaf")
        for p, q in list(zip(ps, ps[1:]))[:6]:
            pr = product(p, q)
            prb = product(w.box(p), w.box(q))
            cmp = prb.tuple_map(w.box_map(pr.fst), w.box_map(pr.snd))
            note(cmp.is_iso(), f"box breaks the product of {p.sizes} and {q.sizes}")
        for p, q in list(zip(ps, ps[1:]))[:3]:
            for m in hom_maps(p, q)[:2]:
                for n in hom_maps(p, q)[:2]:
                    pb = pullback(m, n)
                    pbb = pullback(w.box_map(m), w.box_map(n))
                    bl, br = w.box_map(pb.to_left).component, w.box_map(pb.to_right).component
                    cmp_map = PresheafMap(w.box(pb.presheaf), pbb.presheaf, {
                        o: tuple(pbb.pair_index(o, x, y) for x, y in zip(bl[o], br[o]))
                        for o in w.model.base.objects})
                    note(cmp_map.is_iso(), f"box breaks a pullback over {q.sizes}")

    def display():
        for p in ps[:8]:
            for dmap in islice(_display_maps(w.model, p, w.model.bound), 12):
                if not is_display(w.box_map(dmap), w.model.bound):
                    witnesses.append(f"box of a display map over {p.sizes} exceeds bound "
                                     f"{w.model.bound}")
                    return

    sample = [p for p in ps if all(n > 0 for n in p.sizes.values())][:2]

    def tau():
        for p in sample:
            for a in islice(_types_over(p, w.model.bound), 3):
                t = w.tau(a)
                note(not t.validate() and t.is_iso(), f"tau not an iso for a type over {p.sizes}")
                note(not w.tp_counit(a).validate() and not w.tp_comult(a).validate(),
                     f"type-level structure maps not natural over {p.sizes}")

    def fiber_laws():
        for p in sample:
            cg = cofree_coalgebra(w, p)
            for a in islice(_types_over(cg.carrier, w.model.bound), 2):
                errs = _fiber_laws(w, cg, a)
                if errs:
                    witnesses.append(f"fiber laws fail over cofree({p.sizes}): {errs[0]}")

    def faithful():
        if isinstance(w, AdjunctionComonad):
            ok, fw = left_adjoint_faithful(w.adj, min(w.model.bound, 2))
            note(ok, f"left adjoint not faithful: {fw}")

    report = {name: part(check) for name, check in (
        ("laws", laws), ("cartesian", cartesian), ("display", display), ("tau", tau),
        ("fiber_laws", fiber_laws), ("faithful", faithful))}
    return {"ok": not witnesses, **report, "witnesses": witnesses}


def comonad_from_adjunction(adj: KanAdjunction, bound: int = 1) -> AdjunctionComonad:
    """The comonad induced by a Kan adjunction, on the natural model over
    its small category with display bound ``bound``.

    The bound matters: the endofunctor multiplies fibers together, so
    boundedness of the boxed display maps is a real condition, which
    :func:`validate_comonad` checks.
    """
    return AdjunctionComonad(adj, NaturalModel(adj.small, bound))


# ---------------------------------------------------------------------------
# Structured types and terms over a coalgebra


@dataclass(frozen=True)
class CoalgebraType:
    """A type over the carrier together with a coalgebra structure for
    the induced comonad on its fiber category."""

    coalg: Coalgebra
    type: TypeOverContext
    theta: TypeMap
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.coalg, self.type, self.theta)))
        return self._hash


def coalgebra_type_laws(w: NaturalModelComonad, xt: CoalgebraType) -> list[str]:
    """The fiber counit and comult laws of a structure map (:meth:`_Level.laws`)."""
    return _type_level(w, xt.coalg).laws(xt.type, xt.theta)


@dataclass(frozen=True)
class CoalgebraTerm:
    """A term whose boxing agrees with the structure of its type."""

    ctype: CoalgebraType
    term: TermOverContext


def coalgebra_term_laws(w: NaturalModelComonad, ct: CoalgebraTerm) -> list[str]:
    xt = ct.ctype
    if ct.term.type != xt.type:
        return ["term does not inhabit the structured type"]
    errs = [*ct.term.validate()]
    if errs:
        return errs
    if apply_type_map(xt.theta, ct.term) != w.bbox_term(xt.coalg, ct.term):
        errs.append("term is not compatible with the structure")
    return errs


def coalgebra_terms(w: NaturalModelComonad, xt: CoalgebraType) -> list[CoalgebraTerm]:
    terms = (CoalgebraTerm(xt, t) for t in terms_of(xt.type))
    return [ct for ct in terms if not coalgebra_term_laws(w, ct)]


def coalgebra_types_over(w: NaturalModelComonad, cg: Coalgebra,
                         size_bound: int) -> list[CoalgebraType]:
    """All structured types over a coalgebra with fibers up to the bound
    (:meth:`_Level.lawful`)."""
    level = _type_level(w, cg)
    return [CoalgebraType(cg, a, th) for a in all_types_over(w.model, cg.carrier, size_bound)
            for th in level.lawful(a)]


def coalg_subst(w: NaturalModelComonad, xt: CoalgebraType, dst: Coalgebra,
                h: PresheafMap) -> CoalgebraType:
    """Substitute along ``h``, first checked a coalgebra map (:func:`_reindex`)."""
    if not is_coalgebra_map(w, dst, xt.coalg, h):
        raise ComonadError("substitution is not along a coalgebra map")
    return _reindex(w, xt, dst, h)


def _reindex(w: NaturalModelComonad, xt: CoalgebraType, dst: Coalgebra,
             h: PresheafMap) -> CoalgebraType:
    """Substitute along ``h``, proved a coalgebra map by the caller; the box
    commutes with substitution on the nose, so the structure reindexes."""
    a2 = subst_type(xt.type, h)
    ba2 = w.bbox_type(dst, a2)
    moved = subst_type_map(xt.theta, h)
    if moved.target != ba2:
        raise ComonadError("box does not commute with this substitution")
    return CoalgebraType(dst, a2, TypeMap(a2, ba2, moved.component))


# ---------------------------------------------------------------------------
# Context extension by a structured type


@_once
def coalg_extension(w: NaturalModelComonad,
                    xt: CoalgebraType) -> tuple[Coalgebra, PresheafMap, CoalgebraTerm]:
    """Extend the coalgebra by a structured type.

    Returns the extended coalgebra, the projection (a coalgebra map),
    and the generic term of the weakened structured type.  The structure
    at ``(g, x)`` is the element of ``box(Gamma.A)`` whose point ``k`` is
    ``(g_k, x_k)``, for ``g_k`` and ``x_k`` the points ``k`` of the
    structure at ``g`` and of ``theta(x)``.  That is the inverse of
    ``tau`` at ``(structure(g), theta(x))`` on the nose: ``tau`` decodes
    each point into such a pair (``Gamma.A`` is numbered g-major), and the
    Kan comonad numbers elements by their points, lexicographically over
    its slots.  Built once per comonad and structured type.
    """
    cg, a, th = xt.coalg, xt.type, xt.theta
    ext = comprehension(a)
    points_a = w.bbox_points(cg, a)
    comp = {}
    for o in cg.carrier.base.objects:
        pos = w.box_points(ext.presheaf, o)[2]
        vals = []
        for g in cg.carrier.elements(o):
            fibers, pts, _ = points_a((o, g))
            points = (tuple(ext.encode(j, gk, xk) for (j, gk), xk in zip(fibers, pts[e]))
                      for e in th.component[(o, g)])
            vals.extend(_positions(pos, points, "extension leaves the box", (o, g)))
        comp[o] = tuple(vals)
    cge = Coalgebra(ext.presheaf, _presheaf_level(w).structure(
        ext.presheaf, comp, "extension is not a coalgebra"))
    weak = coalg_subst(w, xt, cge, ext.p)
    generic = CoalgebraTerm(weak, ext.v)
    if coalgebra_term_laws(w, generic):
        raise ComonadError("generic term of the extension is not structured")
    return cge, ext.p, generic


# ---------------------------------------------------------------------------
# Dependent sums of structured types


@dataclass(frozen=True)
class CoalgebraSigma:
    """A dependent sum of structured types with its structured first
    projection."""

    type: CoalgebraType
    sigma: Sigma
    proj: TypeMap

    def pair(self, obj: str, g: int, x: int, y: int) -> int:
        return self.sigma.pair(obj, g, x, y)

    def split(self, obj: str, g: int, v: int) -> tuple[int, int]:
        return self.sigma.split(obj, g, v)


def coalg_sigma(w: NaturalModelComonad, xt: CoalgebraType,
                yb: CoalgebraType) -> CoalgebraSigma:
    """Sum a structured family over the extension back down to the base.

    The structure sends ``(x, y)`` over ``g`` to the element of the box
    of the sum whose point ``k`` pairs the points ``k`` of ``theta_A(x)``
    and of ``theta_B(y)``, read over ``(g, x)`` in the extension, whose
    structure has the points ``(g_k, x_k)`` (:func:`coalg_extension`).
    That is on the nose the structure of the twice-extended coalgebra,
    moved along ``Gamma.Sigma(A, B) = Gamma.A.B`` and read back through
    ``tau``: those steps renumber the same points one by one, and the Kan
    comonad numbers elements by their points.
    """
    cg = xt.coalg
    cge, _, _ = coalg_extension(w, xt)
    if yb.coalg != cge:
        raise ComonadError("family is not structured over the extension")
    sg, level, half = sigma_type(xt.type, yb.type), _type_level(w, cg), _halves(w, xt)
    read_y = _type_level(w, cge).read(yb.type, yb.theta.component)
    points_s, comp = w.bbox_points(cg, sg.type), {}
    for (o, g), (fibers, pts_x, _) in half.items():
        pos, vals = points_s((o, g))[2], []
        for x, px in enumerate(pts_x):
            vals.extend(_positions(pos, (tuple(sg.pair(*f, p, q) for f, p, q in zip(
                fibers, px, py)) for py in read_y[(o, sg.comp.encode(o, g, x))][1]),
                "sum leaves the box", (o, g)))
        comp[(o, g)] = tuple(vals)
    st = CoalgebraType(cg, sg.type, level.structure(sg.type, comp, "sum structure is broken"))
    proj = TypeMap(sg.type, xt.type,
                   {k: tuple(sg.split(k[0], k[1], v)[0] for v in range(n))
                    for k, n in sg.type.fiber.items()})
    # the projection is natural: restriction in the sum restricts the
    # first half of each pair in A (``sigma_type``)
    if not _commutes(proj.component, level.read(sg.type, st.theta.component), half):
        raise ComonadError("first projection of the sum is not structured")
    return CoalgebraSigma(st, sg, proj)


# ---------------------------------------------------------------------------
# Exponentials of structured types


@_once
def coalg_product(w: NaturalModelComonad, x: CoalgebraType,
                  y: CoalgebraType) -> tuple[CoalgebraType, TypeProduct]:
    """Binary product of structured types.  The box acts pointwise, so the
    structure sends ``(u, v)`` to the element of the box of the product
    whose points pair those of ``theta_x(u)`` and ``theta_y(v)``; a box
    without it does not preserve the product.  Built once per comonad
    and pair of types."""
    cg = x.coalg
    pr, level = type_product(x.type, y.type), _type_level(w, cg)
    read_y, points_p, comp = level.read(y.type, y.theta.component), w.bbox_points(cg, pr.type), {}
    for k, (fibers, pts_x) in level.read(x.type, x.theta.component).items():
        comp[k] = _positions(points_p(k)[2], (tuple(pr.pair(*f, p, q) for f, p, q in zip(
            fibers, px, py)) for px in pts_x for py in read_y[k][1]),
            "box does not preserve this fiberwise product", k)
    return CoalgebraType(cg, pr.type, level.structure(
        pr.type, comp, "product structure is broken")), pr


@dataclass(frozen=True)
class CoalgebraExponential:
    """An exponential of structured types: the dependent product of the
    target weakened to the extension by the source (:func:`coalg_exponential`),
    with its evaluation, whose source numbers its pairs left-major."""

    source: CoalgebraType
    target: CoalgebraType
    type: CoalgebraType
    plain: Pi
    inclusion: TypeMap
    ev: TypeMap


def coalg_exponential(w: NaturalModelComonad, x: CoalgebraType,
                      y: CoalgebraType) -> CoalgebraExponential:
    """The exponential of structured types: the dependent product of ``y``
    weakened to the extension by ``x``, as the exponential of plain types
    is ``pi_type`` of the weakened type.  Evaluation is application, the
    weakened type reading ``y`` at ``g`` over every ``(g, t)``.

    ``y`` is weakened unchecked (:func:`_reindex`): :func:`coalg_extension`
    proved ``p`` a coalgebra map, raising rather than returning an unproved one."""
    if y.coalg != x.coalg:
        raise ComonadError("exponential needs both types over one coalgebra")
    cge, p, _ = coalg_extension(w, x)
    cp = coalg_pi(w, x, _reindex(w, y, cge, p))
    a = x.type
    ev = TypeMap(type_product(cp.type.type, a).type, y.type, {(o, g): tuple(
        cp.app(o, g, e, t) for e in range(n) for t in range(a.fiber[(o, g)]))
        for (o, g), n in cp.type.type.fiber.items()})
    return CoalgebraExponential(x, y, cp.type, cp.plain, cp.inclusion, ev)


def exponential_up_check(w: NaturalModelComonad, exp: CoalgebraExponential,
                         z: CoalgebraType) -> dict:
    """Verify the exponential's universal property against one structured
    type, by enumerating both hom sets as flat families
    (:func:`_structured_families`).

    One pass over the uncurried maps suffices: it shows that currying
    lands in the curried maps and that evaluation undoes it, so currying
    is injective; with the two hom sets of equal size it is a bijection,
    inverse to evaluation.

    Each family ``m`` is curried by lookups: slot ``(j, f, t)`` of the plain
    transpose at ``(i, g)`` reads ``m``, cut at ``ends``, at ``(j, g.f)``, pair
    ``(c.f, t)``; its box reads the points of ``theta_z(v)`` in the ``pos`` of
    the box of the plain product, then in the inclusion.  Products number
    pairs left-major, so ``ev`` undoes currying when its row ``tr(v)`` is row
    ``v`` of ``m``, rows ``A[k]`` long.
    """
    zx, pr_zx = coalg_product(w, z, exp.source)
    ends, uncurried = _structured_families(w, zx, exp.target)
    curried = set(_structured_families(w, z, exp.type)[1])
    gamma, keys, half = z.type.context, z.type._tables()[1].keys, _halves(w, z)
    at, points_e = dict(zip(keys, ends)), w.bbox_points(exp.source.coalg, exp.plain.type)
    plain, box, lam = [], [], {}
    for k in keys:
        t, g = exp.plain.tables[k], k[1]
        reads = [((j, gamma.act(f, g)), f, x) for j, f, x in t.slots]
        plain.append((k, t.family_pos, [tuple(at[r] + pr_zx.pair(*r, z.type.restrict(f, g, c), x)
                                              for r, f, x in reads) for c in range(z.type.fiber[k])]))
        box.append((k, *half[k][:2], points_e(k)[2], {e: n for n, e in enumerate(
            exp.inclusion.component[k])}, at[k], exp.source.type.fiber[k], exp.ev.component[k]))
    for m in uncurried:
        for k, fpos, rows in plain:
            lam[k] = [fpos[tuple(map(m.__getitem__, row))] for row in rows]
        tr = []
        try:
            for k, fibers, thetas, pos, inv, *_ in box:
                cols = [lam[f] for f in fibers]
                boxed = (tuple(map(getitem, cols, pt)) for pt in thetas)
                tr.append(tuple(map(inv.get, _positions(pos, boxed, "transpose leaves the box", k))))
            if any(None in col for col in tr):
                raise ComonadError("transpose of an unstructured map")
        except ComonadError as e:
            return {"ok": False, "witness": f"transpose leaves the box: {e}"}
        if tuple(chain.from_iterable(tr)) not in curried:
            return {"ok": False, "witness": "transpose is not structured"}
        if any(ev[h * n:(h + 1) * n] != m[a + v * n:a + (v + 1) * n]
               for (*_, a, n, ev), col in zip(box, tr) for v, h in enumerate(col)):
            return {"ok": False, "witness": "evaluation does not undo currying"}
    return {"ok": len(uncurried) == len(curried), "uncurried": len(uncurried),
            "curried": len(curried)}


# ---------------------------------------------------------------------------
# Dependent products of structured types


@dataclass(frozen=True)
class CoalgebraPi:
    """A dependent product of structured types, realized inside the box of
    the plain dependent product (:func:`coalg_pi`); ``counit`` is the fiber
    counit of that box."""

    base: CoalgebraType
    family: CoalgebraType
    type: CoalgebraType
    plain: Pi
    inclusion: TypeMap
    counit: TypeMap

    def app(self, obj: str, g: int, v: int, x: int) -> int:
        """Apply a product element to an argument of the base type: the
        plain dependent function at the counit of its element of the box."""
        e = self.counit.apply(obj, g, self.inclusion.apply(obj, g, v))
        return self.plain.app(obj, g, e, x)

    def app_term(self, ct: CoalgebraTerm) -> CoalgebraTerm:
        """Evaluate a structured product term to a structured family term."""
        cext = comprehension(self.base.type)
        pick = {(o, e): self.app(o, g, ct.term.pick[(o, g)], x)
                for o in cext.presheaf.base.objects for e in range(cext.presheaf.sizes[o])
                for g, x in [cext.decode(o, e)]}
        return CoalgebraTerm(self.family, TermOverContext(self.family.type, pick))

    def intro_term(self, w: NaturalModelComonad, ct: CoalgebraTerm) -> CoalgebraTerm:
        """Abstract a structured family term into a structured product
        term: box the plain abstraction and read it through the inclusion.
        The inclusion of a structured product term is a structured term of
        the cofree box of the plain product, so it is the box of its counit,
        which is the plain abstraction of its application."""
        boxed = w.bbox_term(self.base.coalg, self.plain.intro(ct.term)).pick
        lifted = _lift(self.inclusion.component, {k: (e,) for k, e in boxed.items()},
                       lambda k, n: "abstraction escapes the dependent product")
        pick = {k: vals[0] for k, vals in lifted.items()}
        return CoalgebraTerm(self.type, TermOverContext(self.type.type, pick))


def coalg_pi(w: NaturalModelComonad, x: CoalgebraType,
             yb: CoalgebraType) -> CoalgebraPi:
    """The dependent product of a structured family over the extension,
    inside the box of the plain ``Pi(A, B)``, whose elements ``E`` are
    tuples of plain dependent functions.

    ``E`` solves the stage-wise equation when, for every argument ``t``,
    applying its points to those of ``theta_A(t)`` gives the points of
    ``theta_B(counit(E)(t))``, read over ``(g, t)`` in the extension, whose
    structure has the points ``(g_k, t_k)`` (:func:`coalg_extension`): two
    plain natural maps, read at the identity slot of each function.  The
    solutions need not be closed: under the points comonad of a
    three-object chain, at fiber 2, the equation at the top stage leaves
    the middle function of ``E`` free at arguments no ``theta_A(t)``
    reaches.  So ``E`` is kept when the equation holds at every point of
    ``delta(E)``, the equalizer of the maps' cofree transposes
    (:meth:`_Level.carve`).  Under the identity comonad every structure
    is an identity and all pass.
    """
    cg, a = x.coalg, x.type
    cge, _, _ = coalg_extension(w, x)
    if yb.coalg != cge:
        raise ComonadError("family is not structured over the extension")
    plain = pi_type(a, yb.type)
    eps = w.fiber_counit(cg, plain.type)
    app, encode = plain.app, plain.comp.encode
    points_p, points_a = w.bbox_points(cg, plain.type), w.bbox_points(cg, a)
    points_b = w.bbox_points(cge, yb.type)
    holds = {}
    for (o, g), ec in eps.component.items():
        fibers, pts_p, _ = points_p((o, g))
        pts_a, ta = points_a((o, g))[1], x.theta.component[(o, g)]
        args = []
        for t in range(a.fiber[(o, g)]):
            gt = encode(o, g, t)
            args.append((t, pts_a[ta[t]], points_b((o, gt))[1], yb.theta.component[(o, gt)]))
        holds[(o, g)] = frozenset(v for v in range(len(ec)) if all(
            tuple(app(*f, e, p) for f, e, p in zip(fibers, pts_p[v], pts_t))
            == pts_b[tb[app(o, g, ec[v], t)]] for t, pts_t, pts_b, tb in args))
    th, inc = _type_level(w, cg).carve(plain.type, holds, "dependent product of structured types")
    return CoalgebraPi(x, yb, CoalgebraType(cg, th.source, th), plain, inc, eps)


def pi_up_check(w: NaturalModelComonad, cp: CoalgebraPi) -> dict:
    """Check that structured terms of the product and structured terms
    of the family correspond, with the two passages mutually inverse.

    One pass over the product terms suffices.  It shows that application
    lands in the structured family terms and that abstraction undoes it,
    so application is injective; with the two sets of equal size it is a
    bijection, and abstraction is its inverse on every family term too.
    """
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
    return {"ok": True, "products": len(pis), "families": len(fams)}


# ---------------------------------------------------------------------------
# Internal categories and the category of universe codes


@dataclass(frozen=True)
class InternalCategory:
    """A category internal to presheaves, given by its object and
    morphism presheaves and the usual structure maps; composable pairs
    are held as an explicit pullback."""

    obj: Presheaf
    mor: Presheaf
    src: PresheafMap
    tgt: PresheafMap
    ident: PresheafMap
    pairs: PullbackSquare
    comp: PresheafMap

    def compose_at(self, obj: str, m2: int, m1: int) -> int:
        """Composite of ``m2`` after ``m1`` at one stage."""
        return self.comp.apply(obj, self.pairs.pair_index(obj, m2, m1))

    def validate(self) -> list[str]:
        errs = []
        for m in (self.src, self.tgt, self.ident, self.comp):
            errs.extend(m.validate())
        if errs:
            return errs
        for o in self.obj.base.objects:
            for x in self.obj.elements(o):
                e = self.ident.apply(o, x)
                if self.src.apply(o, e) != x or self.tgt.apply(o, e) != x:
                    errs.append(f"identity at ({o!r}, {x}) has wrong endpoints")
            for (m2, m1) in self.pairs.pairs[o]:
                v = self.compose_at(o, m2, m1)
                if self.src.apply(o, v) != self.src.apply(o, m1) or \
                        self.tgt.apply(o, v) != self.tgt.apply(o, m2):
                    errs.append(f"composition at ({o!r}, {m2}, {m1}) has wrong endpoints")
            for m in self.mor.elements(o):
                le = self.ident.apply(o, self.tgt.apply(o, m))
                re = self.ident.apply(o, self.src.apply(o, m))
                if self.compose_at(o, le, m) != m or self.compose_at(o, m, re) != m:
                    errs.append(f"unit law fails at ({o!r}, {m})")
            # associativity at composable triples only, m1 found by its target
            into, comp = {}, dict(zip(self.pairs.pairs[o], self.comp.component[o]))
            for m1, x in enumerate(self.tgt.component[o]):
                into.setdefault(x, []).append(m1)
            for m3, m2 in self.pairs.pairs[o]:
                for m1 in into.get(self.src.apply(o, m2), ()):
                    if comp[comp[m3, m2], m1] != comp[m3, comp[m2, m1]]:
                        errs.append(f"associativity fails at ({o!r})")
        return errs


@dataclass(frozen=True)
class UniverseCategory:
    """The internal category of universe codes and code morphisms."""

    universe: Universe
    cat: InternalCategory
    mor_table: Mapping[str, tuple[tuple[int, int, PresheafMap], ...]]
    # (c1, c2, the columns of the map in slice-object order) -> position
    lookup: Mapping[str, Mapping[tuple[int, int, tuple], int]]

    def mor_data(self, obj: str, k: int) -> tuple[int, int, PresheafMap]:
        return self.mor_table[obj][k]

    def encode_map(self, m: TypeMap) -> PresheafMap:
        """The classifying map ``Gamma -> U1`` of a map between bounded
        types over ``Gamma``: at ``g`` the code morphism between the codes
        of source and target at ``g`` whose component at ``f`` in the
        slice is ``m`` at the restriction of ``g`` along ``f``."""
        u = self.universe
        gamma = m.source.context
        src, tgt = u.encode(m.source), u.encode(m.target)
        comp = {}
        for i, (objs, _) in u.reads.items():
            lookup = self.lookup[i]
            comp[i] = tuple(lookup[src.component[i][g], tgt.component[i][g],
                                   tuple(m.component[(s, gamma.action[f][g])] for s, f in objs)]
                            for g in gamma.elements(i))
        return PresheafMap(gamma, self.cat.mor, comp)


def universe_internal_category(u: Universe) -> UniverseCategory:
    """Internalize the universe: codes as objects, presheaf maps between
    codes as morphisms, with the strict slice reindexing as restriction."""
    c = u.model.base
    objs = {i: u.slices[i].cat.objects for i in c.objects}
    mor_table = {}
    for i in c.objects:
        triples = []
        for n1, x1 in enumerate(u.codes[i]):
            for n2, x2 in enumerate(u.codes[i]):
                for pm in hom_maps(x1, x2):
                    triples.append((n1, n2, pm))
        mor_table[i] = tuple(triples)
    lookup = {i: {(n1, n2, tuple(map(pm.component.__getitem__, objs[i]))): k
                  for k, (n1, n2, pm) in enumerate(mor_table[i])} for i in c.objects}
    sizes = {i: len(mor_table[i]) for i in c.objects}

    action = {}
    for f in c.morphisms:
        # the columns at f.g, for g in the slice over src(f)
        at, r = [c.compose(f, g) for g in objs[c.src[f]]], u.presheaf.action[f]
        action[f] = tuple(lookup[c.src[f]][r[n1], r[n2], tuple(map(pm.component.__getitem__, at))]
                          for n1, n2, pm in mor_table[c.dst[f]])
    mor = Presheaf(c, sizes, action).assert_valid()

    src = PresheafMap(mor, u.presheaf,
                      {i: tuple(t[0] for t in mor_table[i]) for i in c.objects})
    tgt = PresheafMap(mor, u.presheaf,
                      {i: tuple(t[1] for t in mor_table[i]) for i in c.objects})
    ident = PresheafMap(u.presheaf, mor,
                        {i: tuple(lookup[i][n, n, tuple(tuple(range(x.sizes[f])) for f in objs[i])]
                                  for n, x in enumerate(u.codes[i]))
                         for i in c.objects})
    pairs = pullback(src, tgt)
    comp_vals = {}
    for i in c.objects:
        vals = []
        for (m2, m1) in pairs.pairs[i]:
            a1, _, pm1 = mor_table[i][m1]
            _, b2, pm2 = mor_table[i][m2]
            vals.append(lookup[i][a1, b2, tuple(
                tuple(map(pm2.component[f].__getitem__, pm1.component[f])) for f in objs[i])])
        comp_vals[i] = tuple(vals)
    comp = PresheafMap(pairs.presheaf, mor, comp_vals)
    cat = InternalCategory(u.presheaf, mor, src, tgt, ident, pairs, comp)
    errs = cat.validate()
    if errs:
        raise ComonadError("universe category is broken: " + errs[0])
    return UniverseCategory(u, cat, mor_table, lookup)


# ---------------------------------------------------------------------------
# The classifier of structured types


def _transpose(clf, cg: Coalgebra, chi: PresheafMap, error: str) -> PresheafMap:
    """The cofree transpose ``box(chi) . theta`` of ``chi`` out of the
    carrier of ``cg``, lifted through the inclusion of the classifier
    ``clf``; a value outside it raises ``ComonadError``.

    ``box(chi)`` is read at the image of ``theta`` only, at ``v`` as the
    element whose point ``k`` is ``chi`` at point ``k`` of ``theta(v)``
    (:func:`_halves`).  The box is a functor, so for a natural ``chi``, as
    both callers pass (an encoding, a characteristic map), this is
    ``box_map(chi)`` value for value."""
    half = _halves(clf.comonad, cg)
    kappa = _boxed_columns(chi.component, half, half.__getitem__,
                           partial(clf.comonad.box_points, chi.target), "box_map leaves the box")
    return PresheafMap(cg.carrier, clf.coalgebra.carrier, _lift(
        clf.inclusion.component, kappa, lambda o, x: f"{error} at ({o!r}, {x})"))


@dataclass(frozen=True)
class CoalgebraClassifier:
    """The classifying coalgebra for structured types at the display
    bound: points are boxed pairs of a code and a structure morphism,
    cut down to the stage-wise comonad laws."""

    comonad: NaturalModelComonad
    universe: Universe
    ucat: UniverseCategory
    coalgebra: Coalgebra
    inclusion: PresheafMap
    pairing: Product

    def encode_point(self, xt: CoalgebraType) -> PresheafMap:
        """The classifying coalgebra map of a structured type."""
        mu = self.ucat.encode_map(xt.theta)
        paired = self.pairing.tuple_map(compose_maps(self.ucat.cat.src, mu), mu)
        return _transpose(self, xt.coalg, paired, "structured type escapes the classifier")

    def decode_point(self, cg: Coalgebra, h: PresheafMap) -> CoalgebraType:
        """The structured type classified by a coalgebra map into the
        classifier."""
        w, u = self.comonad, self.universe
        c = u.model.base
        eps = w.counit(self.pairing.presheaf)
        down = compose_maps(eps, compose_maps(self.inclusion, h))
        chi = compose_maps(self.pairing.fst, down)
        mu = compose_maps(self.pairing.snd, down)
        a = u.decode(chi)
        comp = {(i, g): self.ucat.mor_data(i, mu.apply(i, g))[2].component[c.id(i)]
                for i in c.objects for g in cg.carrier.elements(i)}
        return CoalgebraType(cg, a, TypeMap(a, w.bbox_type(cg, a), comp))


def code_actions(w: NaturalModelComonad, uc: UniverseCategory
                 ) -> tuple[PresheafMap, PresheafMap, PresheafMap, PresheafMap]:
    """The comonad's action on codes, read off its type action.

    With ``El`` the generic type over ``U`` and ``G`` the generic code
    morphism ``El[src] -> El[tgt]`` over ``U1``, returns the classifying
    maps of ``tp_box(El)`` (``box(U) -> U``), of its counit and
    comultiplication (``box(U) -> U1``), and of ``tp_box_map(G)``
    (``box(U1) -> U1``).  Raises ``BoundExceeded`` when the boxed generic
    type has a fiber over the display bound.
    """
    u = uc.universe
    c = w.model.base
    el = u.decode(identity_map(u.presheaf))
    g = TypeMap(u.decode(uc.cat.src), u.decode(uc.cat.tgt),
                {(i, k): pm.component[c.id(i)]
                 for i in c.objects for k, (_, _, pm) in enumerate(uc.mor_table[i])})
    return (u.encode(w.tp_box(el)), uc.encode_map(w.tp_counit(el)),
            uc.encode_map(w.tp_comult(el)), uc.encode_map(w.tp_box_map(g)))


def coalgebra_classifier(w: NaturalModelComonad) -> CoalgebraClassifier:
    """Build the classifier of structured types inside the coalgebras.

    The carrier is carved out of the box of codes paired with code
    morphisms (:meth:`_Level.carve`).  With ``(x, m)`` the counit of an
    element ``v`` and ``phi`` its box of codes, ``v`` holds when ``m`` runs
    from ``x`` to ``beta(phi)``, composing it with the code-level counit
    gives the identity, and composing it with the code-level
    comultiplication agrees with composing it with the boxed morphism
    (where that composite is defined): plain maps at the counit, with the
    code-level maps from :func:`code_actions`.  The boxed endpoint
    conditions ``box(src) . snd == fst`` and ``box(tgt) . snd == box(beta)
    . delta . fst`` hold at ``v`` exactly when the plain ones hold at every
    delta-point of ``v``, since the box acts pointwise and point ``k`` of
    ``delta(phi)`` is the box of codes of point ``k`` of ``delta(v)``.  The
    delta-points of a delta-point are delta-points (coassociativity), so
    on the carved set the boxed conditions hold and every composite above
    is defined.
    """
    u = hs_universe(w.model)
    uc = universe_internal_category(u)
    cat, q = uc.cat, product(u.presheaf, uc.cat.mor)
    beta, eps_code, dlt_code, bmor = code_actions(w, uc)
    bfst, bsnd, eps = w.box_map(q.fst), w.box_map(q.snd), w.counit(q.presheaf)

    def lawful(o, v):
        phi, psi, e = bfst.apply(o, v), bsnd.apply(o, v), eps.apply(o, v)
        x, m, n = q.fst.apply(o, e), q.snd.apply(o, e), bmor.apply(o, psi)
        return (cat.src.apply(o, m) == x and cat.tgt.apply(o, m) == beta.apply(o, phi)
                and cat.src.apply(o, n) == cat.tgt.apply(o, m)
                and cat.compose_at(o, eps_code.apply(o, phi), m) == cat.ident.apply(o, x)
                and cat.compose_at(o, dlt_code.apply(o, phi), m) == cat.compose_at(o, n, m))

    holds = {o: frozenset(v for v in range(len(col)) if lawful(o, v))
             for o, col in eps.component.items()}
    th, inc = _presheaf_level(w).carve(q.presheaf, holds, "structured-type classifier")
    return CoalgebraClassifier(w, u, uc, Coalgebra(th.source, th), inc, q)


def classifier_report(w: NaturalModelComonad, clf: CoalgebraClassifier,
                      size_bound: int = 1) -> dict:
    """Certify the classifier against enumeration: every structured type
    is classified by a unique coalgebra map and vice versa, on the nose,
    naturally in the coalgebra.

    Each point is round-tripped once.  The first pass encodes each
    structured type ``xt`` to ``h`` and decodes ``h`` back to ``xt``.  The
    second pass, decoding a point, checking the laws of the result and
    encoding it again, could find nothing at such an ``h``: ``decode_point``
    is a function, :func:`coalgebra_types_over` returns lawful types only,
    and ``h`` is ``encode_point(xt)``.  So it visits only the points a
    fault left unseen.  The naturality squares reuse the encodings.
    """
    witnesses = []
    pairs = []
    for cg in enumerate_coalgebras(w, size_bound):
        xts = coalgebra_types_over(w, cg, w.model.bound)
        maps = coalgebra_maps(w, cg, clf.coalgebra)
        members, seen, codes, round_tripped = set(maps), [], [], set()
        for xt in xts:
            h = clf.encode_point(xt)
            codes.append(h)
            if h not in members:
                witnesses.append(f"classifying map of a type over {cg.carrier.sizes} "
                                 "is not a coalgebra map")
                continue
            back = clf.decode_point(cg, h)
            if back.type != xt.type or back.theta != xt.theta:
                witnesses.append(f"decode of encode differs over {cg.carrier.sizes}")
            else:
                round_tripped.add(h)
            seen.append(h)
        if len(set(seen)) != len(xts):
            witnesses.append(f"classification not injective over {cg.carrier.sizes}")
        for h in maps:
            if h in round_tripped:
                continue
            xt = clf.decode_point(cg, h)
            if coalgebra_type_laws(w, xt):
                witnesses.append(f"a point over {cg.carrier.sizes} decodes "
                                 "to a broken structured type")
            elif clf.encode_point(xt) != h:
                witnesses.append(f"encode of decode differs over {cg.carrier.sizes}")
        pairs.append((cg, xts, codes, len(maps)))
        if len(xts) != len(maps):
            witnesses.append(f"{len(xts)} structured types vs {len(maps)} points "
                             f"over {cg.carrier.sizes}")
    for cg, *_ in pairs[:3]:
        for cg2, xts2, codes2, _ in pairs[:3]:
            for h in coalgebra_maps(w, cg, cg2)[:4]:
                for xt, code in zip(xts2[:4], codes2):
                    lhs = clf.encode_point(coalg_subst(w, xt, cg, h))
                    if lhs != compose_maps(code, h):
                        witnesses.append("classification is unnatural")
    return {"ok": not witnesses,
            "instances": [(dict(cg.carrier.sizes), len(xts), m) for cg, xts, _, m in pairs],
            "witnesses": witnesses}


# ---------------------------------------------------------------------------
# The subobject classifier of the coalgebra topos


@dataclass(frozen=True)
class KockWraithClassifier:
    """The subobject classifier of coalgebras: the fixed points of the
    induced endomap on the cofree coalgebra over the sieve classifier."""

    comonad: NaturalModelComonad
    omega: Omega
    coalgebra: Coalgebra
    inclusion: PresheafMap

    def classify(self, cg: Coalgebra, sel: Mapping[str, frozenset[int]]) -> PresheafMap:
        """The classifying coalgebra map of a sub-coalgebra selection."""
        return _transpose(self, cg, characteristic_map(self.omega, cg.carrier, sel),
                          "selection is not a sub-coalgebra")

    def subobject(self, cg: Coalgebra, h: PresheafMap) -> dict[str, frozenset[int]]:
        """The sub-coalgebra selection classified by a coalgebra map."""
        w = self.comonad
        chi = compose_maps(w.counit(self.omega.presheaf),
                           compose_maps(self.inclusion, h))
        return subobject_of_char(self.omega, chi)


def sieve_action(w: NaturalModelComonad, om: Omega) -> PresheafMap:
    """The induced map ``box(Omega) -> Omega``: the characteristic map of
    the image of the boxed truth."""
    bt = w.box_map(om.truth())
    return characteristic_map(om, bt.target, {o: frozenset(vs)
                                              for o, vs in bt.component.items()})


def kock_wraith_classifier(w: NaturalModelComonad) -> KockWraithClassifier:
    """The classifier of sub-coalgebras: the fixed points of the cofree
    transpose ``box(b) . delta`` of the induced sieve map ``b``
    (:func:`sieve_action`), carved as the elements ``v`` whose every
    delta-point ``u`` has ``b(u) == counit(u)`` (:meth:`_Level.carve`).
    The two agree: point ``k`` of ``box(b)(delta(v))`` is ``b`` at point
    ``k`` of ``delta(v)``, and by ``box(counit) . delta == id`` point ``k``
    of ``v`` is the counit there."""
    om = subobject_classifier(w.model.base)
    b, eps = sieve_action(w, om).component, w.counit(om.presheaf).component
    holds = {o: frozenset(v for v, e in enumerate(col) if b[o][v] == e)
             for o, col in eps.items()}
    th, inc = _presheaf_level(w).carve(om.presheaf, holds, "sub-coalgebra classifier")
    return KockWraithClassifier(w, om, Coalgebra(th.source, th), inc)


def kock_wraith_report(w: NaturalModelComonad, kw: KockWraithClassifier,
                       size_bound: int = 1) -> dict:
    """Certify the subobject classifier: sub-coalgebras correspond to
    coalgebra maps into it, and everything else is rejected."""
    witnesses = []
    instances = []
    for cg in enumerate_coalgebras(w, size_bound):
        subs, others = sub_coalgebras(w, cg)
        maps = coalgebra_maps(w, cg, kw.coalgebra)
        members = set(maps)
        if len(subs) != len(maps):
            witnesses.append(f"{len(subs)} sub-coalgebras vs {len(maps)} points "
                             f"over {cg.carrier.sizes}")
        seen = set()
        for sel in subs:
            h = kw.classify(cg, sel)
            if h not in members:
                witnesses.append("classifying map is not a coalgebra map")
                continue
            seen.add(h)
            back = kw.subobject(cg, h)
            if {o: frozenset(v) for o, v in back.items()} != \
                    {o: frozenset(sel[o]) for o in sel}:
                witnesses.append("classified subobject differs from the selection")
        if len(seen) != len(subs):
            witnesses.append(f"classification not injective over {cg.carrier.sizes}")
        for h in maps:
            if h not in seen:
                witnesses.append("a point classifies no sub-coalgebra")
        rejected = 0
        for sel in others:
            try:
                kw.classify(cg, sel)
                witnesses.append("a non-closed selection was classified")
            except ComonadError:
                rejected += 1
        instances.append((dict(cg.carrier.sizes), len(subs), rejected))
    return {"ok": not witnesses, "instances": instances, "witnesses": witnesses}
