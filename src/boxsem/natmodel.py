"""The natural model carried by finite presheaves.

Contexts are presheaves on a fixed base category, a type over a context
is a finite-fibered functor on its category of elements, and display
maps are the presheaf maps all of whose fibers have at most ``bound``
elements.  Everything is strictified: carriers are canonical ranges,
substitution is literal reindexing, and the universe is the usual
slice-functor one, so all the coherence laws hold as data equality.

A type over ``Gamma`` is a presheaf on its category of elements, stored
at the keys ``(I, g)`` without that category being built, and shares the
table core of :mod:`boxsem.presheaf` with presheaves: validation,
naturality of type maps and sections, the algebra of components,
enumeration of types, maps and sections, products and subtypes all run
on the shape of the context.

Types deliberately carry no size bound of their own.  Dependent sums
and products can outgrow the display bound; they are still perfectly
good data, only :meth:`Universe.encode` refuses them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .fincat import FinCat, Slice, slice_category
from .presheaf import (FamilyTable, Presheaf, PresheafMap, _components, _elements_shape,
                       _fibers_within, _flat_maps, _functor_errors, _functors, _identity,
                       _NaturalMap, _natural_errors, _Plan, _plan, _point, _product, _projections,
                       _sections, _shape, _subfunctor, compose_maps, hom_maps, mono_maps, yoneda,
                       yoneda_map)


class BoundExceeded(Exception):
    """A fiber is too large for the display bound of the model."""


class ModelError(Exception):
    pass


# ---------------------------------------------------------------------------
# Types, terms and maps over a context


@dataclass(frozen=True)
class TypeOverContext:
    """A dependent type: a finite set ``A(I, g)`` per context element,
    with restriction ``A(I, g) -> A(J, g.f)`` per ``f : J -> I``."""

    context: Presheaf
    fiber: Mapping[tuple[str, int], int]
    restriction: Mapping[tuple[str, int], tuple[int, ...]]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    # subst_type results, keyed by the id of the substitution (held weakly)
    _subst: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _comp: "Comprehension | None" = field(default=None, init=False, repr=False, compare=False)
    _plan: _Plan | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fiber", dict(self.fiber))
        object.__setattr__(self, "restriction",
                           {k: tuple(v) for k, v in dict(self.restriction).items()})

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TypeOverContext):
            return NotImplemented
        return (self.context == other.context and self.fiber == other.fiber
                and self.restriction == other.restriction)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((tuple(sorted(self.fiber.items())),
                                                    tuple(sorted(self.restriction.items())))))
        return self._hash

    def restrict(self, f: str, g: int, a: int) -> int:
        """Restrict ``a in A(dst f, g)`` along ``f`` to ``A(src f, g.f)``."""
        return self.restriction[(f, g)][a]

    def _tables(self) -> tuple:
        """What the table core reads: the context, the shape of its
        category of elements, the fibers and the restriction tables."""
        return self.context, _elements_shape(self.context), self.fiber, self.restriction

    def validate(self) -> list[str]:
        return _functor_errors(_elements_shape(self.context), self.fiber, self.restriction)

    def assert_valid(self):
        errs = self.validate()
        if errs:
            raise ModelError("type: " + "; ".join(errs[:8]))
        return self


@dataclass(frozen=True)
class TermOverContext:
    """A section of a type: one fiber element per context element."""

    type: TypeOverContext
    pick: Mapping[tuple[str, int], int]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pick", dict(self.pick))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TermOverContext):
            return NotImplemented
        return self.type == other.type and self.pick == other.pick

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(tuple(sorted(self.pick.items()))))
        return self._hash

    def validate(self) -> list[str]:
        """A section is a map from the one-point type."""
        a = self.type
        shape = _elements_shape(a.context)
        return _natural_errors(shape, *_point(shape), a.fiber, a.restriction,
                               {k: (v,) for k, v in self.pick.items()})

    def assert_valid(self):
        errs = self.validate()
        if errs:
            raise ModelError("term: " + "; ".join(errs[:8]))
        return self


class TypeMap(_NaturalMap):
    """A fiberwise map between two types over the same context."""

    _error, _label = ModelError, "type map"
    _apart = "source and target sit over different contexts"

    def apply(self, obj: str, g: int, a: int) -> int:
        return self.component[(obj, g)][a]


def identity_type_map(a: TypeOverContext) -> TypeMap:
    return TypeMap(a, a, _identity(a.fiber, a.fiber))


def apply_type_map(m: TypeMap, t: TermOverContext) -> TermOverContext:
    assert t.type == m.source
    return TermOverContext(m.target, {k: m.component[k][v] for k, v in t.pick.items()})


# ---------------------------------------------------------------------------
# Substitution (strict by construction)


def _forget(memo: dict, key: int, ref: weakref.ref) -> None:
    """Drop a substitution memo entry once its substitution is gone."""
    if memo.get(key, (None,))[0] is ref:
        del memo[key]


def subst_type(a: TypeOverContext, s: PresheafMap) -> TypeOverContext:
    """Reindex a type over ``target(s)`` along ``s : Delta -> Gamma``.

    Memoized on the identity of ``(a, s)``, so substituting the same
    objects twice gives back the same object.  The memo lives on ``a``
    and holds ``s`` weakly: an entry lasts while both objects do, and a
    long-lived type does not keep alive every map it was pulled back along.
    """
    key = id(s)
    hit = a._subst.get(key)
    if hit is not None and hit[0]() is s:
        return hit[1]
    assert s.target == a.context, "substitution target mismatch"
    delta = s.source
    c = delta.base
    fiber = {(i, d): a.fiber[(i, s.apply(i, d))]
             for i in c.objects for d in delta.elements(i)}
    restriction = {(f, d): a.restriction[(f, s.apply(c.dst[f], d))]
                   for f in c.morphisms for d in delta.elements(c.dst[f])}
    out = TypeOverContext(delta, fiber, restriction)
    a._subst[key] = (weakref.ref(s, partial(_forget, a._subst, key)), out)
    return out


def subst_term(t: TermOverContext, s: PresheafMap) -> TermOverContext:
    delta = s.source
    c = delta.base
    return TermOverContext(subst_type(t.type, s),
                           {(i, d): t.pick[(i, s.apply(i, d))]
                            for i in c.objects for d in delta.elements(i)})


def subst_type_map(m: TypeMap, s: PresheafMap) -> TypeMap:
    delta = s.source
    c = delta.base
    return TypeMap(subst_type(m.source, s), subst_type(m.target, s),
                   {(i, d): m.component[(i, s.apply(i, d))]
                    for i in c.objects for d in delta.elements(i)})


# ---------------------------------------------------------------------------
# Comprehension


@dataclass(frozen=True)
class Comprehension:
    """Context extension ``Gamma.A`` with its projection and generic term.

    Elements of ``(Gamma.A)(I)`` are pairs ``(g, a)`` numbered g-major
    in canonical order; ``encode``/``decode`` convert between the pair
    view and the flat index.
    """

    context: Presheaf
    type: TypeOverContext
    presheaf: Presheaf
    p: PresheafMap
    offsets: Mapping[tuple[str, int], int]

    @cached_property
    def v(self) -> TermOverContext:
        """The generic term of ``A[p]``, picking ``a`` at ``(g, a)``; built
        on first read, as most readers of a comprehension need only ``p``."""
        fiber = self.type.fiber
        return TermOverContext(subst_type(self.type, self.p), {
            (i, n + x): x for (i, g), n in self.offsets.items() for x in range(fiber[(i, g)])})

    def encode(self, obj: str, g: int, a: int) -> int:
        return self.offsets[(obj, g)] + a

    def decode(self, obj: str, value: int) -> tuple[int, int]:
        g = self.p.apply(obj, value)
        return g, value - self.offsets[(obj, g)]


def comprehension(a: TypeOverContext) -> Comprehension:
    """``Gamma.A``, built once per type object and kept on it."""
    if a._comp is not None:
        return a._comp
    gamma, sh = a.context, _elements_shape(a.context)
    offsets, proj = {}, {i: [] for i in gamma.base.objects}
    for i, g in sh.keys:
        offsets[(i, g)] = len(proj[i])
        proj[i] += [g] * a.fiber[(i, g)]
    action = {f: [] for f in gamma.base.morphisms}
    for (f, g), _, k2 in sh.arrows:
        action[f] += [offsets[k2] + y for y in a.restriction[(f, g)]]
    ext = Presheaf(gamma.base, {i: len(col) for i, col in proj.items()}, action)
    object.__setattr__(a, "_comp", Comprehension(gamma, a, ext, PresheafMap(ext, gamma, proj),
                                                 offsets))
    return a._comp


# ---------------------------------------------------------------------------
# Maps and sections, enumerated at the keys (I, g)


def type_maps(a: TypeOverContext, b: TypeOverContext,
              domains: Mapping[tuple[tuple[str, int], int], Sequence[int]] | None = None,
              rules: Iterable[tuple[tuple, tuple, Sequence[int]]] = ()) -> list[TypeMap]:
    """All fiberwise natural maps ``a -> b``, canonically ordered: the
    natural maps of functors on the context's shape.  Slot ``(k, x)``
    holds the value at ``x`` in ``a[k]``; ``domains`` (sorted, drawn from
    ``b[k]``) and ``rules`` on these slots narrow the enumeration and keep
    its order."""
    ends, families = _flat_maps(a, b, domains, rules)
    keys = _elements_shape(a.context).keys
    return [TypeMap(a, b, _components(keys, ends, f)) for f in families]


def terms_of(a: TypeOverContext) -> list[TermOverContext]:
    """All sections of a type, canonically ordered: the maps into ``a``
    from the one-point type."""
    return [TermOverContext(a, pick)
            for pick in _sections(_elements_shape(a.context), a.fiber, a.restriction)]


# ---------------------------------------------------------------------------
# Dependent sums and products


@dataclass(frozen=True)
class Sigma:
    """``Sigma A B`` over ``Gamma`` for ``B`` over ``Gamma.A``; fibers are
    pairs ``(a, b)`` numbered a-major."""

    type: TypeOverContext
    base_type: TypeOverContext
    dep_type: TypeOverContext
    comp: Comprehension
    offsets: Mapping[tuple[str, int, int], int]

    def pair(self, obj: str, g: int, a: int, b: int) -> int:
        return self.offsets[(obj, g, a)] + b

    def split(self, obj: str, g: int, v: int) -> tuple[int, int]:
        a = max((x for x in range(self.base_type.fiber[(obj, g)])
                 if self.offsets[(obj, g, x)] <= v), default=0)
        return a, v - self.offsets[(obj, g, a)]


def sigma_type(a: TypeOverContext, b: TypeOverContext) -> Sigma:
    ca = comprehension(a)
    assert b.context == ca.presheaf, "Sigma needs B over Gamma.A"
    gamma = a.context
    c = gamma.base
    offsets, fiber = {}, {}
    for i in c.objects:
        for g in gamma.elements(i):
            acc = 0
            for x in range(a.fiber[(i, g)]):
                offsets[(i, g, x)] = acc
                acc += b.fiber[(i, ca.encode(i, g, x))]
            fiber[(i, g)] = acc
    restriction = {}
    for (f, g), (j, _), k2 in _elements_shape(gamma).arrows:
        vals = []
        for x in range(a.fiber[(j, g)]):
            start = offsets[(*k2, a.restrict(f, g, x))]
            vals += [start + y for y in b.restriction[(f, ca.encode(j, g, x))]]
        restriction[(f, g)] = tuple(vals)
    t = TypeOverContext(gamma, fiber, restriction)
    return Sigma(t, a, b, ca, offsets)


@dataclass(frozen=True)
class Pi:
    """``Pi A B`` over ``Gamma``: fibers are natural families assigning to
    each ``f : J -> I`` and ``x in A(J, g.f)`` a value of ``B`` there."""

    type: TypeOverContext
    base_type: TypeOverContext
    dep_type: TypeOverContext
    comp: Comprehension
    tables: Mapping[tuple[str, int], FamilyTable]

    def family_index(self, obj: str, g: int, fam: tuple[int, ...]) -> int:
        return self.tables[(obj, g)].family_pos[fam]

    def app(self, obj: str, g: int, idx: int, a: int) -> int:
        """Apply a function element at ``a in A(obj, g)`` (identity slot)."""
        c = self.type.context.base
        t = self.tables[(obj, g)]
        return t.families[idx][t.slot_pos[(obj, c.id(obj), a)]]

    def intro(self, body: TermOverContext) -> TermOverContext:
        """Abstract a section of ``B`` over ``Gamma.A`` into a section of Pi."""
        assert body.type == self.dep_type
        gamma = self.type.context
        pick = {}
        for i in gamma.base.objects:
            for g in gamma.elements(i):
                fam = tuple(body.pick[(j, self.comp.encode(j, gamma.act(f, g), x))]
                            for (j, f, x) in self.tables[(i, g)].slots)
                pick[(i, g)] = self.family_index(i, g, fam)
        return TermOverContext(self.type, pick)


def pi_type(a: TypeOverContext, b: TypeOverContext) -> Pi:
    ca = comprehension(a)
    assert b.context == ca.presheaf, "Pi needs B over Gamma.A"
    gamma, sh = a.context, _elements_shape(a.context)
    c = gamma.base
    tables = {}
    for i, g in sh.keys:
        sl = [(j, f, x) for j in c.objects for f in c.hom(j, i)
              for x in range(a.fiber[(j, gamma.act(f, g))])]
        sizes = [b.fiber[(j, ca.encode(j, gamma.act(f, g), x))] for (j, f, x) in sl]
        rules = [((j, f, x), (c.src[m], c.compose(f, m), a.restrict(m, gf, x)),
                  b.restriction[(m, ca.encode(j, gf, x))])
                 for (j, f, x) in sl for gf in (gamma.act(f, g),) for m in c.morphisms
                 if c.dst[m] == j and not c.is_identity(m)]
        tables[(i, g)] = FamilyTable(sl, sizes, rules)
    fiber = {k: len(t.families) for k, t in tables.items()}
    restriction = {hg: tables[k].restriction(
        tables[k2], [(j, c.compose(hg[0], f), x) for (j, f, x) in tables[k2].slots])
        for hg, k, k2 in sh.arrows}
    return Pi(TypeOverContext(gamma, fiber, restriction), a, b, ca, tables)


@dataclass(frozen=True)
class TypeProduct:
    """Fiberwise binary product of two types over the same context."""

    type: TypeOverContext
    left: TypeOverContext
    right: TypeOverContext

    def pair(self, obj: str, g: int, x: int, y: int) -> int:
        return x * self.right.fiber[(obj, g)] + y

    def split(self, obj: str, g: int, v: int) -> tuple[int, int]:
        n = self.right.fiber[(obj, g)]
        return v // n, v % n

    @property
    def fst(self) -> TypeMap:
        return TypeMap(self.type, self.left,
                       _projections(self.type.fiber, self.left.fiber, self.right.fiber)[0])

    @property
    def snd(self) -> TypeMap:
        return TypeMap(self.type, self.right,
                       _projections(self.type.fiber, self.left.fiber, self.right.fiber)[1])


def type_product(a: TypeOverContext, b: TypeOverContext) -> TypeProduct:
    assert a.context == b.context
    return TypeProduct(TypeOverContext(a.context, *_product(
        _elements_shape(a.context), a.fiber, a.restriction, b.fiber, b.restriction)), a, b)


def sub_type(a: TypeOverContext,
             keep: Mapping[tuple[str, int], frozenset[int]]) -> tuple[TypeOverContext, TypeMap]:
    """Carve out a fiberwise subset closed under restriction, renumbered
    canonically, together with its inclusion into ``a``; a subset that is
    not closed raises ``ModelError``."""
    fiber, restriction, kept = _subfunctor(_elements_shape(a.context), a.restriction, keep,
                                           ModelError)
    s = TypeOverContext(a.context, fiber, restriction)
    return s, TypeMap(s, a, kept)


# ---------------------------------------------------------------------------
# Display maps and straightening


def _fiber_lists(m: PresheafMap, obj: str) -> list[list[int]]:
    """The fibers of ``m`` at ``obj``, one sorted list per target element."""
    lists = [[] for _ in range(m.target.sizes[obj])]
    for x, y in enumerate(m.component[obj]):
        lists[y].append(x)
    return lists


def is_display(m: PresheafMap, bound: int) -> bool:
    return all(len(xs) <= bound
               for o in m.source.base.objects for xs in _fiber_lists(m, o))


def straighten(m: PresheafMap) -> tuple[TypeOverContext, PresheafMap]:
    """Turn a presheaf map into a type over its target, plus the canonical
    iso ``target.A -> source`` over the target."""
    gamma, e = m.target, m.source
    c = gamma.base
    lists = {(i, g): xs for i in c.objects for g, xs in enumerate(_fiber_lists(m, i))}
    pos = {k: {x: n for n, x in enumerate(v)} for k, v in lists.items()}
    fiber = {k: len(v) for k, v in lists.items()}
    restriction = {fg: tuple(pos[k2][e.action[fg[0]][x]] for x in lists[k])
                   for fg, k, k2 in _elements_shape(gamma).arrows}
    a = TypeOverContext(gamma, fiber, restriction)
    # Gamma.A is numbered g-major: the iso lists each fiber in turn
    return a, PresheafMap(comprehension(a).presheaf, e, {
        i: tuple(x for g in gamma.elements(i) for x in lists[(i, g)]) for i in c.objects})


# ---------------------------------------------------------------------------
# The model and its universe


@dataclass(frozen=True)
class NaturalModel:
    """A presheaf natural model: a base category and a display bound."""

    base: FinCat
    bound: int


def _types_over(gamma: Presheaf, bound: int) -> Iterator[TypeOverContext]:
    sh = _elements_shape(gamma)
    return (TypeOverContext(gamma, *st) for st in _functors(sh, [bound] * len(sh.keys)))


def all_presheaves(c: FinCat, bound: int) -> list[Presheaf]:
    """Every presheaf on ``c`` with all carriers of size <= bound, in a
    deterministic order (sizes, then actions, lexicographically)."""
    return [Presheaf(c, *st) for st in _functors(_shape(c), [bound] * len(c.objects))]


def all_types_over(model: NaturalModel, gamma: Presheaf, bound: int) -> list[TypeOverContext]:
    """Every type over ``gamma`` with all fibers of size <= bound: the
    functors on its category of elements, enumerated at the keys."""
    return list(_types_over(gamma, bound))


@dataclass(frozen=True)
class Universe:
    """The slice-functor universe at the model's display bound.

    A code at ``I`` is a presheaf on ``C/I`` with carriers of size at
    most the bound; restriction precomposes with the postcomposition
    functor between slices, which is strictly functorial on the nose.

    ``index[I]`` finds a code by its tables (:func:`_code_key`), so a
    lookup reads tables and builds no presheaf; ``reads[I]`` lists, per
    object ``f`` of ``C/I``, the pair ``(src f, f)`` and, per proper
    morphism ``h@f``, the pair ``(h, f)``, which is where a type's tables
    at ``g`` hold the code of ``g``.
    """

    model: NaturalModel
    presheaf: Presheaf
    slices: Mapping[str, Slice]
    codes: Mapping[str, tuple[Presheaf, ...]]
    index: Mapping[str, Mapping[tuple, int]]
    reads: Mapping[str, tuple[tuple, tuple]]

    def code(self, obj: str, idx: int) -> Presheaf:
        return self.codes[obj][idx]

    # decode / encode ------------------------------------------------------
    def decode(self, code_map: PresheafMap) -> TypeOverContext:
        """The type classified by a map ``Gamma -> U``."""
        assert code_map.target == self.presheaf
        gamma, c = code_map.source, self.model.base
        sh = _elements_shape(gamma)
        code = {(i, g): self.codes[i][code_map.component[i][g]] for i, g in sh.keys}
        return TypeOverContext(gamma, {(i, g): x.sizes[c.id(i)] for (i, g), x in code.items()},
                               {(f, g): code[k].action[f"{f}@{c.id(k[0])}"]
                                for (f, g), k, _ in sh.arrows})

    def encode(self, a: TypeOverContext) -> PresheafMap:
        """The classifying map of a bounded type; raises on fat fibers."""
        top = max(a.fiber.values(), default=0)
        if top > self.model.bound:
            raise BoundExceeded(f"fiber of size {top} exceeds display bound {self.model.bound}")
        gamma = a.context
        fiber, restriction, act = a.fiber, a.restriction, gamma.action
        comp = {}
        for i, (objs, mors) in self.reads.items():
            index = self.index[i]
            comp[i] = tuple(index[tuple(fiber[(s, act[f][g])] for s, f in objs),
                                  tuple(restriction[(h, act[f][g])] for h, f in mors)]
                            for g in gamma.elements(i))
        return PresheafMap(gamma, self.presheaf, comp)


def _code_key(x: Presheaf) -> tuple:
    """A functor's tables as one key: its sizes in object order and the
    tables of its proper morphisms in morphism order."""
    sh = _shape(x.base)
    return tuple(map(x.sizes.__getitem__, sh.keys)), tuple(x.action[n] for n, _, _ in sh.proper)


def hs_universe(model: NaturalModel) -> Universe:
    c = model.base
    slices = {i: slice_category(c, i) for i in c.objects}
    codes = {i: tuple(all_presheaves(slices[i].cat, model.bound)) for i in c.objects}
    index = {i: {_code_key(x): n for n, x in enumerate(codes[i])} for i in c.objects}
    sizes = {i: len(codes[i]) for i in c.objects}
    proper = {i: tuple(tuple(n.split("@", 1)) for n, _, _ in _shape(slices[i].cat).proper)
              for i in c.objects}
    reads = {i: (tuple((c.src[f], f) for f in slices[i].cat.objects), proper[i])
             for i in c.objects}

    action = {}
    for f in c.morphisms:
        # precompose with C/src(f) -> C/dst(f): the key at src(f) of a code
        # at dst(f) reads it at f.g and h@(f.g)
        j = c.src[f]
        objs = [c.compose(f, g) for g in slices[j].cat.objects]
        mors = [f"{h}@{c.compose(f, g)}" for h, g in proper[j]]
        action[f] = tuple(index[j][tuple(map(x.sizes.__getitem__, objs)),
                                   tuple(map(x.action.__getitem__, mors))]
                          for x in codes[c.dst[f]])
    return Universe(model, Presheaf(c, sizes, action), slices, codes, index, reads)


# ---------------------------------------------------------------------------
# Checks: typing equivalence, classifier, realignment


def _display_maps(model: NaturalModel, gamma: Presheaf, size_bound: int) -> Iterator[PresheafMap]:
    """The display maps into ``gamma`` from each source with carriers of
    size at most ``size_bound`` in turn.  A source with more than
    ``bound * |Gamma(I)|`` elements at ``I`` has none, and is not built."""
    c = model.base
    caps = [min(size_bound, model.bound * gamma.sizes[i]) for i in c.objects]
    for e in (Presheaf(c, *st) for st in _functors(_shape(c), caps)):
        ends, families = _flat_maps(e, gamma)
        for fam in families:
            if _fibers_within(ends, fam, model.bound):
                yield PresheafMap(e, gamma, _components(e.base.objects, ends, fam))


def all_display_maps_into(model: NaturalModel, gamma: Presheaf, size_bound: int) -> list[PresheafMap]:
    """Every display map with target ``gamma`` whose source has carriers
    of size at most ``size_bound``."""
    return list(_display_maps(model, gamma, size_bound))


def _block_starts(a: TypeOverContext, cb: Comprehension) -> tuple[int, ...]:
    """Where ``Gamma.B`` numbers ``(k, 0)``, per flat slot of ``a``'s plan."""
    return tuple(map(cb.offsets.__getitem__, _plan(a).keys))


def typing_check(model: NaturalModel, gamma: Presheaf, size_bound: int | None = None) -> dict:
    """Comprehension is an equivalence onto display maps over ``gamma``.

    Essential surjectivity: every display map (with source bounded by
    ``size_bound``) is isomorphic over ``gamma`` to the projection of its
    straightening.  Full faithfulness: type maps correspond exactly to
    maps over ``gamma`` between the comprehensions.

    The maps over ``gamma`` are enumerated, not filtered: ``h`` lies over
    ``gamma`` exactly when it sends each element of ``Gamma.A(I)`` over
    ``g`` into the block of ``Gamma.B(I)`` over the same ``g``, the flat
    indices ``offsets[(I, g)] + range(B(I, g))``.  Narrowing each slot to
    its block drops exactly the maps ``h`` with ``p_B . h != p_A``, and
    keeps the rest in order.
    ``Gamma.A`` is numbered g-major, so its flat slots are those of ``A``
    in order, and a type map's flat family plus :func:`_block_starts` is
    the flat family of the map it induces.  A pair binds ``B``'s tables
    and blocks to the plans of ``A`` and ``Gamma.A``, built once each.
    """
    if size_bound is None:
        size_bound = model.bound * max(1, max(gamma.sizes.values(), default=1))
    report = {"essential_surjectivity": True, "fully_faithful": True,
              "display_maps": 0, "type_pairs": 0}
    for m in all_display_maps_into(model, gamma, size_bound):
        report["display_maps"] += 1
        a, iso = straighten(m)
        iso.assert_valid()
        if not iso.is_iso() or compose_maps(m, iso) != comprehension(a).p:
            report["essential_surjectivity"] = False
            report["witness"] = (m, a)
            return report
    types = all_types_over(model, gamma, model.bound)
    comps = [comprehension(t) for t in types]
    blocks = [{k: range(s, s + b.fiber[k]) for k, s in cb.offsets.items()}
              for b, cb in zip(types, comps)]
    for a, ca in zip(types, comps):
        slots = _plan(a).keys
        for b, cb, block in zip(types, comps, blocks):
            report["type_pairs"] += 1
            _, tms = _flat_maps(a, b)
            _, over = _flat_maps(ca.presheaf, cb.presheaf, [*map(block.__getitem__, slots)])
            starts = _block_starts(a, cb)
            induced = {tuple(map(add, starts, fam)) for fam in tms}
            if induced != set(over) or len(induced) != len(tms):
                report["fully_faithful"] = False
                report["witness"] = (a, b)
                return report
    return report


def classifier_check(u: Universe, size_bound: int | None = None) -> dict:
    """``U(I)`` agrees with bounded types over ``y(I)``, naturally in ``I``.

    The bijection sends a code (a presheaf on ``C/I``) to the type over
    the representable whose fiber at ``f`` is the code's carrier there.
    Naturality compares code restriction with substitution along the
    Yoneda action.
    """
    model = u.model
    c = model.base
    report = {"bijective": True, "natural": True}
    ys = {i: yoneda(c, i) for i in c.objects}

    def code_to_type(i: str, x: Presheaf) -> TypeOverContext:
        return TypeOverContext(
            ys[i], {(j, n): x.sizes[f] for j in c.objects for n, f in enumerate(c.hom(j, i))},
            {(g, n): x.action[f"{g}@{f}"]
             for g in c.morphisms for n, f in enumerate(c.hom(c.dst[g], i))})

    code_types = {}
    for i in c.objects:
        code_types[i] = [code_to_type(i, x) for x in u.codes[i]]
        types = set(code_types[i])
        bounded = set(all_types_over(model, ys[i], model.bound))
        if types != bounded or len(u.codes[i]) != len(types):
            report["bijective"] = False
            report["witness"] = i
            return report
    for f in c.morphisms:
        j, i = c.src[f], c.dst[f]
        yf = yoneda_map(c, f)
        for n in range(len(u.codes[i])):
            if code_types[j][u.presheaf.act(f, n)] != subst_type(code_types[i][n], yf):
                report["natural"] = False
                report["witness"] = (f, n)
                return report
    return report


@lru_cache(maxsize=1)
def _image(mono: PresheafMap) -> tuple[dict, list, list, list]:
    """What realignment reads of a mono alone: ``pre`` sends each key of
    Gamma in the image to the key of Delta over it; Gamma's arrows
    ``(f, g)`` inside the image come with the arrow of Delta over them,
    those crossing into it with the key of Delta they end over."""
    assert all(len(set(col)) == len(col) for col in mono.component.values()), \
        "realignment needs a monomorphism"
    pre = {(i, x): (i, d) for i, col in mono.component.items() for d, x in enumerate(col)}
    arrows = _elements_shape(mono.target).arrows
    # the image is closed under restriction
    return (pre, [(fg, (fg[0], pre[k][1])) for fg, k, _ in arrows if k in pre],
            [(fg, pre[k2]) for fg, k, k2 in arrows if k not in pre and k2 in pre],
            [fg for fg, k, k2 in arrows if k not in pre and k2 not in pre])


@lru_cache(maxsize=1)
def _realigned_parts(mono: PresheafMap, ta: TypeOverContext,
                     tb: TypeOverContext) -> tuple[dict, dict, dict]:
    """What :func:`realign` builds without reading the iso: the fibers, the
    tables inside and outside the image, and ``phi'`` off the image."""
    pre, inside, _, outside = _image(mono)
    keys = _elements_shape(mono.target).keys
    fiber = {k: ta.fiber[pre[k]] if k in pre else tb.fiber[k] for k in keys}
    restriction = {fg: ta.restriction[fd] for fg, fd in inside}
    restriction.update((fg, tb.restriction[fg]) for fg in outside)
    return fiber, restriction, {k: tuple(range(tb.fiber[k])) for k in keys if k not in pre}


def realign(u: Universe, mono: PresheafMap, ta: TypeOverContext,
            tb: TypeOverContext, phi: TypeMap) -> tuple[PresheafMap, TypeMap]:
    """Strict realignment along a monomorphism.

    Given the decoded types ``ta`` of a code ``A`` on the subobject and
    ``tb`` of a code ``B`` on the whole context, and an iso
    ``phi : ta -> tb[mono]``, produce a code ``B'`` on the whole context
    restricting to ``A`` on the nose and an iso ``phi' : decode(B') -> tb``
    restricting to ``phi``.

    The realigned type copies ``ta`` fibers over the image of the mono and
    keeps ``tb`` fibers elsewhere; restrictions crossing into the image
    are rerouted through ``phi`` inverse.  Only those and ``phi'`` over
    the image read ``phi``; the rest is found once per mono
    (:func:`_image`) and once per mono and pair of types.
    """
    pre, _, crossing, _ = _image(mono)
    assert phi.source == ta and phi.target == subst_type(tb, mono)
    phi_inv = phi.inverse()
    fiber, restriction, comp = _realigned_parts(mono, ta, tb)
    restriction = {**restriction, **{fg: tuple(map(phi_inv.component[d].__getitem__,
                                                   tb.restriction[fg])) for fg, d in crossing}}
    tb2 = TypeOverContext(mono.target, fiber, restriction).assert_valid()
    b2_code = u.encode(tb2)
    phi2 = TypeMap(tb2, tb, {**comp, **{k: phi.component[d] for k, d in pre.items()}})
    return b2_code, phi2.assert_valid()


def realignment_check(u: Universe, size_bound: int, max_cases: int | None = None) -> dict:
    """Full enumeration of realignment problems within a size bound.

    Every mono between presheaves with carriers of size at most
    ``size_bound``, every pair of codes, every iso between the decoded
    types; checks that :func:`realign` returns data satisfying the two
    strict equations and the compatibility of the isos.

    The realigned data is compared on columns, which is what pulling it
    back along the mono compares: ``b2`` read at the image against
    ``a_code``, and ``phi2`` and its source there against ``phi`` and
    ``ta``; no composite or substituted map is built.

    A pair whose decoded types differ in some fiber is skipped at once:
    an iso of types is a bijection on every fiber, so no map between them
    is a case; between equal fibers, an injective flat family is one.
    Each context's codes, and each code's type, are built once, at first
    use, and never ahead of it, since a run cut short by ``max_cases`` may
    stop early inside one large context.  The cases come in the same order
    as in a plain loop over all pairs and maps, so a truncated or failing
    run stops at the same case.
    """
    model = u.model
    c = model.base
    cases = 0
    contexts = all_presheaves(c, size_bound)
    codes: dict[int, list[PresheafMap]] = {}
    # keyed by id: every code stays alive in ``codes`` until the check returns
    types: dict[int, TypeOverContext] = {}

    def codes_of(k: int) -> list[PresheafMap]:
        if k not in codes:
            codes[k] = hom_maps(contexts[k], u.presheaf)
        return codes[k]

    def decoded(code: PresheafMap) -> TypeOverContext:
        if id(code) not in types:
            types[id(code)] = u.decode(code)
        return types[id(code)]

    for kd, delta in enumerate(contexts):
        keys = _elements_shape(delta).keys
        for kg, gamma in enumerate(contexts):
            for mono in mono_maps(delta, gamma):
                pre, inside, _, _ = _image(mono)
                for a_code in codes_of(kd):
                    ta = decoded(a_code)
                    for b_code in codes_of(kg):
                        tbm = subst_type(decoded(b_code), mono)
                        if ta.fiber != tbm.fiber:
                            continue
                        ends, families = _flat_maps(ta, tbm)
                        for fam in families:
                            if not _fibers_within(ends, fam, 1):
                                continue
                            cases += 1
                            if max_cases is not None and cases > max_cases:
                                return {"ok": True, "cases": cases - 1, "truncated": True}
                            phi = TypeMap(ta, tbm, _components(keys, ends, fam))
                            b2, phi2 = realign(u, mono, ta, decoded(b_code), phi)
                            if {i: tuple(map(b2.component[i].__getitem__, col))
                                    for i, col in mono.component.items()} != a_code.component:
                                return {"ok": False, "cases": cases,
                                        "reason": "code does not restrict on the nose"}
                            tb2 = phi2.source
                            if not phi2.is_iso() or subst_type(phi2.target, mono) != tbm \
                                    or {d: phi2.component[k] for k, d in pre.items()} != phi.component \
                                    or {d: tb2.fiber[k] for k, d in pre.items()} != ta.fiber \
                                    or {fd: tb2.restriction[fg] for fg, fd in inside} != ta.restriction:
                                return {"ok": False, "cases": cases,
                                        "reason": "iso does not restrict to phi"}
                            if u.decode(b2) != tb2:
                                return {"ok": False, "cases": cases,
                                        "reason": "decoded realigned code disagrees"}
    return {"ok": True, "cases": cases, "truncated": False}
