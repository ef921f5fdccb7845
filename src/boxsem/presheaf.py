"""Finite-set-valued presheaves over a table category, and the table
core they share with dependent types.

Carriers are always the canonical sets ``{0, ..., n-1}``; every
construction renumbers its result canonically, which is what makes all
the strictness claims downstream (substitution, universes, comonads)
hold as data equality rather than up to isomorphism.

A finite functor is stored as tables: a carrier size per key and a
restriction table per arrow.  The private shape of a category lays out
its keys, arrows and composable triples, once per :class:`FinCat` (keys
its objects) and once per context ``Gamma`` (keys ``(I, g)``, the objects
of its category of elements).  A presheaf is a functor on the first, a
type over ``Gamma`` (:mod:`boxsem.natmodel`) one on the second, and each
job on functors (validation, naturality, enumeration, natural maps,
products, subfunctors) has one body here that both levels call.  Their
maps, :class:`PresheafMap` and ``TypeMap``, share one class body too.
Functors are enumerated by a search that checks each composition law as
soon as its tables are chosen, not by filtering every combination of
tables; :func:`_functor_errors` validates the functors read from input.

The workhorse is :func:`enumerate_families`, a small backtracking
enumerator for tuples with per-slot domains subject to
``fam[j] == table[fam[i]]`` rules.  Right Kan extensions, dependent
products and natural maps are all the same enumeration with different
slots; :class:`FamilyTable` packages one such enumeration with dict
indexes on both its slots and its families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from itertools import product as iproduct
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fincat import FinCat, Functor, Site, all_sieves, maximal_sieve, pullback_sieve


class PresheafError(Exception):
    pass


def enumerate_families(n_slots: int, domains: Sequence[Sequence[int]],
                       rules: Iterable[tuple[int, int, Sequence[int]]]):
    """All tuples ``fam`` with ``fam[k] in domains[k]`` for every slot and
    ``fam[j] == table[fam[i]]`` for each rule ``(i, j, table)``.

    Each domain lists the values its slot may take in increasing order
    (``range(n)`` for a slot that may take any of ``n`` values).  Slots
    are filled in index order with their domain values in that order, so
    the output is in lexicographic order (and therefore canonical); a
    narrower domain only drops tuples, never reorders the rest.  Rules are
    checked as soon as both endpoints are assigned, on a stack of iterators
    over the slots that rules read; the slots after those take every
    combination of their values, from one ``product``.
    """
    by_slot: list[list[tuple[int, int, Sequence[int]]]] = [[] for _ in range(n_slots)]
    for (i, j, table) in rules:
        by_slot[max(i, j)].append((i, j, table))
    head = max((k + 1 for k, checks in enumerate(by_slot) if checks), default=0)
    tail = list(iproduct(*domains[head:]))
    if not head or not tail:
        return tail
    out, fam, stack = [], [0] * head, [iter(domains[0])]
    while stack:
        k = len(stack) - 1
        checks = by_slot[k]
        # advance slot k to its next value that keeps every rule, or pop it
        for fam[k] in stack[k]:
            for i, j, table in checks:
                if fam[j] != table[fam[i]]:
                    break
            else:
                break
        else:
            stack.pop()
            continue
        if k + 1 < head:
            stack.append(iter(domains[k + 1]))
        else:
            out += map(tuple(fam).__add__, tail)
    return out


class FamilyTable:
    """The natural families over one tuple of slots, indexed both ways.

    Invariants:

    * ``families`` is exactly the output of :func:`enumerate_families`,
      in its canonical lexicographic order, and a family's position there
      is the element it stands for; carriers built from tables are
      therefore canonical.
    * ``slot_pos`` and ``family_pos`` invert ``slots`` and ``families``,
      so locating a slot or a family is a dict lookup, never a scan.
    * Each table makes one call to ``enumerate_families``, looked up as
      a module global at construction time, so anything that replaces
      that global (a tracer, a counter) sees every enumeration.
    """

    __slots__ = ("slots", "slot_pos", "families", "family_pos")

    def __init__(self, slots: Iterable, sizes: Sequence[int],
                 rules: Iterable[tuple[object, object, Sequence[int]]]):
        """``sizes[k]`` bounds slot ``k``; a rule ``(s, t, table)`` on slot
        keys asks ``fam[t] == table[fam[s]]``."""
        self.slots = tuple(slots)
        self.slot_pos = pos = {s: k for k, s in enumerate(self.slots)}
        self.families = tuple(enumerate_families(
            len(self.slots), [range(n) for n in sizes],
            [(pos[s], pos[t], tb) for (s, t, tb) in rules]))
        self.family_pos = {f: k for k, f in enumerate(self.families)}

    def select(self, keys: Iterable) -> list[int]:
        """Positions of the given slots."""
        return [self.slot_pos[k] for k in keys]

    def restriction(self, target: "FamilyTable", keys: Iterable) -> tuple[int, ...]:
        """The restriction table into ``target``: slot ``n`` of the
        restricted family reads this table's slot ``keys[n]``."""
        sel = self.select(keys)
        pos = target.family_pos
        return tuple(pos[tuple(fam[k] for k in sel)] for fam in self.families)


# ---------------------------------------------------------------------------
# Functors stored as tables


class _Shape(NamedTuple):
    """How a functor on one finite category is stored as tables.

    A functor gives each key a carrier size and each arrow ``(name, dst,
    src)`` a table from the carrier at ``dst`` into the one at ``src``
    (restriction is contravariant).  ``arrows`` include the identities,
    which ``ids`` pairs with their keys; ``proper`` lists the other arrows
    in order, and ``triples`` lists every composable ``(a2, a1, a2 . a1)``
    by name.
    """

    keys: Sequence
    arrows: Sequence[tuple]
    ids: Sequence[tuple]
    proper: Sequence[tuple]
    triples: Sequence[tuple]


def _shape(c: FinCat) -> _Shape:
    """The shape of ``c`` at its objects, built once per category."""
    if c._shape is None:
        arrows = [(f, c.dst[f], c.src[f]) for f in c.morphisms]
        object.__setattr__(c, "_shape", _Shape(
            c.objects, arrows, [(c.id(o), o) for o in c.objects],
            [a for a in arrows if not c.is_identity(a[0])],
            [(g, f, c.compose(g, f)) for g in c.morphisms for f in c.morphisms
             if c.dst[f] == c.src[g]]))
    return c._shape


def _elements_shape(gamma: Presheaf) -> _Shape:
    """The shape of the category of elements of ``gamma`` at its keys
    ``(I, g)``, ``I`` in object order and ``g`` ascending; the arrow
    ``(f, g)`` runs from ``(dst f, g)`` to ``(src f, g.f)``.  Built once per
    context."""
    if gamma._shape is None:
        c, base, n, act = gamma.base, _shape(gamma.base), gamma.sizes, gamma.action

        def over(arrows):
            return [((f, g), (d, g), (s, act[f][g])) for f, d, s in arrows for g in range(n[d])]

        object.__setattr__(gamma, "_shape", _Shape(
            [(i, g) for i in base.keys for g in range(n[i])], over(base.arrows),
            [((f, g), (i, g)) for f, i in base.ids for g in range(n[i])], over(base.proper),
            [((f2, g), (f1, act[f2][g]), (f21, g))
             for f2, f1, f21 in base.triples for g in range(n[c.dst[f2]])]))
    return gamma._shape


def _point(shape: _Shape) -> tuple[dict, dict]:
    """Sizes and tables of the one-point functor on ``shape``."""
    return dict.fromkeys(shape.keys, 1), dict.fromkeys((n for n, _, _ in shape.arrows), (0,))


def _functor_errors(shape: _Shape, sizes: Mapping, tables: Mapping) -> list[str]:
    """Why ``sizes`` and ``tables`` are no functor on ``shape``: missing or
    ill-sized data first, then the identity and composition laws, read
    off the composable triples."""
    errs = [f"missing carrier size at {k!r}" for k in shape.keys if sizes.get(k, -1) < 0]
    for name, dst, src in shape.arrows:
        t = tables.get(name)
        if t is None:
            errs.append(f"missing action along {name!r}")
            continue
        if len(t) != sizes.get(dst, -1):
            errs.append(f"action along {name!r} has wrong domain size")
            continue
        n = sizes.get(src, 0)
        if any(not (0 <= v < n) for v in t):
            errs.append(f"action along {name!r} escapes its codomain")
    if errs:
        return errs
    for name, k in shape.ids:
        if tables[name] != tuple(range(sizes[k])):
            errs.append(f"identity action at {k!r} is not the identity")
    for a2, a1, a21 in shape.triples:
        if tuple(map(tables[a1].__getitem__, tables[a2])) != tables[a21]:
            errs.append(f"contravariant functoriality fails at ({a2!r}, {a1!r})")
    return errs


def _natural_errors(shape: _Shape, sizes: Mapping, tables: Mapping, tgt_sizes: Mapping,
                    tgt_tables: Mapping, comps: Mapping) -> list[str]:
    """Why ``comps`` is no natural map between two functors on ``shape``."""
    errs = []
    for k in shape.keys:
        t = comps.get(k)
        if t is None or len(t) != sizes[k]:
            errs.append(f"bad component at {k!r}")
            continue
        if t and (min(t) < 0 or max(t) >= tgt_sizes[k]):
            errs.append(f"component at {k!r} escapes the target")
    if errs:
        return errs
    for name, dst, src in shape.arrows:
        here, there, t = comps[dst], comps[src], tgt_tables[name]
        for x, y in enumerate(tables[name]):
            if there[y] != t[here[x]]:
                errs.append(f"naturality fails along {name!r} at {x}")
                break
    return errs


def _identity(keys: Iterable, sizes: Mapping) -> dict:
    return {k: tuple(range(sizes[k])) for k in keys}


def _functors(shape: _Shape, caps: Sequence[int]) -> Iterator[tuple[dict, dict]]:
    """Every functor on ``shape`` with carriers of size at most ``caps``,
    one cap per key in key order, as sizes and tables (the proper arrows',
    then the identities'): sizes, then the tables of the proper arrows,
    lexicographically.

    Functors are searched with their laws, not filtered: the proper arrows
    take their tables in turn, and a law between two of them is checked
    as soon as its last arrow has a table.  A composite whose factors have
    tables takes theirs composed, the one table that law keeps.
    """
    names = [n for n, _, _ in shape.proper]
    step = {n: k for k, n in enumerate(names)}
    checks, forced = [[] for _ in names], [None] * len(names)
    for a2, a1, a21 in shape.triples:
        if a2 in step and a1 in step:
            k = max(step[a2], step[a1], step.get(a21, -1))
            if forced[k] is None and step.get(a21) == k > max(step[a2], step[a1]):
                forced[k] = (a2, a1)
            else:
                checks[k].append((a2, a1, a21))
    tables: dict = dict.fromkeys(names)

    def fill(k: int, domains: list) -> Iterator[dict]:
        if k == len(names):
            yield dict(tables)
            return
        a = forced[k]
        for t in domains[k] if a is None else [tuple(map(tables[a[1]].__getitem__, tables[a[0]]))]:
            tables[names[k]] = t
            if all(tuple(map(tables[a1].__getitem__, tables[a2])) == tables[a21]
                   for a2, a1, a21 in checks[k]):
                yield from fill(k + 1, domains)

    for sizes_t in iproduct(*(range(n + 1) for n in caps)):
        sizes = dict(zip(shape.keys, sizes_t))
        tables.update((n, tuple(range(sizes[k]))) for n, k in shape.ids)
        domains = [list(iproduct(range(sizes[s]), repeat=sizes[d])) for _, d, s in shape.proper]
        for t in fill(0, domains):
            yield sizes, t


def _product(shape: _Shape, sizes: Mapping, tables: Mapping, sizes2: Mapping,
             tables2: Mapping) -> tuple[dict, dict]:
    """Sizes and tables of the product of two functors on ``shape``; the
    pair ``(x, y)`` is numbered ``x * sizes2[k] + y``."""
    out = {}
    for name, _, src in shape.arrows:
        t2, n = tables2[name], sizes2[src]
        out[name] = tuple(x * n + y for x in tables[name] for y in t2)
    return {k: sizes[k] * sizes2[k] for k in shape.keys}, out


def _projections(keys: Iterable, sizes: Mapping, sizes2: Mapping) -> tuple[dict, dict]:
    """Components of the two projections out of :func:`_product`."""
    return ({k: tuple(x for x in range(sizes[k]) for _ in range(sizes2[k])) for k in keys},
            {k: tuple(range(sizes2[k])) * sizes[k] for k in keys})


def _subfunctor(shape: _Shape, tables: Mapping, sel: Mapping,
                error: type[Exception] = ValueError) -> tuple[dict, dict, dict]:
    """The subfunctor at the elements ``sel[k]``, renumbered canonically:
    sizes, tables and the components of its inclusion.  A selection not
    closed under restriction raises ``error``."""
    keep = {k: tuple(sorted(sel.get(k, frozenset()))) for k in shape.keys}
    index = {k: {x: n for n, x in enumerate(v)} for k, v in keep.items()}
    out = {}
    for name, dst, src in shape.arrows:
        t, pos = tables[name], index[src]
        col = []
        for x in keep[dst]:
            y = pos.get(t[x])
            if y is None:
                raise error(f"selection not closed under {name!r} at {x}")
            col.append(y)
        out[name] = tuple(col)
    return {k: len(v) for k, v in keep.items()}, out, keep


class _Plan(NamedTuple):
    """How the natural maps out of one functor are enumerated, whatever
    their target: the key of each flat slot, the ``ends`` that cut a flat
    family into components (slot ``(k, x)`` sits at ``at[k] + x``) and a
    naturality rule ``(slot, slot, arrow name)`` per proper arrow and
    element.  A plan holds no target data, so one serves every target."""

    keys: tuple
    ends: list[int]
    at: dict
    rules: tuple

    def families(self, sizes: Mapping, tables: Mapping, doms: Sequence | None = None,
                 checks: Sequence = ()) -> list[tuple[int, ...]]:
        """The families into a functor with these sizes and tables, by the
        module global :func:`enumerate_families`, with ``checks`` added."""
        if doms is None:
            doms = [range(sizes[k]) for k in self.keys]
        return enumerate_families(self.ends[-1], doms, [
            *checks, *[(i, j, tables[name]) for i, j, name in self.rules]])


def _new_plan(shape: _Shape, sizes: Mapping, tables: Mapping) -> _Plan:
    ends = list(accumulate((sizes[k] for k in shape.keys), initial=0))
    at = dict(zip(shape.keys, ends))
    return _Plan(tuple(k for k in shape.keys for _ in range(sizes[k])), ends, at,
                 tuple((at[dst] + x, at[src] + y, name) for name, dst, src in shape.proper
                       for x, y in enumerate(tables[name])))


def _plan(source) -> _Plan:
    """The plan of a presheaf or a type, built on first use and kept on it."""
    if source._plan is None:
        object.__setattr__(source, "_plan", _new_plan(*source._tables()[1:]))
    return source._plan


def _components(keys: Sequence, ends: Sequence[int], fam: tuple[int, ...]) -> dict:
    """The components of a flat family, cut at ``ends``, by key."""
    return {k: fam[a:b] for k, a, b in zip(keys, ends, ends[1:])}


def _fibers_within(ends: Sequence[int], fam: tuple[int, ...], bound: int) -> bool:
    """Whether no component of a flat family repeats a value over ``bound`` times."""
    return all(b - a <= bound or max(map(fam[a:b].count, fam[a:b])) <= bound
               for a, b in zip(ends, ends[1:]))


def _flat_maps(source, target, domains: dict | Sequence | None = None,
               rules: Iterable = ()) -> tuple[list[int], list[tuple[int, ...]]]:
    """Every natural map between two presheaves, or two types, as the flat
    families of the source's plan in canonical order, with its ``ends``;
    a call binds only the target's sizes and tables.  ``domains`` may
    narrow slots to sorted sequences of target values, as a dict on slots
    ``(k, x)`` or one sequence per flat slot, and a rule ``(s, t, table)``
    on slots asks ``m[t] == table[m[s]]``.  Narrowing only drops families,
    so those left keep their order."""
    plan = _plan(source)
    _, _, sizes, tables = target._tables()
    at = plan.at
    doms = domains
    if isinstance(domains, dict):
        doms = [range(sizes[k]) for k in plan.keys]
        for (k, x), dom in domains.items():
            doms[at[k] + x] = dom
    return plan.ends, plan.families(sizes, tables, doms, [
        (at[s[0]] + s[1], at[t[0]] + t[1], table) for (s, t, table) in rules])


def _sections(shape: _Shape, sizes: Mapping, tables: Mapping) -> list[dict]:
    """Every natural choice of one element per key: the maps from the
    one-point functor, one slot per key, canonically ordered."""
    return [dict(zip(shape.keys, fam))
            for fam in _new_plan(shape, *_point(shape)).families(sizes, tables)]


@dataclass(frozen=True)
class Presheaf:
    """A presheaf ``P`` on ``base`` with ``P(I) = range(sizes[I])``.

    ``action[f]`` for ``f : I -> J`` is the restriction function
    ``P(J) -> P(I)`` stored as a tuple indexed by elements of ``P(J)``.
    """

    base: FinCat
    sizes: Mapping[str, int]
    action: Mapping[str, tuple[int, ...]]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    # the shape of types over this presheaf as a context
    _shape: _Shape | None = field(default=None, init=False, repr=False, compare=False)
    _plan: _Plan | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sizes", dict(self.sizes))
        object.__setattr__(self, "action",
                           {m: tuple(t) for m, t in dict(self.action).items()})

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Presheaf):
            return NotImplemented
        return (self.base == other.base and self.sizes == other.sizes
                and self.action == other.action)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((tuple(sorted(self.sizes.items())),
                                                    tuple(sorted(self.action.items())))))
        return self._hash

    def elements(self, obj: str) -> range:
        return range(self.sizes[obj])

    def act(self, f: str, x: int) -> int:
        """Restriction of ``x in P(dst f)`` along ``f``."""
        return self.action[f][x]

    def _tables(self) -> tuple:
        """What the table core reads: the category, its shape, the
        carrier sizes and the restriction tables."""
        return self.base, _shape(self.base), self.sizes, self.action

    def validate(self) -> list[str]:
        return _functor_errors(_shape(self.base), self.sizes, self.action)

    def assert_valid(self):
        errs = self.validate()
        if errs:
            raise PresheafError("presheaf: " + "; ".join(errs[:8]))
        return self


@dataclass(frozen=True)
class _NaturalMap:
    """A natural map between two functors on one shape, one component
    table per key.

    A subclass names its error class ``_error``, its ``_label`` and the
    ``_apart`` message for functors on different shapes; its source and
    target give their anchor (the category or the context), shape, sizes
    and tables through ``_tables()``.
    """

    source: object
    target: object
    component: Mapping[object, tuple[int, ...]]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "component",
                           {k: tuple(t) for k, t in dict(self.component).items()})

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.component == other.component)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(tuple(sorted(self.component.items()))))
        return self._hash

    def validate(self) -> list[str]:
        anchor, shape, sizes, tables = self.source._tables()
        tgt_anchor, _, tgt_sizes, tgt_tables = self.target._tables()
        if anchor != tgt_anchor:
            return [self._apart]
        return _natural_errors(shape, sizes, tables, tgt_sizes, tgt_tables, self.component)

    def assert_valid(self):
        errs = self.validate()
        if errs:
            raise self._error(f"{self._label}: " + "; ".join(errs[:8]))
        return self

    def is_iso(self) -> bool:
        sizes = self.target._tables()[2]
        return all(len(set(t)) == len(t) == sizes[k] for k, t in self.component.items())

    def inverse(self) -> "_NaturalMap":
        assert self.is_iso(), f"{self._label} is not an isomorphism"
        return type(self)(self.target, self.source,
                          {k: tuple(sorted(range(len(t)), key=t.__getitem__))
                           for k, t in self.component.items()})


class PresheafMap(_NaturalMap):
    """A natural transformation, one function per object."""

    _error, _label = PresheafError, "presheaf map"
    _apart = "source and target live over different categories"

    def apply(self, obj: str, x: int) -> int:
        return self.component[obj][x]


def identity_map(p: Presheaf) -> PresheafMap:
    return PresheafMap(p, p, _identity(p.base.objects, p.sizes))


def compose_maps(g: _NaturalMap, f: _NaturalMap) -> _NaturalMap:
    """``g . f``, a map of the class of its arguments."""
    assert f.target == g.source, f"{f._label}s not composable"
    return type(f)(f.source, g.target,
                   {k: tuple(map(g.component[k].__getitem__, t)) for k, t in f.component.items()})


def constant_presheaf(c: FinCat, n: int) -> Presheaf:
    return Presheaf(c, {o: n for o in c.objects},
                    {m: tuple(range(n)) for m in c.morphisms})


def terminal_presheaf(c: FinCat) -> Presheaf:
    return constant_presheaf(c, 1)


# ---------------------------------------------------------------------------
# Yoneda


def yoneda(c: FinCat, i: str) -> Presheaf:
    """The representable ``y(i)``; carriers follow hom-list order."""
    sizes = {j: len(c.hom(j, i)) for j in c.objects}
    action = {}
    for g in c.morphisms:
        k, j = c.src[g], c.dst[g]
        hom_j, hom_k = c.hom(j, i), c.hom(k, i)
        action[g] = tuple(hom_k.index(c.compose(f, g)) for f in hom_j)
    return Presheaf(c, sizes, action)


def yoneda_index(c: FinCat, i: str, f: str) -> int:
    """Position of ``f : J -> i`` inside ``y(i)(J)``."""
    return c.hom(c.src[f], i).index(f)


def yoneda_map(c: FinCat, f: str) -> PresheafMap:
    """``y(f) : y(src f) -> y(dst f)`` by postcomposition."""
    i, i2 = c.src[f], c.dst[f]
    yi, yi2 = yoneda(c, i), yoneda(c, i2)
    comp = {j: tuple(yoneda_index(c, i2, c.compose(f, g)) for g in c.hom(j, i))
            for j in c.objects}
    return PresheafMap(yi, yi2, comp)


# ---------------------------------------------------------------------------
# Category of elements


@dataclass(frozen=True)
class Elements:
    """The category of elements of a presheaf.

    Objects are named ``"I#x"`` for ``x in P(I)``; the morphism
    ``(I, P(f)(y)) -> (J, y)`` over ``f : I -> J`` is named ``"f#y"``.
    """

    cat: FinCat
    presheaf: Presheaf


def category_of_elements(p: Presheaf) -> Elements:
    """The category of elements built from the shape of ``p`` as a context,
    the key ``(I, x)`` and the arrow ``(f, y)`` named ``"I#x"`` and ``"f#y"``."""
    sh = _elements_shape(p)
    name = "{0[0]}#{0[1]}".format
    src = {name(a): name(s) for a, _, s in sh.arrows}
    dst = {name(a): name(d) for a, d, _ in sh.arrows}
    cat = FinCat(f"el[{p.base.name}]", tuple(map(name, sh.keys)), tuple(src), src, dst,
                 {name(k): name(a) for a, k in sh.ids},
                 {(name(a2), name(a1)): name(a21) for a2, a1, a21 in sh.triples})
    return Elements(cat, p)


# ---------------------------------------------------------------------------
# Hom-set enumeration, subobjects


def hom_maps(p: Presheaf, q: Presheaf,
             domains: Mapping[tuple[str, int], Sequence[int]] | None = None,
             rules: Iterable[tuple[tuple[str, int], tuple[str, int], Sequence[int]]] = ()
             ) -> list[PresheafMap]:
    """Every natural transformation ``p -> q``, canonically ordered.
    ``domains`` and ``rules`` on the slots ``(o, x)`` narrow the
    enumeration and keep its order (:func:`_flat_maps`)."""
    ends, families = _flat_maps(p, q, domains, rules)
    return [PresheafMap(p, q, _components(p.base.objects, ends, f)) for f in families]


def mono_maps(p: Presheaf, q: Presheaf) -> list[PresheafMap]:
    """The maps of ``hom_maps`` with injective components; only those are built."""
    ends, families = _flat_maps(p, q)
    return [PresheafMap(p, q, _components(p.base.objects, ends, f))
            for f in families if _fibers_within(ends, f, 1)]


def iso_maps(p: Presheaf, q: Presheaf) -> list[PresheafMap]:
    """The isomorphisms ``p -> q``: monos between carriers of equal sizes."""
    return mono_maps(p, q) if p.sizes == q.sizes else []


def subpresheaves(p: Presheaf) -> list[dict[str, frozenset[int]]]:
    """All subfunctors, as per-object subsets closed under the action:
    a subset is kept while the action maps it into the chosen ones."""
    c = p.base
    objs = list(c.objects)
    out = []

    def go(k: int, sel: dict[str, frozenset[int]]):
        if k == len(objs):
            out.append(dict(sel))
            return
        o = objs[k]
        n = p.sizes[o]
        for mask in range(1 << n):
            sel[o] = frozenset(x for x in range(n) if mask >> x & 1)
            if all(p.act(f, x) in sel[c.src[f]] for f in c.morphisms
                   if c.dst[f] in sel and c.src[f] in sel for x in sel[c.dst[f]]):
                go(k + 1, sel)
        del sel[o]

    go(0, {})
    return out


def sub_presheaf(p: Presheaf, sel: Mapping[str, frozenset[int]]) -> tuple[Presheaf, PresheafMap]:
    """Renumber a subpresheaf canonically and return it with its inclusion."""
    sizes, action, keep = _subfunctor(_shape(p.base), p.action, sel)
    s = Presheaf(p.base, sizes, action)
    return s, PresheafMap(s, p, keep).assert_valid()


# ---------------------------------------------------------------------------
# Finite limits with canonical carriers


@dataclass(frozen=True)
class Product:
    presheaf: Presheaf
    left: Presheaf
    right: Presheaf
    fst: PresheafMap
    snd: PresheafMap

    def pair_index(self, obj: str, x: int, y: int) -> int:
        return x * self.right.sizes[obj] + y

    def tuple_map(self, f: PresheafMap, g: PresheafMap) -> PresheafMap:
        """The induced map ``<f, g>`` out of a common source."""
        assert f.source == g.source
        comp = {o: tuple(self.pair_index(o, f.component[o][v], g.component[o][v])
                         for v in range(f.source.sizes[o]))
                for o in f.source.base.objects}
        return PresheafMap(f.source, self.presheaf, comp)


def product(p: Presheaf, q: Presheaf) -> Product:
    c = p.base
    pr = Presheaf(c, *_product(_shape(c), p.sizes, p.action, q.sizes, q.action))
    fst, snd = _projections(c.objects, p.sizes, q.sizes)
    return Product(pr, p, q, PresheafMap(pr, p, fst), PresheafMap(pr, q, snd))


@dataclass(frozen=True)
class PullbackSquare:
    presheaf: Presheaf
    to_left: PresheafMap    # into the source of f
    to_right: PresheafMap   # into the source of g
    f: PresheafMap
    g: PresheafMap
    pairs: Mapping[str, tuple[tuple[int, int], ...]]
    index: Mapping[str, Mapping[tuple[int, int], int]]   # inverts ``pairs``

    def pair_index(self, obj: str, x: int, y: int) -> int:
        return self.index[obj][(x, y)]


def pullback(f: PresheafMap, g: PresheafMap) -> PullbackSquare:
    """The pullback of ``f`` and ``g`` over their common target."""
    assert f.target == g.target, "pullback needs a cospan"
    c = f.source.base
    pairs = {o: tuple((x, y) for x in f.source.elements(o) for y in g.source.elements(o)
                      if f.component[o][x] == g.component[o][y])
             for o in c.objects}
    sizes = {o: len(pairs[o]) for o in c.objects}
    index = {o: {xy: k for k, xy in enumerate(pairs[o])} for o in c.objects}
    action = {}
    for m in c.morphisms:
        i, j = c.src[m], c.dst[m]
        action[m] = tuple(index[i][(f.source.act(m, x), g.source.act(m, y))]
                          for (x, y) in pairs[j])
    pb = Presheaf(c, sizes, action)
    to_left = PresheafMap(pb, f.source, {o: tuple(x for (x, _) in pairs[o]) for o in c.objects})
    to_right = PresheafMap(pb, g.source, {o: tuple(y for (_, y) in pairs[o]) for o in c.objects})
    return PullbackSquare(pb, to_left, to_right, f, g, pairs, index)


# ---------------------------------------------------------------------------
# Subobject classifier


@dataclass(frozen=True)
class Omega:
    """The sieve classifier: ``Omega(I)`` is the set of sieves on ``I``."""

    presheaf: Presheaf
    sieves: Mapping[str, tuple[frozenset[str], ...]]

    def index(self, obj: str, sieve: frozenset[str]) -> int:
        return self.sieves[obj].index(sieve)

    def truth(self) -> PresheafMap:
        c = self.presheaf.base
        one = terminal_presheaf(c)
        return PresheafMap(one, self.presheaf,
                           {o: (self.index(o, maximal_sieve(c, o)),) for o in c.objects})


def subobject_classifier(c: FinCat) -> Omega:
    sieves = {o: all_sieves(c, o) for o in c.objects}
    sizes = {o: len(sieves[o]) for o in c.objects}
    action = {}
    for f in c.morphisms:
        i, j = c.src[f], c.dst[f]
        action[f] = tuple(sieves[i].index(pullback_sieve(c, s, f)) for s in sieves[j])
    return Omega(Presheaf(c, sizes, action).assert_valid(), sieves)


def characteristic_map(om: Omega, p: Presheaf, sub: Mapping[str, frozenset[int]]) -> PresheafMap:
    """Classify a subpresheaf of ``p`` as a map into the sieve classifier."""
    c = p.base
    comp = {}
    for i in c.objects:
        vals = []
        for x in p.elements(i):
            s = frozenset(f for f in c.morphisms_into(i) if p.act(f, x) in sub[c.src[f]])
            vals.append(om.index(i, s))
        comp[i] = tuple(vals)
    return PresheafMap(p, om.presheaf, comp).assert_valid()


def subobject_of_char(om: Omega, chi: PresheafMap) -> dict[str, frozenset[int]]:
    """The subpresheaf classified by ``chi : P -> Omega`` (pullback of truth)."""
    c = chi.source.base
    top = {o: om.index(o, maximal_sieve(c, o)) for o in c.objects}
    return {o: frozenset(x for x in chi.source.elements(o)
                         if chi.component[o][x] == top[o])
            for o in c.objects}


# ---------------------------------------------------------------------------
# Kan adjunction along a functor u : A -> C


@dataclass(frozen=True)
class Ran:
    """Right Kan extension data for one presheaf: carriers are natural
    families over slots ``(J in A, f : u(J) -> I)``."""

    presheaf: Presheaf
    tables: Mapping[str, FamilyTable]

    def family(self, obj: str, idx: int) -> tuple[int, ...]:
        return self.tables[obj].families[idx]

    def family_index(self, obj: str, fam: tuple[int, ...]) -> int:
        return self.tables[obj].family_pos[fam]

    def slot_index(self, obj: str, j: str, f: str) -> int:
        return self.tables[obj].slot_pos[(j, f)]


class KanAdjunction:
    """Restriction ``u^*`` (left) and right Kan extension ``u_*`` (right)
    along a functor ``u : A -> C`` between table categories.

    ``u^*`` is strict precomposition; ``u_*`` materializes limit carriers
    as canonical family tuples.  The unit and counit are computed
    pointwise and checked by the law suites.
    """

    def __init__(self, u: Functor):
        u.assert_valid()
        self.u = u
        self.small = u.source   # A
        self.big = u.target     # C
        self._ran_cache: dict[Presheaf, Ran] = {}

    # restriction -----------------------------------------------------------
    def restrict(self, p: Presheaf) -> Presheaf:
        assert p.base == self.big
        a = self.small
        return Presheaf(a, {x: p.sizes[self.u.obj_map[x]] for x in a.objects},
                        {m: p.action[self.u.mor_map[m]] for m in a.morphisms})

    def restrict_map(self, m: PresheafMap) -> PresheafMap:
        a = self.small
        return PresheafMap(self.restrict(m.source), self.restrict(m.target),
                           {x: m.component[self.u.obj_map[x]] for x in a.objects})

    # right Kan extension ----------------------------------------------------
    def ran(self, q: Presheaf) -> Ran:
        assert q.base == self.small
        cached = self._ran_cache.get(q)
        if cached is not None:
            return cached
        a, c, u = self.small, self.big, self.u
        tables = {}
        for i in c.objects:
            sl = [(j, f) for j in a.objects for f in c.hom(u.obj_map[j], i)]
            rules = [((j, f), (a.src[d], c.compose(f, u.mor_map[d])), q.action[d])
                     for (j, f) in sl for d in a.morphisms
                     if a.dst[d] == j and not a.is_identity(d)]
            tables[i] = FamilyTable(sl, [q.sizes[j] for (j, _) in sl], rules)
        sizes = {i: len(tables[i].families) for i in c.objects}
        action = {g: tables[c.dst[g]].restriction(
                      tables[c.src[g]],
                      [(j, c.compose(g, f)) for (j, f) in tables[c.src[g]].slots])
                  for g in c.morphisms}
        out = Ran(Presheaf(c, sizes, action), tables)
        self._ran_cache[q] = out
        return out

    def ran_map(self, m: PresheafMap) -> PresheafMap:
        rq, rq2 = self.ran(m.source), self.ran(m.target)
        c = self.big
        comp = {}
        for i in c.objects:
            t, pos = rq.tables[i], rq2.tables[i].family_pos
            cols = [m.component[j] for (j, _) in t.slots]
            comp[i] = tuple(pos[tuple(col[v] for col, v in zip(cols, fam))]
                            for fam in t.families)
        return PresheafMap(rq.presheaf, rq2.presheaf, comp)

    # unit and counit ---------------------------------------------------------
    def unit(self, p: Presheaf) -> PresheafMap:
        """``P -> u_* u^* P`` on a presheaf over the big category."""
        r = self.ran(self.restrict(p))
        c = self.big
        comp = {}
        for i in c.objects:
            vals = []
            for x in p.elements(i):
                fam = tuple(p.act(f, x) for (_, f) in r.tables[i].slots)
                vals.append(r.family_index(i, fam))
            comp[i] = tuple(vals)
        return PresheafMap(p, r.presheaf, comp)

    def counit(self, q: Presheaf) -> PresheafMap:
        """``u^* u_* Q -> Q`` on a presheaf over the small category."""
        r = self.ran(q)
        a = self.small
        rest = self.restrict(r.presheaf)
        comp = {}
        for x in a.objects:
            i = self.u.obj_map[x]
            k = r.slot_index(i, x, self.big.id(i))
            comp[x] = tuple(r.family(i, v)[k] for v in range(rest.sizes[x]))
        return PresheafMap(rest, q, comp)


# ---------------------------------------------------------------------------
# Sheaf condition


@dataclass(frozen=True)
class SheafReport:
    is_sheaf: bool
    failures: tuple[dict, ...]

    def uniqueness_failures(self):
        return [f for f in self.failures if f["kind"] == "uniqueness failure"]


def matching_families(site: Site, p: Presheaf, obj: str, sieve: frozenset[str]) -> list[dict[str, int]]:
    """All matching families for a sieve, as maps from member morphisms:
    the sections of ``p`` over the elements of the sieve, whose keys are
    its members and whose arrow ``(m, g)`` runs from ``m`` to ``m . g``."""
    c = site.cat
    members = sorted(sieve)
    arrows = [((m, g), m, c.compose(m, g)) for m in members for g in c.morphisms
              if c.dst[g] == c.src[m] and not c.is_identity(g)]
    return _sections(_Shape(members, arrows, (), arrows, ()),
                     {m: p.sizes[c.src[m]] for m in members},
                     {(m, g): p.action[g] for (m, g), _, _ in arrows})


def amalgamations(p: Presheaf, obj: str, family: Mapping[str, int]) -> list[int]:
    return [x for x in p.elements(obj)
            if all(p.act(m, x) == v for m, v in family.items())]


def sheaf_check(site: Site, p: Presheaf) -> SheafReport:
    """Check unique amalgamation for every covering sieve and matching family."""
    failures = []
    for obj in site.cat.objects:
        for sieve in site.covering(obj):
            for fam in matching_families(site, p, obj, sieve):
                ams = amalgamations(p, obj, fam)
                if len(ams) != 1:
                    failures.append({"kind": "uniqueness failure" if ams else "existence failure",
                                     "object": obj, "sieve": tuple(sorted(sieve)), "family": fam,
                                     "amalgamations": tuple(ams)})
    return SheafReport(not failures, tuple(failures))
