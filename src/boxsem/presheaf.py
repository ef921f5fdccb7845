"""Finite-set-valued presheaves over a table category.

Carriers are always the canonical sets ``{0, ..., n-1}``; every
construction renumbers its result canonically, which is what makes all
the strictness claims downstream (substitution, universes, comonads)
hold as data equality rather than up to isomorphism.

The workhorse is :func:`enumerate_families`, a small backtracking
enumerator for tuples with per-slot domains subject to
``fam[j] == table[fam[i]]`` rules.  Right Kan extensions, dependent
products and natural maps (:func:`natural_components`) are all the same
enumeration with different slots;
:class:`FamilyTable` packages one such enumeration with dict indexes on
both its slots and its families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .fincat import FinCat, Functor, Site


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
    checked as soon as both endpoints are assigned, which prunes hard
    enough for every instance we build.
    """
    by_slot: list[list[tuple[int, int, Sequence[int]]]] = [[] for _ in range(n_slots)]
    for (i, j, table) in rules:
        by_slot[max(i, j)].append((i, j, table))
    out = []
    fam = [0] * n_slots

    def consistent(k: int) -> bool:
        for (i, j, table) in by_slot[k]:
            if fam[j] != table[fam[i]]:
                return False
        return True

    def go(k: int):
        if k == n_slots:
            out.append(tuple(fam))
            return
        for v in domains[k]:
            fam[k] = v
            if consistent(k):
                go(k + 1)
        fam[k] = 0

    go(0)
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

    def size(self, obj: str) -> int:
        return self.sizes[obj]

    def elements(self, obj: str) -> range:
        return range(self.sizes[obj])

    def act(self, f: str, x: int) -> int:
        """Restriction of ``x in P(dst f)`` along ``f``."""
        return self.action[f][x]

    def validate(self) -> list[str]:
        c = self.base
        errs = []
        for o in c.objects:
            if self.sizes.get(o, -1) < 0:
                errs.append(f"missing carrier size at {o!r}")
        for f in c.morphisms:
            t = self.action.get(f)
            if t is None:
                errs.append(f"missing action along {f!r}")
                continue
            if len(t) != self.sizes[c.dst[f]]:
                errs.append(f"action along {f!r} has wrong domain size")
                continue
            if any(not (0 <= v < self.sizes[c.src[f]]) for v in t):
                errs.append(f"action along {f!r} escapes its codomain")
        if errs:
            return errs
        for o in c.objects:
            if self.action[c.id(o)] != tuple(range(self.sizes[o])):
                errs.append(f"identity action at {o!r} is not the identity")
        for g in c.morphisms:
            for f in c.morphisms:
                if c.dst[f] != c.src[g]:
                    continue
                gf = c.compose(g, f)
                got = tuple(self.action[f][self.action[g][z]]
                            for z in range(self.sizes[c.dst[g]]))
                if got != self.action[gf]:
                    errs.append(f"contravariant functoriality fails at ({g!r}, {f!r})")
        return errs

    def assert_valid(self):
        errs = self.validate()
        if errs:
            raise PresheafError("presheaf: " + "; ".join(errs[:8]))
        return self


@dataclass(frozen=True)
class PresheafMap:
    """A natural transformation, one function per object."""

    source: Presheaf
    target: Presheaf
    component: Mapping[str, tuple[int, ...]]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "component",
                           {o: tuple(t) for o, t in dict(self.component).items()})

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PresheafMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.component == other.component)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(tuple(sorted(self.component.items()))))
        return self._hash

    def apply(self, obj: str, x: int) -> int:
        return self.component[obj][x]

    def validate(self) -> list[str]:
        if self.source.base != self.target.base:
            return ["source and target live over different categories"]
        c = self.source.base
        errs = []
        for o in c.objects:
            t = self.component.get(o)
            if t is None or len(t) != self.source.sizes[o]:
                errs.append(f"bad component at {o!r}")
            elif any(not (0 <= v < self.target.sizes[o]) for v in t):
                errs.append(f"component at {o!r} escapes the target")
        if errs:
            return errs
        for f in c.morphisms:
            i, j = c.src[f], c.dst[f]
            for x in range(self.source.sizes[j]):
                if self.component[i][self.source.act(f, x)] != \
                        self.target.act(f, self.component[j][x]):
                    errs.append(f"naturality fails along {f!r} at {x}")
                    break
        return errs

    def assert_valid(self):
        errs = self.validate()
        if errs:
            raise PresheafError("presheaf map: " + "; ".join(errs[:8]))
        return self

    def is_mono(self) -> bool:
        return all(len(set(self.component[o])) == self.source.sizes[o]
                   for o in self.source.base.objects)

    def is_iso(self) -> bool:
        return self.is_mono() and all(
            self.source.sizes[o] == self.target.sizes[o]
            for o in self.source.base.objects)

    def inverse(self) -> "PresheafMap":
        assert self.is_iso(), "not an isomorphism"
        comp = {}
        for o in self.source.base.objects:
            inv = [0] * self.target.sizes[o]
            for x, y in enumerate(self.component[o]):
                inv[y] = x
            comp[o] = tuple(inv)
        return PresheafMap(self.target, self.source, comp)


def identity_map(p: Presheaf) -> PresheafMap:
    return PresheafMap(p, p, {o: tuple(range(p.sizes[o])) for o in p.base.objects})


def compose_maps(g: PresheafMap, f: PresheafMap) -> PresheafMap:
    assert f.target == g.source, "presheaf maps not composable"
    return PresheafMap(f.source, g.target,
                       {o: tuple(g.component[o][v] for v in f.component[o])
                        for o in f.source.base.objects})


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
    c = p.base
    objs = [f"{o}#{x}" for o in c.objects for x in p.elements(o)]
    src, dst, arrows = {}, {}, []
    for f in c.morphisms:
        i, j = c.src[f], c.dst[f]
        for y in p.elements(j):
            n = f"{f}#{y}"
            arrows.append(n)
            src[n] = f"{i}#{p.act(f, y)}"
            dst[n] = f"{j}#{y}"
    identity = {f"{o}#{x}": f"{c.id(o)}#{x}" for o in c.objects for x in p.elements(o)}
    table = {}
    for g in c.morphisms:
        for f in c.morphisms:
            if c.dst[f] != c.src[g]:
                continue
            gf = c.compose(g, f)
            for z in p.elements(c.dst[g]):
                # g#z : (dst f, P(g) z) -> (dst g, z), precompose with f#(P(g) z)
                table[(f"{g}#{z}", f"{f}#{p.act(g, z)}")] = f"{gf}#{z}"
    cat = FinCat(f"el[{c.name}]", tuple(objs), tuple(arrows), src, dst, identity, table)
    return Elements(cat, p)


# ---------------------------------------------------------------------------
# Hom-set enumeration, subobjects


def natural_components(src: Mapping, dst: Mapping,
                       arrows: Iterable[tuple[object, object, Sequence[int], Sequence[int]]],
                       domains: Mapping[tuple, Sequence[int]] | None = None,
                       rules: Iterable[tuple[tuple, tuple, Sequence[int]]] = ()
                       ) -> list[dict]:
    """Every natural family of functions ``m[k] : src[k] -> dst[k]`` on
    canonical carriers, as one column per key of ``src``, in canonical order.

    Slot ``(k, x)`` holds ``m[k][x]`` for ``x < src[k]``, slots in the key
    order of ``src``; an arrow ``(k, k2, s, t)`` asks ``m[k2][s[x]] ==
    t[m[k][x]]``.  ``domains`` may narrow a slot to a sorted sequence drawn
    from ``range(dst[k])``, and a rule ``(s, t, table)`` on slots asks
    ``m[t] == table[m[s]]``.  :func:`enumerate_families` is lexicographic
    over the slots and narrowing only drops families, so those left keep
    their order.
    """
    slots = [(k, x) for k, n in src.items() for x in range(n)]
    index = {s: n for n, s in enumerate(slots)}
    doms = [range(dst[k]) for (k, _) in slots]
    for s, dom in (domains or {}).items():
        doms[index[s]] = dom
    checks = [(index[s], index[t], table) for (s, t, table) in rules]
    checks += [(index[(k, x)], index[(k2, s[x])], t)
               for (k, k2, s, t) in arrows for x in range(src[k])]
    ends = list(accumulate(src.values(), initial=0))
    return [{k: fam[a:b] for k, a, b in zip(src, ends, ends[1:])}
            for fam in enumerate_families(len(slots), doms, checks)]


def hom_maps(p: Presheaf, q: Presheaf,
             domains: Mapping[tuple[str, int], Sequence[int]] | None = None,
             rules: Iterable[tuple[tuple[str, int], tuple[str, int], Sequence[int]]] = ()
             ) -> list[PresheafMap]:
    """Every natural transformation ``p -> q``, canonically ordered: the
    :func:`natural_components` at the objects, one arrow per non-identity
    morphism.  ``domains`` and ``rules`` on the slots ``(o, x)`` narrow the
    enumeration and keep its order."""
    c = p.base
    arrows = [(c.dst[f], c.src[f], p.action[f], q.action[f])
              for f in c.morphisms if not c.is_identity(f)]
    return [PresheafMap(p, q, comp) for comp in natural_components(
        {o: p.sizes[o] for o in c.objects}, q.sizes, arrows, domains, rules)]


def iso_maps(p: Presheaf, q: Presheaf) -> list[PresheafMap]:
    return [m for m in hom_maps(p, q) if m.is_iso()]


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


def mono_maps(p: Presheaf, q: Presheaf) -> list[PresheafMap]:
    return [m for m in hom_maps(p, q) if m.is_mono()]


def sub_presheaf(p: Presheaf, sel: Mapping[str, frozenset[int]]) -> tuple[Presheaf, PresheafMap]:
    """Renumber a subpresheaf canonically and return it with its inclusion."""
    c = p.base
    keep = {o: tuple(sorted(sel.get(o, frozenset()))) for o in c.objects}
    index = {o: {x: k for k, x in enumerate(keep[o])} for o in c.objects}
    sizes = {o: len(keep[o]) for o in c.objects}
    action = {}
    for m in c.morphisms:
        i, j = c.src[m], c.dst[m]
        column = []
        for x in keep[j]:
            y = p.act(m, x)
            if y not in index[i]:
                raise ValueError(f"selection not closed under {m!r} at {x}")
            column.append(index[i][y])
        action[m] = tuple(column)
    s = Presheaf(c, sizes, action)
    inc = PresheafMap(s, p, {o: keep[o] for o in c.objects})
    return s, inc.assert_valid()


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
    sizes = {o: p.sizes[o] * q.sizes[o] for o in c.objects}
    action = {}
    for f in c.morphisms:
        j = c.dst[f]
        action[f] = tuple(p.act(f, v // q.sizes[j]) * q.sizes[c.src[f]] + q.act(f, v % q.sizes[j])
                          for v in range(sizes[j]))
    pr = Presheaf(c, sizes, action)
    fst = PresheafMap(pr, p, {o: tuple(v // q.sizes[o] for v in range(sizes[o]))
                              for o in c.objects})
    snd = PresheafMap(pr, q, {o: tuple(v % q.sizes[o] for v in range(sizes[o]))
                              for o in c.objects})
    return Product(pr, p, q, fst, snd)


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
        from .fincat import maximal_sieve
        return PresheafMap(one, self.presheaf,
                           {o: (self.index(o, maximal_sieve(c, o)),) for o in c.objects})


def subobject_classifier(c: FinCat) -> Omega:
    from .fincat import all_sieves, pullback_sieve
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
    from .fincat import maximal_sieve
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
    the natural maps from the sieve, one point per member, into ``p``."""
    c = site.cat
    members = sorted(sieve)
    arrows = [(m, c.compose(m, g), (0,), p.action[g]) for m in members for g in c.morphisms
              if c.dst[g] == c.src[m] and not c.is_identity(g)]
    return [{m: col[0] for m, col in comp.items()} for comp in natural_components(
        {m: 1 for m in members}, {m: p.sizes[c.src[m]] for m in members}, arrows)]


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
                if len(ams) == 0:
                    failures.append({"kind": "existence failure", "object": obj,
                                     "sieve": tuple(sorted(sieve)), "family": fam,
                                     "amalgamations": tuple(ams)})
                elif len(ams) > 1:
                    failures.append({"kind": "uniqueness failure", "object": obj,
                                     "sieve": tuple(sorted(sieve)), "family": fam,
                                     "amalgamations": tuple(ams)})
    return SheafReport(not failures, tuple(failures))
