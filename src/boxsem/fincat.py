"""Finite categories presented by explicit composition tables.

Objects and morphisms are named by strings.  Two categories are equal
when their tables agree; the comparison short-circuits on identity and
the hash is computed once per category, since the same few categories
are compared over and over downstream.  Every construction in this package
funnels through :class:`FinCat`, and every law we rely on downstream is
checked exhaustively here, by brute force over the tables.  At the sizes
we care about (a handful of objects, tens of morphisms) cubic loops are
perfectly fine and far easier to trust than anything clever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping


class FinCatError(Exception):
    """Raised when category data fails validation."""


def _freeze(pairs):
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class FinCat:
    """A finite category given by tables.

    ``src``/``dst`` assign endpoints to morphism names, ``identity``
    picks the identity at each object, and ``table`` stores composites
    as ``table[(g, f)] = g after f``.  The table must be total on
    composable pairs and only on composable pairs.
    """

    name: str
    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: Mapping[str, str]
    dst: Mapping[str, str]
    identity: Mapping[str, str]
    table: Mapping[tuple[str, str], str]
    _hom: dict = field(default_factory=dict, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)
    # the layout of functors on this category as tables, built by ``presheaf``
    _shape: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "src", dict(self.src))
        object.__setattr__(self, "dst", dict(self.dst))
        object.__setattr__(self, "identity", dict(self.identity))
        object.__setattr__(self, "table", dict(self.table))

    # equality and hashing go through the raw tables; two categories are
    # the same exactly when their string data agrees
    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinCat):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.src == other.src
            and self.dst == other.dst
            and self.identity == other.identity
            and self.table == other.table
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((
                self.objects, self.morphisms, _freeze(self.src.items()),
                _freeze(self.dst.items()), _freeze(self.identity.items()),
                _freeze(self.table.items()))))
        return self._hash

    def id(self, obj: str) -> str:
        return self.identity[obj]

    def compose(self, g: str, f: str) -> str:
        """Composite ``g after f`` (so ``dst(f) == src(g)``)."""
        try:
            return self.table[(g, f)]
        except KeyError:
            raise FinCatError(
                f"{self.name}: no composite for ({g!r} after {f!r})") from None

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        key = (a, b)
        cached = self._hom.get(key)
        if cached is None:
            cached = tuple(m for m in self.morphisms
                           if self.src[m] == a and self.dst[m] == b)
            self._hom[key] = cached
        return cached

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.src[m]) == m

    def morphisms_into(self, obj: str) -> tuple[str, ...]:
        return tuple(m for m in self.morphisms if self.dst[m] == obj)

    def validate(self) -> list[str]:
        """Exhaustive law check; returns a list of violations (empty = ok)."""
        errs = []
        seen = set()
        for m in self.morphisms:
            if m in seen:
                errs.append(f"duplicate morphism name {m!r}")
            seen.add(m)
            if self.src.get(m) not in self.objects:
                errs.append(f"morphism {m!r} has bad source {self.src.get(m)!r}")
            if self.dst.get(m) not in self.objects:
                errs.append(f"morphism {m!r} has bad target {self.dst.get(m)!r}")
        for o in self.objects:
            i = self.identity.get(o)
            if i not in self.morphisms:
                errs.append(f"object {o!r} has no identity morphism")
                continue
            if self.src[i] != o or self.dst[i] != o:
                errs.append(f"identity of {o!r} is not an endomorphism")
        # table totality: defined exactly on composable pairs
        for g in self.morphisms:
            for f in self.morphisms:
                composable = self.dst[f] == self.src[g]
                if composable:
                    gf = self.table.get((g, f))
                    if gf is None:
                        errs.append(f"missing composite ({g!r} after {f!r})")
                    elif gf not in self.morphisms:
                        errs.append(f"composite ({g!r} after {f!r}) = {gf!r} unknown")
                    elif self.src[gf] != self.src[f] or self.dst[gf] != self.dst[g]:
                        errs.append(f"composite ({g!r} after {f!r}) has wrong endpoints")
                elif (g, f) in self.table:
                    errs.append(f"table defined on non-composable pair ({g!r}, {f!r})")
        if errs:
            return errs
        # unit laws
        for f in self.morphisms:
            if self.table[(f, self.identity[self.src[f]])] != f:
                errs.append(f"right unit law fails at {f!r}")
            if self.table[(self.identity[self.dst[f]], f)] != f:
                errs.append(f"left unit law fails at {f!r}")
        # associativity, the O(|Mor|^3) loop
        for f in self.morphisms:
            for g in self.morphisms:
                if self.dst[f] != self.src[g]:
                    continue
                gf = self.table[(g, f)]
                for h in self.morphisms:
                    if self.dst[g] != self.src[h]:
                        continue
                    if self.table[(h, gf)] != self.table[(self.table[(h, g)], f)]:
                        errs.append(
                            f"associativity fails at ({h!r}, {g!r}, {f!r})")
        return errs

    def assert_valid(self):
        errs = self.validate()
        if errs:
            raise FinCatError(f"{self.name}: " + "; ".join(errs[:8]))
        return self


def build_category(name: str, objects: Iterable[str],
                   arrows: Iterable[tuple[str, str, str]],
                   compose: Mapping[tuple[str, str], str]) -> FinCat:
    """Assemble a category from generators-free raw data.

    ``arrows`` lists every non-identity morphism as ``(name, src, dst)``.
    Identities are added automatically as ``id_<obj>`` and composites
    with identities are filled in, so ``compose`` only needs the
    non-identity pairs.
    """
    objects = tuple(objects)
    src, dst = {}, {}
    names = []
    for (m, a, b) in arrows:
        names.append(m)
        src[m] = a
        dst[m] = b
    identity = {}
    for o in objects:
        i = f"id_{o}"
        if i in src:
            raise FinCatError(f"arrow name {i!r} collides with identity")
        identity[o] = i
        src[i] = o
        dst[i] = o
    morphisms = tuple(names) + tuple(identity[o] for o in objects)
    table = dict(compose)
    for f in morphisms:
        table[(f, identity[src[f]])] = f
        table[(identity[dst[f]], f)] = f
    return FinCat(name, objects, morphisms, src, dst, identity, table).assert_valid()


@dataclass(frozen=True)
class Functor:
    """A functor between table categories, itself given by tables."""

    name: str
    source: FinCat
    target: FinCat
    obj_map: Mapping[str, str]
    mor_map: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "obj_map", dict(self.obj_map))
        object.__setattr__(self, "mor_map", dict(self.mor_map))

    def __eq__(self, other):
        if not isinstance(other, Functor):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.obj_map == other.obj_map and self.mor_map == other.mor_map)

    def __hash__(self):
        return hash((_freeze(self.obj_map.items()), _freeze(self.mor_map.items())))

    def validate(self) -> list[str]:
        errs = []
        for o in self.source.objects:
            if self.obj_map.get(o) not in self.target.objects:
                errs.append(f"object {o!r} not mapped into target")
        for m in self.source.morphisms:
            fm = self.mor_map.get(m)
            if fm not in self.target.morphisms:
                errs.append(f"morphism {m!r} not mapped into target")
                continue
            if self.target.src[fm] != self.obj_map[self.source.src[m]]:
                errs.append(f"source endpoint of {m!r} not preserved")
            if self.target.dst[fm] != self.obj_map[self.source.dst[m]]:
                errs.append(f"target endpoint of {m!r} not preserved")
        if errs:
            return errs
        for o in self.source.objects:
            if self.mor_map[self.source.id(o)] != self.target.id(self.obj_map[o]):
                errs.append(f"identity at {o!r} not preserved")
        for g in self.source.morphisms:
            for f in self.source.morphisms:
                if self.source.dst[f] != self.source.src[g]:
                    continue
                lhs = self.mor_map[self.source.compose(g, f)]
                rhs = self.target.compose(self.mor_map[g], self.mor_map[f])
                if lhs != rhs:
                    errs.append(f"composition not preserved at ({g!r}, {f!r})")
        return errs

    def assert_valid(self):
        errs = self.validate()
        if errs:
            raise FinCatError(f"functor {self.name}: " + "; ".join(errs[:8]))
        return self


@dataclass(frozen=True)
class Slice:
    """The slice category over an object, with bookkeeping.

    Objects are the morphisms into ``apex`` (reusing their names), and a
    morphism ``h : f' -> f`` is an ``h`` of the base with ``f о h = f'``.
    Slice morphism names are ``"h@f"`` for the pair that determines them.
    ``proj`` is the evident functor back to the base category.
    """

    cat: FinCat
    base: FinCat
    apex: str
    proj: Functor


def slice_category(c: FinCat, apex: str) -> Slice:
    objs = tuple(c.morphisms_into(apex))
    arrows = {}
    src, dst = {}, {}
    for f in objs:
        for h in c.morphisms:
            if c.dst[h] != c.src[f]:
                continue
            name = f"{h}@{f}"
            arrows[name] = (h, f)
            src[name] = c.compose(f, h)
            dst[name] = f
    identity = {f: f"{c.id(c.src[f])}@{f}" for f in objs}
    table = {}
    for n2, (h2, f2) in arrows.items():
        for n1, (h1, f1) in arrows.items():
            if dst[n1] != src[n2]:
                continue
            # n2 : src[n2] -> f2 with src[n2] = f2 о h2; n1 lands in f1 = src[n2]
            table[(n2, n1)] = f"{c.compose(h2, h1)}@{f2}"
    cat = FinCat(f"{c.name}/{apex}", objs, tuple(arrows), src, dst,
                 identity, table)
    proj = Functor(f"dom[{c.name}/{apex}]", cat, c,
                   {f: c.src[f] for f in objs},
                   {n: arrows[n][0] for n in arrows})
    return Slice(cat, c, apex, proj)


def discrete_subcategory(c: FinCat) -> tuple[FinCat, Functor]:
    """The identity-only subcategory and its inclusion."""
    objs = c.objects
    identity = {o: f"id_{o}" for o in objs}
    sub = FinCat(f"|{c.name}|", objs, tuple(identity[o] for o in objs),
                 {identity[o]: o for o in objs}, {identity[o]: o for o in objs},
                 identity,
                 {(identity[o], identity[o]): identity[o] for o in objs})
    incl = Functor(f"incl[{c.name}]", sub, c,
                   {o: o for o in objs},
                   {identity[o]: c.id(o) for o in objs})
    return sub, incl


def is_sieve(c: FinCat, apex: str, mors: frozenset[str]) -> bool:
    for s in mors:
        if c.dst[s] != apex:
            return False
        for h in c.morphisms:
            if c.dst[h] == c.src[s] and c.compose(s, h) not in mors:
                return False
    return True


def all_sieves(c: FinCat, apex: str) -> tuple[frozenset[str], ...]:
    """Every sieve on ``apex``, in a deterministic order.

    Sieves are grown from below: iterate over subsets of the generating
    morphisms into ``apex`` is exponential, so instead we enumerate all
    subsets of morphisms into the apex and keep the closed ones.  The
    categories we ship are small enough that this stays trivial.
    """
    into = c.morphisms_into(apex)
    found = set()
    for mask in range(1 << len(into)):
        subset = frozenset(into[i] for i in range(len(into)) if mask >> i & 1)
        if is_sieve(c, apex, subset):
            found.add(subset)
    return tuple(sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))


def maximal_sieve(c: FinCat, apex: str) -> frozenset[str]:
    return frozenset(c.morphisms_into(apex))


def pullback_sieve(c: FinCat, sieve: frozenset[str], f: str) -> frozenset[str]:
    """``f^* S = { g with cod(g) = src(f) : f о g in S }``."""
    j = c.src[f]
    return frozenset(g for g in c.morphisms_into(j)
                     if c.compose(f, g) in sieve)


@dataclass(frozen=True)
class Site:
    """A category with distinguished covering sieves per object.

    ``mode`` selects how much we insist on: ``"coverage"`` only checks
    that covers are sieves on the right object, ``"topology"`` checks
    the full Grothendieck package (maximal sieve, pullback stability,
    transitivity).  Both modes always check sieve closure.
    """

    cat: FinCat
    covers: Mapping[str, tuple[frozenset[str], ...]]
    mode: str = "coverage"

    def __post_init__(self):
        object.__setattr__(self, "covers",
                           {o: tuple(v) for o, v in dict(self.covers).items()})

    def covering(self, obj: str) -> tuple[frozenset[str], ...]:
        return self.covers.get(obj, ())

    def validate(self) -> list[str]:
        errs = []
        if self.mode not in ("coverage", "topology"):
            return [f"unknown site mode {self.mode!r}"]
        for o, sieves in self.covers.items():
            if o not in self.cat.objects:
                errs.append(f"covers declared on unknown object {o!r}")
                continue
            for s in sieves:
                if not is_sieve(self.cat, o, s):
                    errs.append(f"cover on {o!r} is not a sieve: {sorted(s)}")
        if errs or self.mode == "coverage":
            return errs
        for o in self.cat.objects:
            sieves = set(self.covering(o))
            if maximal_sieve(self.cat, o) not in sieves:
                errs.append(f"maximal sieve on {o!r} missing")
        for o in self.cat.objects:
            for s in self.covering(o):
                for f in self.cat.morphisms_into(o):
                    if pullback_sieve(self.cat, s, f) not in set(self.covering(self.cat.src[f])):
                        errs.append(f"cover on {o!r} not stable along {f!r}")
        for o in self.cat.objects:
            covers_o = set(self.covering(o))
            for s in all_sieves(self.cat, o):
                if s in covers_o:
                    continue
                # transitivity: if s pulls back to a cover along every
                # member of some cover, s must itself cover
                for r in covers_o:
                    if all(pullback_sieve(self.cat, s, f)
                           in set(self.covering(self.cat.src[f])) for f in r):
                        errs.append(f"transitivity fails on {o!r} for {sorted(s)}")
                        break
        return errs

    def assert_valid(self):
        errs = self.validate()
        if errs:
            raise FinCatError("site: " + "; ".join(errs[:8]))
        return self
