"""The small categories and sites the command line builds in.

These are the walking arrow, finite posets (as categories), and open-set
lattices of the two tiny spaces we care about (Sierpinski and the
two-point discrete space), the latter equipped with their canonical
coverages.
"""

from __future__ import annotations

from .fincat import FinCat, Site, build_category, all_sieves


def poset_category(name: str, elements: list[str], leq: set[tuple[str, str]]) -> FinCat:
    """The category of a finite poset; one morphism ``a->b`` whenever a <= b.

    ``leq`` lists the strict pairs; reflexivity is implied and transitivity
    must already hold (validation will catch it otherwise).
    """
    arrows = [(f"{a}->{b}", a, b) for (a, b) in sorted(leq)]
    compose = {}
    rel = set(leq) | {(e, e) for e in elements}
    for (a, b) in sorted(leq):
        for (b2, c) in sorted(leq):
            if b2 != b:
                continue
            if (a, c) not in rel:
                raise ValueError(f"poset relation not transitive at {(a, b, c)}")
            if a != c:
                compose[(f"{b}->{c}", f"{a}->{b}")] = f"{a}->{c}"
            else:
                compose[(f"{b}->{c}", f"{a}->{b}")] = f"id_{a}"
    return build_category(name, elements, arrows, compose)


def walking_arrow() -> FinCat:
    """Two objects 0, 1 and a single arrow between them."""
    return poset_category("two", ["0", "1"], {("0", "1")})


def open_poset(name: str, opens: list[frozenset[str]]) -> FinCat:
    """The inclusion poset of a family of opens, named by sorted point lists."""
    label = {u: "O" + "".join(sorted(u)) if u else "Oempty" for u in opens}
    leq = {(label[u], label[v]) for u in opens for v in opens if u < v}
    return poset_category(name, [label[u] for u in opens], leq)


def _canonical_covers(cat: FinCat, opens: dict[str, frozenset[str]]):
    """Covering sieves for an open-set poset: a sieve covers U when the
    union of the opens appearing in it is all of U."""
    covers = {}
    for obj in cat.objects:
        here = []
        for sieve in all_sieves(cat, obj):
            union = frozenset().union(*(opens[cat.src[m]] for m in sieve)) if sieve else frozenset()
            if union == opens[obj]:
                here.append(sieve)
        covers[obj] = tuple(here)
    return covers


def sierpinski_site() -> Site:
    """Opens of the Sierpinski space {o, c} ({o} open, {c} not): a 3-chain."""
    opens = [frozenset(), frozenset("o"), frozenset("oc")]
    cat = open_poset("sierpinski", opens)
    labels = {"Oempty": frozenset(), "Oo": frozenset("o"), "Oco": frozenset("oc")}
    named = {o: labels[o] for o in cat.objects}
    return Site(cat, _canonical_covers(cat, named), mode="topology").assert_valid()


def discrete_two_site() -> Site:
    """Opens of the two-point discrete space: the Boolean lattice on {a, b}."""
    opens = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    cat = open_poset("disc2opens", opens)
    named = {}
    for o in cat.objects:
        named[o] = frozenset() if o == "Oempty" else frozenset(o[1:])
    return Site(cat, _canonical_covers(cat, named), mode="topology").assert_valid()

