"""Lawful enumeration against generate-and-test.

``enumerate_coalgebras``, ``coalgebra_maps``, ``coalgebra_types_over`` and
the maps between structured types build only lawful candidates: the
counit law is a slot domain and the structure-map equation a set of slot
rules.  Maps of both levels come from one body, ``_structured_families``,
as flat families; ``coalgebra_type_maps`` (``test_structured_oracles``)
cuts them into ``TypeMap``s.  The ``_ref_*`` functions below are the
earlier versions, kept as a differential oracle: they enumerate every
natural map and filter it by the laws.  Both must give the same lists in
the same order, because canonical order is load-bearing downstream
(reports, classifiers), and the flat families must be the columns of the
reference maps.
"""

from collections import Counter
from itertools import accumulate, chain, product

import pytest

from boxsem.cli import load_model
from boxsem.coalg import (Coalgebra, CoalgebraType, _structured_families, coalg_extension,
                          coalgebra_maps, coalgebra_type_laws,
                          coalgebra_types_over, enumerate_coalgebras, is_coalgebra_map,
                          terminal_coalgebra)
from boxsem.natmodel import all_presheaves, all_types_over, type_maps
from boxsem.presheaf import compose_maps, hom_maps, identity_map
from test_structured_oracles import coalgebra_type_maps

# the shipped models that declare a comonad
MODELS = ["one", "two", "chain3", "disc2"]


# ---------------------------------------------------------------------------
# Reference enumerations: every natural map, filtered by the laws


def _ref_enumerate_coalgebras(w, size_bound):
    out = []
    for p in all_presheaves(w.model.base, size_bound):
        bp = w.box(p)
        ident = identity_map(p)
        eps = w.counit(p)
        dlt = w.comult(p)
        for h in hom_maps(p, bp):
            if compose_maps(eps, h) != ident:
                continue
            if compose_maps(dlt, h) != compose_maps(w.box_map(h), h):
                continue
            out.append(Coalgebra(p, h))
    return out


def _ref_coalgebra_maps(w, src, dst):
    return [h for h in hom_maps(src.carrier, dst.carrier)
            if is_coalgebra_map(w, src, dst, h)]


def _ref_coalgebra_types_over(w, cg, size_bound):
    out = []
    for a in all_types_over(w.model, cg.carrier, size_bound):
        ba = w.bbox_type(cg, a)
        for th in type_maps(a, ba):
            xt = CoalgebraType(cg, a, th)
            if not coalgebra_type_laws(w, xt):
                out.append(xt)
    return out


def _ref_coalgebra_type_maps(w, x, y):
    return [m for m in type_maps(x.type, y.type)
            if compose_maps(y.theta, m) ==
            compose_maps(w.bbox_type_map(x.coalg, m), x.theta)]


@pytest.fixture(scope="module", params=MODELS)
def comonad(request):
    return load_model(request.param).comonad


def _small_coalgebras(w):
    """Coalgebras with carriers up to 2 at each object and in all."""
    return [cg for cg in enumerate_coalgebras(w, 2) if sum(cg.carrier.sizes.values()) <= 2]


# ---------------------------------------------------------------------------
# Every shipped comonad, carriers and fibers up to 2


@pytest.mark.parametrize("bound", [1, 2])
def test_coalgebras_match_the_oracle(comonad, bound):
    got = enumerate_coalgebras(comonad, bound)
    assert got == _ref_enumerate_coalgebras(comonad, bound)
    assert got


def test_coalgebra_maps_match_the_oracle(comonad):
    cgs = enumerate_coalgebras(comonad, 2)
    found = 0
    for src in cgs:
        for dst in cgs:
            got = coalgebra_maps(comonad, src, dst)
            assert got == _ref_coalgebra_maps(comonad, src, dst)
            found += len(got)
    # every carrier has at least its identity
    assert found >= len(cgs)


def test_structured_types_and_their_maps_match_the_oracle(comonad):
    for cg in _small_coalgebras(comonad):
        types = coalgebra_types_over(comonad, cg, 2)
        assert types == _ref_coalgebra_types_over(comonad, cg, 2)
        for x in types:
            for y in types:
                assert coalgebra_type_maps(comonad, x, y) == \
                    _ref_coalgebra_type_maps(comonad, x, y)


def _columns(maps, keys):
    """Each map's columns at ``keys``, in order, as one flat tuple."""
    return [tuple(chain.from_iterable(map(m.component.__getitem__, keys))) for m in maps]


@pytest.mark.parametrize("name", ["two", "chain3", "arrow"])
def test_structured_families_are_the_oracle_maps_columns(name):
    """The one flat-family body of structured maps, on every pair of
    coalgebras with carriers up to 2 and every pair of structured types
    with fibers up to 2 over the terminal coalgebra: its families are the
    columns of the generate-and-test maps, cut at its ``ends``, in order."""
    w = load_model(name).comonad
    cgs, objects = enumerate_coalgebras(w, 2), w.model.base.objects
    found = 0
    for src, dst in product(cgs, repeat=2):
        ends, got = _structured_families(w, src, dst)
        assert ends == [0, *accumulate(src.carrier.sizes[o] for o in objects)]
        assert got == _columns(_ref_coalgebra_maps(w, src, dst), objects)
        found += len(got)
    types = coalgebra_types_over(w, terminal_coalgebra(w), 2)
    keys = list(types[0].type.fiber)
    for x, y in product(types, repeat=2):
        ends, got = _structured_families(w, x, y)
        assert ends == [0, *accumulate(map(x.type.fiber.__getitem__, keys))]
        assert got == _columns(_ref_coalgebra_type_maps(w, x, y), keys)
        found += len(got)
    # every coalgebra and every type has at least its identity
    assert found >= len(cgs) + len(types)


# ---------------------------------------------------------------------------
# The flagship comonad with fibers up to 3


@pytest.fixture(scope="module")
def flagship():
    return load_model("two").comonad


@pytest.fixture(scope="module")
def fiber3_types(flagship):
    return coalgebra_types_over(flagship, terminal_coalgebra(flagship), 3)


def test_fiber_three_types_match_the_oracle(flagship, fiber3_types):
    assert fiber3_types == _ref_coalgebra_types_over(
        flagship, terminal_coalgebra(flagship), 3)


def test_fiber_three_type_maps_match_the_oracle(flagship, fiber3_types):
    sample = fiber3_types[::5]
    for x in sample:
        for y in sample:
            assert coalgebra_type_maps(flagship, x, y) == \
                _ref_coalgebra_type_maps(flagship, x, y)


def test_types_over_an_extension_match_the_oracle(flagship):
    cg = terminal_coalgebra(flagship)
    for xt in coalgebra_types_over(flagship, cg, 2):
        if sum(xt.type.fiber.values()) <= 2:
            cge, _, _ = coalg_extension(flagship, xt)
            assert coalgebra_types_over(flagship, cge, 2) == \
                _ref_coalgebra_types_over(flagship, cge, 2)


def test_fiber_three_census_on_the_flagship(fiber3_types):
    """The full grid of structured types with fibers up to 3 over the
    terminal coalgebra, through the library enumeration."""
    hist = Counter((xt.type.fiber[("0", 0)], xt.type.fiber[("1", 0)])
                   for xt in fiber3_types)
    assert len(fiber3_types) == 60
    assert hist == {
        (3, 3): 27, (3, 2): 9, (2, 3): 8, (2, 2): 4, (3, 1): 3, (2, 1): 2,
        (0, 0): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 0): 1,
        (3, 0): 1}
