"""The comonad's action on universe codes and sieves against its earlier,
hand-written version.

``code_actions`` and ``sieve_action`` derive the code and sieve actions
from a comonad's type and presheaf actions: the codes classify the boxed
generic type and its counit and comultiplication, the code morphisms the
boxed generic code morphism, and the sieve action is the characteristic
map of the image of the boxed truth.  The ``_ref_*`` functions below are
the earlier versions for the Kan comonad, which built each map by index
bookkeeping over the family tables of the box; for the identity comonad
every earlier map was an identity.  Both must give equal maps, and where
one raises ``BoundExceeded`` so must the other.
"""

import pytest

from boxsem.cli import load_model
from boxsem.coalg import (AdjunctionComonad, IdentityComonad, code_actions,
                          identity_comonad, sieve_action,
                          universe_internal_category)
from boxsem.fincat import Functor
from boxsem.natmodel import BoundExceeded, NaturalModel, hs_universe
from boxsem.presheaf import (FamilyTable, KanAdjunction, Presheaf, PresheafMap,
                             identity_map, subobject_classifier)
from boxsem.standard import walking_arrow
from test_fincat import chain, identity_functor


# ---------------------------------------------------------------------------
# Reference versions


def _ref_code_box_data(w, u):
    d, c, uf = w.model.base, w.adj.big, w.adj.u
    bd = w.box_data(u.presheaf)
    tables = {}
    comp = {}
    for x in d.objects:
        slx = u.slices[x].cat
        t = bd.tables[x]
        vals = []
        for pi, phi in enumerate(t.families):
            sizes_z, action_z = {}, {}
            for gname in slx.objects:
                ug = uf.mor_map[gname]
                sl_y = bd.tables[d.src[gname]].slots
                slot_codes = [u.codes[j][phi[t.slot_pos[(j, c.compose(ug, f2))]]]
                              for (j, f2) in sl_y]
                szs = [cp.sizes[d.id(j)] for cp, (j, _) in zip(slot_codes, sl_y)]
                rules = [((j, f2), (d.src[m], c.compose(f2, uf.mor_map[m])),
                          cp.action[f"{m}@{d.id(j)}"])
                         for cp, (j, f2) in zip(slot_codes, sl_y) for m in d.morphisms
                         if d.dst[m] == j and not d.is_identity(m)]
                block = FamilyTable(sl_y, szs, rules)
                if len(block.families) > w.model.bound:
                    raise BoundExceeded(
                        f"boxed code at ({x!r}, {gname!r}) has {len(block.families)} "
                        f"points, over the display bound {w.model.bound}")
                tables[(x, pi, gname)] = block
                sizes_z[gname] = len(block.families)
            for mname in slx.morphisms:
                hpart, gpart = mname.split("@", 1)
                uh = uf.mor_map[hpart]
                action_z[mname] = tables[(x, pi, gpart)].restriction(
                    tables[(x, pi, d.compose(gpart, hpart))],
                    [(j2, c.compose(uh, f3)) for (j2, f3) in bd.tables[d.src[hpart]].slots])
            vals.append(u.codes[x].index(Presheaf(slx, sizes_z, action_z)))
        comp[x] = tuple(vals)
    return PresheafMap(bd.presheaf, u.presheaf, comp), tables



def _ref_box_code_mor(w, uc):
    u = uc.universe
    d, c, uf = w.model.base, w.adj.big, w.adj.u
    bd0 = w.box_data(u.presheaf)
    bd1 = w.box_data(uc.cat.mor)
    cbd_map, cbd_tables = _ref_code_box_data(w, u)
    comp = {}
    for x in d.objects:
        slx = u.slices[x].cat
        t = bd0.tables[x]
        vals = []
        for fam_m in bd1.tables[x].families:
            data = [uc.mor_data(j, v) for (j, _), v in zip(t.slots, fam_m)]
            p1 = t.family_pos[tuple(e[0] for e in data)]
            p2 = t.family_pos[tuple(e[1] for e in data)]
            z1 = cbd_map.component[x][p1]
            z2 = cbd_map.component[x][p2]
            comps = {}
            for gname in slx.objects:
                ug = uf.mor_map[gname]
                slot_maps = [data[t.slot_pos[(j, c.compose(ug, f2))]][2].component[d.id(j)]
                             for (j, f2) in bd0.tables[d.src[gname]].slots]
                pos = cbd_tables[(x, p2, gname)].family_pos
                comps[gname] = tuple(pos[tuple(sm[v] for sm, v in zip(slot_maps, fam))]
                                     for fam in cbd_tables[(x, p1, gname)].families)
            pm = PresheafMap(u.codes[x][z1], u.codes[x][z2], comps)
            vals.append(uc.mor_table[x].index((z1, z2, pm)))
        comp[x] = tuple(vals)
    return PresheafMap(bd1.presheaf, uc.cat.mor, comp)


def _ref_code_counit(w, uc):
    u = uc.universe
    d, c, uf = w.model.base, w.adj.big, w.adj.u
    bd = w.box_data(u.presheaf)
    cbd_map, cbd_tables = _ref_code_box_data(w, u)
    comp = {}
    for x in d.objects:
        slx = u.slices[x].cat
        k_id = bd.tables[x].slot_pos[(x, c.id(uf.obj_map[x]))]
        vals = []
        for pi, phi in enumerate(bd.tables[x].families):
            z = cbd_map.component[x][pi]
            tgt = phi[k_id]
            comps = {}
            for gname in slx.objects:
                y = d.src[gname]
                k_y = bd.tables[y].slot_pos[(y, c.id(uf.obj_map[y]))]
                comps[gname] = tuple(fam[k_y]
                                     for fam in cbd_tables[(x, pi, gname)].families)
            pm = PresheafMap(u.codes[x][z], u.codes[x][tgt], comps)
            vals.append(uc.mor_table[x].index((z, tgt, pm)))
        comp[x] = tuple(vals)
    return PresheafMap(bd.presheaf, uc.cat.mor, comp)


def _ref_code_comult(w, uc):
    u = uc.universe
    d, c, uf = w.model.base, w.adj.big, w.adj.u
    bd = w.box_data(u.presheaf)
    cbd_map, cbd_tables = _ref_code_box_data(w, u)
    dlt = w.comult(u.presheaf)
    bmc = w.box_map(cbd_map)
    comp = {}
    for x in d.objects:
        slx = u.slices[x].cat
        t = bd.tables[x]
        vals = []
        for pi, phi in enumerate(t.families):
            z1 = cbd_map.component[x][pi]
            psi = bmc.apply(x, dlt.apply(x, pi))
            z2 = cbd_map.component[x][psi]
            comps = {}
            for gname in slx.objects:
                ug = uf.mor_map[gname]
                ty = bd.tables[d.src[gname]]
                # per slot (j, f2): the code block it lands in, and the
                # slots of the argument family it reads
                entries = []
                for (j, f2) in ty.slots:
                    tj = bd.tables[j]
                    sel = t.select((j2, c.compose(c.compose(ug, f2), f3))
                                   for (j2, f3) in tj.slots)
                    pj = tj.family_pos[tuple(phi[k] for k in sel)]
                    entries.append((cbd_tables[(j, pj, d.id(j))].family_pos,
                                    ty.select((j2, c.compose(f2, f3))
                                              for (j2, f3) in tj.slots)))
                pos = cbd_tables[(x, psi, gname)].family_pos
                comps[gname] = tuple(
                    pos[tuple(fp[tuple(fam[k] for k in sel)] for fp, sel in entries)]
                    for fam in cbd_tables[(x, pi, gname)].families)
            pm = PresheafMap(u.codes[x][z1], u.codes[x][z2], comps)
            vals.append(uc.mor_table[x].index((z1, z2, pm)))
        comp[x] = tuple(vals)
    return PresheafMap(bd.presheaf, uc.cat.mor, comp)


def _ref_box_sieve(w, om):
    d, c, uf = w.model.base, w.adj.big, w.adj.u
    bd = w.box_data(om.presheaf)
    comp = {}
    for x in d.objects:
        t = bd.tables[x]
        vals = []
        for phi in t.families:
            members = []
            for g in d.morphisms_into(x):
                ug = uf.mor_map[g]
                if all(d.id(j) in om.sieves[j][phi[t.slot_pos[(j, c.compose(ug, f2))]]]
                       for (j, f2) in bd.tables[d.src[g]].slots):
                    members.append(g)
            vals.append(om.index(x, frozenset(members)))
        comp[x] = tuple(vals)
    return PresheafMap(bd.presheaf, om.presheaf, comp)



def _ref_code_actions(w, uc):
    u = uc.universe
    if isinstance(w, IdentityComonad):
        return (identity_map(u.presheaf), uc.cat.ident, uc.cat.ident,
                identity_map(uc.cat.mor))
    return (_ref_code_box_data(w, u)[0], _ref_code_counit(w, uc),
            _ref_code_comult(w, uc), _ref_box_code_mor(w, uc))


def _ref_sieve_action(w, om):
    if isinstance(w, IdentityComonad):
        return identity_map(om.presheaf)
    return _ref_box_sieve(w, om)


# ---------------------------------------------------------------------------
# Comonads


def _shipped(name, bound):
    w = load_model(name).comonad
    model = NaturalModel(w.model.base, bound)
    if isinstance(w, AdjunctionComonad):
        return AdjunctionComonad(w.adj, model)
    return identity_comonad(model)


def _arrow_into_chain3():
    """The walking arrow onto ``0 -> 2`` in the 3-chain."""
    return Functor("arrow_02", walking_arrow(), chain(3), {"0": "0", "1": "2"},
                   {"0->1": "0->2", "id_0": "id_0", "id_1": "id_2"})


def _kan(functor, bound):
    adj = KanAdjunction(functor)
    return AdjunctionComonad(adj, NaturalModel(adj.small, bound))


CASES = {
    **{f"{m}-b{b}": (lambda m=m, b=b: _shipped(m, b))
       for m in ("one", "two", "chain3", "disc2") for b in (1, 2)},
    **{f"ran-id-arrow-b{b}": (lambda b=b: _kan(identity_functor(walking_arrow()), b))
       for b in (1, 2)},
    **{f"ran-arrow-chain3-b{b}": (lambda b=b: _kan(_arrow_into_chain3(), b))
       for b in (1, 2)},
}


def _outcome(build):
    try:
        return build()
    except BoundExceeded:
        return BoundExceeded


@pytest.mark.parametrize("case", sorted(CASES))
def test_code_actions_match_hand_written(case):
    w = CASES[case]()
    uc = universe_internal_category(hs_universe(w.model))
    derived = _outcome(lambda: code_actions(w, uc))
    assert derived == _outcome(lambda: _ref_code_actions(w, uc))


@pytest.mark.parametrize("case", sorted(CASES))
def test_sieve_action_matches_hand_written(case):
    w = CASES[case]()
    om = subobject_classifier(w.model.base)
    assert sieve_action(w, om) == _ref_sieve_action(w, om)
