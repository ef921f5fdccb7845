"""Acceptance suite: ten numbered criteria, one verdict line each, and a
second line for criterion 09 on `chain3`.

Run ``pytest tests/test_acceptance.py -v -s`` to watch the lines go by.
Every test asserts its criterion outright, so a regression surfaces as
an ordinary failure with the offending detail in the message.
"""

import itertools
import json
import time
from collections import Counter
from pathlib import Path

import pytest

from boxsem.cli import load_model, main
from boxsem.coalg import (
    CoalgebraType,
    KanAdjunction,
    coalg_exponential,
    coalg_extension,
    coalg_pi,
    coalg_sigma,
    coalgebra_classifier,
    coalgebra_type_laws,
    coalgebra_types_over,
    classifier_report,
    comonad_from_adjunction,
    comparison_check,
    exponential_up_check,
    identity_comonad,
    kock_wraith_classifier,
    kock_wraith_report,
    pi_up_check,
    terminal_coalgebra,
)
from boxsem.fincat import Functor, slice_category
from boxsem.interp import SemanticTarget, soundness_harness
from boxsem.natmodel import (
    NaturalModel,
    TypeMap,
    all_types_over,
    classifier_check,
    hs_universe,
    realignment_check,
    typing_check,
)
from boxsem.presheaf import sheaf_check, terminal_presheaf
from boxsem.s4dtt import CheckError, check_module, defeq, parse
from boxsem.standard import discrete_two_site, walking_arrow
from test_fincat import discrete, terminal_category
from test_s4dtt import all_rules

ROOT = Path(__file__).resolve().parent.parent
CORPUS = (ROOT / "corpus" / "t4.s4").read_text()
MODELS = ["one", "two", "chain3", "sierpinski", "disc2", "arrow"]
HEADER = "type A;\nconst a0 : A;\n"

RULE_SET = {
    "empty-modal", "extend-modal", "empty-ordinary", "extend-ordinary",
    "base-form", "box-form",
    "modal-var", "ordinary-var", "constant", "box-intro", "box-elim",
}

ILL_TYPED = [
    ("check | x : A |- box(x) : Box A;", "variable"),
    ("check u :: A |- q : A;", "variable"),
    ("check u :: A |- u : Box A;", "conversion"),
    ("check u :: B |- u : B;", "base-form"),
    ("check | y : A |- let box u := y in u : A;", "box-elim"),
    ("check u :: A | y : Box A |- let box u := y in u : A;", "box-elim"),
    ("equal u :: A |- box(u) == box(box(u)) : Box A;", "conversion"),
    ("equal | y : Box A |- let box u := y in box(box(u)) == box(y) : Box Box A;",
     "variable"),
    ("check u :: A, u :: A |- u : A;", "extend-modal"),
    ("equal v :: Box A |- let box u := v in box(box(u)) == box(v) : Box Box A;",
     "conversion"),
]


def _verdict(n: int, ok: bool, detail: str):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture(scope="module")
def flagship():
    two = walking_arrow()
    pts = discrete(2)
    u = Functor("incl", pts, two, {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1"})
    adj = KanAdjunction(u)
    return adj, comonad_from_adjunction(adj)


def _presheaf_tables(cat, bound: int) -> int:
    """Count presheaves on ``cat`` with canonical carriers up to the
    bound, verifying functoriality by raw loops over the composition
    table rather than through any library enumerator."""
    objs = list(cat.objects)
    non_id = [m for m in cat.morphisms if not cat.is_identity(m)]
    count = 0
    for sizes_t in itertools.product(range(bound + 1), repeat=len(objs)):
        sz = dict(zip(objs, sizes_t))
        per_mor = []
        feasible = True
        for m in non_id:
            dom, cod = sz[cat.dst[m]], sz[cat.src[m]]
            tables = list(itertools.product(range(cod), repeat=dom))
            if not tables:
                feasible = False
                break
            per_mor.append(tables)
        if not feasible:
            continue
        for combo in itertools.product(*per_mor):
            act = dict(zip(non_id, combo))
            for o in objs:
                act[cat.id(o)] = tuple(range(sz[o]))
            good = True
            for g in cat.morphisms:
                for f in cat.morphisms:
                    if cat.dst[f] != cat.src[g]:
                        continue
                    composite = tuple(act[f][act[g][z]]
                                      for z in range(sz[cat.dst[g]]))
                    if composite != act[cat.compose(g, f)]:
                        good = False
                        break
                if not good:
                    break
            if good:
                count += 1
    return count


def _structured_types(w, over, bound: int):
    """Structured types over a coalgebra, assembled point by point from
    counit preimages.  Equivalent to the library enumeration but lazy,
    which keeps the dense fiber profiles from materializing the whole
    grid of candidate structure maps."""
    for a in all_types_over(w.model, over.carrier, bound):
        ba = w.bbox_type(over, a)
        eps = w.fiber_counit(over, a)
        keys = sorted(a.fiber)
        pools = []
        for k in keys:
            per_x = []
            for x in range(a.fiber[k]):
                per_x.append([v for v in range(ba.fiber[k])
                              if eps.component[k][v] == x])
            pools.append(list(itertools.product(*per_x)) if per_x else [()])
        for choice in itertools.product(*pools):
            th = TypeMap(a, ba, {k: tuple(v) for k, v in zip(keys, choice)})
            xt = CoalgebraType(over, a, th)
            if not coalgebra_type_laws(w, xt):
                yield xt


def test_criterion_01_law_suites_on_shipped_models():
    start = time.monotonic()
    codes = {m: main(["model", "laws", m]) for m in MODELS}
    elapsed = time.monotonic() - start
    ok = all(c == 0 for c in codes.values()) and elapsed < 10.0
    _verdict(1, ok, f"law suites green on {len(MODELS)} shipped models "
                    f"in {elapsed:.2f}s (budget 10s)")


def test_criterion_02_universe_classifier():
    two = walking_arrow()
    model = NaturalModel(two, 1)
    u = hs_universe(model)
    sizes_ok = {o: u.presheaf.sizes[o] for o in two.objects} == {"0": 2, "1": 3}
    # oracle: codes at I are presheaves on the slice over I, counted by
    # brute enumeration of action tables with canonical carriers
    oracle_ok = all(
        u.presheaf.sizes[i] == _presheaf_tables(slice_category(two, i).cat, 1)
        for i in two.objects)
    cc = classifier_check(u, 1)
    natural_ok = cc == {"bijective": True, "natural": True}

    one = terminal_category()
    typing_ok = True
    for k, displays, pairs in [(1, 2, 4), (2, 3, 9), (3, 4, 16)]:
        tc = typing_check(NaturalModel(one, k), terminal_presheaf(one), k)
        typing_ok &= (tc["essential_surjectivity"] and tc["fully_faithful"]
                      and tc["display_maps"] == displays
                      and tc["type_pairs"] == pairs)
    _verdict(2, sizes_ok and oracle_ok and natural_ok and typing_ok,
             "arrow universe sizes 2/3 match the functor-table oracle, "
             "codes are natural, point typing equivalence holds for k = 1..3")


def test_criterion_03_stack_failure(tmp_path):
    out = tmp_path / "stack.json"
    demo_ok = main(["demo", "stack-failure", "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    site = discrete_two_site()
    u = hs_universe(NaturalModel(site.cat, 1))
    check = sheaf_check(site, u.presheaf)
    failure_ok = not check.is_sheaf and bool(check.uniqueness_failures())

    # oracle: scan the raw action table for every code gluing the fixed
    # matching family of the reported witness
    family = report["family"]
    gluings = [c for c in range(u.presheaf.sizes[report["object"]])
               if all(u.presheaf.action[f][c] == v for f, v in family.items())]
    scan_ok = gluings == report["amalgamations"] and len(gluings) >= 2

    # the two amalgamations are distinct valid codes agreeing on every
    # member of the covering sieve; only the top cell, which the sieve
    # never reaches, tells them apart
    a, b = (u.code(report["object"], c) for c in gluings[:2])
    sieve = set(report["sieve"])
    codes_ok = a != b and a.validate() == [] and b.validate() == [] \
        and all(a.sizes[m] == b.sizes[m] for m in sieve) \
        and a.sizes[site.cat.id(report["object"])] != \
        b.sizes[site.cat.id(report["object"])]
    _verdict(3, demo_ok and failure_ok and scan_ok and codes_ok,
             f"cover of {report['object']} glues the fixed family in "
             f"{len(gluings)} ways; the codes agree on the sieve and "
             f"differ at the top cell")


def test_criterion_04_sheaves_as_coalgebras(flagship):
    adj, w = flagship
    comp = comparison_check(adj, w, 2)
    counts_ok = comp["presheaf_count"] == comp["coalgebra_count"] == 11
    classes_ok = comp["presheaf_classes"] == comp["coalgebra_classes"] == 8
    ok = comp["ok"] and comp["essentially_surjective"] and \
        comp["hom_sets_match"] and counts_ok and classes_ok
    _verdict(4, ok, "comparison functor bijective on 8 isomorphism classes "
                    "and hom sets; 11 presheaves versus 11 coalgebras")


def test_criterion_05_coalgebra_classifier(flagship):
    adj, w = flagship
    clf = coalgebra_classifier(w)
    report = classifier_report(w, clf, size_bound=2)
    flag_ok = report["ok"] and len(report["instances"]) == 11

    degenerate_ok = True
    for cat in (terminal_category(), walking_arrow()):
        model = NaturalModel(cat, 1)
        ic = identity_comonad(model)
        clf0 = coalgebra_classifier(ic)
        degenerate_ok &= clf0.coalgebra.carrier == hs_universe(model).presheaf
    _verdict(5, flag_ok and degenerate_ok,
             "classifier natural across all 11 coalgebras of carrier size "
             "up to 2; identity comonad returns the universe on the nose")


def test_criterion_06_closure_and_sums_in_coalgebras(flagship):
    adj, w = flagship
    start = time.monotonic()
    cg = terminal_coalgebra(w)
    types2 = coalgebra_types_over(w, cg, 2)
    lazy2 = list(_structured_types(w, cg, 2))
    agree_ok = len(types2) == len(lazy2) == 11

    exp_ok = True
    for x in types2:
        for y in types2:
            e = coalg_exponential(w, x, y)
            exp_ok &= all(exponential_up_check(w, e, z)["ok"] for z in types2)

    sums_ok = pis_ok = True
    n_sums = n_pis = 0
    for xt in types2:
        cge, _, _ = coalg_extension(w, xt)
        for yb in coalgebra_types_over(w, cge, 2):
            sg = coalg_sigma(w, xt, yb)
            sums_ok &= not coalgebra_type_laws(w, sg.type)
            for v in range(sg.type.type.fiber[("1", 0)]):
                x, y = sg.split("1", 0, v)
                sums_ok &= sg.pair("1", 0, x, y) == v
            n_sums += 1
            pis_ok &= pi_up_check(w, coalg_pi(w, xt, yb))["ok"]
            n_pis += 1

    # fibers of size 3: the full grid is out of reach, because the
    # transpose of every structured map is built and looked up, and the
    # dense corner (3,3) x (3,3) against z = (3,3) has hom sets of 19,683
    # maps; one representative per fiber profile goes through the same
    # universal-property checks
    t3 = list(_structured_types(w, cg, 3))
    hist = Counter((xt.type.fiber[("0", 0)], xt.type.fiber[("1", 0)])
                   for xt in t3)
    census_ok = len(t3) == 60 and hist == {
        (3, 3): 27, (3, 2): 9, (2, 3): 8, (2, 2): 4, (3, 1): 3, (2, 1): 2,
        (0, 0): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 0): 1,
        (3, 0): 1}
    reps = {}
    for xt in t3:
        reps.setdefault((xt.type.fiber[("0", 0)], xt.type.fiber[("1", 0)]), xt)

    panel = [((1, 3), (1, 3), (1, 2)), ((3, 1), (3, 1), (2, 1)),
             ((2, 3), (2, 2), (1, 2)), ((2, 2), (2, 3), (2, 2)),
             ((2, 2), (3, 3), (1, 1)), ((3, 3), (1, 1), (1, 1)),
             ((3, 2), (2, 2), (1, 1))]
    exp3_ok = True
    for px, py, pz in panel:
        e = coalg_exponential(w, reps[px], reps[py])
        exp3_ok &= exponential_up_check(w, e, reps[pz])["ok"]

    sums3_ok = pis3_ok = True
    for p in [(1, 3), (3, 1), (3, 3)]:
        cge, _, _ = coalg_extension(w, reps[p])
        fams = list(itertools.islice(_structured_types(w, cge, 3), 25))
        for yb in fams[::4]:
            sg = coalg_sigma(w, reps[p], yb)
            sums3_ok &= not coalgebra_type_laws(w, sg.type)
        for yb in (fams[0], fams[len(fams) // 2], fams[-1]):
            pis3_ok &= pi_up_check(w, coalg_pi(w, reps[p], yb))["ok"]

    # the fiber-2 exponential grid again under the identity functor of
    # the walking arrow (model ``arrow``), whose box has a family slot
    # besides the identity, so the equation is tested off the identity
    wa = load_model("arrow").comonad
    arrow2 = coalgebra_types_over(wa, terminal_coalgebra(wa), 2)
    arrow_ok = len(arrow2) == 11
    for x in arrow2:
        for y in arrow2:
            e = coalg_exponential(wa, x, y)
            arrow_ok &= all(exponential_up_check(wa, e, z)["ok"] for z in arrow2)

    elapsed = time.monotonic() - start
    ok = (agree_ok and exp_ok and sums_ok and pis_ok and census_ok
          and exp3_ok and sums3_ok and pis3_ok and arrow_ok)
    _verdict(6, ok, f"universal properties hold on {len(types2) ** 3} "
                    f"exponential instances, {n_sums} sums and {n_pis} "
                    f"products at fibers <= 2, plus fiber-3 representatives "
                    f"of all {len(hist)} profiles, and on {len(arrow2) ** 3} "
                    f"exponential instances on arrow ({elapsed:.1f}s)")


def test_criterion_07_kock_wraith_correspondence(flagship):
    adj, w = flagship
    kw = kock_wraith_classifier(w)
    report = kock_wraith_report(w, kw, size_bound=2)
    instances_ok = len(report["instances"]) == 11 and all(
        subs >= 1 for _, subs, _ in report["instances"])
    total = sum(subs for _, subs, _ in report["instances"])
    _verdict(7, report["ok"] and instances_ok,
             f"sub-coalgebra/characteristic-map bijection on 11 coalgebras, "
             f"{total} subobjects matched")


def test_criterion_08_kernel_golden_corpus():
    mod = parse(CORPUS)
    derivations = check_module(mod)
    rules = set()
    for d in derivations:
        rules.update(all_rules(d))
    corpus_ok = len(derivations) == 29 and rules == RULE_SET

    equalities_ok = all(
        defeq(mod.signature, d.telescope, d.left, d.right, d.type)
        for d in mod.directives if hasattr(d, "left"))

    rejected = 0
    for source, gap in ILL_TYPED:
        try:
            check_module(parse(HEADER + source))
        except CheckError as e:
            rejected += e.rule_gap == gap
    _verdict(8, corpus_ok and equalities_ok and rejected == 10,
             f"29 corpus derivations over all {len(RULE_SET)} rules, "
             f"5 equalities decided, {rejected}/10 seeded mistakes "
             f"rejected at the right rule")


def test_criterion_09_interpretation_soundness(flagship):
    adj, w = flagship
    mod = parse(CORPUS)
    check_module(mod)
    targets = [
        SemanticTarget(identity_comonad(NaturalModel(terminal_category(), 3)),
                       "identity"),
        SemanticTarget(w, "flagship"),
    ]
    start = time.monotonic()
    sound_ok = True
    for tgt in targets:
        report = soundness_harness(tgt, mod)
        sound_ok &= report["ok"] and report["near_misses"] == 0
        for entry in report["directives"]:
            sound_ok &= entry["defined"] and entry["context_ok"]
            if entry["kind"] == "check":
                sound_ok &= entry["section_ok"] and entry["typing_ok"]
            else:
                sound_ok &= entry["semantic_equal"]
    elapsed = time.monotonic() - start
    _verdict(9, sound_ok and elapsed < 60.0,
             f"all 12 directives interpret and re-validate in both targets, "
             f"typing and equality clauses hold as data ({elapsed:.2f}s, "
             f"budget 60s)")


def test_criterion_09_interpretation_in_chain3():
    mod = parse(CORPUS)
    check_module(mod)
    start = time.monotonic()
    report = soundness_harness(SemanticTarget(load_model("chain3").comonad, "chain3"), mod)
    elapsed = time.monotonic() - start
    sound_ok = report["ok"] and report["near_misses"] == 0 and all(
        e["defined"] and e["context_ok"]
        and (e["section_ok"] and e["typing_ok"] if e["kind"] == "check"
             else e["semantic_equal"])
        for e in report["directives"])
    _verdict(9, sound_ok and len(report["directives"]) == 12 and elapsed < 10.0,
             f"all 12 directives interpret and re-validate in the points "
             f"comonad of chain3 too ({elapsed:.2f}s, budget 10s)")


def test_criterion_10_realignment():
    one = terminal_category()
    model = NaturalModel(one, 1)
    base = realignment_check(hs_universe(model), 1)
    clf = coalgebra_classifier(identity_comonad(model))
    lifted = realignment_check(clf.universe, 1)
    want = {"ok": True, "cases": 5, "truncated": False}
    _verdict(10, base == want and lifted == want,
             "realignment passes all 5 cases on the point model, and again "
             "on the universe its coalgebra classifier carries, which is "
             "that same base universe")
