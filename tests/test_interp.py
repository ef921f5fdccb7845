"""Interpretation of kernel judgments in comonad models."""

import gc
import weakref
from collections import Counter
from pathlib import Path

import pytest

from boxsem import interp
from boxsem.cli import load_model
from boxsem.coalg import KanAdjunction, comonad_from_adjunction, identity_comonad
from boxsem.fincat import Functor
from boxsem.interp import (
    InterpretationGap,
    SemanticTarget,
    _near_miss,
    constant_type,
    interpret,
    soundness_harness,
)
from boxsem.natmodel import (
    NaturalModel,
    all_presheaves,
    all_types_over,
    apply_type_map,
    terms_of,
    type_maps,
)
from boxsem.s4dtt import (
    BaseType,
    BoxType,
    Judgment,
    LetBox,
    Shut,
    Telescope,
    Var,
    check_module,
    defeq,
    infer_type,
    parse,
)
from boxsem.standard import walking_arrow
from test_defeq_oracle import substitute
from test_fincat import discrete, terminal_category

ROOT = Path(__file__).resolve().parent.parent
CORPUS = (ROOT / "corpus" / "t4.s4").read_text()

THREADING_NOTE = ("eliminator interpreted under a nonempty ordinary zone "
                  "by threading the section through the comprehensions")


@pytest.fixture(scope="module")
def corpus():
    mod = parse(CORPUS)
    check_module(mod)
    return mod


@pytest.fixture(scope="module")
def flagship():
    two = walking_arrow()
    d2 = discrete(2)
    u = Functor("incl", d2, two, {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1"})
    w = comonad_from_adjunction(KanAdjunction(u))
    return SemanticTarget(w, "flagship")


@pytest.fixture(scope="module")
def identity_target():
    ident = identity_comonad(NaturalModel(terminal_category(), 3))
    return SemanticTarget(ident, "identity", default_base_size=3)


def _assert_sound(report, lines):
    assert report["ok"]
    assert report["near_misses"] == 0
    assert [e["line"] for e in report["directives"]] == lines
    for entry in report["directives"]:
        assert entry["defined"], entry
        assert entry["context_ok"], entry
        if entry["kind"] == "check":
            assert entry["section_ok"] and entry["typing_ok"], entry
        else:
            assert entry["syntactic"], entry
            assert entry["semantic_equal"], entry
            assert not entry["near_miss"], entry


def test_corpus_is_sound_in_the_flagship_target(flagship, corpus):
    """Every corpus directive interprets and satisfies its semantic
    clause in the presheaf model induced by the two-point inclusion."""
    report = soundness_harness(flagship, corpus)
    _assert_sound(report, [8, 9, 10, 13, 16, 19, 22, 25, 26, 29, 30, 31])
    assert report["target"] == "flagship"


def test_corpus_is_sound_in_the_identity_target(identity_target, corpus):
    report = soundness_harness(identity_target, corpus)
    _assert_sound(report, [8, 9, 10, 13, 16, 19, 22, 25, 26, 29, 30, 31])


def test_eliminator_threading_is_flagged(flagship, corpus):
    # the corpus eliminates under "| y : Box A", which only works by
    # pushing the scrutinee section through the comprehension chain
    report = soundness_harness(flagship, corpus)
    assert THREADING_NOTE in report["notes"]


def test_context_judgment_yields_a_coalgebra_with_comprehensions(flagship, corpus):
    tele = corpus.directives[1].telescope  # u :: A | x : A
    res = interpret(flagship, corpus.signature, Judgment("context", tele))
    assert res.kind == "context" and res.defined
    ci = res.value
    assert [e.name for e in ci.modal] == ["u"]
    assert [e.name for e in ci.ordinary] == ["x"]
    assert ci.presheaf.validate() == []
    assert ci.to_carrier.source == ci.presheaf


def test_type_judgment_in_the_identity_target(identity_target, corpus):
    """With the identity comonad the box is invisible, so a boxed base
    type keeps the configured three-point fiber everywhere."""
    tele = corpus.directives[1].telescope
    res = interpret(identity_target, corpus.signature,
                    Judgment("type", tele, type=BoxType(BaseType("A"))))
    assert res.kind == "type" and res.defined
    assert set(res.value.fiber.values()) == {3}


def test_constants_denote_sections_over_the_terminal_coalgebra(flagship, corpus):
    directive = corpus.directives[3]  # check |- box(a0) : Box A
    res = interpret(flagship, corpus.signature, directive)
    assert res.defined
    section = res.value
    assert section.validate() == []
    ci = flagship.context(directive.telescope)
    assert section.type == flagship.type_over(ci, directive.type)


def test_modal_variables_interpret_through_the_counit(flagship, corpus):
    directive = corpus.directives[0]  # check u :: A |- u : A
    res = interpret(flagship, corpus.signature, directive)
    assert res.defined and res.value.validate() == []


def beta_substitution_check(tgt, sig, tele, tm, ty):
    """Interpreting a reducible eliminator and its reduct agree as data.

    This is the semantic substitution lemma on an instance: feeding the
    section of the boxed scrutinee into the body equals interpreting
    the syntactic substitution outright.
    """
    if not isinstance(tm.scrutinee, Shut):
        raise InterpretationGap("eliminator is not a redex")
    reduct = substitute(tm.body, tm.binder, tm.scrutinee.body)
    lhs, _ = tgt.term(sig, tele, tm, ty)
    rhs, _ = tgt.term(sig, tele, reduct, ty)
    return lhs == rhs


def test_beta_substitution_lemma_on_corpus_redexes(flagship, corpus):
    """Eliminating a literal box agrees with the syntactic substitution,
    instance by instance, for every redex the corpus contains."""
    seen = 0
    for d in corpus.directives:
        candidates = (getattr(d, "term", None), getattr(d, "left", None),
                      getattr(d, "right", None))
        for tm in candidates:
            if isinstance(tm, LetBox) and isinstance(tm.scrutinee, Shut):
                assert beta_substitution_check(flagship, corpus.signature,
                                               d.telescope, tm, d.type)
                seen += 1
    assert seen == 3


def test_beta_substitution_check_rejects_non_redexes(flagship, corpus):
    directive = corpus.directives[4]  # scrutinee is a variable, not a box
    with pytest.raises(InterpretationGap):
        beta_substitution_check(flagship, corpus.signature,
                                directive.telescope, directive.term,
                                directive.type)


def test_base_sizes_can_be_overridden_per_type(flagship, corpus):
    target = SemanticTarget(flagship.comonad, "wide", base_sizes={"A": 1})
    ci = target.context(Telescope((), ()))
    a = target.type_over(ci, BaseType("A"))
    assert set(a.fiber.values()) == {1}


def test_empty_base_type_is_reported_not_raised(flagship, corpus):
    """A constant over an empty type has no denotation; the entry point
    absorbs the gap into a PartialResult instead of crashing."""
    target = SemanticTarget(flagship.comonad, "empty", base_sizes={"A": 0})
    res = interpret(target, corpus.signature, corpus.directives[3])
    assert not res.defined
    assert "no section" in res.reason
    assert res.value is None


def test_out_of_scope_variable_is_a_gap(flagship, corpus):
    loose = Judgment("term", Telescope((), ()), Var("q"), BaseType("A"))
    res = interpret(flagship, corpus.signature, loose)
    assert res.kind == "term" and not res.defined
    assert "not in the context" in res.reason


def test_harness_failure_entries_carry_the_reason(flagship, corpus):
    target = SemanticTarget(flagship.comonad, "starved", base_sizes={"A": 0})
    report = soundness_harness(target, corpus)
    assert not report["ok"]
    failed = [e for e in report["directives"] if not e.get("defined", True)]
    assert failed and all("reason" in e for e in failed)



def _reversal(types: str, left_body: str, right_body: str) -> str:
    """``let box e_i := y_i`` in index order against the reverse order."""
    hyps = ", ".join(f"y{i} : Box {t}" for i, t in enumerate(types))
    left, right = left_body, right_body
    for i in reversed(range(len(types))):
        left = f"let box e{i} := y{i} in {left}"
    for i in range(len(types)):
        right = f"let box e{i} := y{i} in {right}"
    return f"type A;\ntype B;\nequal | {hyps} |- {left} == {right} : A;\n"


@pytest.mark.parametrize("model,types", [
    # Five two-point hypotheses put 1024 elements in the context over one
    # object of `two`, and the harness then takes about a minute; here B
    # has a single point, so that context has 32 elements.
    ("two", "AAABB"),
    ("disc2", "AAAAA"),
])
def test_reversal_of_five_eliminators_is_sound(model, types):
    """The reversal of five eliminators is decided equal and interprets
    to equal sections; projecting another hypothesis is neither."""
    comonad = load_model(str(ROOT / "models" / f"{model}.json")).comonad
    tgt = SemanticTarget(comonad, model, base_sizes={"B": 1})
    report = soundness_harness(tgt, parse(_reversal(types, "e0", "e0")))
    (entry,) = report["directives"]
    assert report["ok"] and entry["defined"]
    assert entry["syntactic"] and entry["semantic_equal"]
    mod = parse(_reversal(types, "e0", "e1"))
    (d,) = mod.directives
    assert not defeq(mod.signature, d.telescope, d.left, d.right, d.type)
    res = interpret(tgt, mod.signature, d)
    assert res.defined and res.value[0] != res.value[1]


@pytest.mark.parametrize("model,types", [("two", "AAABB"), ("disc2", "AAAAA")])
def test_unequal_projection_of_five_eliminators_is_a_near_miss(model, types):
    """The harness looks for an automorphism relating the two sides of an
    unequal pair; on this width-5 context the search stays small."""
    comonad = load_model(str(ROOT / "models" / f"{model}.json")).comonad
    tgt = SemanticTarget(comonad, model, base_sizes={"B": 1})
    report = soundness_harness(tgt, parse(_reversal(types, "e0", "e1")))
    (entry,) = report["directives"]
    assert entry["defined"] and not entry["syntactic"]
    assert not entry["semantic_equal"] and entry["near_miss"]
    assert report["ok"] and report["near_misses"] == 1


def _ref_near_miss(left, right):
    """The earlier search: every endomap of the type, then the test."""
    if left.type != right.type or left == right:
        return False
    for phi in type_maps(left.type, left.type):
        if all(sorted(vals) == list(range(len(vals)))
               for vals in phi.component.values()) and \
                apply_type_map(phi, left) == right:
            return True
    return False


@pytest.mark.parametrize("base", [walking_arrow(), discrete(2)], ids=["two", "disc2"])
def test_near_miss_agrees_with_the_full_endomap_search(base):
    """On every pair of sections of the types with at most five points
    over contexts with at most two elements."""
    model = NaturalModel(base, 3)
    verdicts = Counter()
    for gamma in all_presheaves(base, 2):
        if sum(gamma.sizes.values()) > 2:
            continue
        for a in all_types_over(model, gamma, 3):
            if sum(a.fiber.values()) > 5:
                continue
            sections = terms_of(a)
            for left in sections:
                for right in sections:
                    got = _near_miss(left, right)
                    assert got == _ref_near_miss(left, right)
                    verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


# ---------------------------------------------------------------------------
# One object per semantic type, per target

A = BaseType("A")
TYPES = [A, BoxType(A), BoxType(BoxType(A))]


def _ref_type_over_coalgebra(tgt, cg, ty):
    """The construction before types were kept on the target: a fresh
    constant type per base type, boxed outward, here past the comonad's
    memo of ``bbox_type`` so that every call builds anew."""
    if isinstance(ty, BaseType):
        return constant_type(cg.carrier, tgt.base_size(ty.name))
    inner = _ref_type_over_coalgebra(tgt, cg, ty.inner)
    return type(tgt.comonad).bbox_type.__wrapped__(tgt.comonad, cg, inner)


def _modal_contexts(mod):
    """The modal zones that interpreting ``mod`` builds: each
    directive's, and each that a ``let box`` extends one by."""
    out = set()

    def walk(tele, tm):
        out.add(tele.modal)
        if isinstance(tm, LetBox):
            walk(tele, tm.scrutinee)
            inner = infer_type(mod.signature, tele, tm.scrutinee).inner
            walk(Telescope(tele.modal + ((tm.binder, inner),), tele.ordinary), tm.body)
        elif isinstance(tm, Shut):
            walk(tele.without_ordinary(), tm.body)

    for d in mod.directives:
        for tm in (getattr(d, "term", None), getattr(d, "left", None),
                   getattr(d, "right", None)):
            walk(d.telescope, tm)
    return out


def _model_target(model):
    return SemanticTarget(load_model(str(ROOT / "models" / f"{model}.json")).comonad, model)


@pytest.mark.parametrize("model", ["one", "two", "disc2", "chain3", "arrow"])
def test_types_over_coalgebras_agree_with_a_fresh_build(model, corpus):
    """Over every modal context of the corpus, each of ``A``, ``Box A``
    and ``Box Box A`` equals the type built anew, and asking again gives
    back the same object."""
    tgt = _model_target(model)
    assert soundness_harness(tgt, corpus)["ok"]
    coalgebras = [tgt.modal_context(modal)[0] for modal in _modal_contexts(corpus)]
    # seven modal zones; those that differ in names only share a coalgebra
    assert len(coalgebras) == 7 and len({id(cg) for cg in coalgebras}) <= 5
    for cg in coalgebras:
        for ty in TYPES:
            got = tgt.type_over_coalgebra(cg, ty)
            assert got == _ref_type_over_coalgebra(tgt, cg, ty)
            assert tgt.type_over_coalgebra(cg, ty) is got


def _semantic_objects(tgt, mod):
    """What interpreting ``mod`` in ``tgt`` builds, coalgebras to types."""
    soundness_harness(tgt, mod)
    out = []
    for modal in _modal_contexts(mod):
        cg, _ = tgt.modal_context(modal)
        out += [cg, cg.carrier, cg.structure]
        out += [tgt.type_over_coalgebra(cg, ty) for ty in TYPES]
    for d in mod.directives:
        ci = tgt.context(d.telescope)
        out += [ci, ci.presheaf, ci.to_carrier, tgt.type_over(ci, d.type)]
    return out


def test_targets_on_fresh_comonads_share_no_semantic_objects(corpus):
    first, second = _model_target("two"), _model_target("two")
    shared = {id(o) for o in _semantic_objects(first, corpus)} & \
        {id(o) for o in _semantic_objects(second, corpus)}
    assert not shared


def test_what_a_target_builds_dies_with_it(corpus):
    tgt = _model_target("two")
    refs = [weakref.ref(o) for o in _semantic_objects(tgt, corpus)]
    del tgt
    gc.collect()
    assert all(r() is None for r in refs)


def test_a_failing_context_coalgebra_fails_every_directive_over_it(corpus, monkeypatch):
    """The harness checks each context coalgebra once; a coalgebra that
    fails its laws still fails every directive over it, and only those."""
    tgt = _model_target("two")
    bad, _ = tgt.modal_context((("u", A),))
    real, calls = interp.coalgebra_laws, Counter()

    def laws(w, cg):
        calls[id(cg)] += 1
        return ["injected fault"] if cg is bad else real(w, cg)

    monkeypatch.setattr(interp, "coalgebra_laws", laws)
    report = soundness_harness(tgt, corpus)
    over_bad = [tgt.context(d.telescope).coalg is bad for d in corpus.directives]
    assert over_bad.count(True) == 5 and over_bad.count(False) == 7
    for flag, entry in zip(over_bad, report["directives"]):
        assert entry["context_ok"] is not flag
        assert entry["ok"] is not flag
    assert report["ok"] is False
    assert len(calls) == 2 and set(calls.values()) == {1}
