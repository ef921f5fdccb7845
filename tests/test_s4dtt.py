"""Kernel tests: parsing, checking, replay, and decided equality."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsem.s4dtt import (
    BaseType,
    BoxType,
    CheckDirective,
    CheckError,
    Const,
    Derivation,
    Judgment,
    LetBox,
    Module,
    ParseError,
    Shut,
    Signature,
    Telescope,
    TermExpr,
    Var,
    canonicalize,
    check_module,
    check_term,
    defeq,
    format_telescope,
    format_term,
    format_type,
    free_vars,
    infer_type,
    parse,
    recheck,
)
from test_defeq_oracle import beta_normalize, beta_step, substitute

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS = (CORPUS_DIR / "t4.s4").read_text()

HEADER = "type A;\nconst a0 : A;\n"

SIG = Signature(("A",), (("a0", BaseType("A")),))

# each seeded mistake and the rule whose premise it violates
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


def parse_term(text: str, sig: Signature) -> TermExpr:
    """Parse one term, its names resolved against ``sig``'s constants."""
    decls = "".join(f"const {n} : {format_type(ty)};\n" for n, ty in sig.constants)
    return parse(f"{decls}check |- {text} : A;").directives[0].term


def format_module(mod: Module) -> str:
    lines = []
    for b in mod.signature.base_types:
        lines.append(f"type {b};")
    for n, ty in mod.signature.constants:
        lines.append(f"const {n} : {format_type(ty)};")
    for d in mod.directives:
        tele = format_telescope(d.telescope)
        tele = tele + " " if tele else ""
        if isinstance(d, CheckDirective):
            lines.append(f"check {tele}|- {format_term(d.term)} : {format_type(d.type)};")
        else:
            lines.append(f"equal {tele}|- {format_term(d.left)} == "
                         f"{format_term(d.right)} : {format_type(d.type)};")
    return "\n".join(lines) + "\n"


def all_rules(d: Derivation):
    """The rule of ``d`` and of each premise, depth first."""
    yield d.rule
    for p in d.premises:
        yield from all_rules(p)


# parsing ------------------------------------------------------------------

def test_corpus_parses_and_prints_back():
    mod = parse(CORPUS)
    assert len(mod.directives) == 12
    assert parse(format_module(mod)) == mod


def test_types_parse_right_nested():
    t = parse(HEADER + "check |- box(box(a0)) : Box Box A;")
    d = t.directives[0]
    assert d.type == BoxType(BoxType(BaseType("A")))


def test_constants_resolve_against_the_signature():
    mod = parse(HEADER + "check |- a0 : A;")
    assert mod.directives[0].term == Const("a0")
    # a let binder of the same name shadows the constant in its body
    mod = parse(HEADER + "check | y : Box A |- let box a0 := y in a0 : A;")
    body = mod.directives[0].term.body
    assert body == Var("a0")


def test_constants_declared_after_a_directive_resolve_too():
    mod = parse("type A;\ncheck |- c : A;\nconst c : A;\n")
    assert mod.directives[0].term == Const("c")
    assert check_module(mod)


def test_punctuation_longest_match():
    tele = parse(HEADER + "check u :: A | x : A |- x : A;").directives[0].telescope
    assert tele.modal == (("u", BaseType("A")),)
    assert tele.ordinary == (("x", BaseType("A")),)


def test_comments_and_blank_lines_are_skipped():
    mod = parse("-- leading note\n\ntype A;\n-- trailing note\n")
    assert mod.signature.has_base("A")


@pytest.mark.parametrize("bad", [
    "type A",                      # missing semicolon
    "check |- : A;",               # missing term
    "const a0 A;",                 # missing colon
    "equal |- a == b A;",          # missing colon before the type
    "check |- box(a0 : Box A;",    # unbalanced paren
    "type 3две;",                  # not an identifier
])
def test_malformed_input_raises_parse_error(bad):
    with pytest.raises(ParseError):
        parse(HEADER + bad)


@pytest.mark.parametrize("source, message, line, col", [
    ("type A;\ncheck |- ! : A;", "unexpected character '!'", 2, 10),
    # a tab is one column; after a \r\n line break columns start again at 1
    ("type A;\n\tcheck |- a0 : A;\t!", "unexpected character '!'", 2, 19),
    ("type A;\r\n  check |- ! : A;", "unexpected character '!'", 2, 12),
    # the end of input sits where a trailing comment begins
    ("type A -- no semicolon", "expected ';', found 'end of input'", 1, 8),
    ("type A;\ncheck |- a0 : A --", "expected ';', found 'end of input'", 2, 17),
    # a superscript digit is alphanumeric but starts no word
    ("type A;\nconst \u00b2a : A;", "unexpected character '\u00b2'", 2, 7),
    ("type A\u00b2;\nconst \u00b2a : A;", "unexpected character '\u00b2'", 2, 7),
], ids=["after-text", "after-tab", "after-crlf", "trailing-comment",
        "trailing-dashes", "superscript-word", "superscript-inside-word"])
def test_parse_error_carries_position(source, message, line, col):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == f"{line}:{col}: {message}"


# property tests over random terms -----------------------------------------

_names = st.sampled_from(["u", "v", "w", "x", "y", "z"])
_terms = st.recursive(
    st.builds(Var, _names) | st.just(Const("a0")),
    lambda inner: st.builds(Shut, inner)
    | st.builds(LetBox, _names, inner, inner),
    max_leaves=10,
)


@given(_terms)
def test_format_parse_round_trip(tm):
    assert parse_term(format_term(tm), SIG) == tm


@given(_terms)
def test_canonicalize_is_idempotent(tm):
    c = canonicalize(tm)
    assert canonicalize(c) == c


@given(_terms, st.sampled_from(["p", "q"]))
def test_binder_renaming_preserves_alpha_class(tm, fresh):
    if not isinstance(tm, LetBox) or fresh in free_vars(tm.body):
        return
    renamed = LetBox(fresh, tm.scrutinee,
                     substitute(tm.body, tm.binder, Var(fresh)))
    assert canonicalize(tm) == canonicalize(renamed)


@given(_terms)
def test_beta_normalize_reaches_a_normal_form(tm):
    n = beta_normalize(tm)
    assert beta_normalize(n) == n
    assert beta_step(n) is None


@given(_terms)
def test_substitution_leaves_no_trace_of_the_target(tm):
    out = substitute(tm, "x", Const("a0"))
    assert "x" not in free_vars(out)
    assert free_vars(out) <= (free_vars(tm) - {"x"})


@given(_terms)
@settings(max_examples=60)
def test_free_vars_never_grow_under_normalization(tm):
    assert free_vars(beta_normalize(tm)) <= free_vars(tm)


# checking -----------------------------------------------------------------

def test_corpus_checks_and_replays():
    mod = parse(CORPUS)
    derivations = check_module(mod)
    assert len(derivations) == 29
    for d in derivations:
        assert recheck(mod.signature, d) == []


RULES = frozenset({
    "empty-modal", "extend-modal", "empty-ordinary", "extend-ordinary",
    "base-form", "box-form",
    "modal-var", "ordinary-var", "constant", "box-intro", "box-elim",
})

# Forgery kinds of which some forgeries replay clean today: no rule checks
# its conclusion's flavor, and ``empty-ordinary`` does not compare its
# premise's context with its own (ROADMAP: "recheck accepts some forged
# derivations").  Strict, so a fix must take its kind off this list.
REPLAY_GAPS = {"ordinary", "empty-modal", "base-form", "empty-ordinary"}


def _forged(p: Derivation, kind: str):
    """``p`` forged one way: an extra modal or ordinary entry, a boxed term
    or type, a rule that does not exist, or renamed to the real rule
    ``kind``; None where the way does not apply."""
    j, t, a = p.judgment, p.judgment.telescope, ("t#", BaseType("A"))
    if kind == "modal":
        j = Judgment(j.flavor, t.extend_modal(*a), j.term, j.type)
    elif kind == "ordinary":
        j = Judgment(j.flavor, Telescope(t.modal, t.ordinary + (a,)), j.term, j.type)
    elif kind in ("term", "type"):
        if getattr(j, kind) is None:
            return None
        j = (Judgment(j.flavor, t, Shut(j.term), j.type) if kind == "term"
             else Judgment(j.flavor, t, j.term, BoxType(j.type)))
    else:
        rule = "renamed-" + p.rule if kind == "unknown-rule" else kind
        return None if rule == p.rule else Derivation(j, rule, p.premises)
    return Derivation(j, p.rule, p.premises)


def _tampered(d: Derivation, kind: str):
    """``d`` with one premise of one node forged the way ``kind`` says, at
    every premise where it applies."""
    for i, p in enumerate(d.premises):
        q = _forged(p, kind)
        for q in ([q] if q else []) + list(_tampered(p, kind)):
            yield Derivation(d.judgment, d.rule, d.premises[:i] + (q,) + d.premises[i + 1:])


@pytest.mark.parametrize("kind", [
    pytest.param(k, marks=pytest.mark.xfail(strict=True, reason="replays clean"))
    if k in REPLAY_GAPS else k
    for k in ["modal", "ordinary", "term", "type", "unknown-rule", *sorted(RULES)]])
@pytest.mark.parametrize("name", ["t4.s4", "depth2.s4"])
def test_recheck_rejects_tampered_premise(name, kind):
    """Every forgery of one kind of every derivation of a corpus fails the
    replay; the kinds in ``REPLAY_GAPS`` do not yet."""
    mod = parse((CORPUS_DIR / name).read_text())
    forged = [t for d in check_module(mod) for t in _tampered(d, kind)]
    assert len(forged) > 10
    assert [t.judgment.show() for t in forged if not recheck(mod.signature, t)] == []


def test_corpus_exercises_every_rule():
    mod = parse(CORPUS)
    rules = set()
    for d in check_module(mod):
        rules.update(all_rules(d))
    assert rules == RULES


@pytest.mark.parametrize("source,gap", ILL_TYPED)
def test_seeded_mistakes_report_their_rule_gap(source, gap):
    mod = parse(HEADER + source)
    with pytest.raises(CheckError) as err:
        check_module(mod)
    assert err.value.rule_gap == gap


def test_duplicate_ordinary_names_blame_their_zone():
    with pytest.raises(CheckError) as err:
        check_module(parse(HEADER + "check | x : A, x : A |- x : A;"))
    assert err.value.rule_gap == "extend-ordinary"


def test_check_error_shows_the_judgment():
    with pytest.raises(CheckError) as err:
        check_module(parse(HEADER + "check u :: A |- u : Box A;"))
    assert "u :: A" in err.value.judgment


def test_infer_type_agrees_with_check():
    tele = Telescope(modal=(("u", BaseType("A")),))
    tm = parse_term("box(box(u))", SIG)
    ty = infer_type(SIG, tele, tm)
    assert ty == BoxType(BoxType(BaseType("A")))
    check_term(SIG, tele, tm, ty)


def test_hand_built_constant_nodes_hit_the_constant_gap():
    # the parser cannot produce an unknown Const, but the API can
    with pytest.raises(CheckError) as err:
        check_term(SIG, Telescope(), Const("ghost"), BaseType("A"))
    assert err.value.rule_gap == "constant"


def test_box_intro_empties_the_ordinary_zone():
    # an ordinary hypothesis is invisible under box even at the right type
    mod = parse(HEADER + "check | x : A |- box(x) : Box A;")
    with pytest.raises(CheckError):
        check_module(mod)
    # but a modal one stays visible
    ok = parse(HEADER + "check u :: A |- box(u) : Box A;")
    assert check_module(ok)


# decided equality ----------------------------------------------------------

def test_corpus_equalities_are_decided():
    mod = parse(CORPUS)
    for d in mod.directives:
        if hasattr(d, "left"):
            assert defeq(mod.signature, d.telescope, d.left, d.right, d.type)


def test_defeq_is_symmetric_on_the_corpus():
    mod = parse(CORPUS)
    for d in mod.directives:
        if hasattr(d, "left"):
            assert defeq(mod.signature, d.telescope, d.right, d.left, d.type)


def test_unfolding_under_box_is_not_provable():
    # ordinary motives are invisible under box, so this pair differs
    tele = Telescope(modal=(("v", BoxType(BaseType("A"))),))
    lhs = parse_term("let box u := v in box(box(u))", SIG)
    rhs = parse_term("box(v)", SIG)
    ty = BoxType(BoxType(BaseType("A")))
    assert not defeq(SIG, tele, lhs, rhs, ty)


def test_beta_reduction_validates_against_the_checker():
    mod = parse(CORPUS)
    for d in mod.directives:
        tms = [d.term] if hasattr(d, "term") else [d.left, d.right]
        for tm in tms:
            n = beta_normalize(tm)
            check_term(mod.signature, d.telescope, n, d.type)
            assert defeq(mod.signature, d.telescope, tm, n, d.type)


def _two_orders(width: int, left_body: str, right_body: str) -> str:
    """``let box e_i := y_i`` in index order against the reverse order."""
    hyps = ", ".join(f"y{i} : Box A" for i in range(width))
    left, right = left_body, right_body
    for i in reversed(range(width)):
        left = f"let box e{i} := y{i} in {left}"
    for i in range(width):
        right = f"let box e{i} := y{i} in {right}"
    return f"equal | {hyps} |- {left} == {right} : A;"


def _shared_lets(n: int) -> str:
    body = "box(u0)"
    for i in reversed(range(n)):
        body = f"let box u{i} := y in {body}"
    return f"equal | y : Box A |- {body} == y : Box A;"


@pytest.mark.parametrize("source,expected", [
    *[pytest.param(_two_orders(w, "e0", "e0"), True, id=f"reversal-{w}")
      for w in (5, 6, 7, 8)],
    pytest.param(_shared_lets(100), True, id="100-lets-on-one-scrutinee"),
    # the unequal projections of the kernel benchmark
    *[pytest.param(_two_orders(4, f"e{k}", f"e{m}"), False, id=f"unequal-e{k}-e{m}")
      for k, m in itertools.permutations(range(4), 2)],
])
def test_defeq_decides_without_a_budget(source, expected):
    mod = parse(HEADER + source)
    d = mod.directives[0]
    assert defeq(mod.signature, d.telescope, d.left, d.right, d.type) is expected
