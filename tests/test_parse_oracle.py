"""``parse`` against the character-loop lexer and parser it replaced.

``_ref_tokenize`` and ``_RefParser`` are the earlier front end, kept as a
differential oracle: it scanned the text one character at a time, tried
each punctuation mark with ``str.startswith``, and built a token object
per lexeme.  The compiled-regex lexer must give the same tokens, the same
``Module`` and the same ``ParseError`` (message, line and column) on
every input, including the placement of the end-of-input token at the
start of a trailing comment.  The parser's own reader, ``_read``, must
either decline a text or give the texts and lines of ``_tokenize``.
"""

from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsem.s4dtt import (
    BaseType,
    BoxType,
    CheckDirective,
    EqualDirective,
    LetBox,
    Module,
    ParseError,
    Shut,
    Signature,
    Telescope,
    Var,
    _read,
    _resolve,
    _tokenize,
    parse,
)

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.s4"))

_KEYWORDS = {"type", "const", "check", "equal", "box", "let", "in", "Box"}
_PUNCT = ("|-", "::", ":=", "==", ",", ";", ":", "|", "(", ")")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _ref_tokenize(text):
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(_Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "ident"
            toks.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


class _RefParser:
    def __init__(self, text):
        self.toks = _ref_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text):
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def ident(self):
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected a name, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next().text

    def type_expr(self):
        t = self.peek()
        if t.text == "Box":
            self.next()
            return BoxType(self.type_expr())
        if t.text == "(":
            self.next()
            ty = self.type_expr()
            self.expect(")")
            return ty
        return BaseType(self.ident())

    def term(self):
        t = self.peek()
        if t.text == "box":
            self.next()
            self.expect("(")
            body = self.term()
            self.expect(")")
            return Shut(body)
        if t.text == "let":
            self.next()
            self.expect("box")
            binder = self.ident()
            self.expect(":=")
            scrutinee = self.term()
            self.expect("in")
            body = self.term()
            return LetBox(binder, scrutinee, body)
        if t.text == "(":
            self.next()
            tm = self.term()
            self.expect(")")
            return tm
        return Var(self.ident())

    def telescope(self):
        modal, ordinary = [], []
        if self.peek().text not in ("|-", "|"):
            modal.extend(self._entries("::"))
        if self.peek().text == "|":
            self.next()
            if self.peek().text != "|-":
                ordinary.extend(self._entries(":"))
        return Telescope(tuple(modal), tuple(ordinary))

    def _entries(self, sep):
        out = [self._entry(sep)]
        while self.peek().text == ",":
            self.next()
            out.append(self._entry(sep))
        return out

    def _entry(self, sep):
        name = self.ident()
        self.expect(sep)
        return name, self.type_expr()

    def module(self):
        bases, consts, directives = [], [], []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "type":
                self.next()
                bases.append(self.ident())
                self.expect(";")
            elif t.text == "const":
                self.next()
                name = self.ident()
                self.expect(":")
                consts.append((name, self.type_expr()))
                self.expect(";")
            elif t.text == "check":
                self.next()
                tele = self.telescope()
                self.expect("|-")
                tm = self.term()
                self.expect(":")
                ty = self.type_expr()
                self.expect(";")
                directives.append(CheckDirective(tele, tm, ty, t.line))
            elif t.text == "equal":
                self.next()
                tele = self.telescope()
                self.expect("|-")
                left = self.term()
                self.expect("==")
                right = self.term()
                self.expect(":")
                ty = self.type_expr()
                self.expect(";")
                directives.append(EqualDirective(tele, left, right, ty, t.line))
            else:
                raise ParseError(f"expected a declaration, found {t.text!r}",
                                 t.line, t.col)
        return Module(Signature(tuple(bases), tuple(consts)), tuple(directives))


def _ref_parse(text):
    mod = _RefParser(text).module()
    consts = frozenset(n for n, _ in mod.signature.constants)
    directives = []
    for d in mod.directives:
        if isinstance(d, CheckDirective):
            directives.append(CheckDirective(
                d.telescope, _resolve(d.term, consts), d.type, d.line))
        else:
            directives.append(EqualDirective(
                d.telescope, _resolve(d.left, consts),
                _resolve(d.right, consts), d.type, d.line))
    return Module(mod.signature, tuple(directives))


def _outcome(fn, text):
    """What ``fn`` makes of ``text``: a value with its directive lines, or
    the message and position of the ``ParseError`` it raised."""
    try:
        out = fn(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)
    if isinstance(out, Module):
        # directive lines are excluded from equality, so compare them apart
        return ("module", out, tuple(d.line for d in out.directives))
    return ("tokens", [(t.kind, t.text, t.line, t.col) if isinstance(t, _Token)
                       else t for t in out])


def _agree(text):
    assert _outcome(_tokenize, text) == _outcome(_ref_tokenize, text)
    assert _outcome(parse, text) == _outcome(_ref_parse, text)
    read = _read(text)
    if read is not None:
        assert list(zip(*read)) == [(t[1], t[2]) for t in _tokenize(text)]


# Lexemes that sit on the edges of the lexer: keywords and words next to
# punctuation, every mark and its prefixes, comments, line breaks, and
# characters that are not whitespace here (form feed, vertical tab,
# no-break space) or that start no word although ``\w`` accepts them
# (superscript two is a digit, Arabic-Indic three a decimal digit).
_PIECES = ["type", "const", "check", "equal", "box", "let", "in", "Box", "A",
           "a0", "u", "x'", "_", "'", "-", "--", "|", "|-", "::", ":=", "==", "=",
           ":", ",", ";", "(", ")", " ", "\n", "\r\n", "\r", "\t", "\f", "\v",
           "\u00a0", "\u00b2", "\u0663", "\u00e9", "9"]

_texts = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)

# Well-formed modules with a few pieces spliced in, so that the parser
# gets past the first declaration and errors land deep in a directive.
_MODULES = [
    "type A;\nconst a0 : A;\ncheck |- box(a0) : Box A;\n",
    "type A;\nequal u :: A | y : Box A |- let box v := y in v == y : Box A; -- c",
    "type A;\ncheck u :: A, v :: Box A | x : A |- (let box w := v in box(w)) : (Box A);",
]


@settings(max_examples=2000, deadline=None)
@given(_texts)
def test_parse_agrees_with_the_character_loop_on_random_text(text):
    _agree(text)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_MODULES), st.data())
def test_parse_agrees_with_the_character_loop_on_spliced_modules(module, data):
    at = data.draw(st.integers(0, len(module)))
    cut = data.draw(st.integers(at, len(module)))
    piece = data.draw(_texts)
    _agree(module[:at] + piece + module[cut:])


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_parse_agrees_with_the_character_loop_on_the_corpus(path):
    text = path.read_text()
    _agree(text)
    _agree(text.rstrip("\n") + " -- trailing")


def _deepest(fn, make):
    """The least nesting depth at which ``fn`` overflows the stack."""
    lo, hi = 1, 4096
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            fn(make(mid))
        except RecursionError:
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("make", [
    lambda d: "check |- " + "box(" * d + "a0" + ")" * d + " : A;",
    lambda d: "check |- " + "let box u := " * d + "a0" + " in u" * d + " : A;",
    lambda d: "check |- a0 : " + "Box " * d + "(" * d + "A" + ")" * d + ";",
], ids=["box", "let", "Box"])
def test_parse_uses_as_many_frames_per_nesting_level(make):
    """The parser is recursive descent, like the reference, with one frame
    per level of nesting, so both overflow at the same depth."""
    assert _deepest(parse, make) == _deepest(_ref_parse, make)
