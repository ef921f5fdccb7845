"""Kernel for a minimal modal type theory with a necessity operator.

Terms are built from variables, declared constants, a box introduction
``box(t)`` whose body may only use modal hypotheses, and the eliminator
``let box u := s in t`` that opens a boxed term under a modal binder.
Contexts come in two zones: modal hypotheses written ``u :: A`` and
ordinary ones written ``x : A``.  Types are base constants and ``Box``.

The checker produces derivation trees that an independent validator can
replay rule by rule, and definitional equality is decided by comparing
normal forms under beta and eta (see ``normal_form``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate, compress, count
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Union


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class CheckError(Exception):
    """A judgment failed, together with the rule that could not fire."""

    def __init__(self, msg: str, rule_gap: str, judgment: str = ""):
        super().__init__(msg)
        self.rule_gap = rule_gap
        self.judgment = judgment


# ---------------------------------------------------------------------------
# Syntax


@dataclass(frozen=True)
class BaseType:
    name: str


@dataclass(frozen=True, eq=False)
class BoxType:
    inner: "TypeExpr"

    # Equality and hashing peel the boxes in a loop: the generated
    # recursive versions overflow the stack on a few hundred nested boxes.
    def __eq__(self, other):
        if other.__class__ is not BoxType:
            return NotImplemented
        a, b = self.inner, other.inner
        while a.__class__ is BoxType:
            if b.__class__ is not BoxType:
                return False
            if a is b:
                return True
            a, b = a.inner, b.inner
        return a == b

    def __hash__(self):
        depth, ty = 0, self
        while isinstance(ty, BoxType):
            depth, ty = depth + 1, ty.inner
        return hash((depth, ty))


TypeExpr = Union[BaseType, BoxType]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Shut:
    body: "TermExpr"


@dataclass(frozen=True)
class LetBox:
    binder: str
    scrutinee: "TermExpr"
    body: "TermExpr"


TermExpr = Union[Var, Const, Shut, LetBox]


class Telescope(NamedTuple):
    """A two-zone context: modal entries first, ordinary entries after.  A named tuple, as are
    judgments and derivations; term and type nodes are not, as ``Var("a0") == Const("a0")``."""

    modal: tuple[tuple[str, TypeExpr], ...] = ()
    ordinary: tuple[tuple[str, TypeExpr], ...] = ()

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.modal) + tuple(n for n, _ in self.ordinary)

    def modal_lookup(self, name: str) -> TypeExpr | None:
        for n, ty in self.modal:
            if n == name:
                return ty
        return None

    def ordinary_lookup(self, name: str) -> TypeExpr | None:
        for n, ty in self.ordinary:
            if n == name:
                return ty
        return None

    def extend_modal(self, name: str, ty: TypeExpr) -> "Telescope":
        return Telescope(self.modal + ((name, ty),), self.ordinary)

    def without_ordinary(self) -> "Telescope":
        return Telescope(self.modal, ())


@dataclass(frozen=True)
class Signature:
    base_types: tuple[str, ...] = ()
    constants: tuple[tuple[str, TypeExpr], ...] = ()

    def has_base(self, name: str) -> bool:
        return name in self.base_types

    def constant_type(self, name: str) -> TypeExpr | None:
        for n, ty in self.constants:
            if n == name:
                return ty
        return None


@dataclass(frozen=True)
class CheckDirective:
    telescope: Telescope
    term: TermExpr
    type: TypeExpr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class EqualDirective:
    telescope: Telescope
    left: TermExpr
    right: TermExpr
    type: TypeExpr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Module:
    signature: Signature
    directives: tuple[Union[CheckDirective, EqualDirective], ...] = ()


# ---------------------------------------------------------------------------
# Lexer and parser


_KEYWORDS = {"type", "const", "check", "equal", "box", "let", "in", "Box"}
_PUNCT = ("|-", "::", ":=", "==", ",", ";", ":", "|", "(", ")")  # longest first
_NOT_NAMES = frozenset({*_KEYWORDS, *_PUNCT, ""})
_PUNCT_RE = "|".join(map(re.escape, _PUNCT))

# One lexeme per match, tried in this order: a line break, blanks, a
# comment, a punctuation mark (longest first), a word, and any other
# character, which is an error.  ``[^\W\d]`` also admits non-decimal
# digits such as a superscript two, so a word's first character is
# checked again.  ``_ASCII_LEXEME`` is the same without groups or errors
# and with ASCII words only; its lexemes that start in ``_TOKEN_START`` are tokens.
_LEXEME = re.compile(rf"(\n)|[ \t\r]+|(--[^\n]*)|({_PUNCT_RE})|([^\W\d][\w']*)|(.)")
_ASCII_LEXEME = re.compile(rf"\n|[ \t\r]+|--[^\n]*|{_PUNCT_RE}|[A-Za-z_][A-Za-z0-9_']*")
_TOKEN_START = frozenset(map(chr, range(128))) - set(" \t\r\n-")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The ``(kind, text, line, col)`` tokens of ``text``, the last of kind ``eof``; columns count
    characters from 1.  The parser reads them where ``_read`` gives None and locates errors here."""
    toks = []
    line, bol = 1, 0  # bol: the offset at which the current line begins
    eof = len(text)
    for m in _LEXEME.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        if group == 3:
            toks.append(("punct", m[3], line, m.start() - bol + 1))
        elif group == 4:
            word = m[4]
            if not (word[0].isalpha() or word[0] == "_"):
                raise ParseError(f"unexpected character {word[0]!r}",
                                 line, m.start() - bol + 1)
            toks.append(("kw" if word in _KEYWORDS else "ident", word, line,
                         m.start() - bol + 1))
        elif group == 1:
            line, bol = line + 1, m.end()
        elif group == 2:
            # a comment does not advance the column, so an end of input
            # right after one sits where the comment began
            if m.end() == len(text):
                eof = m.start()
        else:
            raise ParseError(f"unexpected character {m[5]!r}",
                             line, m.start() - bol + 1)
    toks.append(("eof", "", line, eof - bol + 1))
    return toks


def _read(text: str) -> tuple[list[str], list[int]] | None:
    """The token texts of ``text``, ending in ``""``, and their lines, from
    one ``findall``; None where a character is not in ``_ASCII_LEXEME``."""
    lexemes = _ASCII_LEXEME.findall(text)
    if sum(map(len, lexemes)) != len(text):
        return None
    keep = [*map(_TOKEN_START.__contains__, map(itemgetter(0), lexemes)), True]
    lexemes.append("")
    lines = accumulate(map("\n".__eq__, lexemes), initial=1)
    return list(compress(lexemes, keep)), list(compress(lines, keep))


class _Parser:
    """Recursive descent over the token texts of ``_read``, or of ``_tokenize`` where ``_read``
    gives None; a kind is read off a text, and ``_tokenize`` locates each error raised."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        self.toks, self.lines = _read(text) or zip(*(t[1:3] for t in _tokenize(text)))

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, *_tokenize(self.text)[self.pos][2:])

    def peek(self) -> str:
        """The text of the next token."""
        return self.toks[self.pos]

    def expect(self, text: str) -> None:
        found = self.toks[self.pos]
        if found != text:
            raise self.error(f"expected {text!r}, found {found or 'end of input'!r}")
        self.pos += 1

    def ident(self) -> str:
        found = self.toks[self.pos]
        if found in _NOT_NAMES:
            raise self.error(f"expected a name, found {found or 'end of input'!r}")
        self.pos += 1
        return found

    def type_expr(self) -> TypeExpr:
        t = self.peek()
        if t == "Box":
            self.pos += 1
            return BoxType(self.type_expr())
        if t == "(":
            self.pos += 1
            ty = self.type_expr()
            self.expect(")")
            return ty
        return BaseType(self.ident())

    def term(self) -> TermExpr:
        t = self.peek()
        if t == "box":
            self.pos += 1
            self.expect("(")
            body = self.term()
            self.expect(")")
            return Shut(body)
        if t == "let":
            self.pos += 1
            self.expect("box")
            binder = self.ident()
            self.expect(":=")
            scrutinee = self.term()
            self.expect("in")
            body = self.term()
            return LetBox(binder, scrutinee, body)
        if t == "(":
            self.pos += 1
            tm = self.term()
            self.expect(")")
            return tm
        return Var(self.ident())

    def telescope(self) -> Telescope:
        modal, ordinary = [], []
        if self.peek() not in ("|-", "|"):
            modal.extend(self._entries("::"))
        if self.peek() == "|":
            self.pos += 1
            if self.peek() != "|-":
                ordinary.extend(self._entries(":"))
        return Telescope(tuple(modal), tuple(ordinary))

    def _entries(self, sep: str) -> list[tuple[str, TypeExpr]]:
        out = [self._entry(sep)]
        while self.peek() == ",":
            self.pos += 1
            out.append(self._entry(sep))
        return out

    def _entry(self, sep: str) -> tuple[str, TypeExpr]:
        name = self.ident()
        self.expect(sep)
        return name, self.type_expr()

    def module(self) -> Module:
        bases, consts, directives = [], [], []
        while True:
            t = self.toks[self.pos]
            if not t:
                break
            if t not in ("type", "const", "check", "equal"):
                raise self.error(f"expected a declaration, found {t!r}")
            line = self.lines[self.pos]
            self.pos += 1
            if t == "type":
                bases.append(self.ident())
                self.expect(";")
            elif t == "const":
                name = self.ident()
                self.expect(":")
                consts.append((name, self.type_expr()))
                self.expect(";")
            elif t == "check":
                tele = self.telescope()
                self.expect("|-")
                tm = self.term()
                self.expect(":")
                ty = self.type_expr()
                self.expect(";")
                directives.append(CheckDirective(tele, tm, ty, line))
            else:
                tele = self.telescope()
                self.expect("|-")
                left = self.term()
                self.expect("==")
                right = self.term()
                self.expect(":")
                ty = self.type_expr()
                self.expect(";")
                directives.append(EqualDirective(tele, left, right, ty, line))
        return Module(Signature(tuple(bases), tuple(consts)), tuple(directives))


def _resolve(tm: TermExpr, consts: frozenset[str]) -> TermExpr:
    """Turn name references to declared constants into constant nodes."""
    if isinstance(tm, Var):
        return Const(tm.name) if tm.name in consts else tm
    if isinstance(tm, Const):
        return tm
    if isinstance(tm, Shut):
        return Shut(_resolve(tm.body, consts))
    return LetBox(tm.binder, _resolve(tm.scrutinee, consts),
                  _resolve(tm.body, consts - {tm.binder}))


def parse(text: str) -> Module:
    """Parse a module: declarations followed by check/equal directives.

    Names in directive terms resolve against every constant the module
    declares, before or after the directive, unless a ``let box`` binder
    of the same name shadows it; everything else stays a variable.
    """
    mod = _Parser(text).module()
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


# ---------------------------------------------------------------------------
# Printing


def format_type(ty: TypeExpr) -> str:
    if isinstance(ty, BaseType):
        return ty.name
    return f"Box {format_type(ty.inner)}" if isinstance(ty.inner, BaseType) \
        else f"Box ({format_type(ty.inner)})"


def format_term(tm: TermExpr) -> str:
    if isinstance(tm, Var) or isinstance(tm, Const):
        return tm.name
    if isinstance(tm, Shut):
        return f"box({format_term(tm.body)})"
    return (f"let box {tm.binder} := {format_term(tm.scrutinee)} "
            f"in {format_term(tm.body)}")


def format_telescope(tele: Telescope) -> str:
    modal = ", ".join(f"{n} :: {format_type(ty)}" for n, ty in tele.modal)
    ordinary = ", ".join(f"{n} : {format_type(ty)}" for n, ty in tele.ordinary)
    if ordinary:
        return f"{modal} | {ordinary}" if modal else f"| {ordinary}"
    return modal


# ---------------------------------------------------------------------------
# Free variables and canonical binders


def free_vars(tm: TermExpr) -> frozenset[str]:
    if isinstance(tm, Var):
        return frozenset({tm.name})
    if isinstance(tm, Const):
        return frozenset()
    if isinstance(tm, Shut):
        return free_vars(tm.body)
    return free_vars(tm.scrutinee) | (free_vars(tm.body) - {tm.binder})


def canonicalize(tm: TermExpr, depth: int = 0,
                 env: Mapping[str, str] | None = None) -> TermExpr:
    """Rename binders to position-determined names.

    Alpha-equivalence becomes data equality afterwards, which is what
    normal forms and the corpus oracles compare.
    """
    env = env or {}
    if isinstance(tm, Var):
        return Var(env.get(tm.name, tm.name))
    if isinstance(tm, Const):
        return tm
    if isinstance(tm, Shut):
        return Shut(canonicalize(tm.body, depth, env))
    fresh = f"_b{depth}"
    inner = dict(env)
    inner[tm.binder] = fresh
    return LetBox(fresh, canonicalize(tm.scrutinee, depth, env),
                  canonicalize(tm.body, depth + 1, inner))


# ---------------------------------------------------------------------------
# Judgments and derivations


class Judgment(NamedTuple):
    """One checkable statement: a context prefix, a type formation, or a
    typing of a term (a named tuple, as ``Telescope`` says)."""

    flavor: str
    telescope: Telescope
    term: TermExpr | None = None
    type: TypeExpr | None = None

    def show(self) -> str:
        tele = format_telescope(self.telescope)
        if self.flavor == "context":
            return f"{tele} |- ok" if tele else "|- ok"
        if self.flavor == "type":
            return f"{tele} |- {format_type(self.type)} type"
        return f"{tele} |- {format_term(self.term)} : {format_type(self.type)}"


class Derivation(NamedTuple):
    judgment: Judgment
    rule: str
    premises: tuple["Derivation", ...] = ()


# ---------------------------------------------------------------------------
# The checker


def _check_type(sig: Signature, tele: Telescope, ty: TypeExpr) -> Derivation:
    if isinstance(ty, BaseType):
        if not sig.has_base(ty.name):
            raise CheckError(f"undeclared base type {ty.name!r}", "base-form",
                             Judgment("type", tele, None, ty).show())
        return Derivation(Judgment("type", tele, None, ty), "base-form")
    inner = _check_type(sig, tele.without_ordinary(), ty.inner)
    return Derivation(Judgment("type", tele, None, ty), "box-form", (inner,))


def _check_telescope(sig: Signature, tele: Telescope) -> Derivation:
    names = tele.names()
    if len(set(names)) != len(names):
        modal_names = [n for n, _ in tele.modal]
        zone = "extend-modal" if len(set(modal_names)) != len(modal_names) \
            else "extend-ordinary"
        raise CheckError("duplicate names in the context", zone,
                         Judgment("context", tele).show())
    d = Derivation(Judgment("context", Telescope()), "empty-modal")
    prefix = Telescope()
    for n, ty in tele.modal:
        tyd = _check_type(sig, prefix.without_ordinary(), ty)
        prefix = prefix.extend_modal(n, ty)
        d = Derivation(Judgment("context", prefix), "extend-modal", (d, tyd))
    d = Derivation(Judgment("context", prefix), "empty-ordinary", (d,))
    for n, ty in tele.ordinary:
        tyd = _check_type(sig, prefix, ty)
        prefix = Telescope(prefix.modal, prefix.ordinary + ((n, ty),))
        d = Derivation(Judgment("context", prefix), "extend-ordinary", (d, tyd))
    return d


def _infer(sig: Signature, tele: Telescope, tm: TermExpr) -> tuple[TypeExpr, Derivation]:
    if isinstance(tm, Var):
        ty = tele.modal_lookup(tm.name)
        if ty is not None:
            return ty, Derivation(Judgment("term", tele, tm, ty), "modal-var")
        ty = tele.ordinary_lookup(tm.name)
        if ty is not None:
            return ty, Derivation(Judgment("term", tele, tm, ty), "ordinary-var")
        raise CheckError(f"unbound variable {tm.name!r}", "variable",
                         Judgment("term", tele, tm, BaseType("?")).show())
    if isinstance(tm, Const):
        ty = sig.constant_type(tm.name)
        if ty is None:
            raise CheckError(f"undeclared constant {tm.name!r}", "constant",
                             Judgment("term", tele, tm, BaseType("?")).show())
        return ty, Derivation(Judgment("term", tele, tm, ty), "constant")
    if isinstance(tm, Shut):
        inner_tele = tele.without_ordinary()
        ty, d = _infer(sig, inner_tele, tm.body)
        out = BoxType(ty)
        return out, Derivation(Judgment("term", tele, tm, out), "box-intro", (d,))
    ty_s, d_s = _infer(sig, tele, tm.scrutinee)
    if not isinstance(ty_s, BoxType):
        raise CheckError("scrutinee of let box is not of a boxed type", "box-elim",
                         Judgment("term", tele, tm.scrutinee, ty_s).show())
    if tm.binder in tele.names():
        raise CheckError(f"binder {tm.binder!r} shadows a context name", "box-elim",
                         Judgment("term", tele, tm, BaseType("?")).show())
    inner = tele.extend_modal(tm.binder, ty_s.inner)
    ty_b, d_b = _infer(sig, inner, tm.body)
    motive = _check_type(sig, tele, ty_b)
    return ty_b, Derivation(Judgment("term", tele, tm, ty_b), "box-elim",
                            (d_s, d_b, motive))


def check_term(sig: Signature, tele: Telescope, tm: TermExpr,
               ty: TypeExpr) -> Derivation:
    """Check a term against a type, returning the full derivation."""
    got, d = _infer(sig, tele, tm)
    if got != ty:
        raise CheckError(
            f"term has type {format_type(got)}, not {format_type(ty)}",
            "conversion", Judgment("term", tele, tm, ty).show())
    return d


def infer_type(sig: Signature, tele: Telescope, tm: TermExpr) -> TypeExpr:
    """The unique type of a term in a telescope."""
    ty, _ = _infer(sig, tele, tm)
    return ty


def check_module(mod: Module) -> list[Derivation]:
    """Check every directive, stopping at the first failure.

    Each check directive contributes its context-formation derivation
    followed by the typing derivation.  An equal directive contributes
    the typing derivations of both sides, each side typed once, and its
    sides must then have one normal form, which is what ``defeq``
    decides for two terms it has checked.
    """
    sig = mod.signature
    out = []
    for d in mod.directives:
        out.append(_check_telescope(sig, d.telescope))
        if isinstance(d, CheckDirective):
            out.append(check_term(sig, d.telescope, d.term, d.type))
        else:
            left = check_term(sig, d.telescope, d.left, d.type)
            right = check_term(sig, d.telescope, d.right, d.type)
            out.extend([left, right])
            if normal_form(d.left) != normal_form(d.right):
                raise CheckError(
                    f"terms are not definitionally equal at line {d.line}",
                    "conversion",
                    Judgment("term", d.telescope, d.left, d.type).show())
    return out


# ---------------------------------------------------------------------------
# Independent derivation validation


def recheck(sig: Signature, d: Derivation) -> list[str]:
    """Replay a derivation rule by rule without calling the checker.

    Each node is validated as a single rule instance: the premises must
    have exactly the shapes the rule demands and the side conditions
    must hold on the spot.
    """
    errs = []

    def bad(msg: str):
        errs.append(f"{d.rule}: {msg}")

    j = d.judgment
    if d.rule == "empty-modal":
        if j.telescope != Telescope() or d.premises:
            bad("must conclude the empty context with no premises")
    elif d.rule == "extend-modal":
        if len(d.premises) != 2 or not j.telescope.modal:
            bad("needs a context premise and a type premise")
        else:
            prev, tyd = d.premises
            n, ty = j.telescope.modal[-1]
            if prev.judgment.telescope.modal != j.telescope.modal[:-1]:
                bad("context premise does not match the prefix")
            if tyd.judgment != Judgment("type", Telescope(j.telescope.modal[:-1]), None, ty):
                bad("type premise formed in the wrong telescope")
            if n in (m for m, _ in j.telescope.modal[:-1]):
                bad("modal name reused")
    elif d.rule == "empty-ordinary":
        if j.telescope.ordinary or len(d.premises) != 1:
            bad("must conclude a context with empty ordinary zone")
    elif d.rule == "extend-ordinary":
        if len(d.premises) != 2 or not j.telescope.ordinary:
            bad("needs a context premise and a type premise")
        else:
            prev, tyd = d.premises
            pre = Telescope(j.telescope.modal, j.telescope.ordinary[:-1])
            n, ty = j.telescope.ordinary[-1]
            if prev.judgment.telescope != pre:
                bad("context premise does not match the prefix")
            if tyd.judgment != Judgment("type", pre, None, ty):
                bad("type premise formed in the wrong telescope")
            if n in pre.names():
                bad("ordinary name reused")
    elif d.rule == "base-form":
        if not isinstance(j.type, BaseType) or not sig.has_base(j.type.name):
            bad("concludes an undeclared base type")
    elif d.rule == "box-form":
        if not isinstance(j.type, BoxType) or len(d.premises) != 1:
            bad("must conclude a boxed type from one premise")
        elif d.premises[0].judgment != Judgment(
                "type", j.telescope.without_ordinary(), None, j.type.inner):
            bad("premise is not the inner type over the modal zone")
    elif d.rule == "modal-var":
        if not isinstance(j.term, Var) or j.telescope.modal_lookup(j.term.name) != j.type:
            bad("variable is not a modal hypothesis of this type")
    elif d.rule == "ordinary-var":
        if not isinstance(j.term, Var) or \
                j.telescope.ordinary_lookup(j.term.name) != j.type:
            bad("variable is not an ordinary hypothesis of this type")
    elif d.rule == "constant":
        if not isinstance(j.term, Const) or sig.constant_type(j.term.name) != j.type:
            bad("constant does not carry its declared type")
    elif d.rule == "box-intro":
        if not isinstance(j.term, Shut) or not isinstance(j.type, BoxType) \
                or len(d.premises) != 1:
            bad("must conclude box(t) : Box B from one premise")
        elif d.premises[0].judgment != Judgment(
                "term", j.telescope.without_ordinary(), j.term.body, j.type.inner):
            bad("premise must type the body in the emptied ordinary zone")
    elif d.rule == "box-elim":
        if not isinstance(j.term, LetBox) or len(d.premises) != 3:
            bad("must conclude a let box from scrutinee, body, and motive")
        else:
            ds, db, dm = d.premises
            sj = ds.judgment
            if sj.telescope != j.telescope or sj.term != j.term.scrutinee or \
                    not isinstance(sj.type, BoxType):
                bad("scrutinee premise malformed")
            elif j.term.binder in j.telescope.names():
                bad("binder shadows the context")
            else:
                inner = j.telescope.extend_modal(j.term.binder, sj.type.inner)
                if db.judgment != Judgment("term", inner, j.term.body, j.type):
                    bad("body premise typed in the wrong extension")
                if dm.judgment != Judgment("type", j.telescope, None, j.type):
                    bad("motive premise malformed")
    else:
        bad("unknown rule")
    for p in d.premises:
        errs.extend(recheck(sig, p))
    return errs


# ---------------------------------------------------------------------------
# Reduction and definitional equality


def _flatten(tm: TermExpr, env: Mapping[str, TermExpr],
             lets: list[tuple[str, TermExpr]], fresh: Iterator[int]) -> TermExpr:
    """Append the eliminators of one scope to ``lets`` and return its tail.

    ``env`` says what each let binder in scope stands for: the fresh
    binder of its eliminator, or the normal form of the box body it was
    bound to by beta, flattened again at every use.  Fresh binders start
    with ``#``, which no parsed name does.
    """
    while isinstance(tm, LetBox):
        s = _flatten(tm.scrutinee, env, lets, fresh)
        if isinstance(s, Shut):
            value = s.body
        else:
            value = Var(f"#{next(fresh)}")
            lets.append((value.name, s))
        env = {**env, tm.binder: value}
        tm = tm.body
    if isinstance(tm, Var) and tm.name in env:
        return _flatten(env[tm.name], {}, lets, fresh)
    if isinstance(tm, Shut):
        return Shut(_scope(tm.body, env, fresh))
    return tm


def _scope(tm: TermExpr, env: Mapping[str, TermExpr],
           fresh: Iterator[int]) -> TermExpr:
    """One scope in normal form, up to the names of its binders."""
    lets: list[tuple[str, TermExpr]] = []
    tail = _flatten(tm, env, lets, fresh)
    # A scrutinee only names earlier binders, so one backward pass drops
    # every let that the tail does not depend on.  What is left is the
    # chain of the tail's one free variable, last let first.
    live = set(free_vars(tail))
    chain = []
    for binder, atom in reversed(lets):
        if binder in live:
            chain.append((binder, atom))
            live |= free_vars(atom)
    # A tail box(u) thus ends the chain at u, which occurs nowhere else.
    if isinstance(tail, Shut) and chain and tail.body == Var(chain[0][0]):
        tail, chain = chain[0][1], chain[1:]
    for binder, atom in chain:
        tail = LetBox(binder, atom, tail)
    return tail


def normal_form(tm: TermExpr) -> TermExpr:
    """The normal form of a well-typed term under beta and eta.

    The equations are beta, ``let box u := box(M) in N = N[M/u]``, and
    eta with an ordinary motive, ``let box u := s in t[box(u)/x] = t[s/x]``
    for ``u`` not free in ``t`` and an ordinary variable ``x``, which
    therefore occurs under no box.  As ``Box`` has a single constructor,
    this extensional eta of a positive type needs no search (compare
    Lindley, *Extensional rewriting with sums*, TLCA 2007).

    The form is computed per scope, which is the top level or the body
    of one ``box(...)``.  A let never moves across a box, since the
    motive variable of eta cannot occur under one.  Within a scope:

    1. beta-reduce, substituting the body of a box for its binder;
    2. give every binder a fresh name;
    3. flatten the scope by commuting conversions into a chain of
       ``let box u := a`` over atoms ``a`` (variables and constants) and
       a tail that is an atom or ``box(M)``, reducing the redexes this
       exposes;
    4. normalize each ``M`` as its own scope;
    5. drop the lets whose binder is unused, then refold a tail
       ``box(u)`` into ``u``'s scrutinee;
    6. canonicalize the binders.

    Steps 1 to 4 are one pass of ``_flatten``, whose environment maps
    each binder to its fresh name or to the body it was bound to.

    A term of this calculus has a single leaf.  So, by induction on
    scopes, after step 5 a scope has at most one free variable, and its
    lets form one chain from an atom bound outside the scope to the
    tail.  Normal forms for positive eliminators in general also share
    the lets of one atom and order independent chains; here no two live
    lets scrutinize one atom and there is no second chain, so both of
    those steps would find nothing to do.

    Soundness: every step is an instance of beta or of eta.  Renaming is
    alpha.  Commuting ``let box u := (let box v := s in t) in r`` to
    ``let box v := s in let box u := t in r`` is eta at ``s`` with the
    motive ``let box u := (let box v := x in t) in r``, then one beta
    step.  An unused let goes by eta with a motive free of ``x``; a tail
    ``box(u)`` refolds by eta with ``x`` as the tail.  In each motive
    ``x`` sits in the scope, under no box.

    Completeness: the normal form of a scope is its tail and the chain
    feeding the tail's free variable, with canonical names; it remains
    to see that each step of the equations preserves it.  A beta step
    does, since step 1 performs every redex, those created by
    substitution included.  So does an eta step
    ``t[s/x] ~ let box u := s in t[box(u)/x]``: say ``s`` flattens to
    lets ``L`` and a tail.  If the tail is ``box(M)``, beta turns the
    right side into the left.  If it is an atom ``a``, every occurrence
    of ``x`` is in the scope.  As a scrutinee, the left side's copy of
    ``L`` and ``let box w := a`` match the right side's ``L`` and ``u``,
    since ``let box w := box(u)`` reduces to ``w := u``.  As the tail,
    the right side's ``box(u)`` ends the chain at ``u`` and refolds to
    ``a``.  Lets off the chain, among them ``u`` when ``x`` does not
    occur, are dropped on both sides.  Each scope is formed from the
    normal forms of the scopes inside it, so congruence holds too, and
    terms equal under the equations have one normal form.
    """
    return canonicalize(_scope(tm, {}, count()))


def defeq(sig: Signature, tele: Telescope, t1: TermExpr, t2: TermExpr,
          ty: TypeExpr) -> bool:
    """Decide definitional equality at a type.

    Both sides must check against ``ty`` (a ``CheckError`` says which
    does not); they are then equal exactly when their normal forms are.
    """
    check_term(sig, tele, t1, ty)
    check_term(sig, tele, t2, ty)
    return normal_form(t1) == normal_form(t2)
