"""``defeq`` against the bounded eta search it replaced.

``search_defeq`` is the earlier decision procedure, kept as a
differential oracle: it beta-normalizes both sides and then searches
outward from each with single unfolding and refolding steps, keeping
only well-typed results, until the explored sets meet or ``fuel``
rounds pass.  It is sound but incomplete, so on well-typed pairs the
check is one way: wherever the search finds an equality, ``defeq``
must decide it too.  The search is slow, so the terms stay small.
``substitute``, ``beta_step`` and ``beta_normalize`` are the
one-redex-at-a-time reduction it starts from; nothing in the package
reads them.
Its single eta moves, chained into walks, must never change the normal
form.  The other way round, whatever ``defeq`` decides equal must interpret
to equal sections in a comonad model.
"""

from itertools import count
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsem.cli import load_model
from boxsem.interp import SemanticTarget, interpret
from boxsem.s4dtt import (
    BaseType,
    BoxType,
    CheckError,
    Const,
    EqualDirective,
    LetBox,
    Shut,
    Signature,
    Telescope,
    TermExpr,
    Var,
    canonicalize,
    check_term,
    defeq,
    free_vars,
    normal_form,
)

A = BaseType("A")
SIG = Signature(("A",), (("a0", A), ("c0", BoxType(A))))
TYPES = [A, BoxType(A), BoxType(BoxType(A))]
TELESCOPES = [
    Telescope(ordinary=(("y", BoxType(A)),)),
    Telescope(ordinary=(("y", BoxType(A)), ("z", BoxType(BoxType(A))))),
    Telescope(modal=(("v", BoxType(A)),), ordinary=(("y", BoxType(A)),)),
    Telescope(modal=(("w", A), ("v", BoxType(BoxType(A)))),
              ordinary=(("x", A), ("y", BoxType(A)))),
]


# ---------------------------------------------------------------------------
# Substitution and beta reduction, one redex at a time


def _fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def substitute(tm: TermExpr, target: str, s: TermExpr) -> TermExpr:
    """Capture-avoiding substitution of ``s`` for the variable ``target``."""
    if isinstance(tm, Var):
        return s if tm.name == target else tm
    if isinstance(tm, Const):
        return tm
    if isinstance(tm, Shut):
        return Shut(substitute(tm.body, target, s))
    scrut = substitute(tm.scrutinee, target, s)
    if tm.binder == target:
        return LetBox(tm.binder, scrut, tm.body)
    if tm.binder in free_vars(s) and target in free_vars(tm.body):
        fresh = _fresh_name(tm.binder, free_vars(s) | free_vars(tm.body) | {target})
        body = substitute(tm.body, tm.binder, Var(fresh))
    else:
        fresh, body = tm.binder, tm.body
    return LetBox(fresh, scrut, substitute(body, target, s))


def beta_step(tm: TermExpr) -> TermExpr | None:
    """One innermost reduction of a let box over a box, or None."""
    if isinstance(tm, (Var, Const)):
        return None
    if isinstance(tm, Shut):
        inner = beta_step(tm.body)
        return None if inner is None else Shut(inner)
    s = beta_step(tm.scrutinee)
    if s is not None:
        return LetBox(tm.binder, s, tm.body)
    b = beta_step(tm.body)
    if b is not None:
        return LetBox(tm.binder, tm.scrutinee, b)
    if isinstance(tm.scrutinee, Shut):
        return substitute(tm.body, tm.binder, tm.scrutinee.body)
    return None


def beta_normalize(tm: TermExpr) -> TermExpr:
    while True:
        nxt = beta_step(tm)
        if nxt is None:
            return tm
        tm = nxt


# ---------------------------------------------------------------------------
# The bounded search


def _replace(tm: TermExpr, old: TermExpr, new: TermExpr) -> TermExpr:
    if tm == old:
        return new
    if isinstance(tm, (Var, Const)):
        return tm
    if isinstance(tm, Shut):
        return Shut(_replace(tm.body, old, new))
    return LetBox(tm.binder, _replace(tm.scrutinee, old, new),
                  _replace(tm.body, old, new))


def _subterms(tm: TermExpr) -> Iterator[TermExpr]:
    yield tm
    if isinstance(tm, Shut):
        yield from _subterms(tm.body)
    elif isinstance(tm, LetBox):
        yield from _subterms(tm.scrutinee)
        yield from _subterms(tm.body)


def _fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def _foldable(body: TermExpr, u: str, inside_box: bool = False) -> bool:
    """Whether every occurrence of ``u`` in ``body`` is a boxed variable
    at a position an ordinary motive variable could occupy."""
    if body == Shut(Var(u)):
        return not inside_box
    if isinstance(body, Var):
        return body.name != u
    if isinstance(body, Const):
        return True
    if isinstance(body, Shut):
        return _foldable(body.body, u, True)
    if body.binder == u:
        return _foldable(body.scrutinee, u, inside_box)
    return _foldable(body.scrutinee, u, inside_box) and \
        _foldable(body.body, u, inside_box)


def eta_moves(tm: TermExpr, avoid: frozenset[str]) -> Iterator[TermExpr]:
    """Single unfolding or refolding steps at any position.

    Refolding turns ``let box u := s in t[box(u)/x]`` into ``t[s/x]``;
    unfolding wraps a subterm in the identity eliminator.  Callers
    discard any move that breaks typing.
    """
    if isinstance(tm, LetBox):
        if _foldable(tm.body, tm.binder):
            yield _replace(tm.body, Shut(Var(tm.binder)), tm.scrutinee)
        for s2 in eta_moves(tm.scrutinee, avoid):
            yield LetBox(tm.binder, s2, tm.body)
        for b2 in eta_moves(tm.body, avoid | {tm.binder}):
            yield LetBox(tm.binder, tm.scrutinee, b2)
    elif isinstance(tm, Shut):
        for b2 in eta_moves(tm.body, avoid):
            yield Shut(b2)
    for sub in _subterms(tm):
        fresh = _fresh_name("_u", avoid | free_vars(tm))
        wrapped = LetBox(fresh, sub, Shut(Var(fresh)))
        out = _replace(tm, sub, wrapped)
        if out != tm:
            yield out


def _welltyped(sig, tele, tm, ty) -> bool:
    try:
        check_term(sig, tele, tm, ty)
        return True
    except CheckError:
        return False


def search_defeq(sig, tele, t1, t2, ty, fuel: int = 3,
                 frontier_cap: int = 512) -> bool:
    """The bounded bidirectional search over eta moves."""
    check_term(sig, tele, t1, ty)
    check_term(sig, tele, t2, ty)
    avoid = frozenset(tele.names())

    def canon(t):
        return canonicalize(beta_normalize(t))

    def grow(frontier, seen, other):
        nxt = []
        for t in frontier:
            for m in eta_moves(t, avoid):
                c = canon(m)
                if c in seen or len(seen) >= frontier_cap or \
                        not _welltyped(sig, tele, c, ty):
                    continue
                if c in other:
                    return None
                seen.add(c)
                nxt.append(c)
        return nxt

    left, right = canon(t1), canon(t2)
    if left == right:
        return True
    seen_l, seen_r = {left}, {right}
    frontier_l, frontier_r = [left], [right]
    for _ in range(fuel):
        frontier_l = grow(frontier_l, seen_l, seen_r)
        if frontier_l is None:
            return True
        frontier_r = grow(frontier_r, seen_r, seen_l)
        if frontier_r is None:
            return True
        if not frontier_l and not frontier_r:
            break
    return False


# ---------------------------------------------------------------------------
# Well-typed terms


@st.composite
def terms(draw, ty, modal, ordinary, depth, names=None):
    """A term of type ``ty`` over the given zones, at most ``depth``
    eliminators and introductions deep."""
    names = names if names is not None else (f"b{k}" for k in count())
    options = [Var(n) for n, t in modal + ordinary if t == ty]
    options += [Const(n) for n, t in SIG.constants if t == ty]
    if isinstance(ty, BoxType) and (depth > 0 or not options):
        options.append("box")
    if depth > 0:
        options.append("let")
    pick = draw(st.sampled_from(options))
    if pick == "box":
        return Shut(draw(terms(ty.inner, modal, (), depth - 1, names)))
    if pick == "let":
        inner = draw(st.sampled_from(TYPES[:2]))
        scrutinee = draw(terms(BoxType(inner), modal, ordinary, depth - 1, names))
        binder = next(names)
        body = draw(terms(ty, modal + ((binder, inner),), ordinary, depth - 1, names))
        return LetBox(binder, scrutinee, body)
    return pick


@st.composite
def problems(draw, depth=2):
    """A telescope, a type and a well-typed term of that type."""
    tele = draw(st.sampled_from(TELESCOPES))
    ty = draw(st.sampled_from(TYPES))
    return tele, ty, draw(terms(ty, tele.modal, tele.ordinary, depth))


@st.composite
def eta_walks(draw, steps):
    """A term and the end of a walk of well-typed eta moves from it."""
    tele, ty, tm = draw(problems())
    avoid = frozenset(tele.names())
    end = tm
    for _ in range(draw(st.integers(1, steps))):
        moves = [m for m in eta_moves(end, avoid) if _welltyped(SIG, tele, m, ty)]
        if not moves:
            break
        end = draw(st.sampled_from(moves))
    return tele, ty, tm, end


# ---------------------------------------------------------------------------
# Properties


@given(problems(), st.data())
@settings(max_examples=200, deadline=None)
def test_whatever_the_search_proves_defeq_decides(problem, data):
    tele, ty, left = problem
    right = data.draw(terms(ty, tele.modal, tele.ordinary, 2))
    if search_defeq(SIG, tele, left, right, ty):
        assert defeq(SIG, tele, left, right, ty)
        assert defeq(SIG, tele, right, left, ty)


@given(eta_walks(steps=5))
@settings(max_examples=100, deadline=None)
def test_search_steps_never_change_the_normal_form(walk):
    tele, ty, start, end = walk
    assert defeq(SIG, tele, start, end, ty)


def _assert_one_chain_per_scope(tm: TermExpr):
    previous = None
    while isinstance(tm, LetBox):
        assert previous is None or tm.scrutinee == Var(previous)
        previous, tm = tm.binder, tm.body
    if isinstance(tm, Shut):
        _assert_one_chain_per_scope(tm.body)


@given(problems(depth=3))
@settings(max_examples=200, deadline=None)
def test_normal_forms_are_typed_stable_and_single_chains(problem):
    tele, ty, tm = problem
    nf = normal_form(tm)
    check_term(SIG, tele, nf, ty)
    assert normal_form(nf) == nf
    assert canonicalize(nf) == nf
    # one leaf, so nothing is left to share or to order
    assert len(free_vars(nf)) <= 1
    _assert_one_chain_per_scope(nf)


@pytest.fixture(scope="module")
def disc2():
    root = Path(__file__).resolve().parent.parent
    return SemanticTarget(load_model(str(root / "models" / "disc2.json")).comonad, "disc2")


@given(problems(depth=3), st.data())
@settings(max_examples=200, deadline=None)
def test_decided_equalities_hold_in_a_model(disc2, problem, data):
    tele, ty, left = problem
    right = data.draw(terms(ty, tele.modal, tele.ordinary, 3))
    if defeq(SIG, tele, left, right, ty):
        res = interpret(disc2, SIG, EqualDirective(tele, left, right, ty))
        assert res.defined and res.value[0] == res.value[1]
