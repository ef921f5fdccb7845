"""Interpretation of the modal kernel in a comonad model.

A modal context becomes a coalgebra, built by extending the terminal
coalgebra with cofree types; the ordinary zone then grows by plain
comprehension over the carrier.  The box connective lands on the
induced endofunctor over the coalgebra, box introduction on its term
action, and the eliminator on substitution along a section.

Interpretation is partial: a clause that cannot be carried out in the
chosen model reports why instead of raising, and every weakening step
is checked to be strict on the nose, since all the equations of the
kernel are tested as data equalities downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .coalg import (
    Coalgebra,
    ComonadError,
    NaturalModelComonad,
    coalg_extension,
    coalgebra_laws,
    terminal_coalgebra,
)
from .natmodel import (
    BoundExceeded,
    Comprehension,
    ModelError,
    TermOverContext,
    TypeOverContext,
    apply_type_map,
    comprehension,
    subst_term,
    subst_type,
    terms_of,
)
from .presheaf import (Presheaf, PresheafMap, _fibers_within, _flat_maps, compose_maps,
                       identity_map)
from .s4dtt import (
    BaseType,
    CheckDirective,
    Const,
    EqualDirective,
    Judgment,
    LetBox,
    Module,
    Shut,
    Signature,
    Telescope,
    TermExpr,
    TypeExpr,
    Var,
    defeq,
    format_term,
    infer_type,
)


class InterpretationGap(Exception):
    """A clause of the interpretation could not be carried out."""


@dataclass(frozen=True)
class PartialResult:
    """Either a value or the reason it is undefined, never an exception.

    ``notes`` collects non-fatal flags, such as the eliminator being
    interpreted with a nonempty ordinary zone, which goes beyond the
    bare clause by inserting a weakening.
    """

    kind: str
    value: object = None
    reason: str | None = None
    notes: tuple[str, ...] = ()

    @property
    def defined(self) -> bool:
        return self.reason is None


@dataclass(frozen=True)
class ModalEntry:
    syntax: TypeExpr
    before: Coalgebra
    plain: TypeOverContext
    projection: PresheafMap
    generic: TermOverContext


@dataclass(frozen=True)
class OrdinaryEntry:
    syntax: TypeExpr
    type: TypeOverContext
    comp: Comprehension


@dataclass(frozen=True)
class ContextInterp:
    """The semantics of one telescope: a coalgebra and a chain of
    comprehensions over its carrier.  It depends on the hypotheses'
    types only, so its entries carry no names: a variable is found by
    its position in the telescope being interpreted."""

    coalg: Coalgebra
    modal: tuple[ModalEntry, ...]
    ordinary: tuple[OrdinaryEntry, ...]
    presheaf: Presheaf
    to_carrier: PresheafMap


def constant_type(gamma: Presheaf, size: int) -> TypeOverContext:
    """The type with the same finite fiber everywhere."""
    c = gamma.base
    fiber = {(i, g): size for i in c.objects for g in gamma.elements(i)}
    restriction = {(f, g): tuple(range(size))
                   for f in c.morphisms for g in gamma.elements(c.dst[f])}
    return TypeOverContext(gamma, fiber, restriction)


class SemanticTarget:
    """A comonad model prepared for interpretation.

    Base types get constant fibers, two points each unless configured
    otherwise; constants denote the first section of their type over
    the terminal coalgebra.  Each semantic object is built once per
    target and then reused, so the value-keyed memos downstream
    (``bbox_type``, ``fiber_counit``, ``subst_type``) hit on identity:
    a modal zone and a context prefix by the types of their hypotheses,
    names left out, so ``u :: A`` and ``p3 :: A`` share one coalgebra
    and one ``ContextInterp``; a type over a coalgebra by the coalgebra
    object and the type's syntax, the weakening ``!`` of a constant by
    its context, and constants by name.  Keys on an object hold that
    object, so its id is not reused while the target lives.
    """

    def __init__(self, comonad: NaturalModelComonad, name: str = "target",
                 base_sizes: Mapping[str, int] | None = None,
                 default_base_size: int = 2):
        self.comonad = comonad
        self.name = name
        self.base_sizes = dict(base_sizes or {})
        self.default_base_size = default_base_size
        self.empty_modal = terminal_coalgebra(comonad)
        self._modal_cache: dict[tuple, tuple[Coalgebra, tuple[ModalEntry, ...]]] = {}
        self._ctx_cache: dict[tuple, ContextInterp] = {}
        self._const_cache: dict[str, TermOverContext] = {}
        self._type_cache: dict[tuple, tuple[Coalgebra, TypeOverContext]] = {}
        self._bang_cache: dict[int, tuple[ContextInterp, PresheafMap]] = {}

    def base_size(self, name: str) -> int:
        return self.base_sizes.get(name, self.default_base_size)

    # types ------------------------------------------------------------

    def type_over_coalgebra(self, cg: Coalgebra, ty: TypeExpr) -> TypeOverContext:
        """A syntactic type as a plain type over a carrier."""
        key = (id(cg), ty)
        hit = self._type_cache.get(key)
        if hit is None:
            if isinstance(ty, BaseType):
                a = constant_type(cg.carrier, self.base_size(ty.name))
            else:
                a = self.comonad.bbox_type(cg, self.type_over_coalgebra(cg, ty.inner))
            hit = self._type_cache[key] = (cg, a)
        return hit[1]

    def type_over(self, ci: ContextInterp, ty: TypeExpr) -> TypeOverContext:
        over_carrier = self.type_over_coalgebra(ci.coalg, ty)
        return subst_type(over_carrier, ci.to_carrier)

    # contexts ----------------------------------------------------------

    def modal_context(self, modal: tuple[tuple[str, TypeExpr], ...]
                      ) -> tuple[Coalgebra, tuple[ModalEntry, ...]]:
        """The coalgebra of a modal zone and its entries, one per list of
        hypothesis types."""
        key = tuple(ty for _, ty in modal)
        if key in self._modal_cache:
            return self._modal_cache[key]
        if not modal:
            out = (self.empty_modal, ())
        else:
            prev, entries = self.modal_context(modal[:-1])
            ty = key[-1]
            plain = self.type_over_coalgebra(prev, ty)
            ftype = self.comonad.cofree_type(prev, plain)
            ext, proj, generic = coalg_extension(self.comonad, ftype)
            entry = ModalEntry(ty, prev, plain, proj, generic.term)
            out = (ext, entries + (entry,))
        self._modal_cache[key] = out
        return out

    def context(self, tele: Telescope) -> ContextInterp:
        """The semantics of a telescope, one per pair of lists of
        hypothesis types, modal and ordinary."""
        key = (tuple(ty for _, ty in tele.modal), tuple(ty for _, ty in tele.ordinary))
        if key in self._ctx_cache:
            return self._ctx_cache[key]
        cg, modal_entries = self.modal_context(tele.modal)
        if tele.ordinary:
            prev = self.context(Telescope(tele.modal, tele.ordinary[:-1]))
            ty = key[1][-1]
            a = self.type_over(prev, ty)
            comp = comprehension(a)
            entry = OrdinaryEntry(ty, a, comp)
            ci = ContextInterp(cg, modal_entries, prev.ordinary + (entry,),
                               comp.presheaf,
                               compose_maps(prev.to_carrier, comp.p))
        else:
            ci = ContextInterp(cg, modal_entries, (), cg.carrier,
                               identity_map(cg.carrier))
        self._ctx_cache[key] = ci
        return ci

    # constants ----------------------------------------------------------

    def constant_section(self, sig: Signature, name: str) -> TermOverContext:
        if name in self._const_cache:
            return self._const_cache[name]
        ty = sig.constant_type(name)
        a = self.type_over_coalgebra(self.empty_modal, ty)
        sections = terms_of(a)
        if not sections:
            raise InterpretationGap(
                f"constant {name!r} has no section over the terminal coalgebra")
        self._const_cache[name] = sections[0]
        return sections[0]

    # terms --------------------------------------------------------------

    def term(self, sig: Signature, tele: Telescope, tm: TermExpr,
             ty: TypeExpr) -> tuple[TermOverContext, tuple[str, ...]]:
        """Interpret a typed term; returns the section and any notes."""
        ci = self.context(tele)
        expected = self.type_over(ci, ty)
        t, notes = self._term(sig, tele, ci, tm, ty)
        if t.type != expected:
            raise InterpretationGap(
                f"term {format_term(tm)} landed in the wrong type, "
                "weakening was not strict")
        return t, notes

    def _weaken_tail(self, ci: ContextInterp, t: TermOverContext,
                     position: int) -> TermOverContext:
        """Push a term over the prefix through the later comprehensions."""
        for entry in ci.ordinary[position:]:
            t = subst_term(t, entry.comp.p)
        return t

    def _term(self, sig: Signature, tele: Telescope, ci: ContextInterp,
              tm: TermExpr, ty: TypeExpr) -> tuple[TermOverContext, tuple[str, ...]]:
        if isinstance(tm, Var):
            k = _position(tele.ordinary, tm.name)
            if k is not None:
                return self._weaken_tail(ci, ci.ordinary[k].comp.v, k + 1), ()
            k = _position(tele.modal, tm.name)
            if k is None:
                raise InterpretationGap(f"variable {tm.name!r} not in the context")
            return self._modal_var(ci, k, tm.name), ()
        if isinstance(tm, Const):
            return subst_term(self.constant_section(sig, tm.name), self._bang(ci)), ()
        if isinstance(tm, Shut):
            inner_tele = tele.without_ordinary()
            inner_ci = self.context(inner_tele)
            body, notes = self._term(sig, inner_tele, inner_ci, tm.body, ty.inner)
            boxed = self.comonad.bbox_term(ci.coalg, body)
            return self._weaken_tail(ci, boxed, 0), notes
        if isinstance(tm, LetBox):
            return self._letbox(sig, tele, ci, tm, ty)
        raise InterpretationGap(f"no clause for {tm!r}")

    def _bang(self, ci: ContextInterp) -> PresheafMap:
        """The map into the terminal carrier that weakens a constant."""
        hit = self._bang_cache.get(id(ci))
        if hit is None:
            p = ci.presheaf
            hit = self._bang_cache[id(ci)] = (ci, PresheafMap(
                p, self.empty_modal.carrier, {o: (0,) * p.sizes[o] for o in p.base.objects}))
        return hit[1]

    def _modal_var(self, ci: ContextInterp, k: int, name: str) -> TermOverContext:
        """The ``k``-th modal hypothesis, called ``name`` where it is used."""
        entries = ci.modal
        entry = entries[k]
        t = entry.generic
        for later in entries[k + 1:]:
            t = subst_term(t, later.projection)
        plain = self.type_over_coalgebra(ci.coalg, entry.syntax)
        eps = self.comonad.fiber_counit(ci.coalg, plain)
        if t.type != eps.source:
            raise InterpretationGap(
                f"modal variable {name!r} was not weakened strictly")
        t = apply_type_map(eps, t)
        return self._weaken_tail(ci, t, 0)

    def _letbox(self, sig: Signature, tele: Telescope, ci: ContextInterp,
                tm: LetBox, ty: TypeExpr) -> tuple[TermOverContext, tuple[str, ...]]:
        notes: tuple[str, ...] = ()
        if tele.ordinary:
            notes = ("eliminator interpreted under a nonempty ordinary zone "
                     "by threading the section through the comprehensions",)
        ty_s = infer_type(sig, tele, tm.scrutinee)
        s_sem, notes_s = self._term(sig, tele, ci, tm.scrutinee, ty_s)
        inner_tele = Telescope(tele.modal + ((tm.binder, ty_s.inner),),
                               tele.ordinary)
        inner_ci = self.context(inner_tele)
        body, notes_b = self._term(sig, inner_tele, inner_ci, tm.body, ty)
        sigma = self._section_map(ci, inner_ci, s_sem)
        out = subst_term(body, sigma)
        return out, notes + notes_s + notes_b

    def _section_map(self, ci: ContextInterp, inner_ci: ContextInterp,
                     s_sem: TermOverContext) -> PresheafMap:
        """The substitution that feeds a boxed section to the fresh
        modal hypothesis and leaves the ordinary zone alone."""
        last = inner_ci.modal[-1]
        ext_comp = comprehension(self.comonad.bbox_type(last.before, last.plain))
        comp = {}
        for o in ci.presheaf.base.objects:
            vals = []
            for e in range(ci.presheaf.sizes[o]):
                coords = []
                cur = e
                for entry in reversed(ci.ordinary):
                    g, a = entry.comp.decode(o, cur)
                    coords.append(a)
                    cur = g
                carrier_elem = cur
                x = s_sem.pick[(o, e)]
                cur2 = ext_comp.encode(o, carrier_elem, x)
                for entry, a in zip(inner_ci.ordinary, reversed(coords)):
                    cur2 = entry.comp.encode(o, cur2, a)
                vals.append(cur2)
            comp[o] = tuple(vals)
        sigma = PresheafMap(ci.presheaf, inner_ci.presheaf, comp)
        errs = sigma.validate()
        if errs:
            raise InterpretationGap("section substitution is not natural: "
                                    + errs[0])
        return sigma


def _position(zone: tuple[tuple[str, TypeExpr], ...], name: str) -> int | None:
    """Where ``name`` first occurs in a zone of a telescope, if it does."""
    for k, (n, _) in enumerate(zone):
        if n == name:
            return k
    return None


# ---------------------------------------------------------------------------
# The public entry point


def interpret(tgt: SemanticTarget, sig: Signature, j) -> PartialResult:
    """Interpret a judgment or directive, absorbing failures.

    Accepts a Judgment from the kernel, or a check or equal directive;
    the result carries a semantic object of matching kind or the
    reason the clause is undefined in this target.
    """
    try:
        if isinstance(j, Judgment):
            if j.flavor == "context":
                ci = tgt.context(j.telescope)
                return PartialResult("context", ci)
            if j.flavor == "type":
                ci = tgt.context(j.telescope)
                return PartialResult("type", tgt.type_over(ci, j.type))
            t, notes = tgt.term(sig, j.telescope, j.term, j.type)
            return PartialResult("term", t, notes=notes)
        if isinstance(j, CheckDirective):
            t, notes = tgt.term(sig, j.telescope, j.term, j.type)
            return PartialResult("term", t, notes=notes)
        if isinstance(j, EqualDirective):
            left, nl = tgt.term(sig, j.telescope, j.left, j.type)
            right, nr = tgt.term(sig, j.telescope, j.right, j.type)
            return PartialResult("equation", (left, right), notes=nl + nr)
    except (InterpretationGap, ComonadError, ModelError, BoundExceeded) as e:
        kind = getattr(j, "flavor", j.__class__.__name__.lower())
        return PartialResult(str(kind), reason=str(e))
    return PartialResult("unknown", reason=f"no clause for {j!r}")


def _near_miss(left: TermOverContext, right: TermOverContext) -> bool:
    """Whether two unequal sections agree up to an automorphism of
    their type; these are reported apart from hard mismatches."""
    if left.type != right.type or left == right:
        return False
    # An automorphism phi with phi(left) == right sends left.pick[k] to
    # right.pick[k] and, being injective, nothing else there: enumerate
    # only the endomaps with these values, as flat families, then look for
    # one that is injective, and so bijective, on every fiber.
    domains = {}
    for k, n in left.type.fiber.items():
        hit = right.pick[k]
        rest = [v for v in range(n) if v != hit]
        for x in range(n):
            domains[(k, x)] = (hit,) if x == left.pick[k] else rest
    ends, families = _flat_maps(left.type, left.type, domains)
    return any(_fibers_within(ends, fam, 1) for fam in families)


def soundness_harness(tgt: SemanticTarget, mod: Module) -> dict:
    """Interpret a checked module and test the semantic equations.

    For every check directive the interpreted term must be a valid
    section of the interpreted type, on the nose.  For every equal
    directive the two interpretations must be equal as data; unequal
    pairs that agree up to an automorphism are counted as near misses
    rather than failures of well-definedness, and both are reported.
    """
    sig = mod.signature
    report = {"target": tgt.name, "directives": [], "ok": True,
              "near_misses": 0, "notes": []}
    # the law errors of each context coalgebra, and the verdict on each
    # context, by id, with the object; contexts equal up to renaming are
    # one object, so each is checked once
    laws: dict[int, tuple[Coalgebra, list[str]]] = {}
    contexts: dict[int, tuple[ContextInterp, bool]] = {}
    for d in mod.directives:
        entry = {"line": d.line}
        ctx = interpret(tgt, sig, Judgment("context", d.telescope))
        ci = ctx.value if ctx.defined else None
        if ci is not None and id(ci) not in contexts:
            cg = ci.coalg
            if id(cg) not in laws:
                laws[id(cg)] = (cg, coalgebra_laws(tgt.comonad, cg))
            contexts[id(ci)] = (ci, not laws[id(cg)][1] and not ci.presheaf.validate())
        entry["context_ok"] = ci is not None and contexts[id(ci)][1]
        if isinstance(d, CheckDirective):
            entry["kind"] = "check"
            res = interpret(tgt, sig, d)
            entry["defined"] = res.defined
            if res.defined:
                t = res.value
                entry["section_ok"] = not t.validate()
                entry["typing_ok"] = t.type == tgt.type_over(ci, d.type)
                entry["ok"] = entry["section_ok"] and entry["typing_ok"]
            else:
                entry["ok"] = False
                entry["reason"] = res.reason
            report["notes"].extend(res.notes)
        else:
            entry["kind"] = "equal"
            res = interpret(tgt, sig, d)
            entry["defined"] = res.defined
            if res.defined:
                left, right = res.value
                entry["syntactic"] = defeq(sig, d.telescope, d.left, d.right, d.type)
                entry["semantic_equal"] = left == right
                entry["near_miss"] = False
                if not entry["semantic_equal"] and _near_miss(left, right):
                    entry["near_miss"] = True
                    report["near_misses"] += 1
                entry["ok"] = (not entry["syntactic"]) or entry["semantic_equal"]
            else:
                entry["ok"] = False
                entry["reason"] = res.reason
            report["notes"].extend(res.notes)
        entry["ok"] = entry["ok"] and entry["context_ok"]
        report["ok"] = report["ok"] and entry["ok"]
        report["directives"].append(entry)
    report["notes"] = sorted(set(report["notes"]))
    return report
