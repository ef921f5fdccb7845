"""Command line front end.

Checks surface modules, interprets them in a chosen model, and runs
the law, universe, and coalgebra reports over models described by JSON
files.  Exit codes: 0 for a clean pass, 1 for a failed check with
witnesses on stdout, 2 for malformed input, 3 when an enumeration
would exceed the configured ceiling (override with BOXSEM_CEILING) or a
check stopped at it; a check stopped at the ceiling prints PARTIAL,
never PASS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

from .fincat import FinCat, FinCatError, Functor, Site, discrete_subcategory
from .natmodel import (
    BoundExceeded,
    ModelError,
    NaturalModel,
    all_presheaves,
    classifier_check,
    hs_universe,
    realignment_check,
    typing_check,
)
from .presheaf import (
    KanAdjunction,
    Presheaf,
    PresheafError,
    sheaf_check,
    terminal_presheaf,
)
from .standard import discrete_two_site, sierpinski_site, walking_arrow

# The comonad (``coalg``), the interpreter (``interp``) and the kernel
# (``s4dtt``) are imported by the commands that run them, so a command
# compiles only the layers it reads; annotations do not name their types,
# which would have to be imported here to resolve.

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_CEILING = 3

CEILING_ENV = "BOXSEM_CEILING"
DEFAULT_CEILING = 4096


class BadInput(Exception):
    """The input file could not be understood."""


def enumeration_ceiling() -> int:
    raw = os.environ.get(CEILING_ENV)
    if raw is None:
        return DEFAULT_CEILING
    try:
        ceiling = int(raw)
    except ValueError:
        raise BadInput(f"{CEILING_ENV} must be an integer, got {raw!r}")
    if ceiling < 0:
        raise BadInput(f"{CEILING_ENV} must not be negative, got {raw!r}")
    return ceiling


# ---------------------------------------------------------------------------
# Model files


@dataclass
class ModelBundle:
    name: str
    category: FinCat
    bound: int
    presheaves: dict[str, Presheaf]
    site: Site | None
    # what the comonad block declares, checked when the file is loaded: the
    # natural model of the identity comonad or the adjunction the comonad
    # comes from; None when the file declares no comonad
    _comonad_source: NaturalModel | KanAdjunction | None

    @cached_property
    def comonad(self):
        """The declared ``coalg.NaturalModelComonad``, built when first
        read; None when the file declares no comonad."""
        source = self._comonad_source
        if source is None:
            return None
        from .coalg import comonad_from_adjunction, identity_comonad
        if isinstance(source, NaturalModel):
            return identity_comonad(source)
        return comonad_from_adjunction(source, self.bound)


def _object(value, what: str) -> dict:
    """A block of the model file that must be a JSON object."""
    if not isinstance(value, dict):
        raise BadInput(f"{what} must be a JSON object, got {value!r}")
    return value


def _load_category(name: str, spec: dict) -> FinCat:
    try:
        objects = tuple(spec["objects"])
        identities = dict(spec["identities"])
        morphisms = [m["name"] for m in spec.get("morphisms", [])]
        src = {m["name"]: m["src"] for m in spec.get("morphisms", [])}
        dst = {m["name"]: m["dst"] for m in spec.get("morphisms", [])}
    except (KeyError, TypeError) as e:
        raise BadInput(f"category block malformed: {e}")
    if not all(isinstance(i, str) for i in identities.values()):
        raise BadInput(f"identities must name morphisms, got {identities!r}")
    for o, i in identities.items():
        if i not in morphisms:
            morphisms.append(i)
        src[i] = dst[i] = o
    table = {}
    for o, i in identities.items():
        for m in morphisms:
            if src[m] == o:
                table[(m, i)] = m
            if dst[m] == o:
                table[(i, m)] = m
    composition = spec.get("composition", [])
    if not isinstance(composition, list):
        raise BadInput(f"composition must be a list of [g, f, gf], got {composition!r}")
    for triple in composition:
        if not (isinstance(triple, list) and len(triple) == 3
                and all(isinstance(m, str) for m in triple)):
            raise BadInput(f"composition entries are [g, f, gf], got {triple!r}")
        g, f, gf = triple
        table[(g, f)] = gf
    cat = FinCat(name, objects, tuple(morphisms), src, dst, identities, table)
    errs = cat.validate()
    if errs:
        raise BadInput("category does not validate: " + "; ".join(errs[:4]))
    return cat


def _load_presheaf(cat: FinCat, spec: dict) -> Presheaf:
    try:
        sizes = dict(spec["sizes"])
        bad = {o: n for o, n in sizes.items() if type(n) is not int}
        if bad:
            raise BadInput(f"presheaf sizes must be integers, got {bad}")
        action = {f: tuple(v) for f, v in spec.get("actions", {}).items()}
        for o in cat.objects:
            i = cat.id(o)
            if i not in action:
                action[i] = tuple(range(sizes.get(o, 0)))
        unknown = [o for o in sizes if o not in cat.objects] + \
            [f for f in action if f not in cat.morphisms]
        if unknown:
            raise BadInput(f"presheaf block names what the category lacks: {unknown}")
        p = Presheaf(cat, sizes, action)
        errs = p.validate()
    except KeyError as e:
        raise BadInput(f"presheaf block malformed: missing {e}")
    except (AttributeError, TypeError, ValueError) as e:
        raise BadInput(f"presheaf block malformed: {e}")
    if errs:
        raise BadInput("presheaf does not validate: " + "; ".join(errs[:4]))
    return p


def _load_site(cat: FinCat, spec: dict) -> Site:
    try:
        covers = {o: tuple(frozenset(s) for s in sieves)
                  for o, sieves in _object(spec.get("covers", {}), "site covers").items()}
    except TypeError as e:
        raise BadInput(f"site block malformed: {e}")
    unknown = sorted({m for sieves in covers.values() for s in sieves for m in s}
                     - set(cat.morphisms), key=str)
    if unknown:
        raise BadInput(f"site covers name unknown morphisms: {unknown}")
    site = Site(cat, covers, mode=spec.get("mode", "coverage"))
    errs = site.validate()
    if errs:
        raise BadInput("site does not validate: " + "; ".join(errs[:4]))
    return site


def _load_comonad(cat: FinCat, bound: int, spec: dict) -> NaturalModel | KanAdjunction:
    """Check a comonad block; return what its comonad is built from."""
    if spec.get("identity"):
        return NaturalModel(cat, bound)
    if spec.get("from_points"):
        return KanAdjunction(discrete_subcategory(cat)[1])
    if "functor" in spec:
        f = _object(spec["functor"], "the comonad functor block")
        try:
            source_spec, obj_map, mor_map = f["source"], dict(f["obj_map"]), dict(f["mor_map"])
        except KeyError as e:
            raise BadInput(f"comonad functor block malformed: missing {e}")
        except (TypeError, ValueError) as e:
            raise BadInput(f"comonad functor block malformed: {e}")
        source = _load_category(f.get("name", "source"), source_spec)
        u = Functor(f.get("name", "u"), source, cat, obj_map, mor_map)
        errs = u.validate()
        if errs:
            raise BadInput("functor does not validate: " + "; ".join(errs[:4]))
        return KanAdjunction(u)
    raise BadInput("comonad block must declare identity, from_points, or a functor")


def _check_bound(bound: int) -> int:
    if bound < 0:
        raise BadInput(f"bound must not be negative, got {bound}")
    return bound


def load_model(path: str) -> ModelBundle:
    candidates = [path, os.path.join("models", path),
                  os.path.join("models", path + ".json"), path + ".json"]
    found = next((c for c in candidates if os.path.isfile(c)), None)
    if found is None:
        raise BadInput(f"no model file found for {path!r}")
    try:
        with open(found) as fh:
            spec = json.load(fh)
    except json.JSONDecodeError as e:
        raise BadInput(f"{found}: not valid JSON: {e}")
    spec = _object(spec, found)
    if "category" not in spec:
        raise BadInput(f"{found}: missing the category block")
    name = os.path.splitext(os.path.basename(found))[0]
    cat = _load_category(name, spec["category"])
    bound = spec.get("bound", 1)
    if type(bound) is not int:
        raise BadInput(f"{found}: bound must be an integer, got {bound!r}")
    _check_bound(bound)
    presheaves = {pname: _load_presheaf(cat, pspec) for pname, pspec in
                  _object(spec.get("presheaves", {}), "the presheaves block").items()}
    site = _load_site(cat, _object(spec["site"], "the site block")) if "site" in spec else None
    comonad_source = _load_comonad(cat, bound, _object(spec["comonad"], "the comonad block")) \
        if "comonad" in spec else None
    return ModelBundle(name, cat, bound, presheaves, site, comonad_source)


# ---------------------------------------------------------------------------
# Reporting helpers


def _emit(report: dict, out: str | None):
    if out:
        try:
            with open(out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True, default=str)
        except OSError as e:
            raise BadInput(f"cannot write the report: {e}")


def _at_ceiling(e: Exception) -> int:
    """Report a check stopped by the enumeration ceiling."""
    print(f"ceiling: {e}", file=sys.stderr)
    return EXIT_CEILING


def _status(ok: bool, truncated: bool = False) -> str:
    """A check cut short by the ceiling is PARTIAL, never PASS."""
    return "PARTIAL" if ok and truncated else "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# Commands


def read_module(path: str):
    """Read a surface module as UTF-8 and parse it into an
    ``s4dtt.Module``; any failure is BadInput."""
    from .s4dtt import ParseError, parse
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except ParseError as e:
        raise BadInput(f"parse error: {e}")
    except RecursionError:
        raise BadInput(f"parse error: {path}: terms nest too deeply")
    except UnicodeDecodeError as e:
        raise BadInput(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})")
    except OSError as e:
        raise BadInput(str(e))


@contextmanager
def _nesting(path: str):
    """Refuse as bad input a module whose terms nest deeper than the
    recursive checker, replay or interpreter can follow."""
    try:
        yield
    except RecursionError:
        raise BadInput(f"{path}: terms nest too deeply") from None


def cmd_check(args) -> int:
    from .s4dtt import CheckError, check_module, recheck
    mod = read_module(args.file)
    try:
        with _nesting(args.file):
            derivations = check_module(mod)
            replay = sorted(err for d in derivations
                            for err in recheck(mod.signature, d))
            shown = [(d.judgment.show(), d.rule) for d in derivations]
    except CheckError as e:
        print(f"FAIL {e}")
        print(f"  judgment: {e.judgment}")
        print(f"  rule gap: {e.rule_gap}")
        _emit({"ok": False, "judgment": e.judgment, "rule_gap": e.rule_gap,
               "message": str(e)}, args.out)
        return EXIT_FAIL
    if replay:
        print("FAIL derivations do not replay:")
        for err in replay:
            print("  " + err)
        _emit({"ok": False, "replay_errors": replay}, args.out)
        return EXIT_FAIL
    for judgment, rule in shown:
        print(f"PASS {judgment}  [{rule}]")
    print(f"ok: {len(derivations)} derivations, all replayed")
    _emit({"ok": True,
           "derivations": [{"judgment": judgment, "rule": rule}
                           for judgment, rule in shown]}, args.out)
    return EXIT_OK


def cmd_interpret(args) -> int:
    from .interp import SemanticTarget, soundness_harness
    from .s4dtt import CheckError, check_module
    bundle = load_model(args.model)
    if bundle.comonad is None:
        raise BadInput(f"model {bundle.name!r} declares no comonad")
    mod = read_module(args.file)
    try:
        with _nesting(args.file):
            check_module(mod)
    except CheckError as e:
        print(f"FAIL (ill-typed input) {e}")
        return EXIT_FAIL
    tgt = SemanticTarget(bundle.comonad, name=bundle.name)
    with _nesting(args.file):
        report = soundness_harness(tgt, mod)
    for entry in report["directives"]:
        label = f"line {entry['line']}" if entry.get("line") else "directive"
        print(f"{_status(entry['ok'])} {entry['kind']} {label}"
              + (f"  ({entry['reason']})" if entry.get("reason") else ""))
    for note in report["notes"]:
        print(f"note: {note}")
    print(f"{_status(report['ok'])} interpretation in {bundle.name!r}"
          f" ({report['near_misses']} near misses)")
    _emit(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_FAIL


def cmd_model_laws(args) -> int:
    bundle = load_model(args.model)
    report = {"model": bundle.name, "sections": {}}
    ok = True

    cat_errs = bundle.category.validate()
    report["sections"]["category"] = {"ok": not cat_errs,
                                      "witnesses": sorted(cat_errs)}
    print(f"{_status(not cat_errs)} category axioms"
          f" ({len(bundle.category.objects)} objects,"
          f" {len(bundle.category.morphisms)} morphisms)")
    ok &= not cat_errs

    for pname in sorted(bundle.presheaves):
        errs = bundle.presheaves[pname].validate()
        report["sections"][f"presheaf:{pname}"] = {"ok": not errs,
                                                   "witnesses": sorted(errs)}
        print(f"{_status(not errs)} presheaf {pname!r} functoriality")
        ok &= not errs

    if bundle.site is not None:
        errs = bundle.site.validate()
        report["sections"]["site"] = {"ok": not errs, "witnesses": sorted(errs)}
        print(f"{_status(not errs)} site ({bundle.site.mode})")
        ok &= not errs

    if bundle.comonad is not None:
        from .coalg import validate_comonad
        vr = validate_comonad(bundle.comonad)
        for part in ("laws", "cartesian", "display", "tau", "fiber_laws", "faithful"):
            print(f"{_status(bool(vr[part]))} comonad {part.replace('_', ' ')}")
        report["sections"]["comonad"] = {
            "ok": vr["ok"], "witnesses": sorted(map(str, vr["witnesses"]))}
        ok &= vr["ok"]

    report["ok"] = bool(ok)
    _emit(report, args.out)
    print(f"{_status(ok)} model {bundle.name!r}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_model_universe(args) -> int:
    bundle = load_model(args.model)
    bound = _check_bound(args.bound if args.bound is not None else bundle.bound)
    model = NaturalModel(bundle.category, bound)
    ceiling = enumeration_ceiling()
    try:
        u = hs_universe(model)
        sizes = {o: u.presheaf.sizes[o] for o in bundle.category.objects}
        print(f"universe sizes at bound {bound}: "
              + ", ".join(f"{o}: {n}" for o, n in sorted(sizes.items())))
        tc = typing_check(model, terminal_presheaf(bundle.category), bound)
        tc_ok = tc["essential_surjectivity"] and tc["fully_faithful"]
        print(f"{_status(tc_ok)} typing equivalence over the unit context"
              f" ({tc['display_maps']} display maps)")
        cc = classifier_check(u, bound)
        cc_ok = cc["bijective"] and cc["natural"]
        print(f"{_status(cc_ok)} codes agree with bounded types, naturally")
        rc = realignment_check(u, bound, max_cases=ceiling)
        truncated = rc.get("truncated", False)
        print(f"{_status(rc['ok'], truncated)} realignment along monos"
              f" ({rc.get('cases', '?')} cases)")
    except BoundExceeded as e:
        return _at_ceiling(e)
    report = {"model": bundle.name, "bound": bound, "sizes": sizes,
              "typing": {"essential_surjectivity": tc["essential_surjectivity"],
                         "fully_faithful": tc["fully_faithful"],
                         "display_maps": tc["display_maps"]},
              "classifier": {"bijective": cc["bijective"],
                             "natural": cc["natural"]},
              "realignment": {"ok": rc["ok"], "cases": rc.get("cases")},
              "ok": tc_ok and cc_ok and rc["ok"]}
    if truncated:
        report["truncated"] = True
    _emit(report, args.out)
    print(f"{_status(report['ok'], truncated)} universe report for {bundle.name!r}")
    if not report["ok"]:
        return EXIT_FAIL
    return EXIT_CEILING if truncated else EXIT_OK


def cmd_model_coalgebras(args) -> int:
    from .coalg import (
        ComonadError,
        EnumerationCeiling,
        classifier_report,
        coalgebra_category,
        coalgebra_classifier,
        comparison_check,
        kock_wraith_classifier,
        kock_wraith_report,
    )
    bundle = load_model(args.model)
    if bundle.comonad is None:
        raise BadInput(f"model {bundle.name!r} declares no comonad")
    w = bundle.comonad
    bound = _check_bound(args.bound if args.bound is not None else bundle.bound)
    ceiling = enumeration_ceiling()
    report = {"model": bundle.name, "bound": bound}
    ok = True
    try:
        cat = coalgebra_category(w, bound, max_carriers=ceiling)
        tri = cat.triangle_report()
        print(f"{len(cat.coalgebras)} coalgebras on carriers up to {bound}")
        print(f"{_status(tri['ok'])} unit and counit triangles")
        report["coalgebras"] = len(cat.coalgebras)
        report["triangles"] = tri
        ok &= tri["ok"]

        clf = coalgebra_classifier(w)
        cr = classifier_report(w, clf, size_bound=min(bound, 2))
        print(f"{_status(cr['ok'])} structured types classified"
              f" (carrier sizes {dict(sorted(clf.coalgebra.carrier.sizes.items()))})")
        report["classifier"] = {k: v for k, v in cr.items() if k != "instances"}
        ok &= cr["ok"]

        kw = kock_wraith_classifier(w)
        kr = kock_wraith_report(w, kw, size_bound=min(bound, 2))
        print(f"{_status(kr['ok'])} sub-coalgebra classifier"
              f" (carrier sizes {dict(sorted(kw.coalgebra.carrier.sizes.items()))})")
        report["kock_wraith"] = {k: v for k, v in kr.items() if k != "instances"}
        ok &= kr["ok"]

        if hasattr(w, "adj"):
            comp = comparison_check(w.adj, w, bound)
            print(f"{_status(comp['ok'])} comparison with presheaves upstairs"
                  f" ({comp['presheaf_count']} presheaves,"
                  f" {comp['coalgebra_count']} coalgebras)")
            report["comparison"] = comp
            ok &= comp["ok"]
    except EnumerationCeiling as e:
        return _at_ceiling(e)
    except (ComonadError, ModelError, BoundExceeded) as e:
        print(f"FAIL {e}")
        report["error"] = str(e)
        _emit(report, args.out)
        return EXIT_FAIL
    report["ok"] = bool(ok)
    _emit(report, args.out)
    print(f"{_status(ok)} coalgebra report for {bundle.name!r}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_demo_stack_failure(args) -> int:
    """The naive universe is not a sheaf on the two-point discrete space.

    The cover of the whole space by its two points admits matching
    families of codes with more than one amalgamation, so descent for
    the universe presheaf fails at the uniqueness half.
    """
    site = discrete_two_site()
    model = NaturalModel(site.cat, 1)
    u = hs_universe(model)
    rep = sheaf_check(site, u.presheaf)
    failures = sorted(rep.uniqueness_failures(),
                      key=lambda f: (f["object"], f["sieve"], sorted(f["family"].items())))
    print("site: opens of the two-point discrete space")
    print("presheaf: universe of codes with unit fibers")
    print(f"sizes: {dict(sorted(u.presheaf.sizes.items()))}")
    print(f"sheaf: {rep.is_sheaf}")
    witness = None
    for f in failures:
        if len(f["amalgamations"]) >= 2:
            witness = f
            break
    if witness is None:
        print("FAIL expected a uniqueness failure with at least two amalgamations")
        _emit({"ok": False, "failures": len(failures)}, args.out)
        return EXIT_FAIL
    print(f"witness cover on {witness['object']}: sieve {sorted(witness['sieve'])}")
    print(f"  matching family: {dict(sorted(witness['family'].items()))}")
    print(f"  amalgamations: {list(witness['amalgamations'])} "
          "(descent data glues in more than one way)")
    print("PASS the universe presheaf fails descent, as a stack it would not")
    _emit({"ok": True, "object": witness["object"],
           "sieve": sorted(witness["sieve"]),
           "family": {k: v for k, v in sorted(witness["family"].items())},
           "amalgamations": list(witness["amalgamations"]),
           "uniqueness_failures": len(failures)}, args.out)
    return EXIT_OK


def cmd_demo_sheaves_as_coalgebras(args) -> int:
    """Sheaves on the Sierpinski space, presheaves on the walking arrow,
    and coalgebras for the points comonad are the same thing.

    The demo counts all three at matching size bounds and certifies the
    comparison functor between presheaves upstairs and coalgebras.
    """
    from .coalg import (
        EnumerationCeiling,
        coalgebra_category,
        comonad_from_adjunction,
        comparison_check,
    )
    two = walking_arrow()
    adj = KanAdjunction(discrete_subcategory(two)[1])
    w = comonad_from_adjunction(adj)

    site = sierpinski_site()
    bound = 2
    sheaves = [p for p in all_presheaves(site.cat, bound)
               if sheaf_check(site, p).is_sheaf]
    upstairs = all_presheaves(two, bound)
    try:
        cat = coalgebra_category(w, bound, max_carriers=enumeration_ceiling())
    except EnumerationCeiling as e:
        return _at_ceiling(e)
    print(f"sheaves on the Sierpinski site (values up to {bound}): {len(sheaves)}")
    print(f"presheaves on the walking arrow (values up to {bound}): {len(upstairs)}")
    print(f"coalgebras for the points comonad (carriers up to {bound}): "
          f"{len(cat.coalgebras)}")
    counts_ok = len(sheaves) == len(upstairs) == len(cat.coalgebras)
    print(f"{_status(counts_ok)} the three counts agree")

    comp = comparison_check(adj, w, bound)
    print(f"{_status(comp['ok'])} comparison functor: bijective on"
          f" {comp['presheaf_classes']} isomorphism classes and on hom sets")
    print(f"{_status(comp['faithful'])} restriction to points is faithful here")

    report = {"sheaves": len(sheaves), "presheaves": len(upstairs),
              "coalgebras": len(cat.coalgebras), "comparison": comp,
              "ok": counts_ok and comp["ok"]}
    _emit(report, args.out)
    print(f"{_status(report['ok'])} sheaves are coalgebras for this comonad")
    return EXIT_OK if report["ok"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="boxsem",
        description="Check and interpret modal modules; audit comonad models.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type check a surface module")
    p.add_argument("file")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("interpret", help="interpret a module in a model")
    p.add_argument("file")
    p.add_argument("--model", required=True, help="model JSON file or name")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_interpret)

    pm = sub.add_parser("model", help="reports over a model file")
    msub = pm.add_subparsers(dest="subcommand", required=True)

    p = msub.add_parser("laws", help="law suites for everything declared")
    p.add_argument("model")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_model_laws)

    p = msub.add_parser("universe", help="universe, classifier, realignment")
    p.add_argument("model")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_model_universe)

    p = msub.add_parser("coalgebras", help="coalgebra category and classifiers")
    p.add_argument("model")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_model_coalgebras)

    pd = sub.add_parser("demo", help="built-in demonstrations")
    dsub = pd.add_subparsers(dest="subcommand", required=True)

    p = dsub.add_parser("stack-failure",
                        help="descent fails for the naive universe")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_demo_stack_failure)

    p = dsub.add_parser("sheaves-as-coalgebras",
                        help="sheaves, presheaves upstairs, coalgebras")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_demo_sheaves_as_coalgebras)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BadInput as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (FinCatError, PresheafError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
