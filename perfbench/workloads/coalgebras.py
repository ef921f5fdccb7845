"""``coalgebras``: the Eilenberg-Moore side of the paper.

Two kinds of operation, each from a freshly loaded comonad.

On the flagship comonad (``two``: points of the walking arrow), as in
acceptance criteria 04 to 07, one round holds:

* 7 ``exponential`` operations: enumerate the 11 structured types with
  fibers up to 2 over the terminal coalgebra and, for one of the 7 with
  at most three points in all, build its exponential with each of those
  7 and check the universal property against all 11;
* 8 ``sum-product`` operations, two for each of the four structured
  types with at most two points in total: extend the terminal coalgebra
  by it, enumerate
  the structured types over the extension, and check every dependent sum
  and the universal property of every dependent product;
* one each of ``comparison_check``, ``classifier_report`` and
  ``kock_wraith_report`` at carrier size 2.

This is generate-and-test enumeration plus deep ``__eq__``.  Exponentials
and extensions by the bigger types cost seconds each, so they stay out.

On ``chain3``'s points comonad, 7 ``cofree`` operations build the cofree
coalgebra on a carrier and check its laws; the Kan extension dominates.
The carrier profiles are fixed so that each costs 15 to 200 ms on a
2020s x86 core; heavier ones take seconds to minutes.

The inputs of this workload are fixed by the models, and the seed is not
used: every choice here changes the cost of an operation by a factor.

Structured-type lists are compared with a lazy enumerator, cofree
carriers with the product formula, and the reports with the counts of
the acceptance criteria.
"""

from __future__ import annotations

from . import oracles
from .common import Op

CARRIERS = [(3, 1, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1), (3, 1, 2), (3, 1, 3),
            (2, 3, 2)]


def _small(types, points: int):
    """Structured types with at most ``points`` points in all."""
    return [xt for xt in types if sum(xt.type.fiber.values()) <= points]


def _pairs(types) -> list[tuple]:
    return [(xt.type, xt.theta) for xt in types]


def prepare(seed: int) -> list[Op]:
    from boxsem.cli import load_model
    from boxsem.coalg import (
        classifier_report, coalg_exponential, coalg_extension, coalg_pi,
        coalg_sigma, coalgebra_classifier, coalgebra_laws, coalgebra_type_laws,
        coalgebra_types_over, cofree_coalgebra, comparison_check,
        exponential_up_check, kock_wraith_classifier, kock_wraith_report,
        pi_up_check, terminal_coalgebra)
    from boxsem.presheaf import Presheaf

    load_model("two")
    load_model("chain3")
    memo = oracles.Memo()

    def flagship():
        return load_model("two").comonad

    def types_over(w, cg):
        return coalgebra_types_over(w, cg, 2)

    def lazy_types(key, over_of):
        def compute():
            w = flagship()
            return oracles.structured_types(w, over_of(w), 2)
        return memo.get(key, compute)

    def exponential(k: int) -> Op:
        def run(w):
            types = types_over(w, terminal_coalgebra(w))
            small = _small(types, 3)
            ok = True
            for y in small:
                e = coalg_exponential(w, small[k], y)
                ok = ok and all(exponential_up_check(w, e, z)["ok"] for z in types)
            return ok, _pairs(types)

        def check(got):
            ok, found = got
            return ok and found == lazy_types("terminal", terminal_coalgebra)
        return Op("exponential", f"small type {k}", flagship, run, check)

    def sum_product(k: int) -> Op:
        def run(w):
            xt = _small(types_over(w, terminal_coalgebra(w)), 2)[k]
            cge, _, _ = coalg_extension(w, xt)
            fams = types_over(w, cge)
            ok = True
            for yb in fams:
                sg = coalg_sigma(w, xt, yb)
                ok = ok and not coalgebra_type_laws(w, sg.type)
                for v in range(sg.type.type.fiber[("1", 0)]):
                    ok = ok and sg.pair("1", 0, *sg.split("1", 0, v)) == v
                ok = ok and pi_up_check(w, coalg_pi(w, xt, yb))["ok"]
            return ok, _pairs(fams)

        def extension(w):
            xt = _small(types_over(w, terminal_coalgebra(w)), 2)[k]
            return coalg_extension(w, xt)[0]

        def check(got):
            ok, found = got
            return ok and found == lazy_types(("extension", k), extension)
        return Op("sum-product", f"small type {k}", flagship, run, check)

    def comparison(w):
        return comparison_check(w.adj, w, 2)

    def classifier(w):
        return classifier_report(w, coalgebra_classifier(w), size_bound=2)

    def kock_wraith(w):
        return kock_wraith_report(w, kock_wraith_classifier(w), size_bound=2)

    # counts of acceptance criteria 04, 05 and 07
    reports = [
        Op("comparison", "carriers up to 2", flagship, comparison,
           lambda r: r["ok"] and r["presheaf_count"] == r["coalgebra_count"] == 11
           and r["presheaf_classes"] == r["coalgebra_classes"] == 8),
        Op("classifier", "carriers up to 2", flagship, classifier,
           lambda r: r["ok"] and len(r["instances"]) == 11),
        Op("kock-wraith", "carriers up to 2", flagship, kock_wraith,
           lambda r: r["ok"] and len(r["instances"]) == 11
           and all(subs >= 1 for _, subs, _ in r["instances"])),
    ]

    def cofree(profile) -> Op:
        def run(w):
            small = w.model.base
            sizes = dict(zip(small.objects, profile))
            q = Presheaf(small, sizes, {small.id(o): tuple(range(n))
                                        for o, n in sizes.items()})
            f = cofree_coalgebra(w, q)
            return sizes, dict(f.carrier.sizes), coalgebra_laws(w, f)

        def check(got):
            sizes, carrier, laws = got
            expected = memo.get(("cofree", profile), lambda: oracles.cofree_sizes(
                load_model("chain3").comonad, sizes))
            return laws == [] and carrier == expected
        return Op("cofree", f"carrier {profile}",
                  lambda: load_model("chain3").comonad, run, check)

    ops = [exponential(k) for k in range(7)]
    ops += [sum_product(k) for k in range(4)] * 2
    ops += reports
    ops += [cofree(p) for p in CARRIERS]
    return ops
