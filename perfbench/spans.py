"""Per-layer tracing from outside the program.

The tracer replaces chosen functions and methods of the ``boxsem``
modules with wrappers, in every module namespace that holds them, so
nothing under ``src/`` changes.  A wrapped call records a span (name,
start, end, parent) and counts at the same boundary: calls, self time
and, for some functions, the work the call did, read off its result.
Equality methods are only counted, since a span per comparison would
cost more than the comparison.

Self time is a span's duration minus the time its child spans cover.
Spans and counts are recorded only while ``enabled`` is true; the
harness turns it on around traced operations and the traced set-up.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.qualname`` and what to count."""

    module: str
    qualname: str
    work: str | None = None       # name of a count read off the result
    counted_only: bool = False    # count calls, record no span

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


# Functions traced, by module.  A work count is ``len(result)`` except
# for the quantities ``Tracer._count`` reads otherwise.
TARGETS = [
    Target("fincat", "FinCat.__eq__", counted_only=True),
    Target("presheaf", "Presheaf.__eq__", counted_only=True),
    Target("natmodel", "TypeOverContext.__eq__", counted_only=True),
    Target("presheaf", "enumerate_families", work="families"),
    Target("presheaf", "hom_maps", work="maps"),
    Target("presheaf", "KanAdjunction.ran", work="misses"),
    Target("presheaf", "KanAdjunction.ran_map"),
    Target("natmodel", "all_presheaves", work="presheaves"),
    Target("natmodel", "type_maps", work="maps"),
    Target("natmodel", "subst_type"),
    Target("natmodel", "comprehension"),
    Target("natmodel", "hs_universe"),
    Target("natmodel", "classifier_check"),
    Target("natmodel", "typing_check"),
    Target("natmodel", "realignment_check", work="cases"),
    Target("coalg", "AdjunctionComonad.box_data"),
    Target("coalg", "AdjunctionComonad.comult"),
    Target("coalg", "AdjunctionComonad.tp_data"),
    Target("coalg", "AdjunctionComonad.tp_comult"),
    Target("coalg", "coalgebra_types_over", work="lawful"),
    Target("coalg", "coalgebra_type_laws"),
    Target("coalg", "enumerate_coalgebras", work="lawful"),
    Target("coalg", "coalgebra_maps"),
    Target("coalg", "coalgebra_laws"),
    Target("coalg", "comparison_check"),
    Target("coalg", "exponential_up_check"),
    Target("coalg", "pi_up_check"),
    Target("coalg", "coalg_sigma"),
    Target("coalg", "coalg_extension"),
    Target("coalg", "comonad_from_adjunction"),
    Target("interp", "SemanticTarget.context"),
    Target("interp", "interpret"),
    Target("interp", "soundness_harness"),
    Target("s4dtt", "parse"),
    Target("s4dtt", "check_module"),
    Target("s4dtt", "recheck"),
    Target("s4dtt", "defeq", work="decided_true"),
    Target("cli", "load_model"),
]

# A structure enumeration's candidates are the results of the map
# enumeration it calls directly: the generate half of generate-and-test.
CANDIDATE_SOURCES = {
    "coalg.coalgebra_types_over": "natmodel.type_maps",
    "coalg.enumerate_coalgebras": "presheaf.hom_maps",
}

# Metric names for methods whose class is an implementation detail.
ALIASES = {
    "coalg.AdjunctionComonad.box_data": "coalg.box_data",
    "coalg.AdjunctionComonad.comult": "coalg.comult",
    "coalg.AdjunctionComonad.tp_data": "coalg.tp_data",
    "coalg.AdjunctionComonad.tp_comult": "coalg.tp_comult",
}


class _Frame:
    __slots__ = ("name", "start", "child", "index", "candidates")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index
        self.candidates = 0


class Tracer:
    """Spans and counts for the wrapped functions.

    ``counts`` holds exact counts keyed ``<function>.<quantity>``;
    ``_self_s`` holds raw seconds of self time per function.  While
    ``keep_spans`` is true every span is kept as
    ``(name, start, end, parent_index)``.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.keep_spans = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._self_s: defaultdict = defaultdict(float)
        self._stack: list[_Frame] = []

    # installation --------------------------------------------------------
    def install(self, package: str = "boxsem") -> None:
        """Wrap every target in the freshly imported ``package``."""
        for t in TARGETS:
            importlib.import_module(f"{package}.{t.module}")
        modules = [m for n, m in list(sys.modules.items()) if m is not None
                   and (n == package or n.startswith(package + "."))]
        for t in TARGETS:
            mod = sys.modules[f"{package}.{t.module}"]
            owner_name, _, attr = t.qualname.rpartition(".")
            name = ALIASES.get(t.name, t.name)
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, t, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, t, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, name: str, target: Target, original):
        tracer = self
        if target.counted_only:
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts[f"{name}.calls"] += 1
                return original(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            before = _ran_cache_size(args) if target.work == "misses" else 0
            frame = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._count(name, target.work, result, args, before)
            return result
        return traced

    # spans -----------------------------------------------------------------
    def _enter(self, name: str) -> _Frame:
        index = len(self.spans) if self.keep_spans else -1
        if self.keep_spans:
            self.spans.append((name, 0.0, 0.0, -1))
        frame = _Frame(name, time.perf_counter(), index)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.counts[f"{frame.name}.calls"] += 1
        self._self_s[frame.name] += duration - frame.child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        if frame.index >= 0:
            self.spans[frame.index] = (frame.name, frame.start, end,
                                       parent.index if parent else -1)
        if frame.candidates:
            self.counts[f"{frame.name}.candidates"] += frame.candidates

    def _count(self, name, work, result, args, before) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None and CANDIDATE_SOURCES.get(parent.name) == name:
            parent.candidates += len(result)
        if work is None:
            return
        if work == "misses":
            self.counts[f"{name}.misses"] += _ran_cache_size(args) > before
        elif work == "decided_true":
            self.counts[f"{name}.decided_true"] += result is True
        elif work == "cases":
            self.counts[f"{name}.cases"] += result["cases"]
        else:
            self.counts[f"{name}.{work}"] += len(result)

    def take_self_times(self) -> dict[str, float]:
        """Self seconds accumulated since the last call, then reset."""
        out = dict(self._self_s)
        self._self_s.clear()
        return out

    def take_counts(self) -> Counter:
        """Counts since the last call, then reset."""
        out, self.counts = self.counts, Counter()
        return out


def _ran_cache_size(args) -> int:
    # KanAdjunction.ran(self, q): a call that grows the cache was a miss.
    return len(getattr(args[0], "_ran_cache", ()))



# Per-layer metrics reported by a traced run, as (name, unit, better).
# Counts and corrected self times are those of one set-up plus one round
# of operations.
PER_LAYER = [
    ("fincat.FinCat.__eq__.calls", "count", "lower"),
    ("presheaf.Presheaf.__eq__.calls", "count", "lower"),
    ("natmodel.TypeOverContext.__eq__.calls", "count", "lower"),
    ("natmodel.subst_type.calls", "count", "lower"),
    ("natmodel.subst_type.self_s", "s", "lower"),
    ("presheaf.enumerate_families.calls", "count", "lower"),
    ("presheaf.enumerate_families.families", "count", "lower"),
    ("presheaf.enumerate_families.self_s", "s", "lower"),
    ("presheaf.hom_maps.calls", "count", "lower"),
    ("presheaf.hom_maps.maps", "count", "lower"),
    ("presheaf.hom_maps.self_s", "s", "lower"),
    ("natmodel.all_presheaves.calls", "count", "lower"),
    ("natmodel.all_presheaves.presheaves", "count", "lower"),
    ("natmodel.all_presheaves.self_s", "s", "lower"),
    ("presheaf.KanAdjunction.ran.calls", "count", "lower"),
    ("presheaf.KanAdjunction.ran.misses", "count", "lower"),
    ("presheaf.KanAdjunction.ran.self_s", "s", "lower"),
    ("presheaf.KanAdjunction.ran_map.self_s", "s", "lower"),
    ("coalg.box_data.calls", "count", "lower"),
    ("coalg.box_data.self_s", "s", "lower"),
    ("coalg.comult.self_s", "s", "lower"),
    ("coalg.tp_data.calls", "count", "lower"),
    ("coalg.tp_data.self_s", "s", "lower"),
    ("coalg.tp_comult.self_s", "s", "lower"),
    ("natmodel.type_maps.calls", "count", "lower"),
    ("natmodel.type_maps.maps", "count", "lower"),
    ("natmodel.type_maps.self_s", "s", "lower"),
    ("coalg.coalgebra_types_over.self_s", "s", "lower"),
    ("coalg.coalgebra_types_over.candidates", "count", "lower"),
    ("coalg.coalgebra_types_over.lawful", "count", "higher"),
    ("coalg.coalgebra_type_laws.calls", "count", "lower"),
    ("coalg.coalgebra_type_laws.self_s", "s", "lower"),
    ("coalg.enumerate_coalgebras.self_s", "s", "lower"),
    ("coalg.enumerate_coalgebras.candidates", "count", "lower"),
    ("coalg.enumerate_coalgebras.lawful", "count", "higher"),
    ("coalg.coalgebra_maps.calls", "count", "lower"),
    ("coalg.coalgebra_maps.self_s", "s", "lower"),
    ("coalg.comparison_check.self_s", "s", "lower"),
    ("coalg.exponential_up_check.self_s", "s", "lower"),
    ("coalg.pi_up_check.self_s", "s", "lower"),
    ("coalg.coalg_sigma.self_s", "s", "lower"),
    ("natmodel.hs_universe.self_s", "s", "lower"),
    ("natmodel.classifier_check.self_s", "s", "lower"),
    ("natmodel.typing_check.self_s", "s", "lower"),
    ("natmodel.realignment_check.self_s", "s", "lower"),
    ("natmodel.realignment_check.cases", "count", "higher"),
    ("natmodel.comprehension.self_s", "s", "lower"),
    ("coalg.coalg_extension.self_s", "s", "lower"),
    ("coalg.coalgebra_laws.self_s", "s", "lower"),
    ("interp.SemanticTarget.context.self_s", "s", "lower"),
    ("interp.interpret.self_s", "s", "lower"),
    ("interp.soundness_harness.self_s", "s", "lower"),
    ("s4dtt.parse.self_s", "s", "lower"),
    ("s4dtt.check_module.self_s", "s", "lower"),
    ("s4dtt.recheck.self_s", "s", "lower"),
    ("s4dtt.defeq.calls", "count", "lower"),
    ("s4dtt.defeq.self_s", "s", "lower"),
    ("s4dtt.defeq.decided_true", "count", "higher"),
    ("cli.load_model.self_s", "s", "lower"),
    ("coalg.comonad_from_adjunction.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def per_layer_metrics(setup: tuple[Counter, dict], ops: tuple[Counter, dict],
                      rounds: int, traced: list[tuple[float, float]]) -> dict:
    """The PER_LAYER metrics of a traced run.

    ``setup`` and ``ops`` each hold counts and corrected self seconds,
    for one set-up and for all rounds.  Every round runs the same
    operations from fresh state, so the division by ``rounds`` is exact.
    The overhead compares each operation's traced and untraced runs.
    """
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_pct":
            plain = sum(u for u, _ in traced)
            value = 100.0 * (sum(t for _, t in traced) - plain) / plain
        elif name.endswith(".self_s"):
            func = name[:-len(".self_s")]
            value = setup[1].get(func, 0.0) + ops[1].get(func, 0.0) / rounds
        else:
            per_round, rest = divmod(ops[0][name], rounds)
            value = setup[0][name] + (per_round if rest == 0 else ops[0][name] / rounds)
        out[name] = {"value": value, "unit": unit}
    return out
