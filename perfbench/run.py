"""Benchmark for boxsem: one workload per run, closed loop, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process.

A run sets up several times (imports, model loading, input generation)
and reports the median, then runs whole rounds of the workload's
operations until ``--seconds`` have passed and at least ``MIN_OPS``
operations were attempted.  Every verdict is checked against an
independent computation after its timer stops.  Each operation starts
from fresh model objects, so its cost does not depend on what ran
before it.

Times are corrected for the machine's clock drift (see ``calib.py``);
the raw seconds are printed on the line before the result and kept in
``perfbench/results/``.  With ``--trace 1`` each operation runs twice,
untraced and traced, and the run prints per-layer counts and self times
per round of operations (plus one set-up) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_REPS = 5
MIN_OPS = 100

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _fixed_hash_seed(argv) -> None:
    """Re-execute with string hashing fixed, so that dict and set order,
    and with them the traced counts, repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *argv], env)


def _purge_program() -> None:
    for name in [n for n in sys.modules if n == "boxsem" or n.startswith("boxsem.")]:
        del sys.modules[name]


def _quantile(values, q: float) -> float:
    """The ``q`` quantile, as the mean of the values ranked within 5% of
    it.  A round repeats the same operations, so the times fall into
    groups, one per operation; a plain order statistic jumps from one
    group to the next when noise reorders two neighbours, this mean moves
    smoothly."""
    ranked = sorted(values)
    n = len(ranked)
    window = ranked[max(0, round((q - 0.05) * n)):round((q + 0.05) * n)]
    return statistics.fmean(window)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "boxsem" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'boxsem'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload == "all":
        return _run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    _fixed_hash_seed(argv)
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    import calib
    import spans

    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    clock = calib.Calibrated()
    ops, setups, setup_trace = _set_up(clock, workload, args.seed, tracer)

    records = []      # (kind, clock index, ok)
    traced = []       # (untraced index, traced index, raw self seconds)
    failures = []
    unexpected = 0
    rounds = 0
    if tracer is not None:
        tracer.keep_spans = True
    started = time.perf_counter()
    while (rounds == 0 or len(records) < MIN_OPS
           or time.perf_counter() - started < args.seconds):
        for op in ops:
            ok, index, error = _timed(clock, op)
            records.append((op.kind, index, ok))
            if not ok:
                unexpected += not op.known_fault
                if rounds == 0:
                    failures.append(f"{op.kind} {op.label}: {error}")
            if tracer is None:
                continue
            t_ok, t_index, t_error = _timed(clock, op, tracer)
            traced.append((index, t_index, tracer.take_self_times()))
            if t_ok != ok:
                unexpected += 1
                failures.append(f"traced {op.kind} {op.label}: {t_error}")
        rounds += 1
        if tracer is not None:
            tracer.keep_spans = False
    elapsed = time.perf_counter() - started

    for line in failures:
        print("failed: " + line, file=sys.stderr)
    attempted = len(records)
    failed = sum(1 for r in records if not r[2])
    e2e = _summary([clock.corrected(i) for _, i, _ in records],
                   [clock.corrected(i) for i in setups])
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = _summary([clock.raw(i) for _, i, _ in records],
                   [clock.raw(i) for i in setups])
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "ops_per_round": len(ops), "elapsed_s": elapsed,
              "corrected": e2e, "raw": raw,
              "setup_raw_s": [clock.raw(i) for i in setups],
              "setup_corrected_s": [clock.corrected(i) for i in setups],
              "per_kind_p50_ms": _per_kind(clock, records),
              "ops": [[kind, clock.raw(i) * 1000, clock.corrected(i) * 1000, ok]
                      for kind, i, ok in records]}
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        self_s: dict[str, float] = {}
        for _, t_index, raw_self in traced:
            factor = clock.corrected(t_index) / clock.raw(t_index)
            for k, v in raw_self.items():
                self_s[k] = self_s.get(k, 0.0) + v * factor
        overhead = [(clock.corrected(i), clock.corrected(t)) for i, t, _ in traced]
        metrics = spans.per_layer_metrics(setup_trace, (tracer.take_counts(), self_s),
                                          rounds, overhead)
        detail["per_layer"] = {k: m["value"] for k, m in metrics.items()}
    _write_results(args, detail, tracer)
    print(json.dumps({"raw": raw, "rounds": rounds, "ops_per_round": len(ops)}))
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _run_all(args, names) -> int:
    """Run every workload in its own process, one after another; print each
    result line, then their union with metric names prefixed."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.splitlines()[-1])
        print(f"{name}: " + json.dumps(result))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def _set_up(clock, workload, seed: int, tracer):
    """Set up ``SETUP_REPS`` times from a fresh import; the last set-up's
    operations are used, and only the last is traced.  Returns the
    operations, the clock indices of the set-ups and, when tracing, the
    counts and corrected self seconds of the traced set-up."""
    indices = []
    for rep in range(SETUP_REPS):
        _purge_program()
        gc.collect()
        traced = tracer is not None and rep == SETUP_REPS - 1

        def setup():
            import boxsem  # noqa: F401  (the imports are part of set-up)
            if traced:
                tracer.install()
                tracer.enabled = True
            try:
                return workload.prepare(seed)
            finally:
                if traced:
                    tracer.enabled = False
        ops, index = clock.measure(setup)
        indices.append(index)
    if tracer is None:
        return ops, indices, None
    factor = clock.corrected(indices[-1]) / clock.raw(indices[-1])
    return ops, indices, (tracer.take_counts(), {
        k: v * factor for k, v in tracer.take_self_times().items()})


def _summary(op_seconds, setup_seconds) -> dict:
    ms = [t * 1000 for t in op_seconds]
    return {"ops_per_s": len(op_seconds) / sum(op_seconds),
            "op_p50_ms": _quantile(ms, 0.50),
            "op_p90_ms": _quantile(ms, 0.90),
            "setup_s": statistics.median(setup_seconds)}


class _Raised:
    """An exception an operation raised, kept as its result."""

    def __init__(self, error: Exception):
        self.error = error


def _capture(run, state):
    try:
        return run(state)
    except Exception as e:  # a crashing operation is a failed one
        return _Raised(e)


def _timed(clock, op, tracer=None):
    """Run one operation between calibration loops, then check its verdict
    after the clock stops.  Returns (ok, clock index, error)."""
    state = op.fresh()
    gc.collect()
    if tracer is not None:
        tracer.enabled = True
    try:
        result, index = clock.measure(lambda: _capture(op.run, state))
    finally:
        if tracer is not None:
            tracer.enabled = False
    if isinstance(result, _Raised):
        e = result.error
        return False, index, f"{type(e).__name__}: {e}"
    try:
        ok = bool(op.check(result))
        error = None if ok else "verdict disagrees with its independent check"
    except Exception:
        ok, error = False, traceback.format_exc(limit=3)
    return ok, index, error


def _per_kind(clock, records):
    kinds = {}
    for kind, index, _ in records:
        kinds.setdefault(kind, []).append(clock.corrected(index) * 1000)
    return {k: statistics.median(v) for k, v in sorted(kinds.items())}


def _write_results(args, detail, tracer) -> None:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if tracer is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p}
             for n, s, e, p in tracer.spans]))


if __name__ == "__main__":
    sys.exit(main())
