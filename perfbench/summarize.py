"""Summarize the result files of benchmark runs as Markdown tables.

Run from the root of a checkout, after some runs:

    python3 perfbench/summarize.py

For each workload, the untraced runs give the median and quartiles of
every end-to-end metric, raw and corrected, with the spread (the distance
between the quartiles as a share of the median).  The traced runs give
the per-layer metrics, from the run with the lowest seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

TIMES = ["ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s"]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    runs = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*-trace?.json"))]
    if not runs:
        print(f"no result files in {RESULTS}", file=sys.stderr)
        return 1
    workloads = sorted({r["workload"] for r in runs})
    print("| workload | metric | runs | raw median | raw spread "
          "| corrected Q1 | median | Q3 | spread |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        plain = [r for r in runs if r["workload"] == w and r["trace"] == 0]
        for m in TIMES + ["peak_rss_mb"]:
            cor = [r["corrected"][m] for r in plain]
            q1, q2, q3 = _quartiles(cor)
            if m in TIMES:
                r1, r2, r3 = _quartiles([r["raw"][m] for r in plain])
                raw = f"{r2:.4g} | {(r3 - r1) / r2:.1%}"
            else:
                raw = "– | –"
            print(f"| {w} | {m} | {len(plain)} | {raw} | {q1:.4g} | {q2:.4g} "
                  f"| {q3:.4g} | {(q3 - q1) / q2:.1%} |")
    traced = {}
    for r in sorted(runs, key=lambda r: -r["seed"]):
        if r["trace"] == 1:
            traced[r["workload"]] = r
    if traced:
        names = sorted(traced)
        print()
        print("| per-layer metric | " + " | ".join(
            f"{n} (seed {traced[n]['seed']})" for n in names) + " |")
        print("|---|" + "---|" * len(names))
        for metric, _, _ in spans.PER_LAYER:
            cells = [traced[n]["per_layer"][metric] for n in names]
            print(f"| `{metric}` | " + " | ".join(
                f"{v:.4g}" if isinstance(v, float) else str(v) for v in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
