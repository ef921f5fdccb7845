"""Regenerate ``perfbench/golden.json``, the outputs the benchmark can
only check against a recorded copy: realignment case counts.

Run from the root of a checkout:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, "src")
    sys.path.insert(0, str(HERE))
    from boxsem.cli import load_model
    from boxsem.natmodel import NaturalModel, hs_universe, realignment_check
    from workloads import universe

    cases = {}
    for model, k, s in universe.REALIGNMENTS:
        u = hs_universe(NaturalModel(load_model(model).category, k))
        r = realignment_check(u, s, max_cases=universe.CEILING)
        if not r["ok"] or r["truncated"]:
            print(f"error: realignment on {model} failed: {r}", file=sys.stderr)
            return 1
        cases[universe.realignment_key(model, k, s)] = r["cases"]
    (HERE / "golden.json").write_text(
        json.dumps({"realignment_cases": cases}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
