"""The benchmark's workloads.

Each workload module has ``prepare(seed) -> list[Op]``, called during
set-up after the program is imported.  It generates its inputs from the
seed and returns one round of operations; the harness repeats the round
until the run's time is up.  A workload imports the program inside
``prepare``, because set-up re-imports it several times.
"""

from __future__ import annotations

from . import coalgebras, interpret, kernel, universe
from .common import Op  # noqa: F401


WORKLOADS = {
    "kernel": kernel,
    "interpret": interpret,
    "coalgebras": coalgebras,
    "universe": universe,
}
