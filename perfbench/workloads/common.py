"""What every workload shares.

Every workload's round holds 25 or 45 operations.  Rounds repeat the
same operations, so a run's times fall into one group of repeats per
operation; with a round of 10k + 5 operations the 50th and 90th
percentiles fall in the middle of one group instead of on the edge
between two, where noise would flip them from one operation's cost to
the next one's.  Rounds run their operations in a fixed order, since
an operation's cost still depends a little on the allocator state the
one before it left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``fresh()`` builds the state the operation starts from, untimed: new
    model objects with empty caches, as a command-line run would have.
    ``run(state)`` is timed and returns the verdict; ``check(verdict)``
    compares it with an independent computation, untimed.  An operation
    with ``known_fault`` fails on today's code for a recorded reason.
    """

    kind: str
    label: str
    fresh: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    known_fault: bool = False


def no_state():
    """``Op.fresh`` for operations that build all their state when timed."""
    return None
