"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Op, interpret, kernel, oracles  # noqa: E402


@pytest.fixture(autouse=True)
def _from_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_same_seed_gives_the_same_inputs():
    assert kernel.generate(5) == kernel.generate(5)
    assert interpret.generate(5) == interpret.generate(5)
    assert kernel.generate(5) != kernel.generate(6)
    for name, workload in WORKLOADS.items():
        first = [(op.kind, op.label) for op in workload.prepare(5)]
        assert first == [(op.kind, op.label) for op in workload.prepare(5)], name


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        out = _bench("--workload", "universe", "--seed", "3", "--seconds", "1",
                     "--trace", "1")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert set(metrics) == {name for name, _, _ in spans.PER_LAYER}
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["natmodel.realignment_check.cases"] > 0


def test_disagreeing_verdict_is_failed_without_crashing():
    clock = calib.Calibrated()

    def boom(_):
        raise RuntimeError("the operation crashed")

    def bad_check(_):
        raise KeyError("the check crashed")

    wrong = Op("t", "wrong verdict", lambda: None, lambda _: 1, lambda got: got == 2)
    crash = Op("t", "crashing run", lambda: None, boom, lambda got: True)
    broken = Op("t", "crashing check", lambda: None, lambda _: 1, bad_check)
    right = Op("t", "right verdict", lambda: None, lambda _: 2, lambda got: got == 2)
    assert run._timed(clock, wrong)[0] is False
    assert run._timed(clock, crash)[0] is False
    assert run._timed(clock, broken)[0] is False
    ok, index, error = run._timed(clock, right)
    assert ok and error is None
    assert clock.raw(index) > 0 and clock.corrected(index) > 0


def test_kernel_labels_hold_except_the_known_fault():
    ops = kernel.prepare(1)
    for op in ops:
        ok = op.check(op.run(op.fresh()))
        assert ok is not op.known_fault, op.label
    assert sum(op.known_fault for op in ops) == 2


def test_oracles_agree_with_hand_counts():
    from boxsem.cli import load_model
    from boxsem.standard import walking_arrow
    w = load_model("chain3").comonad
    assert oracles.cofree_sizes(w, {"0": 2, "1": 3, "2": 4}) == {"0": 2, "1": 6, "2": 24}
    # criterion 02: the arrow universe at bound 1 has sizes 2 and 3
    assert oracles.universe_sizes(walking_arrow(), 1) == {"0": 2, "1": 3}


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "kernel", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
