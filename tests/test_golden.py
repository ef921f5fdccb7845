"""The ``--out`` reports of the shipped models and corpus, pinned byte
for byte.

Each file under ``tests/golden/`` is the report of one CLI run; the run
is repeated here and its report compared with the file.  Reports hold
no timings, so any difference is a changed verdict or count.  The
universe reports of ``one``, ``disc2`` and ``sierpinski`` stop at the
default enumeration ceiling, so they carry ``"truncated": true`` and
their runs exit 3.
"""

from pathlib import Path

import pytest

from boxsem.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

MODELS = ["one", "two", "chain3", "sierpinski", "disc2", "arrow"]
WITH_COMONAD = ["one", "two", "chain3", "disc2", "arrow"]
CAPPED = {"model_universe_one.json", "model_universe_disc2.json",
          "model_universe_sierpinski.json"}

RUNS = (
    [(f"model_laws_{m}.json", ["model", "laws", m]) for m in MODELS]
    + [(f"model_universe_{m}.json", ["model", "universe", m]) for m in MODELS]
    + [(f"model_coalgebras_{m}.json", ["model", "coalgebras", m]) for m in WITH_COMONAD]
    + [("model_coalgebras_chain3.json", ["model", "coalgebras", "chain3", "--bound", "1"]),
       ("check_t4.json", ["check", "corpus/t4.s4"])]
    + [(f"interpret_t4_{m}.json", ["interpret", "corpus/t4.s4", "--model", m])
       for m in ["two", "one", "disc2", "arrow", "chain3"]]
    + [(f"interpret_depth2_{m}.json", ["interpret", "corpus/depth2.s4", "--model", m])
       for m in ["two", "chain3"]]
    + [("demo_stack_failure.json", ["demo", "stack-failure"]),
       ("demo_sheaves_as_coalgebras.json", ["demo", "sheaves-as-coalgebras"])]
)


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("BOXSEM_CEILING", raising=False)


def test_every_golden_file_has_a_run():
    assert {name for name, _ in RUNS} == {p.name for p in GOLDEN.glob("*.json")}


@pytest.mark.parametrize("name,argv", RUNS, ids=[" ".join(a) for _, a in RUNS])
def test_report_is_byte_identical(name, argv, tmp_path, capsys):
    out_file = tmp_path / name
    code = main([*argv, "--out", str(out_file)])
    capsys.readouterr()
    assert code == (3 if name in CAPPED else 0)
    assert out_file.read_bytes() == (GOLDEN / name).read_bytes()
