"""End to end runs of the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from boxsem.cli import load_model, main

ROOT = Path(__file__).resolve().parent.parent

MODELS = ["one", "two", "chain3", "sierpinski", "disc2"]


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    # model names like "two" resolve against the models/ directory
    monkeypatch.chdir(ROOT)


def test_check_corpus_passes(capsys):
    assert main(["check", "corpus/t4.s4"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "ok: 29 derivations, all replayed"
    assert sum(1 for line in out.splitlines() if line.startswith("PASS")) == 29


def test_check_writes_a_json_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["check", "corpus/t4.s4", "--out", str(out_file)]) == 0
    capsys.readouterr()
    report = json.loads(out_file.read_text())
    assert report["ok"] and len(report["derivations"]) == 29
    assert {"box-intro", "box-elim", "modal-var"} <= \
        {d["rule"] for d in report["derivations"]}


def test_check_names_the_rule_gap_on_failure(tmp_path, capsys):
    bad = tmp_path / "bad.s4"
    bad.write_text("type A;\ncheck | x : A |- box(x) : Box A;\n")
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "rule gap: variable" in out


def test_check_parse_errors_are_bad_input(tmp_path, capsys):
    mangled = tmp_path / "mangled.s4"
    mangled.write_text("type A\ncheck |- a : A;\n")
    assert main(["check", str(mangled)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "2:1" in err


def test_check_missing_file_is_bad_input(tmp_path, capsys):
    assert main(["check", str(tmp_path / "ghost.s4")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [["check", "corpus/t4.s4"],
                                     ["model", "universe", "one", "--bound", "1"]],
                         ids=["check", "universe"])
def test_unwritable_report_is_bad_input(tmp_path, command, capsys):
    assert main([*command, "--out", str(tmp_path / "missing" / "report.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the report") and len(err.splitlines()) == 1


def _nested_equation(depth: int) -> str:
    side = "box(" * depth + "a0" + ")" * depth
    return (f"type A;\nconst a0 : A;\nequal |- {side} == {side} : "
            + "Box " * depth + "A;\n")


@pytest.mark.parametrize("write", [
    lambda path: path.write_bytes(b"type A;\n\xff\xfe check |- a : A;\n"),
    lambda path: path.write_text("type A;\nconst a0 : A;\ncheck |- "
                                 + "box(" * 1500 + "a0" + ")" * 1500 + " : A;\n"),
    # parsed, but too deep to normalize and compare the sides
    lambda path: path.write_text(_nested_equation(330)),
    lambda path: path.write_text(_nested_equation(900)),
], ids=["not-utf-8", "1500-nested-boxes", "330-nested-equation",
        "900-nested-equation"])
# ``one``, whose boxes stay small: interpreting a deep box in ``two`` can
# run for minutes, should a checker ever accept one of these inputs
@pytest.mark.parametrize("command", [["check"], ["interpret", "--model", "one"]],
                         ids=["check", "interpret"])
def test_unreadable_surface_input_is_bad_input(tmp_path, write, command):
    path = tmp_path / "input.s4"
    write(path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "boxsem.cli", command[0], str(path),
                          *command[1:]],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error:") and len(run.stderr.splitlines()) == 1


@pytest.mark.parametrize("depth", [400, 1000])
def test_deeply_boxed_type_is_checked_without_a_traceback(tmp_path, depth):
    """``box(...)`` nested ``depth`` times against the matching ``Box``
    type: checked (exit 0) or refused as bad input (exit 2), never a crash
    in the structural comparison of types."""
    path = tmp_path / "deep.s4"
    path.write_text("type A;\nconst a0 : A;\ncheck |- " + "box(" * depth + "a0"
                    + ")" * depth + " : " + "Box " * depth + "A;\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "boxsem.cli", "check", str(path)],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode in (0, 2)
    assert "Traceback" not in run.stderr


def test_a_900_deep_box_is_interpreted(tmp_path):
    """``box(...)`` nested 900 times checks and interprets in ``one``:
    finding variables by position adds no stack per level."""
    path = tmp_path / "deep.s4"
    path.write_text("type A;\nconst a0 : A;\ncheck |- " + "box(" * 900 + "a0"
                    + ")" * 900 + " : " + "Box " * 900 + "A;\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "boxsem.cli", "interpret", str(path),
                          "--model", "one"],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "PASS interpretation in 'one' (0 near misses)" in run.stdout


@pytest.mark.parametrize("model", ["one", "two"])
def test_interpret_corpus_in_shipped_comonads(model, capsys):
    assert main(["interpret", "corpus/t4.s4", "--model", model]) == 0
    out = capsys.readouterr().out
    assert f"PASS interpretation in '{model}' (0 near misses)" in out


def test_interpret_reports_the_threading_note(capsys):
    main(["interpret", "corpus/t4.s4", "--model", "two"])
    out = capsys.readouterr().out
    assert "note: eliminator interpreted under a nonempty ordinary zone" in out


def test_interpret_rejects_ill_typed_input(tmp_path, capsys):
    bad = tmp_path / "bad.s4"
    bad.write_text("type A;\ncheck u :: A |- u : Box A;\n")
    assert main(["interpret", str(bad), "--model", "two"]) == 1
    out = capsys.readouterr().out
    assert "FAIL (ill-typed input)" in out


@pytest.mark.parametrize("model", MODELS)
def test_model_laws_pass_for_every_shipped_model(model, capsys):
    assert main(["model", "laws", model]) == 0
    out = capsys.readouterr().out
    assert f"PASS model '{model}'" in out


def test_model_laws_report_sections(tmp_path, capsys):
    out_file = tmp_path / "laws.json"
    assert main(["model", "laws", "two", "--out", str(out_file)]) == 0
    capsys.readouterr()
    report = json.loads(out_file.read_text())
    assert report["ok"]
    assert "comonad" in report["sections"]
    assert report["sections"]["comonad"]["ok"]


def test_universe_report_on_the_arrow_model(capsys):
    assert main(["model", "universe", "two"]) == 0
    out = capsys.readouterr().out
    assert "universe sizes at bound 1: 0: 2, 1: 3" in out
    assert "(3 display maps)" in out
    assert "realignment along monos (14 cases)" in out


def test_universe_report_on_the_point_at_unit_bound(capsys):
    assert main(["model", "universe", "one", "--bound", "1"]) == 0
    out = capsys.readouterr().out
    assert "universe sizes at bound 1: *: 2" in out
    assert "realignment along monos (5 cases)" in out


def test_coalgebra_report_at_bound_two(tmp_path, capsys):
    out_file = tmp_path / "coalg.json"
    assert main(["model", "coalgebras", "two", "--bound", "2",
                 "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "11 coalgebras on carriers up to 2" in out
    assert "(11 presheaves, 11 coalgebras)" in out
    report = json.loads(out_file.read_text())
    assert report["coalgebras"] == 11 and report["comparison"]["ok"]


def test_enumeration_ceiling_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("BOXSEM_CEILING", "2")
    assert main(["model", "coalgebras", "two"]) == 3
    err = capsys.readouterr().err
    assert "ceiling" in err


def test_capped_realignment_is_partial_not_pass(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("BOXSEM_CEILING", "10")
    out_file = tmp_path / "universe.json"
    assert main(["model", "universe", "two", "--bound", "2",
                 "--out", str(out_file)]) == 3
    out = capsys.readouterr().out
    assert "PARTIAL realignment along monos (10 cases)" in out
    assert "PASS realignment" not in out
    assert out.strip().splitlines()[-1].startswith("PARTIAL")
    assert json.loads(out_file.read_text())["truncated"] is True


def _model_file(tmp_path, edit) -> Path:
    spec = json.loads((ROOT / "models" / "two.json").read_text())
    edit(spec)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(spec))
    return path


MALFORMED = {
    "presheaf-without-sizes": lambda spec: spec["presheaves"]["flagship"].pop("sizes"),
    "bound-not-an-integer": lambda spec: spec.update(bound="x"),
    "actions-not-integers":
        lambda spec: spec["presheaves"]["flagship"].update(actions={"0->1": ["a", "b", "c"]}),
    "functor-without-source": lambda spec: spec.update(comonad={"functor": {
        "obj_map": {"0": "0", "1": "1"},
        "mor_map": {"id_0": "id_0", "id_1": "id_1", "0->1": "0->1"}}}),
    "comonad-a-string": lambda spec: spec.update(comonad="points"),
    "presheaves-a-string": lambda spec: spec.update(presheaves="flagship"),
    "covers-name-an-unknown-morphism":
        lambda spec: spec.update(site={"covers": {"1": [["1->0"]]}}),
    "negative-bound": lambda spec: spec.update(bound=-1),
    "sizes-name-an-unknown-object":
        lambda spec: spec["presheaves"]["flagship"]["sizes"].update({"2": 1}),
    "actions-name-an-unknown-morphism":
        lambda spec: spec["presheaves"]["flagship"]["actions"].update({"1->0": [0, 0]}),
    "composition-entry-not-a-list": lambda spec: spec["category"].update(composition=[1]),
    "composition-not-a-list": lambda spec: spec["category"].update(composition=5),
    "composition-entry-holding-a-list":
        lambda spec: spec["category"].update(composition=[[["id_0"], "id_0", "id_0"]]),
    "identity-named-by-a-list": lambda spec: spec["category"]["identities"].update({"0": ["id_0"]}),
    "bound-not-a-whole-number": lambda spec: spec.update(bound=1.9),
    "size-not-an-integer": lambda spec: spec["presheaves"]["flagship"]["sizes"].update({"0": 2.7}),
    # loaded as one point each with int(), so that edit validated
    "size-a-boolean": lambda spec: spec["presheaves"].update(
        flagship={"sizes": {"0": True, "1": True}, "actions": {"0->1": [0]}}),
    # refused when the file is loaded, though ``universe`` never builds the comonad
    "functor-that-does-not-validate": lambda spec: spec.update(comonad={"functor": {
        "source": spec["category"],
        "obj_map": {"0": "1", "1": "0"},
        "mor_map": {"id_0": "id_1", "id_1": "id_0", "0->1": "0->1"}}}),
}


# the ``laws`` cases keep the bare edit name as their id, so their test ids stay stable
@pytest.mark.parametrize("command,edit", [
    pytest.param(command, edit, id=name if command == "laws" else f"{command}-{name}")
    for command in ("laws", "universe", "coalgebras") for name, edit in MALFORMED.items()])
def test_malformed_model_files_are_bad_input(tmp_path, edit, command):
    path = _model_file(tmp_path, edit)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "boxsem.cli", "model", command, str(path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error:")


def test_a_bundle_builds_its_comonad_once():
    bundle = load_model("two")
    assert bundle.comonad is bundle.comonad
    assert load_model("sierpinski").comonad is None


def test_coalgebras_over_the_display_bound_fail_cleanly(tmp_path):
    # at bound 2 the boxed generic type of the points comonad on the walking
    # arrow has fibers of 4 points, so the classifier of structured types
    # cannot be built
    path = _model_file(tmp_path, lambda spec: spec.update(bound=2))
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "boxsem.cli", "model", "coalgebras",
                          str(path), "--out", str(out)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert any(line.startswith("FAIL") for line in run.stdout.splitlines())
    assert "error" in json.loads(out.read_text())


def test_ceiling_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("BOXSEM_CEILING", "banana")
    assert main(["model", "universe", "two"]) == 2
    err = capsys.readouterr().err
    assert "BOXSEM_CEILING" in err


def test_ceiling_must_not_be_negative(monkeypatch, capsys):
    monkeypatch.setenv("BOXSEM_CEILING", "-5")
    assert main(["model", "universe", "two"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "BOXSEM_CEILING" in captured.err
    assert "PARTIAL" not in captured.out
    # a ceiling of 0 stays legal: realignment stops before its first case
    monkeypatch.setenv("BOXSEM_CEILING", "0")
    assert main(["model", "universe", "two"]) == 3
    assert "PARTIAL realignment along monos (0 cases)" in capsys.readouterr().out


def test_stack_failure_demo_exhibits_two_amalgamations(tmp_path, capsys):
    """Descent for the naive universe fails on the two-point cover, and
    the demo prints the matching family together with both gluings."""
    out_file = tmp_path / "stack.json"
    assert main(["demo", "stack-failure", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "sizes: {'Oa': 3, 'Oab': 6, 'Ob': 3, 'Oempty': 2}" in out
    assert "witness cover on Oab" in out
    assert "amalgamations: [4, 5]" in out
    report = json.loads(out_file.read_text())
    assert report["ok"] and report["object"] == "Oab"
    assert len(report["amalgamations"]) >= 2


def test_sheaves_as_coalgebras_demo_stops_at_the_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("BOXSEM_CEILING", "2")
    assert main(["demo", "sheaves-as-coalgebras"]) == 3
    assert capsys.readouterr().err.startswith("ceiling:")


def test_sheaves_as_coalgebras_demo_counts_agree(capsys):
    assert main(["demo", "sheaves-as-coalgebras"]) == 0
    out = capsys.readouterr().out
    assert "sheaves on the Sierpinski site (values up to 2): 11" in out
    assert "presheaves on the walking arrow (values up to 2): 11" in out
    assert "coalgebras for the points comonad (carriers up to 2): 11" in out
    assert "bijective on 8 isomorphism classes" in out


def test_doctored_composition_table_is_rejected(tmp_path, capsys):
    spec = {"category": {
        "objects": ["x", "y"],
        "identities": {"x": "ix", "y": "iy"},
        "morphisms": [{"name": "f", "src": "x", "dst": "y"},
                      {"name": "g", "src": "y", "dst": "x"}],
        "composition": [["g", "f", "ix"], ["f", "g", "ix"]]}}
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(spec))
    assert main(["model", "laws", str(path)]) == 2
    err = capsys.readouterr().err
    assert "does not validate" in err


def test_unreadable_model_json_is_bad_input(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{not json")
    assert main(["model", "laws", str(path)]) == 2
    assert main(["model", "laws", str(tmp_path / "ghost.json")]) == 2
    capsys.readouterr()
