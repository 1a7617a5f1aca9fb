import io
import json
from contextlib import redirect_stdout

import pytest

from proofenum.cli import main
from proofenum.ljplus import proof_from_json, render_proof
from proofenum.syntax import render

from conftest import FIG_FORMULA, SYSF_A2, d_family


def run(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_check_inhabited():
    code, out = run(["check", FIG_FORMULA])
    assert code == 0
    assert out.strip() == "positive: yes, inhabited: yes"


def test_check_uninhabited():
    code, out = run(["check", "Q"])
    assert code == 1
    assert "inhabited: no" in out


def test_check_not_positive():
    code, out = run(["check", "(forall x. P(x)) -> Q"])
    assert code == 2
    assert "positive: no" in out


@pytest.mark.parametrize("argv", [
    ["check", "(forall x. P(x)) -> Q "],
    ["check", "--sysf", "(forall X. X) -> Y "],
])
def test_check_not_positive_json(argv):
    code, out = run(argv + ["--format", "json"])
    assert code == 2
    assert json.loads(out) == {"goal": argv[-1].strip(), "positive": False}


@pytest.mark.parametrize("argv, goal, code", [
    (["check", FIG_FORMULA],
     "((forall y. (P(y) -> Q) -> P(y) -> Q) -> Q) -> Q", 0),
    (["check", "Q"], "Q", 1),
    (["check", "--sysf", "forall X. X -> X"],
     "forall X. eps(X) -> eps(X)", 0),
    (["check", "--sysf", "forall X. X"], "forall X. eps(X)", 1),
])
def test_check_json(argv, goal, code):
    got, out = run(argv + ["--format", "json"])
    assert got == code
    assert json.loads(out) == {"goal": goal, "positive": True,
                               "inhabited": code == 0}


def test_parse_error_exit_code():
    code, _ = run(["terms", "P ->"])
    assert code == 2


def test_cap_exit_code():
    code, _ = run(["grammar", FIG_FORMULA, "--cap", "3"])
    assert code == 3


def test_grammar_text():
    code, out = run(["grammar", "P -> P"])
    assert code == 0
    assert out.strip() == "S0 -> \\c0:P. S1\nS1 -> c0"


def test_grammar_json():
    code, out = run(["grammar", FIG_FORMULA, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["start"] == 0
    assert len(data["nonterminals"]) == 13


def test_schemes_text():
    code, out = run(["schemes", FIG_FORMULA, "--max-height", "7"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 1
    assert lines[0].startswith("\\c0:")


@pytest.mark.parametrize("argv, goal", [
    (["schemes", FIG_FORMULA, "--max-height", "11"],
     "((forall y. (P(y) -> Q) -> P(y) -> Q) -> Q) -> Q"),
    (["schemes", "--sysf", SYSF_A2, "--max-height", "14"],
     "forall X. forall Y. (((eps(Y) -> eps(X)) -> eps(Y) -> eps(X)) -> "
     "eps(X)) -> eps(X)"),
])
def test_schemes_json_reads_back_as_the_text(argv, goal):
    code, text = run(argv)
    assert code == 0 and text
    code, out = run(argv + ["--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert (data["goal"], data["maxHeight"]) == (goal, int(argv[-1]))
    assert [render_proof(proof_from_json(s)) for s in data["schemes"]] == \
        text.splitlines()


def test_terms_text():
    code, out = run(["terms", "P -> P"])
    assert code == 0
    assert out.strip() == "\\h0:P. h0"


def test_terms_json_heights():
    code, out = run(["terms", FIG_FORMULA, "--max-height", "11",
                     "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 3
    assert {e["height"] for e in data["terms"]} == {7, 11}


def test_terms_sysf():
    code, out = run(["terms", "--sysf", SYSF_A2, "--max-height", "10"])
    assert code == 0
    assert "\\X. \\Y." in out


def test_sysf_not_positive():
    code, _ = run(["terms", "--sysf", "(forall X. X) -> Y"])
    assert code == 2


def test_not_positive_input_is_named_so(capsys):
    for command in ("grammar", "schemes", "terms"):
        code, _ = run([command, "(forall x. P(x)) -> Q"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: not a positive formula: (forall x. P(x)) -> Q\n"
    code, _ = run(["terms", "--sysf", "(forall X. X) -> Y "])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: not a positive type: (forall X. X) -> Y\n"
    code, out = run(["check", "(forall x. P(x)) -> Q"])
    assert code == 2
    assert out == \
        "positive: no (not a positive formula: (forall x. P(x)) -> Q)\n"


def test_stdin_input(monkeypatch):
    code, out = run(["check", "-"], stdin_text="P -> P\n",
                    monkeypatch=monkeypatch)
    assert code == 0
    assert "inhabited: yes" in out


def test_terms_pipe_verify(monkeypatch):
    code, out = run(["terms", FIG_FORMULA, "--max-height", "11",
                     "--format", "json"])
    assert code == 0
    code2, out2 = run(["verify", FIG_FORMULA], stdin_text=out,
                      monkeypatch=monkeypatch)
    assert code2 == 0
    assert out2.strip() == "verified 3/3"


def test_verify_rejects_bad_term(monkeypatch):
    bad = json.dumps([{"kind": "lam_pf", "pvar": "h", "annot": "Q",
                       "body": {"kind": "spine", "head": "h", "args": []}}])
    code, out = run(["verify", "P -> P"], stdin_text=bad,
                    monkeypatch=monkeypatch)
    assert code == 1
    assert "verified 0/1" in out


def test_verify_counts_an_ill_formed_term_as_failed(monkeypatch, capsys):
    # a spine where the goal asks for a proof abstraction
    spine = json.dumps([{"kind": "spine", "head": "h", "args": []}])
    code, out = run(["verify", "P -> P"], stdin_text=spine,
                    monkeypatch=monkeypatch)
    assert (code, out) == (1, "verified 0/1\n")
    assert capsys.readouterr().err == "FAIL h\n"


def test_bad_max_height():
    code, _ = run(["terms", "P -> P", "--max-height", "0"])
    assert code == 2


def test_bad_cap(capsys):
    # a cap below 1 is bad input, not a grammar that outgrew its cap
    for command in ("check", "terms"):
        for cap in ("0", "-5"):
            code, _ = run([command, "P -> P", "--cap", cap])
            assert code == 2
            assert capsys.readouterr().err == \
                "error: --cap must be at least 1\n"


def test_verify_takes_only_the_goal_options(monkeypatch, capsys):
    # verify reads no grammar, so --cap and --format are unknown to it
    # rather than accepted and ignored
    for extra in (["--cap", "0"], ["--cap", "5"], ["--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "P -> P", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    code, out = run(["terms", SYSF_A2, "--sysf", "--max-height", "16",
                     "--format", "json"])
    assert code == 0
    code, out = run(["verify", SYSF_A2, "--sysf"], stdin_text=out,
                    monkeypatch=monkeypatch)
    assert (code, out.strip()) == (0, "verified 14/14")


def test_invalid_json_verify(monkeypatch):
    # malformed JSON, and well-formed JSON that is not a list of terms
    for stdin_text in [
            "not json", "5", "null", "[[1]]", '{"terms": 3}',
            '[{"kind": "spine", "head": "h", "args": 5}]',
            '[{"term": 5}]', '[{"kind": "spine", "head": 5, "args": []}]',
            '[{"kind": "lam_pf", "pvar": "h", "annot": 3, '
            '"body": {"kind": "spine", "head": "h", "args": []}}]']:
        code, _ = run(["verify", "P -> P"], stdin_text=stdin_text,
                      monkeypatch=monkeypatch)
        assert code == 2, stdin_text


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate", "P"])


def test_deep_nesting_is_bad_input(capsys):
    chain = " -> ".join(["P"] * 1201)
    assert main(["check", chain]) == 2
    assert capsys.readouterr().err.strip() == \
        "error: input nested too deeply"


def test_terms_pipe_verify_repeated_binder(monkeypatch):
    goal = "((forall x. Q(x)) -> P) -> forall x. P(x) -> P(x)"
    code, out = run(["terms", goal, "--max-height", "5", "--format", "json"])
    assert code == 0
    code2, out2 = run(["verify", goal], stdin_text=out,
                      monkeypatch=monkeypatch)
    assert code2 == 0
    assert out2.strip() == "verified 1/1"


def test_height_bounded_commands_ignore_cap_beyond_bound():
    # The figure formula's grammar has 13 nonterminals, 10 of them
    # within height 8: a cap of 11 stops `grammar` only.
    assert run(["grammar", FIG_FORMULA, "--cap", "11"])[0] == 3
    for command in ("schemes", "terms"):
        argv = [command, FIG_FORMULA, "--max-height", "8"]
        code, out = run(argv + ["--cap", "11"])
        assert code == 0
        assert (code, out) == run(argv)
        assert out.strip()


def test_terms_cap_counts_the_pruned_grammar():
    # terms saturates only the rule instances whose premises still have
    # room for a proof under the height bound: 27 of the 117
    # nonterminals that schemes expands on D_5 at height 9.
    argv = ["terms", render(d_family(5)), "--max-height", "9"]
    assert run(argv + ["--cap", "27"])[0] == 0
    assert run(argv + ["--cap", "26"])[0] == 3
    assert run(["schemes", *argv[1:], "--cap", "116"])[0] == 3


def test_terms_pipe_verify_deep_church_numerals(monkeypatch):
    # verify reads terms back and checks them with explicit stacks:
    # two frames per spine level ran out from height 340 on (exit 2).
    goal = "forall X. X -> (X->X) -> X"
    code, out = run(["terms", "--sysf", goal, "--max-height", "400",
                     "--format", "json"])
    assert code == 0
    code2, out2 = run(["verify", "--sysf", goal], stdin_text=out,
                      monkeypatch=monkeypatch)
    assert (code2, out2) == (0, "verified 397/397\n")


def test_terms_of_deep_church_numerals():
    # 297 terms (closed form h - 3), the deepest of height 300: no
    # RecursionError, so not the exit code of input nested too deeply.
    code, out = run(["terms", "--sysf", "forall X. X -> (X->X) -> X",
                     "--max-height", "300"])
    assert code == 0
    assert len(out.splitlines()) == 297
    # Scheme enumeration and expansion take one frame per scheme level
    # and printing none, so text output goes past height 496, where two
    # frames per level of grammar._schemes ran out (exit 2).  JSON
    # output still nests once or more per level.
    code, out = run(["terms", "--sysf", "forall X. X -> (X->X) -> X",
                     "--max-height", "900"])
    assert code == 0
    assert len(out.splitlines()) == 897


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sysf_terms_print_deep_church_numerals(fmt):
    # render_sysf_term prints through render_proof's explicit stack: a
    # printer that recursed twice per level ran out of frames at height
    # 400 (exit 2, input nested too deeply).
    code, out = run(["terms", "--sysf", "forall X. X -> (X->X) -> X",
                     "--max-height", "400", "--format", fmt])
    assert code == 0
    terms = json.loads(out)["terms"] if fmt == "json" else out.splitlines()
    assert len(terms) == 397
