import io
import json
from contextlib import redirect_stdout

import pytest

from proofenum.cli import main

from conftest import FIG_FORMULA, SYSF_A2


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


def test_bad_max_height():
    code, _ = run(["terms", "P -> P", "--max-height", "0"])
    assert code == 2


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
