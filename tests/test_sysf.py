import pytest

from proofenum.expand import enumerate_terms
from proofenum.ljplus import LamPf, LamTm, Spine
from proofenum.syntax import (Atom, Forall, Impl, SyntaxError_,
                              parse_formula, render)
from proofenum.sysf import (Arrow, ForallT, TVar, is_positive_type,
                            parse_sysf_type, phi, render_sysf_term,
                            render_type, unphi)

from conftest import SYSF_A1, SYSF_A2


def test_parse_sysf_type():
    assert parse_sysf_type("X") == TVar("X")
    assert parse_sysf_type("X -> Y") == Arrow(TVar("X"), TVar("Y"))
    assert parse_sysf_type("forall X. X -> X") == \
        ForallT("X", Arrow(TVar("X"), TVar("X")))
    with pytest.raises(SyntaxError_):
        parse_sysf_type("X(Y)")


def test_phi_clauses():
    assert render(phi(TVar("X"))) == "eps(X)"
    assert render(phi(parse_sysf_type("forall X. X -> X"))) == \
        "forall X. eps(X) -> eps(X)"
    assert render(phi(parse_sysf_type(SYSF_A2))) == \
        ("forall X. forall Y. (((eps(Y) -> eps(X)) -> eps(Y) -> eps(X)) "
         "-> eps(X)) -> eps(X)")


def test_phi_unphi_inverse():
    for text in ["X", "X -> Y", "forall X. X -> (X -> X) -> X",
                 SYSF_A1, SYSF_A2]:
        t = parse_sysf_type(text)
        assert unphi(phi(t)) == t


def test_unphi_rejects_foreign_formulas():
    with pytest.raises(ValueError):
        unphi(parse_formula("P(x)"))
    with pytest.raises(ValueError):
        unphi(parse_formula("eps(x, y)"))


def test_a_type_is_the_formula_parse_formula_reads():
    assert TVar is Atom and Arrow is Impl and ForallT is Forall
    text = "forall X. (X -> Y) -> forall Z. Z"
    assert parse_sysf_type(text) == parse_formula(text)
    # the leftmost atom with arguments is named, at offset 0
    with pytest.raises(SyntaxError_, match=r"^type variable 'X' takes no "
                       r"arguments \(at offset 0\)$"):
        parse_sysf_type("X(a) -> Y(b)")


def test_phi_rejects_atoms_with_arguments():
    with pytest.raises(ValueError):
        phi(parse_formula("P(x)"))


def test_is_positive_type():
    assert is_positive_type(parse_sysf_type("forall X. X -> (X->X) -> X"))
    assert is_positive_type(
        parse_sysf_type("forall X. X -> ((X->X)->X) -> X"))
    assert not is_positive_type(parse_sysf_type("(forall X. X) -> Y"))


def test_render_type():
    t = parse_sysf_type("(X -> Y) -> forall Z. Z")
    assert render_type(t) == "(X -> Y) -> forall Z. Z"


def test_render_sysf_term_identity():
    t = LamTm("x", LamPf("a", parse_formula("eps(x)"), Spine("a")))
    assert render_sysf_term(t) == "\\X. \\a:X. a"


def test_render_sysf_terms_distinct():
    goal = phi(parse_sysf_type(SYSF_A2))
    terms = enumerate_terms(goal, 10)
    rendered = [render_sysf_term(t) for t in terms]
    assert len(rendered) == len(set(rendered))
    assert len(rendered) > 0


def test_type_variables_apart_only_by_case_print_as_written():
    # Uppercasing would print x and X as one variable, and the term as
    # one of another type; where uppercasing keeps the variables of the
    # type or term apart, it stays.
    text = "forall x. forall X. x -> X -> x"
    assert render_type(parse_sysf_type(text)) == text
    assert [render_sysf_term(t)
            for t in enumerate_terms(phi(parse_sysf_type(text)), 6)] == \
        ["\\x. \\X. \\h0:x. \\h1:X. h0"]
    assert render_type(parse_sysf_type("forall x. forall y. x -> y")) == \
        "forall X. forall Y. X -> Y"
    # one naming for the whole term: the annotation x alone would be
    # uppercased, but the binder X shares the term with it
    t = LamTm("X", LamPf("a", parse_formula("eps(x)"), Spine("a")))
    assert render_sysf_term(t) == "\\X. \\a:x. a"
