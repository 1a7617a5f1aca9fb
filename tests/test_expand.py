import pytest

import proofenum.expand
from proofenum.expand import (Duplication, Flat, InconsistentTrace, Session,
                              _relabel, enumerate_terms, flatten, funcF,
                              funcG, funcH)
from proofenum.grammar import build_grammar, enumerate_schemes
from proofenum.ljb import (Bracket, Fml, InvariantError, LJBContext,
                           LJBSequent, annotate, normalize)
from proofenum.ljplus import (LJPlusSequent, NamedContext, Spine,
                              alpha_eq_sequent, check_proof, render_proof,
                              term_height)
from proofenum.syntax import NotNegative, parse_formula, render
from proofenum.sysf import parse_sysf_type, phi

from conftest import FIG_FORMULA, alpha_set, oracle_set


def test_canonical_var_registry():
    s = Session()
    b_q = parse_formula("(forall y. (P(y)->Q) -> (P(y)->Q)) -> Q")
    assert s.canonical_var(b_q) == "c0"
    assert s.canonical_var(b_q) == "c0"
    assert s.canonical_var(parse_formula("P(y) -> Q")) == "c1"
    # exact syntax, no alpha-identification
    assert s.canonical_var(parse_formula("P(z) -> Q")) == "c2"
    assert s.formula_of("c1") == parse_formula("P(y) -> Q")
    with pytest.raises(NotNegative):
        s.canonical_var(parse_formula("forall x. P(x)"))


def test_flatten_renames_bracket_variables():
    br = Bracket(frozenset({"x"}),
                 LJBContext((Fml(parse_formula("P(x)")),
                             Fml(parse_formula("P(x) -> Q")))))
    seq = LJBSequent(LJBContext((br, br)), parse_formula("Q"))
    fl = flatten(Session(), seq)
    hyps = [(pv, render(f)) for pv, f in fl.result.context.hyps]
    assert hyps == [("h0", "P(x1)"), ("h1", "P(x1) -> Q"),
                    ("h2", "P(x2)"), ("h3", "P(x2) -> Q")]
    assert render(fl.result.goal) == "Q"
    assert set(fl.var_renaming) == {"x1", "x2"}


def test_flatten_no_brackets():
    seq = LJBSequent(LJBContext((Fml(parse_formula("P")),)),
                     parse_formula("P"))
    fl = flatten(Session(), seq)
    assert [(pv, render(f)) for pv, f in fl.result.context.hyps] == \
        [("h0", "P")]


def test_flattenings_alpha_equivalent():
    br = Bracket(frozenset({"x"}),
                 LJBContext((Fml(parse_formula("P(x)")),
                             Fml(parse_formula("P(x) -> Q")))))
    seq = LJBSequent(LJBContext((br,)), parse_formula("Q"))
    f1 = flatten(Session(), seq)
    f2 = flatten(Session(), seq)
    assert alpha_eq_sequent(f1.result, f2.result)


def _funcF_fixture():
    src = LJPlusSequent(
        NamedContext((("a", parse_formula("P(x) -> Q")),
                      ("b", parse_formula("P(x)")))),
        parse_formula("Q"))
    return src, Spine("a", (Spine("b"),))


def test_funcF_full_duplication():
    src, u = _funcF_fixture()
    tgt = LJPlusSequent(
        NamedContext((("a1", parse_formula("P(x) -> Q")),
                      ("b1", parse_formula("P(x)")),
                      ("a2", parse_formula("P(x) -> Q")),
                      ("b2", parse_formula("P(x)")))),
        parse_formula("Q"))
    d = Duplication({}, {}, {"a": {1: "a1", 2: "a2"}, "b": {1: "b1", 2: "b2"}})
    out = funcF(u, src, tgt, d)
    assert [render_proof(t) for t in out] == \
        ["(a1 b1)", "(a1 b2)", "(a2 b1)", "(a2 b2)"]
    for t in out:
        assert check_proof(tgt.context, t, tgt.goal)
        assert term_height(t) == term_height(u)


def test_funcF_renamed_duplication():
    src, u = _funcF_fixture()
    tgt = LJPlusSequent(
        NamedContext((("a1", parse_formula("P(x1) -> Q")),
                      ("b1", parse_formula("P(x1)")),
                      ("a2", parse_formula("P(x2) -> Q")),
                      ("b2", parse_formula("P(x2)")))),
        parse_formula("Q"))
    d = Duplication({"x": "x1"}, {"x": "x2"},
                    {"a": {1: "a1", 2: "a2"}, "b": {1: "b1", 2: "b2"}})
    out = funcF(u, src, tgt, d)
    assert [render_proof(t) for t in out] == ["(a1 b1)", "(a2 b2)"]


def test_funcF_empty_result():
    src, u = _funcF_fixture()
    tgt = LJPlusSequent(
        NamedContext((("a1", parse_formula("P(x1) -> Q")),
                      ("b2", parse_formula("P(x2)")))),
        parse_formula("Q"))
    d = Duplication({"x": "x1"}, {"x": "x2"}, {"a": {1: "a1"}, "b": {2: "b2"}})
    assert funcF(u, src, tgt, d) == []


def _funcG_fixture():
    br = Bracket(frozenset({"x"}),
                 LJBContext((Fml(parse_formula("P(x)")),
                             Fml(parse_formula("P(x) -> Q")))))
    seq = LJBSequent(LJBContext((br, br)), parse_formula("Q"))
    nf, trace = normalize(annotate(seq.context))
    session = Session()
    fs = flatten(session, seq)
    ft = flatten(session, LJBSequent(nf, seq.goal))
    return seq, trace, fs, ft


def test_funcG_merge_duplicates_proof():
    seq, trace, fs, ft = _funcG_fixture()
    # the normal form flattens to h0:P(x1), h1:P(x1)->Q |- Q, whose
    # one-step proof is (h1 h0)
    u = Spine("h1", (Spine("h0"),))
    out = funcG(u, seq, trace, fs, ft)
    assert [render_proof(t) for t in out] == ["(h1 h0)", "(h3 h2)"]
    for t in out:
        assert check_proof(fs.result.context, t, fs.result.goal)
        assert term_height(t) == term_height(u)


def test_funcG_empty_trace_is_renaming():
    session = Session()
    seq = LJBSequent(LJBContext((Fml(parse_formula("P")),)),
                     parse_formula("P"))
    fs = flatten(session, seq)
    out = funcG(Spine("h0"), seq, (), fs, fs)
    assert [render_proof(t) for t in out] == ["h0"]


def test_funcG_drop_only_trace():
    session = Session()
    ctx = LJBContext((Bracket(frozenset({"x"}), LJBContext()),
                      Fml(parse_formula("P"))))
    seq = LJBSequent(ctx, parse_formula("P"))
    nf, trace = normalize(annotate(ctx))
    fs = flatten(session, seq)
    ft = flatten(session, LJBSequent(nf, seq.goal))
    out = funcG(Spine("h0"), seq, trace, fs, ft)
    assert [render_proof(t) for t in out] == ["h0"]


def test_funcG_inconsistent_trace():
    seq, trace, fs, ft = _funcG_fixture()
    with pytest.raises(InconsistentTrace):
        funcG(Spine("h1", (Spine("h0"),)), seq, trace[:-1], fs, ft)


def _fig_setup():
    goal = parse_formula(FIG_FORMULA)
    session = Session()
    grammar = build_grammar(goal, session)
    seq = LJBSequent(LJBContext(), goal)
    return goal, session, grammar, seq, flatten(session, seq)


def test_funcH_trivial_axiom():
    session = Session()
    c = session.canonical_var(parse_formula("P"))
    seq = LJBSequent(LJBContext((Fml(parse_formula("P")),)),
                     parse_formula("P"))
    fl = flatten(session, seq)
    out = funcH(session, Spine(c), seq, fl)
    assert [render_proof(t) for t in out] == ["h0"]


def test_funcH_single_scheme_single_term():
    goal, session, grammar, seq, fl = _fig_setup()
    schemes = enumerate_schemes(grammar, 7)
    assert len(schemes) == 1
    out = funcH(session, schemes[0], seq, fl)
    assert len(out) == 1
    assert check_proof(NamedContext(), out[0], goal)
    assert alpha_set(out) == oracle_set(goal, 7)


def test_funcH_duplicating_scheme_two_terms():
    goal, session, grammar, seq, fl = _fig_setup()
    schemes = enumerate_schemes(grammar, 11)
    big = [s for s in schemes if term_height(s) == 11]
    assert len(big) == 1
    out = funcH(session, big[0], seq, fl)
    assert len(out) == 2
    for t in out:
        assert check_proof(NamedContext(), t, goal)
        assert term_height(t) == 11
    # the two terms use the two copies of the duplicated hypothesis pair
    texts = [render_proof(t) for t in out]
    assert any("(h1 h2)" in s for s in texts)
    assert any("(h3 h4)" in s for s in texts)


def test_enumerate_terms_identity():
    out = enumerate_terms(parse_formula("P -> P"), 3)
    assert [render_proof(t) for t in out] == ["\\h0:P. h0"]


def test_enumerate_terms_matches_oracle_small():
    for text, h in [("((P->Q)->Q)->Q", 6), (FIG_FORMULA, 8)]:
        goal = parse_formula(text)
        assert alpha_set(enumerate_terms(goal, h)) == oracle_set(goal, h)


def test_enumerate_terms_includes_duplicated_pair():
    goal = parse_formula(FIG_FORMULA)
    out = enumerate_terms(goal, 11)
    assert len(out) == 3
    assert alpha_set(out) == oracle_set(goal, 11)


def test_enumerate_terms_keeps_repeated_binders():
    goal = parse_formula("((forall x. Q(x)) -> P) -> forall x. P(x) -> P(x)")
    out = enumerate_terms(goal, 5)
    assert out
    assert all(check_proof(NamedContext(), t, goal) for t in out)
    assert alpha_set(out) == oracle_set(goal, 5)


def test_enumerate_terms_shares_sub_scheme_expansions(monkeypatch):
    # The 37 Church-numeral schemes up to height 40 are nested chains:
    # sharing sub-schemes exposes each level once (37 calls), while
    # expanding every scheme on its own exposes 703 times.
    calls = []
    expose = proofenum.expand.expose

    def counting_expose(*args):
        calls.append(args)
        return expose(*args)

    monkeypatch.setattr(proofenum.expand, "expose", counting_expose)
    goal = phi(parse_sysf_type("forall X. X -> (X->X) -> X"))
    assert len(enumerate_terms(goal, 40)) == 37
    assert len(calls) <= 40


def test_relabel_rejects_non_matching_flattenings():
    p, q = parse_formula("P"), parse_formula("Q")
    with pytest.raises(InvariantError):
        _relabel(Flat(p, ((0, "h0", p),)), Flat(p, ((0, "h0", q),)),
                 [Spine("h0")])
    assert issubclass(InvariantError, RuntimeError)
