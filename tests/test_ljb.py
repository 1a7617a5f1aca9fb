import pytest

from proofenum.ljb import (Bracket, Fml, InvariantError, LJBContext,
                           LJBSequent, annotate, apply_rforall, apply_rimpl,
                           canon, erase_formulas, expose, merge_pairs,
                           normalize, normalize_chain, render_context,
                           render_ljb_sequent, MergeStep)
from proofenum.grammar import scheme_check
from proofenum.ljplus import LamPf, LamTm, Spine
from proofenum.expand import Session
from proofenum.syntax import parse_formula, render

from conftest import is_normal, replay


def fml(text, fid=-1):
    return Fml(parse_formula(text), fid)


def test_split_moves_unbound_item_out():
    ctx = LJBContext((Bracket(frozenset({"x"}),
                              LJBContext((fml("Q"), fml("P(x)")))),))
    nf = normalize(ctx)
    assert is_normal(nf)
    # Q does not mention x, so it leaves the bracket
    assert render_context(nf) == "Q, [P(x)]_{x}"


def test_drop_empty_bracket():
    ctx = LJBContext((Bracket(frozenset({"x"}), LJBContext()), fml("Q")))
    nf = normalize(ctx)
    assert render_context(nf) == "Q"


def test_merge_duplicates():
    ctx = LJBContext((fml("Q"), fml("Q"), fml("Q")))
    chain, trace = normalize_chain(ctx)
    nf = chain[-1]
    assert render_context(nf) == "Q"
    assert len(trace) == 2
    assert normalize(ctx) == nf


def test_merge_brackets():
    br = Bracket(frozenset({"x"}), LJBContext((fml("P(x)"),)))
    ctx = LJBContext((br, br))
    nf = normalize(ctx)
    assert render_context(nf) == "[P(x)]_{x}"
    ann = annotate(ctx)
    chain, steps = normalize_chain(ann)
    merges = [s for s in steps if isinstance(s, MergeStep)]
    assert len(merges) == 1
    # the merge pairs the dropped occurrence with its kept twin
    idx = steps.index(merges[0])
    pairs = merge_pairs(chain[idx], merges[0])
    assert len(pairs) == 1
    d, k = pairs[0]
    assert d != k
    # normalize records the same pair when it is asked to
    merged = {}
    assert normalize(ann, merged) == chain[-1]
    assert merged == {d: k}


def test_normalize_idempotent_and_replayable():
    ctx = LJBContext((
        Bracket(frozenset({"x"}),
                LJBContext((fml("P(x)"), fml("Q"),
                            Bracket(frozenset({"y"}),
                                    LJBContext((fml("R(y)"), fml("P(x)"))))))),
        fml("Q")))
    chain, trace = normalize_chain(ctx)
    nf = chain[-1]
    assert is_normal(nf)
    chain2, trace2 = normalize_chain(nf)
    assert chain2 == [nf] and trace2 == ()
    assert replay(ctx, trace)[-1] == nf
    assert normalize(ctx) == nf
    assert normalize(nf) == nf


def test_is_normal_sees_non_neighbouring_duplicates():
    br = Bracket(frozenset({"x"}), LJBContext((fml("P(x)"),)))
    for ctx in [LJBContext((fml("Q"), fml("P"), fml("Q"))),
                LJBContext((br, fml("P"), br))]:
        assert not is_normal(ctx)
        assert is_normal(normalize(ctx))


def bracket(binds, *items):
    return Bracket(frozenset(binds), LJBContext(items))


@pytest.mark.parametrize("ctx, want, fids", [
    # Q leaves the y-bracket and then the x-bracket
    (annotate(LJBContext((bracket("x", fml("P(x)"),
                                  bracket("y", fml("Q"),
                                          fml("R(x, y)"))),))),
     "Q, [P(x), [R(x, y)]_{y}]_{x}", (1, 0, 2)),
    # splits empty both brackets, which are then dropped
    (annotate(LJBContext((bracket("x", fml("Q"), bracket("y", fml("R"))),
                          fml("P")))),
     "P, Q, R", (0, 1, 2)),
    # the brackets become equal only after their splits, then merge;
    # the one with the smaller fids survives
    (annotate(LJBContext((bracket("x", fml("P(x)"), fml("R")),
                          bracket("x", fml("P(x)"), fml("Q"))))),
     "Q, R, [P(x)]_{x}", (1, 3, 0)),
    (annotate(LJBContext((fml("Q"), fml("Q"), fml("Q")))), "Q", (0,)),
    # fids out of traversal order, as after expose: the split Q has the
    # smaller fid and survives though its twin comes first
    (LJBContext((fml("Q", 2), bracket("x", fml("P(x)", 0), fml("Q", 1)))),
     "Q, [P(x)]_{x}", (1, 0)),
], ids=["split-twice", "emptied-and-dropped", "equal-after-splits",
        "three-copies", "split-twin-sorts-first"])
def test_one_pass_normal_form_matches_small_steps(ctx, want, fids):
    nf = normalize(ctx)
    small = normalize_chain(ctx)[0][-1]
    assert nf == small and repr(nf) == repr(small)
    assert render_context(nf) == want
    assert tuple(f for it in nf.items for f in it.fids) == fids


def test_erased_formulas_preserved_without_merge():
    ctx = LJBContext((
        Bracket(frozenset({"x"}), LJBContext((fml("P(x)"), fml("Q")))),
        fml("R(z)")))
    nf = normalize(ctx)
    before = sorted(render(f) for f in erase_formulas(ctx))
    after = sorted(render(f) for f in erase_formulas(nf))
    assert before == after


def test_canon_sorted_and_stable():
    ctx = LJBContext((fml("R"), fml("Q"), fml("P")))
    c = canon(ctx)
    assert [render(i.formula) for i in c.items] == ["P", "Q", "R"]
    assert canon(c) == c


def test_expose_atomic_heads():
    ctx = annotate(LJBContext((fml("P -> Q"), fml("P"), fml("R -> P"))))
    entries = expose(ctx, parse_formula("Q"))
    assert len(entries) == 1
    assert render(entries[0].formula) == "P -> Q"
    assert [render(a) for a in entries[0].args] == ["P"]
    # zero-argument heads expose too
    entries_p = expose(ctx, parse_formula("P"))
    assert {render(e.formula) for e in entries_p} == {"P", "R -> P"}


def test_expose_side_condition():
    # the head's variables must not cross a bracket that binds them
    ctx = annotate(LJBContext((
        Bracket(frozenset({"y"}), LJBContext((fml("P(y)"),))),)))
    assert expose(ctx, parse_formula("P(y)")) == []
    ctx2 = annotate(LJBContext((
        Bracket(frozenset({"y"}), LJBContext((fml("P(y) -> Q"),))),)))
    entries = expose(ctx2, parse_formula("Q"))
    assert len(entries) == 1
    # the exposed formula is released from its bracket; the emptied
    # bracket remains until cleaning
    assert render_context(entries[0].restructured) == "P(y) -> Q, []_{y}"
    nf = normalize(entries[0].restructured)
    assert render_context(nf) == "P(y) -> Q"


def test_expose_restructure_releases_innermost():
    outer = Bracket(
        frozenset({"x"}),
        LJBContext((fml("P(x)"),
                    Bracket(frozenset({"y"}),
                            LJBContext((fml("R(y) -> Q"), fml("R(y)")))))))
    ctx = annotate(LJBContext((outer, fml("S"))))
    entries = expose(ctx, parse_formula("Q"))
    assert len(entries) == 1
    got = render_context(entries[0].restructured)
    # siblings of the exposed item are released with it; the crossed
    # bind sets wrap the remaining layers inside out
    assert got == "R(y), R(y) -> Q, [P(x), [S]_{x}]_{y}"


def test_rforall_brackets_whole_context():
    s = LJBSequent(LJBContext((fml("P(y) -> Q"),)),
                   parse_formula("forall y. Q"))
    out = apply_rforall(s)
    assert render_ljb_sequent(out) == "[P(y) -> Q]_{y} |- Q"


def test_rimpl_extends_and_normalizes():
    s = LJBSequent(LJBContext((fml("P"),)), parse_formula("P -> Q"))
    out = apply_rimpl(s)
    assert render_ljb_sequent(out) == "P |- Q"  # duplicate P merged


def test_right_rules_reject_other_goals():
    # saturation dispatches on the goal first, so a wrong goal is a bug
    s = LJBSequent(LJBContext((fml("P"),)), parse_formula("P"))
    with pytest.raises(InvariantError):
        apply_rforall(s)
    with pytest.raises(InvariantError):
        apply_rimpl(s)


def test_scheme_check_simple():
    session = Session()
    goal = parse_formula("P -> P")
    c = session.canonical_var(parse_formula("P"))
    s = LJBSequent(LJBContext(), goal)
    good = LamPf(c, parse_formula("P"), Spine(c))
    assert scheme_check(session, s, good)
    bad = LamPf("zz", parse_formula("P"), Spine(c))
    assert not scheme_check(session, s, bad)
    assert not scheme_check(session, s, Spine(c))


def test_scheme_check_forall():
    session = Session()
    goal = parse_formula("forall x. P(x) -> P(x)")
    c = session.canonical_var(parse_formula("P(x)"))
    s = LJBSequent(LJBContext(), goal)
    pi = LamTm("x", LamPf(c, parse_formula("P(x)"), Spine(c)))
    assert scheme_check(session, s, pi)
    assert not scheme_check(
        session, s, LamTm("z", LamPf(c, parse_formula("P(z)"), Spine(c))))
