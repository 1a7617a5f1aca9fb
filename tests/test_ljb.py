from proofenum.ljb import (Bracket, Fml, LJBContext, LJBSequent, annotate,
                           apply_rforall, apply_rimpl, canon, erase_formulas,
                           expose, is_normal, merge_pairs, normalize,
                           normalize_chain, render_context,
                           render_ljb_sequent, replay, MergeStep)
from proofenum.grammar import scheme_check
from proofenum.ljplus import LamPf, LamTm, Spine
from proofenum.expand import Session
from proofenum.syntax import parse_formula, render


def fml(text):
    return Fml(parse_formula(text))


def test_split_moves_unbound_item_out():
    ctx = LJBContext((Bracket(frozenset({"x"}),
                              LJBContext((fml("Q"), fml("P(x)")))),))
    nf, trace = normalize(ctx)
    assert is_normal(nf)
    # Q does not mention x, so it leaves the bracket
    assert render_context(nf) == "Q, [P(x)]_{x}"


def test_drop_empty_bracket():
    ctx = LJBContext((Bracket(frozenset({"x"}), LJBContext()), fml("Q")))
    nf, trace = normalize(ctx)
    assert render_context(nf) == "Q"


def test_merge_duplicates():
    ctx = LJBContext((fml("Q"), fml("Q"), fml("Q")))
    nf, trace = normalize(ctx)
    assert render_context(nf) == "Q"
    assert len(trace) == 2


def test_merge_brackets():
    br = Bracket(frozenset({"x"}), LJBContext((fml("P(x)"),)))
    ctx = LJBContext((br, br))
    nf, trace = normalize(ctx)
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


def test_normalize_idempotent_and_replayable():
    ctx = LJBContext((
        Bracket(frozenset({"x"}),
                LJBContext((fml("P(x)"), fml("Q"),
                            Bracket(frozenset({"y"}),
                                    LJBContext((fml("R(y)"), fml("P(x)"))))))),
        fml("Q")))
    nf, trace = normalize(ctx)
    assert is_normal(nf)
    nf2, trace2 = normalize(nf)
    assert nf2 == nf and trace2 == ()
    chain = replay(ctx, trace)
    assert chain[-1] == nf


def test_erased_formulas_preserved_without_merge():
    ctx = LJBContext((
        Bracket(frozenset({"x"}), LJBContext((fml("P(x)"), fml("Q")))),
        fml("R(z)")))
    nf, _ = normalize(ctx)
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
    nf, _ = normalize(entries[0].restructured)
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
