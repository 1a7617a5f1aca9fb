import random

import pytest

from proofenum.ljb import (Bracket, Fml, InvariantError, LJBContext,
                           LJBSequent, _restructure, annotate, canon, expose,
                           normalize, normalize_chain, render_ljb_sequent,
                           rule_step, MergeStep)
from proofenum.grammar import build_grammar
from proofenum.ljplus import LamPf, LamTm, Spine
from proofenum.expand import Session, funcH
from proofenum.syntax import (Atom, Forall, Impl, parse_formula, render,
                              split_arrows)

from conftest import (corpus, d_family, erase_formulas, is_normal,
                      merge_pairs, random_context, reference_expose,
                      render_context, replay, seeded_goals)


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
    assert render(entries[0][1].formula) == "P -> Q"
    assert [render(a) for a in entries[0][1].args] == ["P"]
    # zero-argument heads expose too
    entries_p = expose(ctx, parse_formula("P"))
    assert {render(hyp.formula) for _, hyp in entries_p} == {"P", "R -> P"}


def test_expose_rejects_a_non_atomic_goal():
    ctx = annotate(LJBContext((fml("P -> Q"),)))
    for goal in ("P -> Q", "forall x. Q"):
        with pytest.raises(InvariantError):
            expose(ctx, parse_formula(goal))


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
    assert render_context(canon(entries[0][0])) == "P(y) -> Q, []_{y}"
    nf = normalize(entries[0][0])
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
    got = render_context(canon(entries[0][0]))
    # siblings of the exposed item are released with it; the crossed
    # bind sets wrap the remaining layers inside out
    assert got == "R(y), R(y) -> Q, [P(x), [S]_{x}]_{y}"


def _formula_items(ctx):
    for it in ctx.items:
        if isinstance(it, Fml):
            yield it
        else:
            yield from _formula_items(it.inner)


def test_expose_matches_the_split_arrows_scan():
    # Contexts and items are records, so == on the lists compares their
    # order, occurrence ids (index and fid), restructured contexts (fids
    # included), formulas and arguments, the reference's from
    # split_arrows.
    rng = random.Random(21)
    goals = [parse_formula(t) for t in ("Q", "P", "P(x)", "R(x, y)", "R(z)")]
    cases = []
    for _ in range(300):
        ctx = random_context(rng, [12])
        cases += [(c, g) for c in (ctx, annotate(ctx)) for g in goals]
    for k in (3, 4):
        g = build_grammar(d_family(k), Session())
        cases += [(seq.context, seq.goal) for seq in g.nonterminals
                  if isinstance(seq.goal, Atom)]
    entries = crossed = 0
    for ctx, goal in cases:
        got, want = expose(ctx, goal), reference_expose(ctx, goal)
        assert [(i, c, h.formula, h.fid, h.args)
                for i, (c, h) in enumerate(got)] == \
            [(i, c, h.formula, h.fid, split_arrows(h.formula)[0])
             for i, (c, h) in enumerate(want)]
        assert [c.key for c, _ in got] == [c.key for c, _ in want]
        entries += len(got)
        crossed += sum(c is not ctx for c, _ in got)
        for it in _formula_items(ctx):
            assert (it.args, it.head) == split_arrows(it.formula)
    assert len(cases) > 3300 and entries > 2000 and crossed > 1000


def _next_fid(ctx):
    """The occurrence id of the hypothesis R-impl adds to ctx."""
    return 1 + max((f for it in ctx.items for f in it.fids), default=-1)


def right_rule(s):
    """The premise of the one rule instance rule_step finds for s, whose
    goal is not atomic: the premise of R-forall or R-impl.  R-impl acts
    on the hypothesis it adds, R-forall on none."""
    [(ctx, (goal,), hyp, merged)] = rule_step(s)
    assert isinstance(merged, dict)
    assert hyp == (None if isinstance(s.goal, Forall)
                   else Fml(s.goal.lhs, _next_fid(s.context)))
    return LJBSequent(ctx, goal)


def test_rforall_brackets_whole_context():
    s = LJBSequent(LJBContext((fml("P(y) -> Q"),)),
                   parse_formula("forall y. Q"))
    out = right_rule(s)
    assert render_ljb_sequent(out) == "[P(y) -> Q]_{y} |- Q"


def test_rimpl_extends_and_normalizes():
    s = LJBSequent(LJBContext((fml("P"),)), parse_formula("P -> Q"))
    out = right_rule(s)
    assert render_ljb_sequent(out) == "P |- Q"  # duplicate P merged


def test_rimpl_numbers_its_hypothesis_above_the_context():
    # R-impl's hypothesis has id 1 + the largest id of the conclusion's
    # context, also where that context was built by an R-impl, which
    # keeps its largest id on it (top).
    goals = corpus() + [d_family(k) for k in (3, 4)] + seeded_goals(60)
    chained = 0
    for goal in goals:
        for s in build_grammar(goal, Session()).nonterminals:
            if not isinstance(s.goal, Impl):
                continue
            [(_, _, hyp, _)] = rule_step(s)
            assert hyp.fid == _next_fid(s.context)
            top = getattr(s.context, "top", None)
            assert top in (None, hyp.fid - 1)
            chained += top is not None
    assert chained > 500


def test_scheme_check_simple():
    # A sequent derives a scheme exactly when funcH expands it to some
    # term.
    session = Session()
    goal = parse_formula("P -> P")
    c = session.canonical_var(parse_formula("P"))
    s = LJBSequent(LJBContext(), goal)
    good = LamPf(c, parse_formula("P"), Spine(c))
    assert funcH(session, good, s) != []
    bad = LamPf("zz", parse_formula("P"), Spine(c))
    assert funcH(session, bad, s) == []
    assert funcH(session, Spine(c), s) == []


def test_scheme_check_forall():
    session = Session()
    goal = parse_formula("forall x. P(x) -> P(x)")
    c = session.canonical_var(parse_formula("P(x)"))
    s = LJBSequent(LJBContext(), goal)
    pi = LamTm("x", LamPf(c, parse_formula("P(x)"), Spine(c)))
    assert funcH(session, pi, s) != []
    assert funcH(session,
                 LamTm("z", LamPf(c, parse_formula("P(z)"), Spine(c))),
                 s) == []


# ---------------------------------------------------------------------------
# The right rules and top-level exposures build their premise contexts
# from the normal conclusion context; the references below are the
# constructions they replace, which clean the whole premise again.


def _rimpl_by_cleaning(s):
    extended = LJBContext(s.context.items
                          + (Fml(s.goal.lhs, _next_fid(s.context)),))
    return LJBSequent(normalize(extended), s.goal.rhs)


def _rforall_by_cleaning(s):
    v = s.goal.bvs
    return LJBSequent(normalize(LJBContext((Bracket(v, s.context),))),
                      s.goal.body)


def _levels(ctx):
    yield ctx
    for it in ctx.items:
        if isinstance(it, Bracket):
            yield from _levels(it.inner)


def _with_shuffled_fids(ctx, rng):
    """ctx with its occurrence ids permuted, as they are after expose."""
    n = sum(len(it.fids) for it in ctx.items)
    fids = rng.sample(range(n), n)

    def walk(c):
        return LJBContext(tuple(
            Fml(it.formula, fids.pop()) if isinstance(it, Fml)
            else Bracket(it.binds, walk(it.inner)) for it in c.items))

    return walk(ctx)


def _random_normal_contexts(seed, count):
    """Normal contexts from random ones: unannotated, annotated, and
    annotated with the ids out of traversal order."""
    rng = random.Random(seed)
    for _ in range(count):
        raw = random_context(rng, [rng.randint(0, 30)])
        yield from (normalize(raw), normalize(annotate(raw)),
                    normalize(_with_shuffled_fids(annotate(raw), rng)))


def test_normalize_returns_sorted_levels():
    for nf in _random_normal_contexts(11, 300):
        assert nf.normal
        assert canon(nf) is nf
        for level in _levels(nf):
            keys = [(it.key, it.fids) for it in level.items]
            assert keys == sorted(keys)
            assert len({k for k, _ in keys}) == len(keys)


_GOAL_PARTS = ["Q", "P", "P(x)", "R(x, y)", "P(z) -> Q", "R(w) -> Q"]


def test_rimpl_inserts_into_the_normal_level():
    rng = random.Random(12)
    kept = 0
    for ctx in _random_normal_contexts(13, 300):
        tops = [it.formula for it in ctx.items if isinstance(it, Fml)]
        for lhs in [parse_formula(rng.choice(_GOAL_PARTS))] + tops[:2]:
            s = LJBSequent(ctx, parse_formula(f"({render(lhs)}) -> Q"))
            got, want = right_rule(s), _rimpl_by_cleaning(s)
            assert got == want and repr(got) == repr(want)
            assert got.context.normal and canon(got.context) is got.context
            if lhs in tops:
                # the new item's id is above every id of ctx, so the
                # twin it ties with sorts first and stays
                assert got.context is ctx
                kept += 1
    assert kept >= 100


def test_rforall_splits_the_level_once():
    rng = random.Random(14)
    unchanged = replaced = kept_old = 0
    for ctx in _random_normal_contexts(15, 300):
        for _ in range(3):
            binds = rng.sample(["x", "y", "z", "w"], rng.randint(1, 2))
            goal = parse_formula(
                "".join(f"forall {v}. " for v in binds) + "Q")
            inner = LJBContext(tuple(it for it in ctx.items
                                     if not it.fvs.isdisjoint(goal.bvs)))
            cases = [ctx]
            if inner.items:
                # a twin of the bracket the rule builds, with other ids
                twin = Bracket(goal.bvs, _with_shuffled_fids(inner, rng))
                cases.append(normalize(LJBContext(ctx.items + (twin,))))
            for c in cases:
                s = LJBSequent(c, goal)
                got, want = right_rule(s), _rforall_by_cleaning(s)
                assert got == want and repr(got) == repr(want)
                assert got.context.normal
                assert canon(got.context) is got.context
                unchanged += got.context is c
            if len(cases) == 2:
                twin = next(it for it in cases[1].items
                            if it.key == twin.key)
                if twin in got.context.items:
                    kept_old += 1
                else:
                    replaced += 1
    assert unchanged >= 100 and replaced >= 100 and kept_old >= 100


def test_right_rules_keep_the_twin_that_sorts_first():
    # the item R-impl adds has id 1 + the largest of the context, so
    # the twin already there sorts first and stays
    ctx = normalize(LJBContext((fml("P", 3), fml("Q", 1))))
    out = right_rule(LJBSequent(ctx, parse_formula("P -> Q"))).context
    assert [it.fids for it in out.items] == [(3,), (1,)]
    out = right_rule(LJBSequent(out, parse_formula("R -> Q"))).context
    assert [it.fids for it in out.items] == [(3,), (1,), (4,)]
    # an occurrence inside a bracket counts too: 5 is the largest id
    s = LJBSequent(normalize(LJBContext((fml("Q", 0),
                                         bracket("x", fml("P(x)", 5))))),
                   parse_formula("R -> Q"))
    assert [it.fids for it in right_rule(s).context.items] == \
        [(0,), (6,), (5,)]
    # P(x) goes into a bracket that ties with [P(x)]_{x}, whose id is 5
    twin = bracket("x", fml("P(x)", 5))
    goal = parse_formula("forall x. Q")
    for fid, want in [(0, (0,)), (9, (5,))]:
        s = LJBSequent(normalize(LJBContext((fml("P(x)", fid), twin))),
                       goal)
        out = right_rule(s)
        assert out == _rforall_by_cleaning(s)
        assert [it.fids for it in out.context.items] == [want]


def test_top_level_exposure_reuses_its_context():
    goal = parse_formula("Q")
    reused = 0
    for ctx in _random_normal_contexts(16, 200):
        for i, it in enumerate(ctx.items):
            rest = ctx.items[:i] + ctx.items[i + 1:]
            got = _restructure([], ctx, i)
            assert got is ctx
            assert got == canon(LJBContext(rest + (it,)))
        top = sum(isinstance(it, Fml) and split_arrows(it.formula)[1] == goal
                  for it in ctx.items)
        entries = expose(ctx, goal)
        assert sum(c is ctx for c, _ in entries) == top
        reused += top
    assert reused >= 100
