import gc
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

import proofenum.expand
import proofenum.ljb
import proofenum.syntax
from proofenum.expand import (Duplication, Flat, Session, _bind, _copy_table,
                              _Expander, _Top, _renaming, enumerate_terms,
                              flatten_det, funcF, funcG, funcH)
from proofenum.grammar import build_grammar, enumerate_schemes, is_inhabited
from proofenum.ljb import (Bracket, Fml, InvariantError, LJBContext,
                           LJBSequent, annotate, canon, expose, normalize,
                           normalize_chain)
from proofenum.ljplus import (LamPf, LamTm, LJPlusSequent, NamedContext,
                              Spine, check_proof, oracle_enumerate,
                              render_proof, term_height)
from proofenum.syntax import (Atom, Forall, NotNegative, decompose_negative,
                              ensure_distinct_binders, parse_formula, render,
                              union_all)
from proofenum.sysf import parse_sysf_type, phi

from conftest import (FIG_FORMULA, SYSF_A1, SYSF_A2, alpha_set, corpus,
                      d_family, oracle_set, reference_lift_table,
                      seeded_goals)


def test_canonical_var_registry():
    s = Session()
    b_q = parse_formula("(forall y. (P(y)->Q) -> (P(y)->Q)) -> Q")
    assert s.canonical_var(b_q) == "c0"
    assert s.canonical_var(b_q) == "c0"
    assert s.canonical_var(parse_formula("P(y) -> Q")) == "c1"
    # exact syntax, no alpha-identification
    assert s.canonical_var(parse_formula("P(z) -> Q")) == "c2"
    with pytest.raises(NotNegative):
        s.canonical_var(parse_formula("forall x. P(x)"))


def test_canonical_var_rejects_non_negative_on_first_use():
    # the negativity check runs only when the registry misses, so a
    # formula that is not negative must never enter it
    s = Session()
    bad = parse_formula("((forall x. P(x)) -> Q) -> R")
    for _ in range(2):
        with pytest.raises(NotNegative):
            s.canonical_var(bad)
    assert s.canonical_var(parse_formula("P -> Q")) == "c0"


def _flat_sequent(ctx, goal):
    """The flattening of the annotated ctx |- goal as an LJ+ sequent."""
    flat = flatten_det(annotate(ctx), goal)
    return LJPlusSequent(
        NamedContext(tuple((pv, f) for _, pv, f in flat.hyps)), flat.goal)


def test_flatten_renames_bracket_variables():
    br = Bracket(frozenset({"x"}),
                 LJBContext((Fml(parse_formula("P(x)")),
                             Fml(parse_formula("P(x) -> Q")))))
    flat = flatten_det(annotate(LJBContext((br, br))), parse_formula("Q"))
    hyps = [(pv, render(f)) for _, pv, f in flat.hyps]
    assert hyps == [("h0", "P(x1)"), ("h1", "P(x1) -> Q"),
                    ("h2", "P(x2)"), ("h3", "P(x2) -> Q")]
    assert render(flat.goal) == "Q"


def test_flatten_no_brackets():
    flat = flatten_det(annotate(LJBContext((Fml(parse_formula("P")),))),
                       parse_formula("P"))
    assert [(pv, render(f)) for _, pv, f in flat.hyps] == [("h0", "P")]


def test_flattenings_alpha_equivalent():
    # [P(x), P(x) -> Q]_{x} and [P(y), P(y) -> Q]_{y} have the same
    # occurrence ids, and flatten to the fresh names x1 and y1.
    def flat(binds, a, b):
        br = Bracket(frozenset(binds), LJBContext((Fml(parse_formula(a)),
                                                   Fml(parse_formula(b)))))
        return flatten_det(annotate(LJBContext((br,))), parse_formula("Q"))
    fx, fy = flat("x", "P(x)", "P(x) -> Q"), flat("y", "P(y)", "P(y) -> Q")
    assert [fid for fid, _, _ in fx.hyps] == [fid for fid, _, _ in fy.hyps]
    assert _renaming(fx, fy) == ({"x1": "y1"}, {})
    assert _renaming(fy, fx) == ({"y1": "x1"}, {})
    # Same ids, but two variables where fx has one.
    fxy = flat("xy", "P(x)", "P(y) -> Q")
    for src, dst in [(fx, fxy), (fxy, fx)]:
        with pytest.raises(InvariantError):
            _renaming(src, dst)


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


def test_funcF_names_proof_binders_by_place_in_scope():
    # The binder takes the first h<n> above both the target's size and
    # its hypotheses named h<k>, whatever the term called it.
    imp = parse_formula("P -> Q")
    src = LJPlusSequent(NamedContext((("a", imp),)), imp)
    u = LamPf("h1", parse_formula("P"), Spine("a", (Spine("h1"),)))
    tgt = LJPlusSequent(NamedContext((("a1", imp), ("h2", imp))), imp)
    out = funcF(u, src, tgt, Duplication({}, {}, {"a": {1: "a1", 2: "h2"}}))
    assert [render_proof(t) for t in out] == \
        ["\\h3:P. (a1 h3)", "\\h3:P. (h2 h3)"]
    for t in out:
        assert check_proof(tgt.context, t, tgt.goal)


def test_funcG_merge_duplicates_proof():
    br = Bracket(frozenset({"x"}),
                 LJBContext((Fml(parse_formula("P(x)")),
                             Fml(parse_formula("P(x) -> Q")))))
    ctx, goal = LJBContext((br, br)), parse_formula("Q")
    # the normal form flattens to h0:P(x1), h1:P(x1)->Q |- Q, whose
    # one-step proof is (h1 h0)
    u = Spine("h1", (Spine("h0"),))
    out = funcG(annotate(ctx), goal, [u])
    assert sorted(render_proof(t) for t in out) == ["(h1 h0)", "(h3 h2)"]
    src = _flat_sequent(ctx, goal)
    for t in out:
        assert check_proof(src.context, t, src.goal)
        assert term_height(t) == term_height(u)


def test_funcG_empty_trace_is_renaming():
    chain, steps = normalize_chain(
        annotate(LJBContext((Fml(parse_formula("P")),))))
    assert steps == ()
    out = funcG(annotate(LJBContext((Fml(parse_formula("P")),))),
                parse_formula("P"), [Spine("h0")])
    assert [render_proof(t) for t in out] == ["h0"]


def test_funcG_drop_only_trace():
    ctx = LJBContext((Bracket(frozenset({"x"}), LJBContext()),
                      Fml(parse_formula("P"))))
    chain, steps = normalize_chain(annotate(ctx))
    assert steps
    out = funcG(annotate(ctx), parse_formula("P"), [Spine("h0")])
    assert [render_proof(t) for t in out] == ["h0"]


def test_funcG_rename_only_lift():
    # Cleaning splits Q out of the bracket and merges nothing, so the
    # normal form's flattening and the raw one differ only in the order
    # of their hypotheses, and the lift renames proof variables.
    inner = LJBContext((Fml(parse_formula("Q")), Fml(parse_formula("P(x)"))))
    ctx = annotate(LJBContext((Fml(parse_formula("R")),
                               Bracket(frozenset({"x"}), inner))))
    for goal, u, lifted in [("Q", "h0", "h2"), ("R", "h1", "h0")]:
        goal = parse_formula(goal)
        nf = flatten_det(normalize(ctx), goal)
        raw = flatten_det(canon(ctx), goal)
        assert [(pv, render(f)) for _, pv, f in nf.hyps] == \
            [("h0", "Q"), ("h1", "R"), ("h2", "P(x1)")]
        assert [(pv, render(f)) for _, pv, f in raw.hyps] == \
            [("h0", "R"), ("h1", "P(x1)"), ("h2", "Q")]
        out = funcG(ctx, goal, [Spine(u)])
        assert [render_proof(t) for t in out] == [lifted]
        assert check_proof(NamedContext(tuple(
            (pv, f) for _, pv, f in raw.hyps)), out[0], goal)
        # the identity only onto the normal form's own flattening
        fids = [[fid for fid, _, _ in flat.hyps] for flat in (nf, raw)]
        assert _copy_table(fids[0], {}, fids[1]) == \
            {"h0": ["h2"], "h1": ["h0"], "h2": ["h1"]}
        assert _copy_table(fids[0], {}, fids[0]) == \
            {"h0": ["h0"], "h1": ["h1"], "h2": ["h2"]}


def test_funcG_freshens_term_binders_free_in_the_context():
    # The normal form flattens to h0:P(x), h1:P(x1), h2:P(x1)->Q, so its
    # proof binds x2 and x3.  The second copy of the bracket makes x2
    # free in the context before cleaning, and once x2 becomes x3 the
    # inner binder must move on too.
    br = Bracket(frozenset({"x"}),
                 LJBContext((Fml(parse_formula("P(x)")),
                             Fml(parse_formula("P(x) -> Q")))))
    ctx = LJBContext((Fml(parse_formula("P(x)")), br, br))
    goal = parse_formula("forall x. P(x) -> forall x. P(x) -> Q")
    u = LamTm("x2", LamPf("h3", parse_formula("P(x2)"), LamTm(
        "x3", LamPf("h4", parse_formula("P(x3)"),
                    Spine("h2", (Spine("h1"),))))))
    out = funcG(annotate(ctx), goal, [u])
    assert sorted(render_proof(t) for t in out) == [
        "\\x3. \\h5:P(x3). \\x4. \\h6:P(x4). (h2 h1)",
        "\\x3. \\h5:P(x3). \\x4. \\h6:P(x4). (h4 h3)"]
    src = _flat_sequent(ctx, goal)
    for t in out:
        assert check_proof(src.context, t, src.goal)


def test_funcG_names_term_binders_from_the_goal():
    # Cleaning merges the two Q, so the normal form flattens to h0:Q; a
    # lifted binder takes the goal's name x, not the term's z.
    q = Fml(parse_formula("Q"))
    out = funcG(annotate(LJBContext((q, q))), parse_formula("forall x. Q"),
                [LamTm("z", Spine("h0"))])
    assert [render_proof(t) for t in out] == ["\\x. h0", "\\x. h1"]


def _fig_setup():
    goal = parse_formula(FIG_FORMULA)
    session = Session()
    grammar = build_grammar(goal, session)
    return goal, session, grammar, LJBSequent(LJBContext(), goal)


def test_funcH_trivial_axiom():
    session = Session()
    c = session.canonical_var(parse_formula("P"))
    seq = LJBSequent(LJBContext((Fml(parse_formula("P")),)),
                     parse_formula("P"))
    out = funcH(session, Spine(c), seq)
    assert [render_proof(t) for t in out] == ["h0"]


def test_funcH_single_scheme_single_term():
    goal, session, grammar, seq = _fig_setup()
    schemes = enumerate_schemes(grammar, 7)
    assert len(schemes) == 1
    out = funcH(session, schemes[0], seq)
    assert len(out) == 1
    assert check_proof(NamedContext(), out[0], goal)
    assert alpha_set(out) == oracle_set(goal, 7)


def test_funcH_duplicating_scheme_two_terms():
    goal, session, grammar, seq = _fig_setup()
    schemes = enumerate_schemes(grammar, 11)
    big = [s for s in schemes if term_height(s) == 11]
    assert len(big) == 1
    out = funcH(session, big[0], seq)
    assert len(out) == 2
    for t in out:
        assert check_proof(NamedContext(), t, goal)
        assert term_height(t) == 11
    # the two terms use the two copies of the duplicated hypothesis pair
    texts = [render_proof(t) for t in out]
    assert any("(h1 h2)" in s for s in texts)
    assert any("(h3 h4)" in s for s in texts)


def test_funcH_is_empty_on_schemes_the_sequent_does_not_derive():
    session = Session()
    p = parse_formula("P")
    c = session.canonical_var(p)
    cases = [("P -> P", Spine(c)),
             ("forall x. P(x) -> P(x)", Spine(c)),
             ("(P -> P) -> P -> P", LamPf(c, p, Spine(c)))]
    for text, pi in cases:
        seq = LJBSequent(LJBContext(), parse_formula(text))
        assert funcH(session, pi, seq) == []


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
    # The 37 Church-numeral schemes up to height 40 are nested chains
    # through the one nonterminal with an atomic goal: saturation exposes
    # its context once and its lift plans once more (2 calls), while
    # expanding every scheme on its own exposes 703 times.
    goal = phi(parse_sysf_type("forall X. X -> (X->X) -> X"))
    with counting(monkeypatch, proofenum.ljb, "expose") as calls:
        assert len(enumerate_terms(goal, 40)) == 37
    assert len(calls) <= 40


def test_expander_memo_lists_are_duplicate_free():
    # Expansion does not deduplicate its lists: distinct lift plans
    # differ at the root head, and lifting is injective, so every
    # memoized list is duplicate-free as built.  Its skeleton keys are
    # too, and each is its term's printed form without binder text.
    goals = [(g, 6) for g in corpus()] + [
        (d_family(3), 11),
        (phi(parse_sysf_type("forall X. (X->X) -> (X->X) -> X -> X")), 14),
        (phi(parse_sysf_type(SYSF_A2)), 24)]
    lists = 0
    for goal, h in goals:
        grammar = build_grammar(ensure_distinct_binders(goal), Session(),
                                max_height=h)
        expander, top = _Expander(grammar), _Top({}, 0, frozenset())
        for pi in enumerate_schemes(grammar, h):
            expander.H(grammar.start, pi, goal, top)
        for terms, keys in expander._terms.values():
            assert len(set(terms)) == len(terms)
            assert len(set(keys)) == len(keys) == len(terms)
            assert keys == [render_proof(t, binder=lambda x: "")
                            for t in terms]
        lists += len(expander._terms)
    assert lists > 500


def _raw_premises(grammar, nt, prods):
    """Per production of nt: the premise context of its rule instance
    before cleaning, built from nt's annotated sequent as saturation's
    rules build it, the premise goals, the targets the premises lift
    onto (nt's flattening, with each premise goal in its coordinates)
    and the proof variable a spine exposes or R-> binds."""
    seq = grammar.nonterminals[nt]
    ctx, goal = annotate(seq.context), seq.goal
    hyps = flatten_det(ctx, goal).hyps
    if isinstance(goal, Atom):
        out = []
        for i in range(len(prods)):
            restructured, hyp = expose(ctx, goal)[i]
            _, pvar, f = hyps[hyp.fid]
            out.append((restructured, hyp.args, [
                Flat(b, hyps) for b in decompose_negative(f)[0]], pvar))
        return out
    if isinstance(goal, Forall):
        body = _bind(goal, union_all(f.fvs for _, _, f in hyps))[1]
        return [(LJBContext((Bracket(goal.bvs, ctx),)), (goal.body,),
                 [Flat(body, hyps)], None)]
    n = len(hyps)
    target = Flat(goal.rhs, hyps + ((n, f"h{n}", goal.lhs),))
    return [(LJBContext(ctx.items + (Fml(goal.lhs, n),)), (goal.rhs,),
             [target], f"h{n}")]


def _reference_tables(grammar):
    """Per rule instance of each nonterminal of grammar that has
    productions: its lift plan and, per premise, the reference's
    copy table projected to proof variables (h_j -> sorted copies), or
    None when the reference lifts by a term renaming alone or not at
    all."""
    expander = _Expander(grammar)
    for nt, prods in enumerate(grammar.rules):
        raws = _raw_premises(grammar, nt, prods) if prods else []
        plans = expander._plans_of(nt)
        assert len(plans) == len(raws)
        for plan, (raw, args, targets, pvar) in zip(plans, raws):
            assert plan.pvar == pvar
            refs = []
            for a, target in zip(args, targets, strict=True):
                ref = reference_lift_table(raw, a, target)
                table = None if ref is None else {
                    pv: sorted(c for pvs, _, _ in copies for c in pvs)
                    for pv, copies in ref[0].items()}
                refs.append(table)
            yield plan, refs


def test_plan_tables_match_the_per_premise_reference():
    # A lift plan takes one table of occurrence ids for all the premises
    # of a production, from the positions of its cleaned premise
    # context; the reference cleans and flattens the raw premise context
    # for every premise, and checks that its flattening and the target
    # are alpha-equivalent.
    # The corpus grammars are full: bounded at a height that holds every
    # nonterminal, which by the prefix property gives the full grammar
    # with its rule instances kept.
    goals = [(g, len(build_grammar(g, Session()).nonterminals))
             for g in corpus()] + [
        (d_family(3), 11), (d_family(4), 9), (d_family(5), 9)]
    goals += [(g, 8) for g in seeded_goals()]
    tables = lifted = merging = renamed = 0
    for goal, h in goals:
        grammar = build_grammar(goal, Session(), max_height=h)
        for plan, refs in _reference_tables(grammar):
            table = plan.table and {pv: sorted(cs)
                                    for pv, cs in plan.table.items()}
            for ref in refs:
                if ref is not None and all(
                        cs == [pv] for pv, cs in ref.items()):
                    # terms in the goal's coordinates need no renaming
                    # of term variables
                    renamed += 1
                    ref = None
                assert table == ref
                tables += 1
                lifted += table is not None
                merging += table is not None and sum(
                    len(cs) for cs in table.values()) > len(table)
    # premises; lifted premises; lifted premises with merged copies;
    # premises the reference lifts by a term renaming alone (lifted
    # too when tables came from the reference: 455 in all)
    assert (tables, lifted, merging, renamed) == (2478, 428, 43, 27)


@contextmanager
def counting(monkeypatch, module, name):
    """Record the arguments of every call of module.name made inside the
    block: every package module that holds the function, module
    included, gets a recording wrapper, so recursive calls are recorded
    too."""
    orig = getattr(module, name)
    calls = []

    def wrapper(*args):
        calls.append(args)
        return orig(*args)

    with monkeypatch.context() as m:
        m.setattr(module, name, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "proofenum"
                    and vars(mod).get(name) is orig):
                m.setattr(mod, name, wrapper)
        yield calls


def test_enumerate_terms_cleans_each_production_at_most_twice(monkeypatch):
    # Saturation cleans the premise context of each production with the
    # one-pass normalize, and so does the expander when it builds the
    # production's lift plan; nothing builds the small-step chain, and
    # expansion itself cleans nothing.
    church = phi(parse_sysf_type("forall X. X -> (X->X) -> X"))
    for goal, h, productions in [(church, 40, 5), (d_family(3), 11, 92)]:
        g = build_grammar(goal, Session(), max_height=h)
        assert len(g.productions) == productions
        with counting(monkeypatch, proofenum.ljb,
                      "normalize_chain") as calls:
            enumerate_terms(goal, h)
        assert calls == []


def test_saturation_keeps_no_cleaning_trace(monkeypatch):
    # Saturation needs only normal forms; the small-step chain and its
    # trace are the reference for the tests and for bench/tracing.py.
    with counting(monkeypatch, proofenum.ljb, "normalize_chain") as calls:
        g = build_grammar(d_family(4), Session())
    assert len(g.nonterminals) == 1054
    assert calls == []


def test_expansion_flattens_no_sequent(monkeypatch):
    # Lift plans are occurrence ids alone: a premise's table sends each
    # occurrence of the left-hand side to its position in the cleaned
    # premise context, so expansion builds no flattening (it built one
    # per nonterminal it reached with productions: 27, 59 and 10 here).
    for goal, h in [(d_family(5), 9), (d_family(3), 11),
                    (phi(parse_sysf_type(SYSF_A2)), 24)]:
        with counting(monkeypatch, proofenum.expand, "flatten_det") as calls:
            assert enumerate_terms(goal, h)
        assert calls == []
        # saturation exposes a context once, and expansion reads its
        # lift plans from the rule instances the bounded grammar kept
        with counting(monkeypatch, proofenum.ljb, "expose") as exposed:
            enumerate_terms(goal, h)
        assert max(Counter((c.key, a.key) for c, a in exposed).values()) == 1


def test_expansion_annotates_no_context(monkeypatch):
    # Grammar contexts carry distinct occurrence ids as built, so lift
    # plans read them from the nonterminals' own sequents.
    for goal, h in [(d_family(5), 9), (d_family(3), 11),
                    (phi(parse_sysf_type(SYSF_A2)), 24)]:
        with counting(monkeypatch, proofenum.ljb, "annotate") as calls:
            assert enumerate_terms(goal, h)
        assert calls == []


def test_calls_leave_no_cyclic_garbage():
    # Recursive helpers are module functions, not closures: a closure
    # that calls itself forms a cycle with its cell, which keeps all it
    # refers to, the grammar or the terms of a call, until the collector
    # runs.
    d4, session = d_family(4), Session()
    pi = enumerate_schemes(build_grammar(d4, session, max_height=9), 9)[0]
    gc.collect()
    gc.disable()
    try:
        build_grammar(d_family(5), Session())
        assert gc.collect() == 0
        enumerate_terms(d_family(4), 9)
        assert gc.collect() == 0
        assert funcH(session, pi, LJBSequent(LJBContext(), d4))
        assert gc.collect() == 0
        assert oracle_enumerate(LJPlusSequent(NamedContext(), d4), 9)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lift_names_proof_binders_without_a_search(monkeypatch):
    # Every proof binder of a lift is h<n> by its place in scope, so no
    # lift scans for a fresh name (chain_20 made 2,280 scans when a
    # binder kept the term's name unless it clashed).
    chain = parse_formula(" -> ".join(["P"] * 21))
    with counting(monkeypatch, proofenum.syntax, "fresh_name") as calls:
        assert len(enumerate_terms(chain, 22)) == 20
    assert calls == []


def test_workloads_call_no_canon_annotate_or_matcher(monkeypatch):
    # Deciding (saturation and emptiness) and enumeration sort no
    # context with canon: cleaning sorts every level itself, so expose
    # leaves its contexts unsorted.  Nor do they annotate a context or
    # match formulas: lift plans compare no flattenings.
    church = phi(parse_sysf_type("forall X. X -> (X->X) -> X"))
    with counting(monkeypatch, proofenum.ljb, "canon") as sorts, \
            counting(monkeypatch, proofenum.ljb, "annotate") as annotated, \
            counting(monkeypatch, proofenum.syntax,
                     "match_formula") as matched:
        for k in (3, 4, 5):
            assert is_inhabited(build_grammar(d_family(k), Session()))
        for goal, h in [(d_family(4), 9),
                        (phi(parse_sysf_type(SYSF_A2)), 24), (church, 40)]:
            assert enumerate_terms(goal, h)
    assert sorts == annotated == matched == []


def test_relabel_rejects_non_matching_flattenings():
    p, q = parse_formula("P"), parse_formula("Q")
    with pytest.raises(InvariantError):
        _renaming(Flat(p, ((0, "h0", p),)), Flat(p, ((0, "h0", q),)))
    # The second hypotheses are one formula, but the first already sent
    # its variable x elsewhere, or took x as the image of y.
    px, py, qx = (parse_formula(t) for t in ("P(x)", "P(y)", "Q(x)"))
    for a, b in [(px, py), (py, px)]:
        with pytest.raises(InvariantError):
            _renaming(Flat(p, ((0, "h0", a), (1, "h1", qx))),
                      Flat(p, ((0, "h0", b), (1, "h1", qx))))
    assert issubclass(InvariantError, RuntimeError)


def test_relabel_and_copy_table_reject_missing_occurrences():
    # _renaming needs every occurrence of its source in its target, and
    # goals that match; _copy_table needs cleaning to send each
    # occurrence of its target to one of its source.
    p, q = parse_formula("P"), parse_formula("Q")
    with pytest.raises(InvariantError, match="not in the target"):
        _renaming(Flat(p, ((1, "h0", p),)), Flat(p, ((0, "h0", p),)))
    with pytest.raises(InvariantError, match="goals"):
        _renaming(Flat(p, ((0, "h0", p),)), Flat(q, ((0, "h0", p),)))
    assert _copy_table([0], {1: 0}, [0, 1]) == {"h0": ["h0", "h1"]}
    with pytest.raises(InvariantError, match="no occurrence"):
        _copy_table([0], {1: 2}, [0, 1])


def _deep_goals():
    """The inputs of the enumerate-deep benchmark, at their heights."""
    def sysf(text):
        return phi(parse_sysf_type(text))
    return [(sysf(SYSF_A2), 24), (sysf(SYSF_A1), 20),
            (parse_formula(FIG_FORMULA), 20),
            (sysf("forall X. (X->X) -> (X->X) -> X -> X"), 14),
            (sysf("forall X. X -> (X->X) -> X"), 40), (d_family(2), 13),
            (parse_formula("((forall x. Q(x)) -> P) -> forall x. P(x) -> P(x)"),
             5)]


def _distinct_nodes(terms):
    """The nodes of terms, each shared node once."""
    seen, todo = {}, list(terms)
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t.args if isinstance(t, Spine) else (t.body,))
    return list(seen.values())


def test_expansion_builds_each_node_where_it_lives(monkeypatch):
    # Expansion builds each term node once, in the goal's coordinates,
    # so it builds no more nodes than the output holds plus the
    # schemes' (interned) nodes.  Counting functions stand in for the
    # classes in expand only: enumerate_terms makes no isinstance test
    # there, since it calls no _lift.  Lifting every premise's terms again at
    # each level above built 3,923 nodes on A2@24 for 1,778 distinct
    # output nodes and 93 scheme nodes.
    built = []
    for name in ("Spine", "LamTm", "LamPf"):
        cls = getattr(proofenum.expand, name)
        monkeypatch.setattr(proofenum.expand, name,
                            lambda *a, cls=cls: built.append(cls) or cls(*a))
    for goal, h in _deep_goals():
        built.clear()
        out = enumerate_terms(goal, h)
        grammar = build_grammar(ensure_distinct_binders(goal), Session(),
                                max_height=h)
        schemes = _distinct_nodes(enumerate_schemes(grammar, h))
        assert len(built) <= len(_distinct_nodes(out)) + len(schemes), \
            render(goal)


def test_enumerate_terms_lifts_no_built_term(monkeypatch):
    # Copy tables are composed down the scheme, and expansion starts
    # from the goal as given, so no built term is lifted again: not
    # onto a larger context, and not onto the goal's own binder names.
    with counting(monkeypatch, proofenum.expand, "_lift") as calls:
        for goal, h in _deep_goals():
            assert enumerate_terms(goal, h)
    assert calls == []


def test_long_chain_expands_once_per_level():
    # chain_160 has 160 terms of 160 proof binders each.  Relifting
    # every term of a level at each level above took 16 s here.
    chain = parse_formula(" -> ".join(["P"] * 161))
    out = enumerate_terms(chain, 162)
    assert len(out) == 160
    assert all(check_proof(NamedContext(), t, chain) for t in out)


def test_expansion_takes_its_plans_from_the_bounded_grammar(monkeypatch):
    # A height-bounded grammar keeps the rule instances of the
    # nonterminals saturation expands, and the expander plans its lifts
    # from them: rule_step runs once per expanded nonterminal, all from
    # saturation.
    orig = proofenum.ljb.rule_step
    callers = []

    def wrapper(s):
        callers.append((sys._getframe(1).f_globals["__name__"],
                        s.context.key, s.goal.key))
        return orig(s)

    for goal, h in [(d_family(5), 9), (d_family(3), 11),
                    (phi(parse_sysf_type(SYSF_A2)), 24)]:
        grammar = build_grammar(goal, Session(), max_height=h)
        expanded = [(seq.context.key, seq.goal.key)
                    for seq in grammar.nonterminals[:len(grammar.steps)]]
        callers.clear()
        with monkeypatch.context() as m:
            for name, mod in list(sys.modules.items()):
                if (name.split(".")[0] == "proofenum"
                        and vars(mod).get("rule_step") is orig):
                    m.setattr(mod, "rule_step", wrapper)
            assert enumerate_terms(goal, h)
        assert callers == [("proofenum.grammar", *k) for k in expanded]
    full = build_grammar(d_family(3), Session())
    assert full.steps is None
    with pytest.raises(ValueError):
        _Expander(full)


def test_deep_church_numerals_do_not_recurse_out():
    # Equal schemes are one object, so the expander's memo lookups do
    # not compare deep schemes node by node (RecursionError from height
    # 252 on before), and output terms are not hashed.  Closed form h - 3.
    church = phi(parse_sysf_type("forall X. X -> (X->X) -> X"))
    assert len(enumerate_terms(church, 300)) == 297
    # grammar._schemes and _Expander.H take one frame per scheme level;
    # with a comprehension per spine, _schemes took two, and height 500
    # raised RecursionError.
    out = enumerate_terms(church, 900)
    assert len(out) == 897 and max(map(term_height, out)) == 900
