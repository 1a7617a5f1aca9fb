"""End-to-end suite: golden outputs, count laws, brute-force
equivalence, and randomized soundness/cleaning properties."""

import random
import time

from proofenum.expand import (Duplication, Session, _renaming,
                              enumerate_terms, flatten_det, funcF, funcG,
                              funcH)
from proofenum.grammar import build_grammar, enumerate_schemes
from proofenum.ljb import (LJBContext, LJBSequent, MergeStep, annotate, canon,
                           normalize, normalize_chain)
from proofenum.ljplus import (LamPf, LamTm, LJPlusSequent, NamedContext,
                              Spine, check_proof, oracle_enumerate,
                              render_proof, term_height)
from proofenum.syntax import (ensure_distinct_binders, parse_formula, render)

from conftest import (FIG_FORMULA, SYSF_A1, SYSF_A2, alpha_set, corpus,
                      d_family, erase_formulas, is_normal, merge_pairs,
                      oracle_set, random_context, reference_rename_proof,
                      shape_ok)
from proofenum.sysf import parse_sysf_type, phi


# ---------------------------------------------------------------------------
# 1. Grammar golden test: the generated scheme language equals the
#    four-production reference grammar for A = (B -> Q) -> Q with
#    B = forall y. (P(y) -> Q) -> (P(y) -> Q), at heights <= 10.

def _reference_language(max_height):
    b_to_q = parse_formula("(forall y. (P(y) -> Q) -> P(y) -> Q) -> Q")
    pyq = parse_formula("P(y) -> Q")
    py = parse_formula("P(y)")

    def wrap_s1(body):
        return LamPf("c1", pyq, LamPf("c2", py, body))

    def s1(h):
        out = set()
        if h < 4:
            return out
        out.add(wrap_s1(Spine("c1", (Spine("c2"),))))
        for t in s1(h - 4):
            out.add(wrap_s1(Spine("c0", (LamTm("y", t),))))
        return out

    out = set()
    if max_height >= 7:
        out.add(LamPf("c0", b_to_q, Spine(
            "c0", (LamTm("y", wrap_s1(Spine("c1", (Spine("c2"),)))),))))
    for t in s1(max_height - 7):
        out.add(LamPf("c0", b_to_q, Spine(
            "c0", (LamTm("y", wrap_s1(Spine("c0", (LamTm("y", t),)))),))))
    return {render_proof(t) for t in out}


def test_grammar_language_matches_reference():
    start = time.monotonic()
    goal = parse_formula(FIG_FORMULA)
    g = build_grammar(goal, Session())
    got = {render_proof(s) for s in enumerate_schemes(g, 10)}
    assert got == _reference_language(10)
    # also beyond the first non-trivial nesting levels
    for h in (11, 15):
        got = {render_proof(s) for s in enumerate_schemes(g, h)}
        assert got == _reference_language(h)
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Expanding the self-nesting scheme yields exactly the two terms in
#    which the inner spine uses either copy of the duplicated pair.

def test_duplicating_scheme_expands_to_two_terms():
    start = time.monotonic()
    goal = ensure_distinct_binders(parse_formula(FIG_FORMULA))
    session = Session()
    build_grammar(goal, session)
    b_to_q = parse_formula("(forall y. (P(y) -> Q) -> P(y) -> Q) -> Q")
    pyq = parse_formula("P(y) -> Q")
    py = parse_formula("P(y)")
    inner = LamTm("y", LamPf("c1", pyq, LamPf(
        "c2", py, Spine("c1", (Spine("c2"),)))))
    pi = LamPf("c0", b_to_q, Spine("c0", (LamTm("y", LamPf(
        "c1", pyq, LamPf("c2", py, Spine("c0", (inner,))))),)))
    seq = LJBSequent(LJBContext(), goal)
    out = funcH(session, pi, seq)
    assert len(out) == 2

    def expected(pair):
        h1h2 = Spine(pair[0], (Spine(pair[1]),))
        return LamPf("h0", b_to_q, Spine("h0", (LamTm("y", LamPf(
            "h1", pyq, LamPf("h2", py, Spine("h0", (LamTm("y1", LamPf(
                "h3", parse_formula("P(y1) -> Q"),
                LamPf("h4", parse_formula("P(y1)"), h1h2))),))))),)))

    assert alpha_set(out) == alpha_set(
        [expected(("h1", "h2")), expected(("h3", "h4"))])
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 3. Duplication expansion goldens: sizes 4, 2 and 0 with exact elements.

def test_duplication_expansion_goldens():
    start = time.monotonic()
    src = LJPlusSequent(
        NamedContext((("a", parse_formula("P(x) -> Q")),
                      ("b", parse_formula("P(x)")))),
        parse_formula("Q"))
    u = Spine("a", (Spine("b"),))

    tgt_full = LJPlusSequent(
        NamedContext((("a1", parse_formula("P(x) -> Q")),
                      ("b1", parse_formula("P(x)")),
                      ("a2", parse_formula("P(x) -> Q")),
                      ("b2", parse_formula("P(x)")))),
        parse_formula("Q"))
    both = {"a": {1: "a1", 2: "a2"}, "b": {1: "b1", 2: "b2"}}
    out = funcF(u, src, tgt_full, Duplication({}, {}, both))
    assert [render_proof(t) for t in out] == \
        ["(a1 b1)", "(a1 b2)", "(a2 b1)", "(a2 b2)"]

    tgt_split = LJPlusSequent(
        NamedContext((("a1", parse_formula("P(x1) -> Q")),
                      ("b1", parse_formula("P(x1)")),
                      ("a2", parse_formula("P(x2) -> Q")),
                      ("b2", parse_formula("P(x2)")))),
        parse_formula("Q"))
    out = funcF(u, src, tgt_split,
                Duplication({"x": "x1"}, {"x": "x2"}, both))
    assert [render_proof(t) for t in out] == ["(a1 b1)", "(a2 b2)"]

    tgt_mixed = LJPlusSequent(
        NamedContext((("a1", parse_formula("P(x1) -> Q")),
                      ("b2", parse_formula("P(x2)")))),
        parse_formula("Q"))
    out = funcF(u, src, tgt_mixed,
                Duplication({"x": "x1"}, {"x": "x2"},
                            {"a": {1: "a1"}, "b": {2: "b2"}}))
    assert out == []
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 4. Polymorphic count laws: for the first type the scheme whose head
#    variable occurs k times expands to k terms; for the second, to k^2.

def _schemes_by_head_count(type_text, max_height):
    goal = ensure_distinct_binders(phi(parse_sysf_type(type_text)))
    session = Session()
    grammar = build_grammar(goal, session)
    seq = LJBSequent(LJBContext(), goal)
    by_count = {}

    def count_head(t, head):
        if isinstance(t, Spine):
            return (t.head == head) + sum(count_head(a, head) for a in t.args)
        return count_head(t.body, head)

    for pi in enumerate_schemes(grammar, max_height):
        by_count[count_head(pi, "c0")] = pi
    return goal, session, seq, by_count


def test_polymorphic_count_laws():
    start = time.monotonic()
    goal1, s1, seq1, by1 = _schemes_by_head_count(SYSF_A1, 28)
    for k in range(2, 7):
        assert len(funcH(s1, by1[k], seq1)) == k
    for k in range(2, 5):
        h = term_height(by1[k])
        assert alpha_set(enumerate_terms(goal1, h)) == oracle_set(goal1, h)

    goal2, s2, seq2, by2 = _schemes_by_head_count(SYSF_A2, 28)
    for k in range(2, 7):
        assert len(funcH(s2, by2[k], seq2)) == k * k
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 5. Equivalence with brute-force backward search on the corpus for all
#    heights up to 6.

def test_matches_brute_force_enumeration():
    start = time.monotonic()
    for goal in corpus():
        for k in range(1, 7):
            assert alpha_set(enumerate_terms(goal, k)) == \
                oracle_set(goal, k), (render(goal), k)
    assert time.monotonic() - start < 120.0


def test_terms_equal_the_oracle_exactly():
    # Not only up to alpha-equivalence: expansion names hypotheses
    # h0, h1, ... by position, as the oracle does, so the rendered lists
    # are equal in order and name for name.
    def sysf(text):
        return phi(parse_sysf_type(text))

    cases = [(goal, 6) for goal in corpus()] + [
        (sysf(SYSF_A2), 24), (sysf(SYSF_A1), 20),
        (sysf("forall X. (X->X) -> (X->X) -> X -> X"), 14),
        (sysf("forall X. X -> (X->X) -> X"), 40),
        (parse_formula(FIG_FORMULA), 20), (d_family(2), 13),
        (parse_formula("((forall x. Q(x)) -> P) -> forall x. P(x) -> P(x)"),
         5),
        # chain_30 and chain_80: n terms of n proof binders, each level
        # of the one scheme binding below the binders of the levels above
        (parse_formula(" -> ".join(["P"] * 31)), 32),
        (parse_formula(" -> ".join(["P"] * 81)), 82)]
    for goal, h in cases:
        want = oracle_enumerate(LJPlusSequent(NamedContext(), goal), h)
        assert list(map(render_proof, enumerate_terms(goal, h))) == \
            list(map(render_proof, want)), (render(goal), h)


# ---------------------------------------------------------------------------
# 6. Randomized soundness: 1000 grammar-guided schemes of height <= 10;
#    every expanded term type-checks, is eta-long, and keeps its height.

def _min_heights(grammar):
    inf = float("inf")
    minh = {nt: inf for nt in range(len(grammar.nonterminals))}
    changed = True
    while changed:
        changed = False
        for nt, prods in enumerate(grammar.rules):
            for p in prods:
                need = 1 + max((minh[q] for q in p.premises), default=0)
                if need < minh[nt]:
                    minh[nt] = need
                    changed = True
    return minh


def _sample_scheme(grammar, rng, max_height):
    from proofenum.ljplus import LamPf as Pf, LamTm as Tm, Spine as Sp
    minh = _min_heights(grammar)

    def go(nt, h):
        prods = [p for p in grammar.rules[nt]
                 if 1 + max((minh[q] for q in p.premises), default=0) <= h]
        if not prods:
            return None
        p = rng.choice(prods)
        subs = []
        for q in p.premises:
            sub = go(q, h - 1)
            if sub is None:
                return None
            subs.append(sub)
        if p.kind == "spine":
            return Sp(p.head, tuple(subs))
        if p.kind == "forall":
            return Tm(p.var, subs[0])
        return Pf(p.head, p.annot, subs[0])

    return go(grammar.start, max_height)


def test_random_schemes_expand_soundly():
    rng = random.Random(20240817)
    inhabited = []
    for goal in corpus():
        goal = ensure_distinct_binders(goal)
        session = Session()
        grammar = build_grammar(goal, session)
        minh = _min_heights(grammar)
        if minh[grammar.start] <= 10:
            inhabited.append((goal, session, grammar,
                              LJBSequent(LJBContext(), goal)))
    assert inhabited
    checked = 0
    per_goal = 1000 // len(inhabited) + 1
    for goal, session, grammar, seq in inhabited:
        for _ in range(per_goal):
            pi = _sample_scheme(grammar, rng, 10)
            if pi is None:
                continue
            for t in funcH(session, pi, seq):
                assert check_proof(NamedContext(), t, goal)
                assert shape_ok(NamedContext(), t, goal)
                assert term_height(t) == term_height(pi)
            checked += 1
    assert checked >= 1000


# ---------------------------------------------------------------------------
# 7. Cleaning properties on 500 random contexts of size <= 50.

def _merged_into(merged, fid):
    while fid in merged:
        fid = merged[fid]
    return fid


def test_cleaning_properties_random():
    start = time.monotonic()
    rng = random.Random(987654321)
    for _ in range(500):
        raw = random_context(rng, [rng.randint(1, 50)])
        assert normalize(raw) == normalize_chain(raw)[0][-1]
        ctx = annotate(raw)
        chain, trace = normalize_chain(ctx)
        nf = chain[-1]
        assert normalize(ctx) == nf
        assert is_normal(nf)
        # the merges normalize records send every occurrence where the
        # small-step merges send it
        merged, stepwise = {}, {}
        normalize(ctx, merged)
        for before, step in zip(chain, trace):
            if isinstance(step, MergeStep):
                stepwise.update(merge_pairs(before, step))
        assert merged.keys() == stepwise.keys()
        for f in merged:
            assert _merged_into(merged, f) == _merged_into(stepwise, f)
        chain2, trace2 = normalize_chain(nf)
        assert chain2 == [nf] and trace2 == ()
        before = sorted(render(f) for f in erase_formulas(ctx))
        after = sorted(render(f) for f in erase_formulas(nf))
        # merging only removes exact duplicates: the surviving formulas
        # are a sub-multiset of the originals covering every distinct one
        remaining = list(before)
        for f in after:
            assert f in remaining
            remaining.remove(f)
        assert set(before) == set(after)
    assert time.monotonic() - start < 10.0


def _flat_sequent(flat):
    return LJPlusSequent(
        NamedContext(tuple((pv, f) for _, pv, f in flat.hyps)), flat.goal)


def test_funcG_matches_brute_force_on_random_contexts():
    # Lifting every proof of the cleaned context's flattening back across
    # cleaning gives every proof of the raw context's flattening: the
    # oracle on both sides is the reference, not the small-step chain.
    # Where cleaning merges nothing, the lift is a renaming, and it must
    # give exactly the terms the reference renaming gives.
    start = time.monotonic()
    rng = random.Random(20231)
    goals = [parse_formula(t) for t in ("Q", "P", "R(x)", "P(x) -> Q")]
    with_merge = renamed = 0
    for _ in range(400):
        ctx = annotate(random_context(rng, [rng.randint(1, 30)]))
        for goal in goals:
            merged = {}
            nf_flat = flatten_det(normalize(ctx, merged), goal)
            raw_flat = flatten_det(canon(ctx), goal)
            nf, raw = _flat_sequent(nf_flat), _flat_sequent(raw_flat)
            terms = oracle_enumerate(nf, 4)
            lifted = funcG(ctx, goal, terms)
            assert alpha_set(lifted) == \
                alpha_set(oracle_enumerate(raw, 4))
            for t in lifted:
                assert check_proof(raw.context, t, goal)
            if lifted and len(nf.context.hyps) < len(raw.context.hyps):
                with_merge += 1
            tmap, pmap = _renaming(nf_flat, raw_flat)
            if not merged and (tmap or pmap):
                assert lifted == [reference_rename_proof(t, tmap, pmap)
                                  for t in terms]
                renamed += bool(lifted)
    assert with_merge >= 100
    assert renamed >= 100
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 8. Determinism: repeated grammar construction is bit-identical.

def test_grammar_construction_deterministic():
    for goal in corpus():
        runs = []
        for _ in range(3):
            g = build_grammar(goal, Session())
            runs.append((len(g.nonterminals),
                         tuple((nt, p.kind, p.premises, p.head, p.var,
                                render(p.annot) if p.annot else None)
                               for nt, prods in enumerate(g.rules)
                               for p in prods)))
        assert runs[0] == runs[1] == runs[2]
