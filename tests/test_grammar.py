import importlib.util
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import proofenum
from proofenum.expand import Session, funcH
from proofenum.grammar import (CapExceeded, Grammar, NotPositive, Production,
                               build_grammar, enumerate_schemes,
                               grammar_to_json, is_inhabited, render_grammar)
from proofenum.ljb import (Fml, LJBContext, LJBSequent, render_ljb_sequent,
                           rule_step)
from proofenum.ljplus import LamPf, LamTm, Spine, render_proof, term_height
from proofenum.syntax import (Atom, Impl, ensure_distinct_binders,
                              parse_formula, render)
from proofenum.sysf import parse_sysf_type, phi

from conftest import (FIG_FORMULA, corpus, d_family, fixpoint_is_inhabited,
                      random_formula, random_type, seeded_goals)


def test_not_positive_rejected():
    with pytest.raises(NotPositive):
        build_grammar(parse_formula("(forall x. P(x)) -> Q"), Session())


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        build_grammar(parse_formula(FIG_FORMULA), Session(), cap=3)


def test_atomic_goal_grammar():
    g = build_grammar(parse_formula("Q"), Session())
    assert len(g.nonterminals) == 1
    assert g.productions == ()
    assert not is_inhabited(g)
    assert enumerate_schemes(g, 10) == []


def test_identity_grammar():
    session = Session()
    g = build_grammar(parse_formula("P -> P"), session)
    assert is_inhabited(g)
    schemes = enumerate_schemes(g, 5)
    assert [render_proof(s) for s in schemes] == ["\\c0:P. c0"]


def test_fig_grammar_shape():
    session = Session()
    g = build_grammar(parse_formula(FIG_FORMULA), session)
    assert is_inhabited(g)
    # the search graph is finite and small
    assert len(g.nonterminals) == 13
    # three canonical variables are registered: B->Q, P(y)->Q, P(y)
    assert session.canonical_var(
        parse_formula("(forall y. (P(y)->Q) -> (P(y)->Q)) -> Q")) == "c0"
    assert session.canonical_var(parse_formula("P(y) -> Q")) == "c1"
    assert session.canonical_var(parse_formula("P(y)")) == "c2"


def test_fig_scheme_counts():
    g = build_grammar(parse_formula(FIG_FORMULA), Session())
    counts = {h: len(enumerate_schemes(g, h)) for h in range(1, 12)}
    assert counts[6] == 0
    assert counts[7] == 1
    assert counts[10] == 1
    assert counts[11] == 2


def test_schemes_height_bounded_and_monotone():
    g = build_grammar(parse_formula(FIG_FORMULA), Session())
    prev: set = set()
    for h in range(1, 12):
        cur = set(enumerate_schemes(g, h))
        assert all(term_height(s) <= h for s in cur)
        assert prev <= cur
        prev = cur


def test_grammar_deterministic():
    for goal in corpus():
        outs = []
        for _ in range(2):
            g = build_grammar(goal, Session())
            outs.append((len(g.nonterminals), render_grammar(g)))
        assert outs[0] == outs[1]


def test_grammar_json():
    g = build_grammar(parse_formula("P -> P"), Session())
    d = grammar_to_json(g)
    assert d["start"] == 0
    assert len(d["nonterminals"]) == len(g.nonterminals)
    assert all({"lhs", "kind", "premises"} <= set(p) for p in d["productions"])


def test_uninhabited_examples():
    for text in ["Q", "P -> Q", "forall x. P(x)"]:
        g = build_grammar(parse_formula(text), Session())
        assert not is_inhabited(g)
        assert enumerate_schemes(g, 8) == []


def test_height_bound_gives_prefix_of_full_grammar():
    goals = corpus() + [parse_formula(FIG_FORMULA), d_family(3)]
    for goal in goals:
        full = build_grammar(goal, Session())
        for h in range(1, 11):
            g = build_grammar(goal, Session(), max_height=h)
            assert g.nonterminals == full.nonterminals[:len(g.nonterminals)]
            assert g.productions == full.productions[:len(g.productions)]
            expanded = len(g.steps)
            assert g.rules[:expanded] == full.rules[:expanded]
            assert not any(g.rules[expanded:])
            assert enumerate_schemes(g, h) == enumerate_schemes(full, h)


def test_grammar_contexts_have_distinct_occurrence_ids():
    # R-impl gives its hypothesis an id above every id of the context,
    # and the other rules only move or drop occurrences, so each context
    # the grammar reaches holds every id at most once.
    goals = corpus() + [d_family(k) for k in range(2, 6)] + seeded_goals()
    contexts = 0
    for goal in goals:
        for h in (None, 8):
            g = build_grammar(goal, Session(), max_height=h)
            for seq in g.nonterminals:
                fids = [f for it in seq.context.items for f in it.fids]
                assert len(set(fids)) == len(fids)
                contexts += len(fids) > 1
    assert contexts > 5000


def _formula_items(ctx):
    """The formula items of ctx, at every level."""
    levels, out = [ctx], []
    for c in levels:
        for it in c.items:
            if isinstance(it, Fml):
                out.append(it)
            else:
                levels.append(it.inner)
    return out


def test_left_rules_act_on_items_of_their_conclusion():
    # A left rule's hypothesis is the formula item that expose found in
    # its conclusion's context, that object and not a copy of it, and
    # each nonterminal has one production per rule instance, in order,
    # so a spine's index among its left-hand side's productions is that
    # of its entry in expose.  The full grammar's instances are
    # rule_step's again; the bounded one's are those it keeps, and its
    # unexpanded nonterminals have no productions.
    goals = corpus() + [d_family(3), d_family(4)] + seeded_goals()
    instances = 0
    for goal in goals:
        for h in (None, 8):
            g = build_grammar(goal, Session(), max_height=h)
            assert len(g.rules) == len(g.nonterminals)
            expanded = g.nonterminals if g.steps is None \
                else g.nonterminals[:len(g.steps)]
            assert not any(g.rules[len(expanded):])
            for nt, seq in enumerate(expanded):
                steps = rule_step(seq) if g.steps is None else g.steps[nt]
                prods = g.rules[nt]
                assert len(steps) == len(prods)
                if not isinstance(seq.goal, Atom):
                    continue
                items = {id(it) for it in _formula_items(seq.context)}
                for (_, _, hyp, _), p in zip(steps, prods):
                    assert type(hyp) is Fml and id(hyp) in items
                    assert p.kind == "spine"
                instances += len(steps)
    assert instances > 2000


def test_height_bound_limits_saturation():
    # D_5 has 3,889 nonterminals; height 9 reaches 117 of them.
    g = build_grammar(d_family(5), Session(), max_height=9)
    assert len(g.nonterminals) == 117
    assert len(enumerate_schemes(g, 9)) == 1


def test_cap_counts_only_nonterminals_within_height_bound():
    goal = parse_formula(FIG_FORMULA)
    with pytest.raises(CapExceeded):
        build_grammar(goal, Session(), cap=12)
    g = build_grammar(goal, Session(), cap=12, max_height=8)
    assert len(g.nonterminals) == 10


def test_cap_fires_at_the_nonterminal_count():
    # The cap counts every nonterminal the grammar holds, the start
    # included: a grammar of n nonterminals is built under cap n and
    # raises under n - 1, and under cap 0 even a lone start raises.
    goal = parse_formula("((P -> Q) -> Q) -> Q")
    assert len(build_grammar(goal, Session()).nonterminals) == 5
    for goal in [goal] + corpus() + [d_family(k) for k in range(2, 5)]:
        for h in (None, *range(1, 10)):
            g = build_grammar(goal, Session(), max_height=h)
            n = len(g.nonterminals)
            capped = build_grammar(goal, Session(), cap=n, max_height=h)
            assert render_grammar(capped) == render_grammar(g)
            for cap in (n - 1, 0):
                with pytest.raises(CapExceeded):
                    build_grammar(goal, Session(), cap=cap, max_height=h)
    with pytest.raises(CapExceeded):
        build_grammar(parse_formula("Q"), Session(), cap=0)


def _distances(g):
    """Each nonterminal's breadth-first distance from the start, along
    the productions of g, computed apart from saturation."""
    dist, layer = {g.start: 0}, [g.start]
    while layer:
        nxt = []
        for nt in layer:
            for p in g.rules[nt]:
                for q in p.premises:
                    if q not in dist:
                        dist[q] = dist[nt] + 1
                        nxt.append(q)
        layer = nxt
    return list(dist.values())


def test_bounded_grammar_holds_the_breadth_first_layers():
    # Under max_height h, saturation expands the nonterminals at
    # distance < h from the start and holds those at distance <= h.
    layers = 0
    for goal in [d_family(k) for k in range(2, 5)] + seeded_goals():
        full = build_grammar(goal, Session())
        dist = _distances(full)
        assert len(dist) == len(full.nonterminals)
        for h in range(1, 10):
            g = build_grammar(goal, Session(), max_height=h)
            assert len(g.steps) == sum(d < h for d in dist)
            assert len(g.nonterminals) == sum(d <= h for d in dist)
        layers += max(dist)
    assert layers > 1500


def test_nonterminals_are_sequents():
    # A nonterminal is its sequent, and its id is its position.
    assert "Nonterminal" not in proofenum.__all__
    for goal in corpus() + [d_family(3)]:
        for h in (None, 6):
            g = build_grammar(goal, Session(), max_height=h)
            assert all(type(s) is LJBSequent for s in g.nonterminals)
            d = grammar_to_json(g)
            assert [nt["id"] for nt in d["nonterminals"]] == \
                list(range(len(g.nonterminals)))
            assert [nt["sequent"] for nt in d["nonterminals"]] == \
                [render_ljb_sequent(s) for s in g.nonterminals]


def _at_outer_spine(pi, edit):
    """pi with edit applied to the spine under its outer binders, or
    None where edit gives None."""
    if isinstance(pi, Spine):
        return edit(pi)
    body = _at_outer_spine(pi.body, edit)
    return body and replace(pi, body=body)


def _reannotated(pi):
    """pi with the annotation of its outermost R-> binder changed, or
    None when its outer binders have no R->."""
    if isinstance(pi, LamPf):
        return replace(pi, annot=Impl(pi.annot, pi.annot))
    if isinstance(pi, LamTm):
        body = _reannotated(pi.body)
        return body and replace(pi, body=body)
    return None


def test_scheme_check_accepts_the_grammar_schemes():
    for goal in corpus():
        goal = ensure_distinct_binders(goal)
        session = Session()
        g = build_grammar(goal, session)
        seq = LJBSequent(LJBContext(), goal)
        # Every canonical variable comes from a production's head, so the
        # heads are c0 .. c(n-1) and cn is unused.
        unused = f"c{len({p.head for p in g.productions if p.head})}"
        for pi in enumerate_schemes(g, 6):
            assert funcH(session, pi, seq) != []
            assert funcH(session, _at_outer_spine(
                pi, lambda s: Spine(unused, s.args)), seq) == []


def test_funcH_is_empty_exactly_off_the_grammar_schemes():
    # A sequent derives a scheme exactly when funcH expands it to some
    # term: every scheme of the bounded grammar expands, and none of
    # its mutants does (with head c<n> unused, its outer spine's last
    # argument dropped, or its outer R-> annotation changed).
    two_succ = phi(parse_sysf_type("forall X. (X->X) -> (X->X) -> X -> X"))
    goals = (corpus() + [d_family(k) for k in (2, 3, 4)] + [two_succ]
             + seeded_goals())
    schemes = mutants = 0
    for goal in goals:
        goal, session = ensure_distinct_binders(goal), Session()
        g = build_grammar(goal, session, max_height=9)
        seq = LJBSequent(LJBContext(), goal)
        unused = f"c{len({p.head for p in g.productions if p.head})}"
        for pi in enumerate_schemes(g, 9):
            assert funcH(session, pi, seq) != []
            schemes += 1
            off = [_at_outer_spine(pi, lambda s: Spine(unused, s.args)),
                   _at_outer_spine(pi, lambda s: Spine(
                       s.head, s.args[:-1]) if s.args else None),
                   _reannotated(pi)]
            for mutant in filter(None, off):
                assert funcH(session, mutant, seq) == []
                mutants += 1
    assert (schemes, mutants) == (267, 724)


def test_funcH_is_empty_when_a_premise_fits_no_production():
    # Each mutant's outer binders and spine fit the productions of the
    # grammar's schemes, but the spine's first argument, a bare unused
    # head, fits no production of its premise: that premise expands to
    # no term, and so does the mutant.
    mutants = 0
    for goal in corpus() + [d_family(3)]:
        goal, session = ensure_distinct_binders(goal), Session()
        g = build_grammar(goal, session, max_height=8)
        seq = LJBSequent(LJBContext(), goal)
        unused = f"c{len({p.head for p in g.productions if p.head})}"
        for pi in enumerate_schemes(g, 8):
            mutant = _at_outer_spine(pi, lambda s: s.args and Spine(
                s.head, (Spine(unused),) + s.args[1:]) or None)
            if mutant is not None:
                assert funcH(session, pi, seq) != []
                assert funcH(session, mutant, seq) == []
                mutants += 1
    assert mutants == 13


# ---------------------------------------------------------------------------
# Linear emptiness against the fixpoint sweep


def _grammar(n, prods):
    """A grammar over n nonterminals, all the sequent |- Q, with the
    productions prods: (lhs, premises) pairs, spines with head c0."""
    rules = [[] for _ in range(n)]
    for lhs, premises in prods:
        rules[lhs].append(Production("spine", premises, "c0"))
    seq = LJBSequent(LJBContext(), parse_formula("Q"))
    return Grammar((seq,) * n, tuple(map(tuple, rules)))


def _random_grammar(rng):
    """A grammar over a few nonterminals with random premises, often
    cyclic and sometimes without a production that has no premises.
    The start is drawn, and swapped with nonterminal 0."""
    n = rng.randint(1, 8)
    prods = [(rng.randrange(n),
              tuple(rng.randrange(n)
                    for _ in range(rng.choice([0, 1, 1, 2, 3]))))
             for _ in range(rng.randint(0, 12))]
    start = rng.randrange(n)
    swap = {0: start, start: 0}
    return _grammar(n, [(swap.get(lhs, lhs),
                         tuple(swap.get(q, q) for q in premises))
                        for lhs, premises in prods])


def test_linear_emptiness_matches_fixpoint():
    grammars = [build_grammar(goal, Session())
                for goal in corpus() + [d_family(k) for k in range(2, 6)]]
    rng = random.Random(1984)
    for i in range(200):
        goal = random_type(rng) if i % 4 == 3 else random_formula(rng)
        grammars.append(build_grammar(goal, Session()))
    verdicts = [is_inhabited(g) for g in grammars]
    assert verdicts == [fixpoint_is_inhabited(g) for g in grammars]
    assert 20 <= sum(verdicts) <= len(verdicts) - 20


def test_linear_emptiness_on_cycles_without_terminal_productions():
    cycle = [(0, (1,)), (1, (2,)), (2, (0, 1))]
    assert not is_inhabited(_grammar(3, cycle))
    assert is_inhabited(_grammar(3, cycle + [(2, ())]))
    assert not is_inhabited(_grammar(3, [(0, (0,)), (1, ())]))
    rng = random.Random(2024)
    grammars = [_random_grammar(rng) for _ in range(500)]
    verdicts = [is_inhabited(g) for g in grammars]
    assert verdicts == [fixpoint_is_inhabited(g) for g in grammars]
    assert 100 <= sum(verdicts) <= 400


def test_equal_schemes_are_one_object():
    # Schemes are hash-consed within one enumeration: every node is
    # interned, so structurally equal sub-schemes are the same object
    # and lookups keyed by schemes compare them by identity.
    church = phi(parse_sysf_type("forall X. X -> (X->X) -> X"))
    for goal, h in [(church, 40), (d_family(3), 11),
                    (parse_formula(FIG_FORMULA), 20)]:
        g = build_grammar(ensure_distinct_binders(goal), Session(),
                          max_height=h)
        by_id, todo = {}, list(enumerate_schemes(g, h))
        while todo:
            t = todo.pop()
            if id(t) not in by_id:
                by_id[id(t)] = t
                todo.extend(t.args if isinstance(t, Spine) else (t.body,))
        assert len(set(by_id.values())) == len(by_id) > 20


def _workload_goals(monkeypatch):
    """The inputs of the benchmark's enumerate-* workloads at seeds 1-3,
    each with its height."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses looks the module of a class up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [(phi(parse_sysf_type(inp.text)) if inp.sysf
             else parse_formula(inp.text), inp.height)
            for name in ("enumerate-deep", "enumerate-shallow")
            for seed in (1, 2, 3)
            for inp in workloads.WORKLOADS[name](seed)]


def test_schemes_come_in_printed_order(monkeypatch):
    # enumerate_schemes sorts by the skeleton keys that _schemes builds
    # with the schemes, and nothing is printed; the keys sort as the
    # printed forms do.
    goals = [(g, 10) for g in corpus() + [d_family(k) for k in (2, 3, 4)]]
    goals += [(g, 9) for g in seeded_goals()]
    goals += _workload_goals(monkeypatch)
    schemes = 0
    for goal, h in goals:
        out = enumerate_schemes(build_grammar(goal, Session(), max_height=h),
                                h)
        assert out == sorted(out, key=render_proof), render(goal)
        schemes += len(out)
    assert schemes > 500
