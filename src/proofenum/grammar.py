"""Context-free grammar of schemes: saturation of the reachable bracket
sequents, emptiness, height-bounded scheme enumeration, and the test
of a scheme against the grammar's productions."""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from .ljb import (LJBContext, LJBSequent, Premises, render_ljb_sequent,
                  rule_step)
from .ljplus import LamPf, LamTm, ProofTerm, Spine, term_height
from .syntax import (Atom, Formula, Record, ensure_distinct_binders,
                     is_positive, render, slot_setters)

Scheme = ProofTerm

DEFAULT_CAP = 10 ** 4


class NotPositive(Exception):
    pass


class CapExceeded(Exception):
    pass


class Production(Record):
    __slots__ = ("lhs", "kind", "premises", "head", "var", "annot",
                 "occurrence_id")

    def __init__(self, lhs: int, kind: str,  # "spine" | "forall" | "impl"
                 premises: Tuple[int, ...], head: Optional[str] = None,
                 var: Optional[str] = None, annot: Optional[Formula] = None,
                 occurrence_id: Optional[int] = None):
        _prod_lhs(self, lhs)
        _prod_kind(self, kind)
        _prod_premises(self, premises)
        _prod_head(self, head)
        _prod_var(self, var)
        _prod_annot(self, annot)
        _prod_occurrence_id(self, occurrence_id)


class Grammar(Record):
    """A grammar of schemes.  Its nonterminals are sequents, and a
    nonterminal's id is its position in nonterminals.  A height-bounded
    grammar keeps, in steps, the rule instances (ljb.rule_step) of each
    nonterminal it expanded, by id: expansion plans its lifts from them.
    A full grammar keeps none (steps is None), since only enumeration
    asks for a bound.  The instances hold cleaning's merge dicts, so a
    bounded grammar has no hash.  by_lhs is unset until
    productions_by_lhs fills it."""
    __slots__ = ("start", "nonterminals", "productions", "steps", "by_lhs")

    def __init__(self, start: int, nonterminals: Tuple[LJBSequent, ...],
                 productions: Tuple[Production, ...],
                 steps: Optional[Tuple[List[Premises], ...]] = None):
        _gr_start(self, start)
        _gr_nonterminals(self, nonterminals)
        _gr_productions(self, productions)
        _gr_steps(self, steps)


(_prod_lhs, _prod_kind, _prod_premises, _prod_head, _prod_var, _prod_annot,
 _prod_occurrence_id) = slot_setters(Production)
(_gr_start, _gr_nonterminals, _gr_productions, _gr_steps,
 _gr_by_lhs) = slot_setters(Grammar)


def build_grammar(goal: Formula, session, cap: int = DEFAULT_CAP,
                  max_height: Optional[int] = None) -> Grammar:
    """Saturate the set of sequents reachable from |- goal and emit one
    production per applicable rule instance.

    With max_height, only nonterminals at breadth-first distance below
    max_height from the start are expanded: a derivation of height
    <= max_height uses no others.  The worklist is FIFO, so the result
    is a prefix of the full grammar (same ids, sequents and production
    order), and the cap counts only the nonterminals it holds."""
    if not is_positive(goal):
        raise NotPositive(f"not a positive formula: {render(goal)}")
    return saturate(LJBSequent(LJBContext(), ensure_distinct_binders(goal)),
                    session, cap, max_height)


def saturate(start_seq: LJBSequent, session, cap: int = DEFAULT_CAP,
             max_height: Optional[int] = None) -> Grammar:
    """The grammar of the sequents reachable from start_seq, as in
    build_grammar: one production per rule instance of rule_step, with
    the cleaned premise sequents as its premises; a spine production's
    occurrence_id is its instance's index, that of its entry in expose.
    A nonterminal keeps the sequent it was first reached with,
    occurrence ids included.
    The list of sequents is the FIFO worklist: a sequent's id is its
    position, given when it is first reached, and the loop expands the
    sequents in id order while their premises append new ones.  Each
    breadth-first layer is thus a contiguous range of ids, and
    layer_end is where the next one starts.  With max_height, the loop
    stops at the first sequent at distance max_height, and the grammar
    keeps the rule instances of the sequents it expanded, a prefix of
    them (steps)."""
    if cap < 1:
        raise CapExceeded(f"more than {cap} nonterminals")
    seqs: List[LJBSequent] = [start_seq]
    ids: Dict[Tuple[str, str], int] = {
        (start_seq.context.key, start_seq.goal.key): 0}
    prods: List[Production] = []
    steps: Optional[List[List[Premises]]] = \
        None if max_height is None else []
    depth, layer_end = 0, 1  # seqs[:layer_end] lie within depth steps
    for nt, seq in enumerate(seqs):
        if nt == layer_end:
            depth, layer_end = depth + 1, len(seqs)
        if max_height is not None and depth >= max_height:
            break
        goal = seq.goal
        instances = rule_step(seq)
        if steps is not None:
            steps.append(instances)
        for i, (ctx, goals, hyp, _) in enumerate(instances):
            qs = []
            for a in goals:
                q = ids.setdefault((ctx.key, a.key), len(seqs))
                if q == len(seqs):  # reached first here: the next id
                    if q >= cap:
                        raise CapExceeded(f"more than {cap} nonterminals")
                    seqs.append(LJBSequent(ctx, a))
                qs.append(q)
            premises = tuple(qs)
            if isinstance(goal, Atom):
                prods.append(Production(
                    nt, "spine", premises,
                    session.canonical_var(hyp.formula), None, None, i))
            elif hyp is None:  # R-forall
                prods.append(Production(nt, "forall", premises, None,
                                        goal.var))
            else:
                prods.append(Production(
                    nt, "impl", premises,
                    session.canonical_var(goal.lhs), None, goal.lhs))
    return Grammar(0, tuple(seqs), tuple(prods),
                   None if steps is None else tuple(steps))


def is_inhabited(g: Grammar) -> bool:
    """Emptiness of the scheme language by productivity marking, in one
    pass linear in the size of the grammar (Dowling & Gallier, J. Logic
    Programming 1984): each production counts its premises not yet
    known productive, and a nonterminal that becomes productive
    decrements the count of every production it is a premise of."""
    waiting = [len(p.premises) for p in g.productions]
    uses: List[List[int]] = [[] for _ in g.nonterminals]
    for i, p in enumerate(g.productions):
        for q in p.premises:
            uses[q].append(i)
    productive = [False] * len(g.nonterminals)
    work = [i for i, n in enumerate(waiting) if n == 0]
    while work:
        nt = g.productions[work.pop()].lhs
        if productive[nt]:
            continue
        productive[nt] = True
        for i in uses[nt]:
            waiting[i] -= 1
            if waiting[i] == 0:
                work.append(i)
    return productive[g.start]


def productions_by_lhs(g: Grammar) -> Dict[int, List[Production]]:
    """g's productions by lhs, built once and kept on g: do not change."""
    by_lhs = getattr(g, "by_lhs", None)
    if by_lhs is None:
        by_lhs = {}
        for p in g.productions:
            by_lhs.setdefault(p.lhs, []).append(p)
        _gr_by_lhs(g, by_lhs)
    return by_lhs


def enumerate_schemes(g: Grammar, max_height: int) -> List[Scheme]:
    """All schemes of height <= max_height derivable from the start
    nonterminal, in the order of their skeleton keys (see _schemes),
    which is render_proof's order."""
    schemes = _schemes(g.start, max_height, productions_by_lhs(g), {}, {})
    return sorted(schemes, key=schemes.__getitem__)


def _schemes(nt: int, h: int, by_lhs: Dict[int, List[Production]],
             memo: dict, nodes: dict) -> Dict[Scheme, str]:
    """Schemes of height <= h derivable from nt, each mapped to its
    skeleton key (README, stage 2); memo maps (nt, h) to them.  Equal
    schemes are one object (hash-consing, Filliâtre & Conchon, ML
    Workshop 2006): nodes maps the constructor and the ids of a node's
    interned sub-schemes to the node and its key, for one call."""
    if h <= 0:
        return {}
    key = (nt, h)
    if key in memo:
        return memo[key]
    out: Dict[Scheme, str] = {}
    for p in by_lhs.get(nt, []):
        subs = []  # a loop, not a comprehension: one frame per level
        for q in p.premises:
            subs.append(_schemes(q, h - 1, by_lhs, memo, nodes))
        tag = (p.kind, p.head, p.var, p.annot and p.annot.key)
        for tup in product(*subs):
            k = (tag, *map(id, tup))
            entry = nodes.get(k)
            if entry is None:
                node = Spine(p.head, tup) if p.kind == "spine" \
                    else LamTm(p.var, tup[0]) if p.kind == "forall" \
                    else LamPf(p.head, p.annot, tup[0])
                text = " ".join([sub[u] for sub, u in zip(subs, tup)])
                skey = text if p.kind != "spine" \
                    else f"({p.head} {text})" if tup else p.head
                entry = nodes[k] = node, skey
            out[entry[0]] = entry[1]
    memo[key] = out
    return out


def fits(p: Production, pi: Scheme) -> bool:
    """Whether the root of the scheme pi is an instance of p: a spine
    on head and arity, forall on the variable, impl on head and
    annotation.  pi's sub-schemes are then matched against p's
    premises (see subschemes)."""
    if p.kind == "spine":
        return (isinstance(pi, Spine) and pi.head == p.head
                and len(pi.args) == len(p.premises))
    if p.kind == "forall":
        return isinstance(pi, LamTm) and pi.var == p.var
    return isinstance(pi, LamPf) and pi.pvar == p.head and pi.annot == p.annot


def subschemes(pi: Scheme) -> Tuple[Scheme, ...]:
    return pi.args if isinstance(pi, Spine) else (pi.body,)


def scheme_check(session, s: LJBSequent, pi: Scheme) -> bool:
    """Derivability of s |- pi : goal in the bracket calculus with
    canonical proof variables: some derivation of the grammar of s
    fits pi node by node."""
    g = saturate(s, session, max_height=term_height(pi))
    return _derives(g.start, pi, productions_by_lhs(g), {})


def _derives(nt: int, node: Scheme, by_lhs: Dict[int, List[Production]],
             memo: dict) -> bool:
    """Whether nt derives the scheme node; memo maps (nt, node) to it."""
    key = (nt, node)
    if key not in memo:
        memo[key] = any(fits(p, node) and all(
            _derives(q, sub, by_lhs, memo)
            for q, sub in zip(p.premises, subschemes(node)))
            for p in by_lhs.get(nt, ()))
    return memo[key]


def render_grammar(g: Grammar) -> str:
    lines = []
    for p in g.productions:
        if p.kind == "spine":
            rhs = f"({p.head}{''.join(f' S{q}' for q in p.premises)})" \
                if p.premises else p.head
        elif p.kind == "forall":
            rhs = f"\\{p.var}. S{p.premises[0]}"
        else:
            rhs = f"\\{p.head}:{render(p.annot)}. S{p.premises[0]}"
        lines.append(f"S{p.lhs} -> {rhs}")
    return "\n".join(lines)


def grammar_to_json(g: Grammar) -> dict:
    prods = []
    for p in g.productions:
        entry = {"lhs": p.lhs, "kind": p.kind, "premises": list(p.premises)}
        if p.head is not None:
            entry["head"] = p.head
        if p.var is not None:
            entry["var"] = p.var
        if p.annot is not None:
            entry["annot"] = render(p.annot)
        if p.occurrence_id is not None:
            entry["occurrenceId"] = p.occurrence_id
        prods.append(entry)
    return {
        "start": g.start,
        "nonterminals": [{"id": i, "sequent": render_ljb_sequent(s)}
                         for i, s in enumerate(g.nonterminals)],
        "productions": prods,
    }
