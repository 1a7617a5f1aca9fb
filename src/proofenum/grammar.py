"""Context-free grammar of schemes: saturation of the reachable bracket
sequents, emptiness and height-bounded scheme enumeration."""

from __future__ import annotations

from itertools import chain, product
from typing import Dict, List, Optional, Tuple

from .ljb import (LJBContext, LJBSequent, Premises, render_ljb_sequent,
                  rule_step)
from .ljplus import LamPf, LamTm, ProofTerm, Spine
from .syntax import (Atom, Forall, Formula, Record, ensure_distinct_binders,
                     is_positive, render, slot_setters)

Scheme = ProofTerm

DEFAULT_CAP = 10 ** 4


class NotPositive(Exception):
    pass


class CapExceeded(Exception):
    pass


class Production(Record):
    __slots__ = ("kind", "premises", "head", "var", "annot")

    def __init__(self, kind: str,  # "spine" | "forall" | "impl"
                 premises: Tuple[int, ...], head: Optional[str] = None,
                 var: Optional[str] = None, annot: Optional[Formula] = None):
        _prod_kind(self, kind)
        _prod_premises(self, premises)
        _prod_head(self, head)
        _prod_var(self, var)
        _prod_annot(self, annot)


class Grammar(Record):
    """A grammar of schemes.  Its nonterminals are sequents, and a
    nonterminal's id is its position in nonterminals; the start is 0.
    rules[nt] is the tuple of nt's productions, one per rule instance
    (ljb.rule_step) in order, empty when nt has none or was left
    unexpanded: a production's left-hand side is its index in rules,
    and a spine's occurrence id, the index of its entry in expose, is
    its index in rules[nt], except in a pruned grammar (build_grammar),
    which keeps only some of the instances.  A height-bounded grammar
    keeps, in steps, the rule instances of each nonterminal it
    expanded, by id, so steps[nt][i] is rules[nt][i]'s: expansion plans
    its lifts from them.  A full grammar keeps none (steps is None),
    since only enumeration asks for a bound.  The instances hold
    cleaning's merge dicts, so a bounded grammar has no hash."""
    __slots__ = ("nonterminals", "rules", "steps")
    start = 0

    def __init__(self, nonterminals: Tuple[LJBSequent, ...],
                 rules: Tuple[Tuple[Production, ...], ...],
                 steps: Optional[Tuple[List[Premises], ...]] = None):
        _gr_nonterminals(self, nonterminals)
        _gr_rules(self, rules)
        _gr_steps(self, steps)

    @property
    def productions(self) -> Tuple[Production, ...]:
        """Every production, nonterminal by nonterminal."""
        return tuple(chain.from_iterable(self.rules))


(_prod_kind, _prod_premises, _prod_head, _prod_var,
 _prod_annot) = slot_setters(Production)
_gr_nonterminals, _gr_rules, _gr_steps = slot_setters(Grammar)


def build_grammar(goal: Formula, session, cap: int = DEFAULT_CAP,
                  max_height: Optional[int] = None, *,
                  prune: bool = False) -> Grammar:
    """Saturate the set of sequents reachable from |- goal and emit one
    production per applicable rule instance.

    With max_height, only nonterminals at breadth-first distance below
    max_height from the start are expanded: a derivation of height
    <= max_height uses no others.  The worklist is FIFO, so the result
    is a prefix of the full grammar (same ids, sequents and production
    order), and the cap counts only the nonterminals it holds.

    With prune as well, a rule instance is kept only when each premise
    goal's least height (its right spine: one right rule per forall
    and -> above its atom, then a spine) fits in the height left under
    its nonterminal, max_height - distance - 1; at distance d a
    nonterminal lies at depth >= d in any derivation, so a derivation
    of height <= max_height uses no dropped instance.  A dropped
    instance adds no premise sequent and registers no canonical
    variable, so the pruned grammar is smaller (D_5 at height 9: 27
    nonterminals, not 117) and expands every nonterminal it holds, but
    it is no prefix of the full grammar, and its canonical variables
    can be numbered otherwise.  Terms show no canonical variables, so
    enumerate_terms and funcH prune; schemes are written with them, so
    `proofenum schemes` keeps the prefix and its full grammar's names.
    prune has no effect without max_height."""
    if not is_positive(goal):
        raise NotPositive(f"not a positive formula: {render(goal)}")
    return saturate(LJBSequent(LJBContext(), ensure_distinct_binders(goal)),
                    session, cap, max_height, prune=prune)


def saturate(start_seq: LJBSequent, session, cap: int = DEFAULT_CAP,
             max_height: Optional[int] = None, *,
             prune: bool = False) -> Grammar:
    """The grammar of the sequents reachable from start_seq, as in
    build_grammar: one production per rule instance of rule_step, with
    the cleaned premise sequents as its premises, kept together by
    nonterminal.  A nonterminal keeps the sequent it was first reached
    with, occurrence ids included.
    The list of sequents is the FIFO worklist: a sequent's id is its
    position, given when it is first reached, and the loop expands the
    sequents in id order while their premises append new ones.  Each
    breadth-first layer is thus a contiguous range of ids, and
    layer_end is where the next one starts.  With max_height, the loop
    stops at the first sequent at distance max_height, and the grammar
    keeps the rule instances of the sequents it expanded, a prefix of
    them (steps); with prune, only those whose premises fit under the
    height bound, as in build_grammar."""
    if cap < 1:
        raise CapExceeded(f"more than {cap} nonterminals")
    seqs: List[LJBSequent] = [start_seq]
    ids: Dict[Tuple[str, str], int] = {
        (start_seq.context.key, start_seq.goal.key): 0}
    rules: List[Tuple[Production, ...]] = []
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
        if prune and max_height is not None:
            room, kept = max_height - depth - 1, []  # left to premises
            for inst in instances:
                for a in inst[1]:
                    if _least_height(a) > room:
                        break
                else:
                    kept.append(inst)
            instances = kept
        if steps is not None:
            steps.append(instances)
        prods = []
        for ctx, goals, hyp, _ in instances:
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
                    "spine", premises, session.canonical_var(hyp.formula)))
            elif hyp is None:  # R-forall
                prods.append(Production("forall", premises, None, goal.var))
            else:
                prods.append(Production(
                    "impl", premises,
                    session.canonical_var(goal.lhs), None, goal.lhs))
        rules.append(tuple(prods))
    rules += [()] * (len(seqs) - len(rules))
    return Grammar(tuple(seqs), tuple(rules),
                   None if steps is None else tuple(steps))


def _least_height(f: Formula) -> int:
    """A lower bound on the height of a proof of f: the right rules are
    invertible, so an eta-long normal proof takes one per forall and ->
    above f's atom, then a spine."""
    n = 1
    while type(f) is not Atom:
        f, n = f.body if type(f) is Forall else f.rhs, n + 1
    return n


def is_inhabited(g: Grammar) -> bool:
    """Emptiness of the scheme language by productivity marking, in one
    pass linear in the size of the grammar (Dowling & Gallier, J. Logic
    Programming 1984): each production counts its premises not yet
    known productive, and a nonterminal that becomes productive
    decrements the count of every production it is a premise of."""
    lhs: List[int] = []  # lhs[i] and waiting[i] are the i-th production's
    waiting: List[int] = []
    uses: List[List[int]] = [[] for _ in g.nonterminals]
    for nt, prods in enumerate(g.rules):
        for p in prods:
            for q in p.premises:
                uses[q].append(len(lhs))
            lhs.append(nt)
            waiting.append(len(p.premises))
    productive = [False] * len(g.nonterminals)
    work = [nt for nt, n in zip(lhs, waiting) if n == 0]
    while work:
        nt = work.pop()
        if productive[nt]:
            continue
        productive[nt] = True
        for i in uses[nt]:
            waiting[i] -= 1
            if waiting[i] == 0:
                work.append(lhs[i])
    return productive[g.start]


def enumerate_schemes(g: Grammar, max_height: int) -> List[Scheme]:
    """All schemes of height <= max_height derivable from the start
    nonterminal, in the order of their skeleton keys (see _schemes),
    which is render_proof's order."""
    schemes = _schemes(g.start, max_height, g.rules, {}, {})
    return sorted(schemes, key=schemes.__getitem__)


def _schemes(nt: int, h: int, rules: Tuple[Tuple[Production, ...], ...],
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
    for p in rules[nt]:
        subs = []  # a loop, not a comprehension: one frame per level
        for q in p.premises:
            subs.append(_schemes(q, h - 1, rules, memo, nodes))
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
    annotation.  Expansion (expand._Expander.H) then matches pi's
    sub-schemes against p's premises."""
    if p.kind == "spine":
        return (isinstance(pi, Spine) and pi.head == p.head
                and len(pi.args) == len(p.premises))
    if p.kind == "forall":
        return isinstance(pi, LamTm) and pi.var == p.var
    return isinstance(pi, LamPf) and pi.pvar == p.head and pi.annot == p.annot


def render_grammar(g: Grammar) -> str:
    lines = []
    for nt, prods in enumerate(g.rules):
        for p in prods:
            if p.kind == "spine":
                rhs = f"({p.head}{''.join(f' S{q}' for q in p.premises)})" \
                    if p.premises else p.head
            elif p.kind == "forall":
                rhs = f"\\{p.var}. S{p.premises[0]}"
            else:
                rhs = f"\\{p.head}:{render(p.annot)}. S{p.premises[0]}"
            lines.append(f"S{nt} -> {rhs}")
    return "\n".join(lines)


def grammar_to_json(g: Grammar) -> dict:
    out = []
    for nt, prods in enumerate(g.rules):
        for i, p in enumerate(prods):
            entry = {"lhs": nt, "kind": p.kind, "premises": list(p.premises)}
            if p.head is not None:
                entry["head"] = p.head
            if p.var is not None:
                entry["var"] = p.var
            if p.annot is not None:
                entry["annot"] = render(p.annot)
            if p.kind == "spine":
                entry["occurrenceId"] = i
            out.append(entry)
    return {
        "start": g.start,
        "nonterminals": [{"id": i, "sequent": render_ljb_sequent(s)}
                         for i, s in enumerate(g.nonterminals)],
        "productions": out,
    }
