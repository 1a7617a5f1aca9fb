"""Expansion of schemes into proof-terms: canonical variables,
flattening of bracketed sequents, partial duplications and the paper's
three expansion functions: funcF over a duplication, funcG back across
cleaning and funcH over a whole scheme."""

from __future__ import annotations

from itertools import chain, product
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .grammar import (DEFAULT_CAP, Grammar, Production, build_grammar,
                      enumerate_schemes, fits, saturate)
from .ljb import (Fml, InvariantError, LJBContext, LJBSequent, annotate,
                  premises)
from .ljplus import (LamPf, LamTm, LJPlusSequent, ProofTerm, Spine,
                     render_proof, term_height)
from .syntax import (Formula, NotNegative, Record, all_names,
                     decompose_negative, fresh_name, is_negative,
                     match_formula, rename, render, slot_setters, union_all)

Scheme = ProofTerm


# ---------------------------------------------------------------------------
# Canonical proof variables

class Session:
    """Per-run registry assigning each negative formula (exact syntax, no
    alpha-identification) its canonical proof variable c0, c1, ...  It
    holds no expansion state: that lives in the expander of one call."""

    def __init__(self) -> None:
        self._registry: Dict[Formula, str] = {}

    def canonical_var(self, f: Formula) -> str:
        name = self._registry.get(f)
        if name is None:
            if not is_negative(f):
                raise NotNegative(f"not a negative formula: {render(f)}")
            name = f"c{len(self._registry)}"
            self._registry[f] = name
        return name


# ---------------------------------------------------------------------------
# Flat sequents in occurrence coordinates

class Flat(NamedTuple):
    """A flattening in occurrence coordinates: the (unchanged) goal and
    the hypotheses as (occurrence id, proof variable, renamed formula)."""
    goal: Formula
    hyps: Tuple[Tuple[int, str, Formula], ...]


def flatten_det(ctx: LJBContext, goal: Formula) -> Flat:
    """Deterministic flattening of an annotated context: every
    bracket-bound variable that occurs in its bracket is renamed to a
    fresh name (left-to-right, numeric suffixes), brackets are erased and
    hypotheses are named h0, h1, ... in traversal order."""
    avoid, levels = set(all_names(goal)), [ctx]
    for c in levels:
        for it in c.items:
            if isinstance(it, Fml):
                avoid.update(all_names(it.formula))
            else:
                avoid.update(it.binds)
                levels.append(it.inner)
    hyps: List[Tuple[int, str, Formula]] = []
    _flatten(ctx, {}, avoid, hyps)
    return Flat(goal, tuple(hyps))


def _flatten(c: LJBContext, env: Dict[str, str], avoid: set,
             hyps: List[Tuple[int, str, Formula]]) -> None:
    for it in c.items:
        if isinstance(it, Fml):
            hyps.append((it.fid, f"h{len(hyps)}", rename(it.formula, env)))
            continue
        occ = union_all(sub.fvs for sub in it.inner.items) & it.binds
        env2 = {k: v for k, v in env.items() if k not in it.binds}
        for v in sorted(occ):
            nv = fresh_name(v, avoid)
            avoid.add(nv)
            env2[v] = nv
        _flatten(it.inner, env2, avoid, hyps)


# ---------------------------------------------------------------------------
# Alpha-equivalence of flattenings of the same occurrences

def _renaming(src: Flat, dst: Flat) -> Tuple[Dict[str, str],
                                            Dict[str, str]]:
    """The renaming (tmap, pmap) of free term and proof variables that
    makes terms proving src prove dst, without its identity pairs; every
    occurrence id of src must be one of dst.  Raises InvariantError
    when no renaming does."""
    by_fid = {fid: (pv, f) for fid, pv, f in dst.hyps}
    sig: Dict[str, str] = {}
    pmap: Dict[str, str] = {}
    for fid, pv, f in src.hyps:
        if fid not in by_fid:
            raise InvariantError(f"occurrence {fid} is not in the target")
        dpv, df = by_fid[fid]
        sig = match_formula(f, df, sig)
        if sig is None:
            raise InvariantError("flattenings are not alpha-equivalent")
        pmap[pv] = dpv
    sig = match_formula(src.goal, dst.goal, sig)
    if sig is None:
        raise InvariantError("flattening goals are not alpha-equivalent")
    return ({k: v for k, v in sig.items() if k != v},
            {k: v for k, v in pmap.items() if k != v})


# ---------------------------------------------------------------------------
# Lifting terms to a context with more copies of each hypothesis

Copies = Tuple[Tuple[Tuple[str, ...], Tuple[Formula, ...], Formula], ...]


def _copies(pairs: Iterable[Tuple[str, Formula]]) -> Copies:
    """The (proof variable, formula) pairs of a hypothesis's copies,
    grouped by formula: (proof variables, arguments, head) each."""
    groups: Dict[Formula, List[str]] = {}
    for pv, f in pairs:
        groups.setdefault(f, []).append(pv)
    return tuple((tuple(pvs), *decompose_negative(f))
                 for f, pvs in groups.items())


class _Top:
    """A top context, compared by identity: copies maps each proof
    variable of a term's own context to its copies in the top, n counts
    the proof variables in scope there and tvars are its free ones."""
    __slots__ = ("copies", "n", "tvars")

    def __init__(self, copies: Dict[str, Copies], n: int, tvars: frozenset):
        self.copies, self.n, self.tvars = copies, n, tvars

    def bind(self, pvar: str, goal: Formula) -> _Top:
        """self under goal's proof binder h<n>, the one copy of pvar."""
        entry = _copies(((f"h{self.n}", goal.lhs),))
        return _Top({**self.copies, pvar: entry}, self.n + 1,
                    self.tvars | goal.lhs.fvs)

    def below(self, table: Dict[str, List[str]]) -> _Top:
        """The top of the terms that table (_copy_table) lifts into
        self's context."""
        copies = {}
        for pv, mids in table.items():
            pairs: Dict[tuple, List[str]] = {}
            for top_pvs, *f in (c for mid in mids for c in self.copies[mid]):
                pairs.setdefault(tuple(f), []).extend(top_pvs)
            copies[pv] = tuple((tuple(pvs), *f) for f, pvs in pairs.items())
        return _Top(copies, self.n, self.tvars)


def _identity_top(hyps: Sequence[Tuple[str, Formula]]) -> _Top:
    """The top of the context hyps, (proof variable, formula) pairs, in
    which each hypothesis is its own one copy.  Its proof binders are
    h<n>, h<n+1>, ... from the least n, at least the number of hyps,
    above every k of a hypothesis named h<k>, so that none clashes."""
    n = max([len(hyps)] + [int(pv[1:]) + 1 for pv, _ in hyps
                           if pv[:1] == "h" and pv[1:].isdecimal()])
    return _Top({pv: _copies(((pv, f),)) for pv, f in hyps}, n,
                union_all(f.fvs for _, f in hyps))


def _bind(goal: Formula, taken: frozenset) -> Tuple[str, Formula]:
    """The binder name and body of a term binder proving the forall
    goal in a context whose free term variables are taken: goal's own
    name, or a fresh one where taken holds it, as check_proof requires
    (the oracle's rule)."""
    if goal.var not in taken:
        return goal.var, goal.body
    var = fresh_name(goal.var, taken | goal.fvs)
    return var, rename(goal.body, {goal.var: var})


def _lift(u: ProofTerm, goal: Formula, top: _Top) -> List[ProofTerm]:
    """All terms proving goal in top's context whose image under
    copy -> original is u.  A head takes each of its copies whose
    formula ends in goal, with arguments lifted once per copy formula
    and shared; binders are named by _bind and _Top.bind."""
    if isinstance(u, Spine):
        out: List[ProofTerm] = []
        for pvs, args, head in top.copies.get(u.head, ()):
            if head == goal:
                tups = list(product(*(_lift(a, c, top)
                                      for a, c in zip(u.args, args))))
                out.extend(Spine(pv, tup) for pv in pvs for tup in tups)
        return out
    if isinstance(u, LamTm):
        var, body = _bind(goal, top.tvars)
        return [LamTm(var, b) for b in _lift(u.body, body, top)]
    return [LamPf(f"h{top.n}", goal.lhs, b)
            for b in _lift(u.body, goal.rhs, top.bind(u.pvar, goal))]


class Duplication(Record):
    """sigma1/sigma2 share a domain and have fresh, distinct images;
    copies maps each source proof variable to the target variable of each
    of its retained copies (a nonempty subset of {1, 2})."""
    __slots__ = ("sigma1", "sigma2", "copies")

    def __init__(self, sigma1: dict, sigma2: dict, copies: dict):
        _dup_sigma1(self, sigma1)
        _dup_sigma2(self, sigma2)
        _dup_copies(self, copies)


_dup_sigma1, _dup_sigma2, _dup_copies = slot_setters(Duplication)


def funcF(u: ProofTerm, source: LJPlusSequent, target: LJPlusSequent,
          d: Duplication) -> List[ProofTerm]:
    """All duplicated variants of u proving the partial duplication
    target of source (empty when no copy assignment is consistent):
    target's identity top lifted by the copies whose formula is the
    source's renamed by their sigma.  Their proof binders are named by
    place in scope (see _identity_top)."""
    src, tgt = dict(source.context.hyps), dict(target.context.hyps)
    sigma = {1: d.sigma1, 2: d.sigma2}
    table = {spv: [pv for i, pv in sorted(m.items())
                   if rename(src[spv], sigma[i]) == tgt[pv]]
             for spv, m in d.copies.items()}
    top = _identity_top(target.context.hyps).below(table)
    return sorted(set(_lift(u, target.goal, top)), key=render_proof)


# ---------------------------------------------------------------------------
# Expansion back across cleaning

def _copy_table(src: Sequence[int], merged: Dict[int, int],
                dst: Sequence[int]) -> Dict[str, List[str]]:
    """Where cleaning sends each occurrence: hypothesis h_j of a cleaned
    context, whose occurrence ids are src in order, has as copies the
    hypotheses h_i of the context before cleaning, whose ids are dst in
    order, that cleaning, with the merges merged (see normalize), sends
    to its occurrence.  Raises InvariantError when it sends one of dst's
    to none of src's."""
    at = {fid: j for j, fid in enumerate(src)}
    table: Dict[str, List[str]] = {}
    for i, fid in enumerate(dst):
        while fid in merged:
            fid = merged[fid]
        if fid not in at:
            raise InvariantError(f"cleaning sends no occurrence to {fid}")
        table.setdefault(f"h{at[fid]}", []).append(f"h{i}")
    return table


def funcG(ctx: LJBContext, goal: Formula,
          terms: Sequence[ProofTerm]) -> List[ProofTerm]:
    """Lift terms proving the flattening of normalize(ctx) with goal
    back across cleaning to all the terms proving the flattening of ctx
    whose cleaned images they are: the identity top of ctx's flattening
    lifted by cleaning's copy table (_copy_table).  ctx is annotated, so
    canonical.  Raises InvariantError when the two flattenings differ on
    an occurrence (_renaming)."""
    nf, _, _, merged = premises(ctx, (goal,))
    src, dst = flatten_det(nf, goal), flatten_det(ctx, goal)
    _renaming(src, dst)
    table = _copy_table([fid for fid, _, _ in src.hyps], merged,
                        [fid for fid, _, _ in dst.hyps])
    top = _identity_top([(pv, f) for _, pv, f in dst.hyps]).below(table)
    return [t for u in terms for t in _lift(u, goal, top)]


# ---------------------------------------------------------------------------
# Expansion of a whole scheme along the grammar's productions

class _Plan(NamedTuple):
    """How a production's premises lift onto its left-hand side: table
    (_copy_table) sends the proof variables of the premises' cleaned
    context to their copies in the left-hand side's, or is None for the
    identity.  pvar is what a spine exposes or R-> binds."""
    production: Production
    pvar: Optional[str]
    table: Optional[Dict[str, List[str]]]


class _Expander:
    """The expansion of schemes along one height-bounded grammar's
    productions, for one call: each term node is built once, in the top
    where it lives, and memoized with the sub-scheme, nonterminal, goal
    and top (Wells & Yakobowski, LOPSTR 2004).  Each top is built once
    per (top, plan), and R-> binds once per (top, plan, goal), so keys
    meet; each nonterminal is planned once, from the rule instances the
    grammar kept.  The lists are duplicate-free as built: distinct plans
    differ at the root head, distinct copies are distinct heads.

    Each memo entry is two parallel lists, the terms and their skeleton
    keys: a term's printed form without binder text (render_proof with
    binder=lambda x: ""), built with the term.  Terms proving one goal
    in one top carry the same binder text wherever their skeletons
    agree so far, so their skeleton keys sort as their printed forms
    do."""

    def __init__(self, grammar: Grammar) -> None:
        if grammar.steps is None:
            raise ValueError("expansion needs a height-bounded grammar")
        self._grammar = grammar
        self._plans: Dict[int, List[_Plan]] = {}
        self._terms: Dict[tuple, Tuple[List[ProofTerm], List[str]]] = {}
        self._tops: Dict[tuple, _Top] = {}

    def H(self, nt: int, pi: Scheme, goal: Formula,
          top: _Top) -> Tuple[List[ProofTerm], List[str]]:
        """The terms proving goal in top that lift terms of nt's
        flattening collapsing to pi, in no fixed order, and their
        skeleton keys (shared lists: do not change them).  One frame per
        level of pi.  A right rule is nt's one production, and its
        binders' keys are their bodies'."""
        key = (nt, pi, goal.key, top)
        entry = self._terms.get(key)
        if entry is not None:
            return entry
        plans = self._plans.get(nt)
        if plans is None:
            plans = self._plans[nt] = self._plans_of(nt)
        terms: List[ProofTerm] = []
        keys: List[str] = []
        for plan in plans:
            p = plan.production
            if not fits(p, pi):
                continue
            if p.kind == "forall":
                var, body = _bind(goal, top.tvars)
                sub_terms, keys = self.H(p.premises[0], pi.body, body,
                                         self._below(top, plan))
                terms = [LamTm(var, t) for t in sub_terms]
                break
            if p.kind == "impl":
                k = (top, id(plan), goal.key)
                inner = self._tops.get(k) or self._tops.setdefault(
                    k, top.bind(plan.pvar, goal))
                sub_terms, keys = self.H(p.premises[0], pi.body, goal.rhs,
                                         self._below(inner, plan))
                pvar, annot = f"h{top.n}", goal.lhs
                terms = [LamPf(pvar, annot, t) for t in sub_terms]
                break
            heads = [(pvs, args) for pvs, args, head
                     in top.copies.get(plan.pvar, ()) if head == goal]
            if not heads:
                continue
            inner = self._below(top, plan)
            for pvs, goals in heads:
                term_sets, key_sets = [], []
                for q, sub, g in zip(p.premises, pi.args, goals):
                    sub_terms, sub_keys = self.H(q, sub, g, inner)
                    if not sub_terms:
                        break
                    term_sets.append(sub_terms)
                    key_sets.append(sub_keys)
                else:
                    if not term_sets:
                        terms += [Spine(pv) for pv in pvs]
                        keys += pvs
                        continue
                    tups = list(product(*term_sets))
                    texts = [" ".join(k) for k in product(*key_sets)]
                    for pv in pvs:
                        terms += [Spine(pv, tup) for tup in tups]
                        keys += [f"({pv} {text})" for text in texts]
        entry = self._terms[key] = (terms, keys)
        return entry

    def _below(self, top: _Top, plan: _Plan) -> _Top:
        """The top of plan's premises below top, one per (top, plan)."""
        if plan.table is None:
            return top
        k = (top, id(plan))
        return self._tops.get(k) or self._tops.setdefault(
            k, top.below(plan.table))

    def _plans_of(self, nt: int) -> List[_Plan]:
        """The lift plans of nt's productions, one per rule instance the
        grammar kept for its sequent.  Hypothesis h_i of a (canonical)
        nonterminal's flattening is the i-th occurrence of its context,
        or of the instance's cleaned premise context, and R-> adds
        h_n."""
        prods = self._grammar.rules[nt]
        if not prods:
            return []
        seq = self._grammar.nonterminals[nt]
        fids = tuple(chain.from_iterable(it.fids for it in seq.context.items))
        plans = []
        for p, (premise_ctx, _, hyp, merged) in zip(
                prods, self._grammar.steps[nt]):
            dst = fids + (hyp.fid,) if p.kind == "impl" else fids
            src = tuple(chain.from_iterable(
                it.fids for it in premise_ctx.items))
            pvar = None if hyp is None else f"h{dst.index(hyp.fid)}"
            plans.append(_Plan(p, pvar, None if src == dst
                               else _copy_table(src, merged, dst)))
        return plans


def _sorted(terms: List[ProofTerm], keys: List[str]) -> List[ProofTerm]:
    """terms in the order of their skeleton keys (see _Expander), which
    is render_proof's order."""
    return [terms[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]


def funcH(session: Session, pi: Scheme, seq: LJBSequent) -> List[ProofTerm]:
    """All proof-terms of the flattening of seq's annotated sequent
    (flatten_det(annotate(seq.context), seq.goal)) that collapse to the
    scheme pi, sorted; none when seq does not derive pi: the expander of
    the grammar bounded at pi's height, from that flattening's identity."""
    start = LJBSequent(annotate(seq.context), seq.goal)
    grammar = saturate(start, session, max_height=term_height(pi))
    top = _identity_top([(pv, f) for _, pv, f
                         in flatten_det(start.context, seq.goal).hyps])
    return _sorted(*_Expander(grammar).H(grammar.start, pi, seq.goal, top))


# ---------------------------------------------------------------------------
# Pipeline

def enumerate_terms(goal: Formula, max_height: int,
                    cap: int = DEFAULT_CAP) -> List[ProofTerm]:
    """The complete set of beta-normal eta-long proof-terms of |- goal of
    height <= max_height, via the scheme grammar.  The terms prove goal
    as given: the grammar works on a copy with distinct binders, and
    expansion builds each term straight onto goal."""
    grammar = build_grammar(goal, Session(), cap, max_height)
    expander, top = _Expander(grammar), _identity_top(())
    terms: List[ProofTerm] = []
    keys: List[str] = []
    for pi in enumerate_schemes(grammar, max_height):
        pi_terms, pi_keys = expander.H(grammar.start, pi, goal, top)
        terms += pi_terms
        keys += pi_keys
    return _sorted(terms, keys)
