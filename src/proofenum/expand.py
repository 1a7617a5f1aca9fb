"""Expansion of schemes into proof-terms: canonical variables,
flattening of bracketed sequents, partial duplications and the paper's
three expansion functions: funcF over a duplication, funcG back along a
cleaning chain and funcH over a whole scheme."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .grammar import (DEFAULT_CAP, Grammar, Production, build_grammar,
                      enumerate_schemes, fits, productions_by_lhs, saturate,
                      subschemes)
from .ljb import (Bracket, CleaningTrace, Fml, InvariantError, LJBContext,
                  LJBSequent, MergeStep, annotate, expose, merge_pairs,
                  normalize_chain)
from .ljplus import (LamPf, LamTm, LJPlusSequent, NamedContext, ProofTerm,
                     Spine, _match_formula, render_proof, rename_proof,
                     term_height)
from .syntax import (Atom, Forall, Formula, Impl, NotNegative, all_names,
                     bound_vars, decompose_negative, ensure_distinct_binders,
                     free_vars, fresh_name, is_negative, rename, render,
                     union_all)

Scheme = ProofTerm


# ---------------------------------------------------------------------------
# Canonical proof variables

class Session:
    """Per-run registry assigning each negative formula (exact syntax, no
    alpha-identification) its canonical proof variable c0, c1, ...

    It holds only this registry.  Expansion state (the lift plans and
    the terms of each nonterminal and sub-scheme) belongs to the
    expander of one call."""

    def __init__(self) -> None:
        self._registry: Dict[Formula, str] = {}
        self._by_name: Dict[str, Formula] = {}

    def canonical_var(self, f: Formula) -> str:
        if not is_negative(f):
            raise NotNegative(f"not a negative formula: {render(f)}")
        name = self._registry.get(f)
        if name is None:
            name = f"c{len(self._registry)}"
            self._registry[f] = name
            self._by_name[name] = f
        return name

    def formula_of(self, name: str) -> Formula:
        return self._by_name[name]


# ---------------------------------------------------------------------------
# Flat sequents in occurrence coordinates

@dataclass(frozen=True)
class Flat:
    """A flattening in occurrence coordinates: the (unchanged) goal and
    the hypotheses as (occurrence id, proof variable, renamed formula)."""
    goal: Formula
    hyps: Tuple[Tuple[int, str, Formula], ...]


def flatten_det(ctx: LJBContext, goal: Formula) -> Flat:
    """Deterministic flattening of an annotated context: every
    bracket-bound variable that occurs in its bracket is renamed to a
    fresh name (left-to-right, numeric suffixes), brackets are erased and
    hypotheses are named h0, h1, ... in traversal order."""
    avoid = set(all_names(goal))

    def collect(c: LJBContext) -> None:
        for it in c.items:
            if isinstance(it, Fml):
                avoid.update(all_names(it.formula))
            else:
                avoid.update(it.binds)
                collect(it.inner)

    collect(ctx)
    hyps: List[Tuple[int, str, Formula]] = []

    def walk(c: LJBContext, env: Dict[str, str]) -> None:
        for it in c.items:
            if isinstance(it, Fml):
                hyps.append((it.fid, f"h{len(hyps)}",
                             rename(it.formula, env)))
                continue
            occ = union_all(sub.fvs for sub in it.inner.items) & it.binds
            env2 = {k: v for k, v in env.items() if k not in it.binds}
            for v in sorted(occ):
                nv = fresh_name(v, avoid)
                avoid.add(nv)
                env2[v] = nv
            walk(it.inner, env2)

    walk(ctx, {})
    return Flat(goal, tuple(hyps))


# ---------------------------------------------------------------------------
# Relabeling between flattenings of the same occurrences

def _relabel(src: Flat, dst: Flat,
             terms: Iterable[ProofTerm]) -> List[ProofTerm]:
    """Rename terms proving src so that they prove dst; the two
    flattenings must cover the same occurrence ids."""
    by_fid = {fid: (pv, f) for fid, pv, f in dst.hyps}
    sig: Dict[str, str] = {}
    pmap: Dict[str, str] = {}
    for fid, pv, f in src.hyps:
        dpv, df = by_fid[fid]
        sig = _match_formula(f, df, sig, ())
        if sig is None:
            raise InvariantError("flattenings are not alpha-equivalent")
        pmap[pv] = dpv
    sig = _match_formula(src.goal, dst.goal, sig, ())
    if sig is None:
        raise InvariantError("flattening goals are not alpha-equivalent")
    tmap = {k: v for k, v in sig.items() if k != v}
    pmap = {k: v for k, v in pmap.items() if k != v}
    if not tmap and not pmap:
        return list(terms)
    return [rename_proof(t, tmap, pmap) for t in terms]


# ---------------------------------------------------------------------------
# Partial duplications and the expansion over a duplication

@dataclass(frozen=True)
class Duplication:
    """sigma1/sigma2 share a domain and have fresh, distinct images;
    copies maps each source proof variable to the target variable of each
    of its retained copies (a nonempty subset of {1, 2})."""
    sigma1: Dict[str, str]
    sigma2: Dict[str, str]
    copies: Dict[str, Dict[int, str]]
    goal_side: int = 1


def _funcF(u: ProofTerm, src_goal: Formula, tgt_goal: Formula,
           src_types: Dict[str, Formula],
           copies: Dict[str, Tuple[Tuple[int, str, Formula], ...]],
           s1: Dict[str, str], s2: Dict[str, str],
           used: frozenset) -> List[ProofTerm]:
    if isinstance(u, Spine):
        out: List[ProofTerm] = []
        for i, tgt_pv, f_t in copies.get(u.head, ()):
            sig = s1 if i == 1 else s2
            f_s = src_types[u.head]
            if rename(f_s, sig) != f_t:
                continue
            if rename(src_goal, sig) != tgt_goal:
                continue
            s_args, _ = decompose_negative(f_s)
            choice_sets = [
                _funcF(a, c, rename(c, sig), src_types, copies, s1, s2, used)
                for a, c in zip(u.args, s_args)]
            out.extend(Spine(tgt_pv, tup) for tup in product(*choice_sets))
        return out
    if isinstance(u, LamTm):
        if not (isinstance(src_goal, Forall) and isinstance(tgt_goal, Forall)):
            raise InvariantError("term abstraction at a goal that is not "
                                 "a forall")
        body_src = src_goal.body if u.var == src_goal.var else \
            rename(src_goal.body, {src_goal.var: u.var})
        if tgt_goal.var == u.var:
            body_tgt = tgt_goal.body
        else:
            if u.var in free_vars(tgt_goal.body):
                return []
            body_tgt = rename(tgt_goal.body, {tgt_goal.var: u.var})
        return [LamTm(u.var, b)
                for b in _funcF(u.body, body_src, body_tgt, src_types,
                                copies, s1, s2, used)]
    if not (isinstance(src_goal, Impl) and isinstance(tgt_goal, Impl)):
        raise InvariantError("proof abstraction at a goal that is not an "
                             "implication")
    a1, a2 = src_goal.lhs, src_goal.rhs
    b1, b2 = tgt_goal.lhs, tgt_goal.rhs
    nv = u.pvar if u.pvar not in used else fresh_name(u.pvar, used)
    entry = tuple((i, nv, b1) for i, sig in ((1, s1), (2, s2))
                  if rename(a1, sig) == b1)
    if not entry:
        return []
    copies2 = dict(copies)
    copies2[u.pvar] = entry
    types2 = dict(src_types)
    types2[u.pvar] = a1
    return [LamPf(nv, b1, b)
            for b in _funcF(u.body, a2, b2, types2, copies2, s1, s2,
                            used | {nv})]


def funcF(u: ProofTerm, source: LJPlusSequent, target: LJPlusSequent,
          d: Duplication) -> List[ProofTerm]:
    """All duplicated variants of u proving the partial duplication
    target of source (empty when no copy assignment is consistent)."""
    src_types = dict(source.context.hyps)
    copies = {
        spv: tuple((i, m[i], target.context.lookup(m[i]))
                   for i in sorted(m))
        for spv, m in d.copies.items()}
    out = _funcF(u, source.goal, target.goal, src_types, copies,
                 d.sigma1, d.sigma2, frozenset(target.context.pvars()))
    return sorted(set(out), key=render_proof)


# ---------------------------------------------------------------------------
# Expansion over a cleaning trace

def _lift_step(before: LJBContext, step, after: LJBContext, goal: Formula,
               terms: Sequence[ProofTerm]) -> List[ProofTerm]:
    """Transport terms proving the flattening of `after` back to terms
    proving the flattening of `before` (one cleaning step)."""
    fa = flatten_det(after, goal)
    fb = flatten_det(before, goal)
    if not isinstance(step, MergeStep):
        return _relabel(fa, fb, terms)
    fb_by_fid = {fid: (pv, f) for fid, pv, f in fb.hyps}
    fa_by_fid = {fid: (pv, f) for fid, pv, f in fa.hyps}
    s1: Dict[str, str] = {}
    s2: Dict[str, str] = {}
    copies: Dict[str, List[Tuple[int, str, Formula]]] = {}
    src_types: Dict[str, Formula] = {}
    for fid, pv_a, f_a in fa.hyps:
        src_types[pv_a] = f_a
        pv_b, f_b = fb_by_fid[fid]
        s1 = _match_formula(f_a, f_b, s1, ())
        if s1 is None:
            raise InvariantError("merge flattenings do not align (copy 1)")
        copies.setdefault(pv_a, []).append((1, pv_b, f_b))
    for fid_dropped, fid_kept in merge_pairs(before, step):
        pv_a, f_a = fa_by_fid[fid_kept]
        pv_b, f_b = fb_by_fid[fid_dropped]
        s2 = _match_formula(f_a, f_b, s2, ())
        if s2 is None:
            raise InvariantError("merge flattenings do not align (copy 2)")
        copies.setdefault(pv_a, []).append((2, pv_b, f_b))
    frozen = {k: tuple(v) for k, v in copies.items()}
    used = frozenset(pv for _, pv, _ in fb.hyps)
    out: List[ProofTerm] = []
    for t in terms:
        out.extend(_funcF(t, goal, goal, src_types, frozen, s1, s2, used))
    return out


def funcG(chain: Sequence[LJBContext], steps: CleaningTrace, goal: Formula,
          terms: Sequence[ProofTerm]) -> List[ProofTerm]:
    """Lift terms proving the flattening of chain[-1] back along the
    cleaning chain (steps[i] rewrites chain[i] to chain[i+1], as
    normalize_chain returns them) to all the terms proving the flattening
    of chain[0] whose cleaned images they are."""
    cur = list(terms)
    for i in range(len(steps) - 1, -1, -1):
        cur = _lift_step(chain[i], steps[i], chain[i + 1], goal, cur)
    return cur


# ---------------------------------------------------------------------------
# Expansion of a whole scheme along the grammar's productions

@dataclass(frozen=True)
class _Plan:
    """How the terms of a production's premises become terms of its
    left-hand side.  Each premise's terms prove the flattening of
    chain[-1], which is the premise nonterminal's context up to
    occurrence ids (cleaning does not look at them).  They are lifted
    back along the chain by funcG, relabeled from source to target (the
    flattening of the left-hand side, with the premise's goal) and
    put together by wrap."""
    production: Production
    chain: Sequence[LJBContext]
    steps: CleaningTrace
    lifts: Tuple[Tuple[Formula, Flat, Flat], ...]  # (goal, source, target)
    wrap: Callable[[tuple], ProofTerm]


def _plans(seq: LJBSequent, prods: Sequence[Production]) -> List[_Plan]:
    """The lift plans of the productions of seq, built from its
    annotated context: each rule instance's premise context before
    cleaning, premise goals, targets and wrap."""
    if not prods:
        return []
    ctx, goal = annotate(seq.context), seq.goal
    flat = flatten_det(ctx, goal)
    if isinstance(goal, Atom):
        entries = expose(ctx, goal)
        by_fid = {fid: (pv, f) for fid, pv, f in flat.hyps}
        rules = []
        for p in prods:
            e = entries[p.occurrence_id]
            pv, f = by_fid[e.fid]
            targets = [Flat(b, flat.hyps) for b in decompose_negative(f)[0]]
            rules.append((p, e.restructured, e.args, targets,
                          partial(Spine, pv)))
    elif isinstance(goal, Forall):
        y, body = goal.var, goal.body
        hyp_free = union_all(f.fvs for _, _, f in flat.hyps)
        if y in hyp_free:
            y = fresh_name(y, hyp_free | all_names(goal))
            body = rename(body, {goal.var: y})
        rules = [(prods[0],
                  LJBContext((Bracket(frozenset(bound_vars(goal)), ctx),)),
                  (goal.body,), [Flat(body, flat.hyps)],
                  lambda ts: LamTm(y, ts[0]))]
    else:
        n = len(flat.hyps)  # annotate numbers the occurrences from 0
        pvar = f"h{n}"
        rules = [(prods[0], LJBContext(ctx.items + (Fml(goal.lhs, n),)),
                  (goal.rhs,),
                  [Flat(goal.rhs, flat.hyps + ((n, pvar, goal.lhs),))],
                  lambda ts: LamPf(pvar, goal.lhs, ts[0]))]
    plans = []
    for p, raw, goals, targets, wrap in rules:
        chain, steps = normalize_chain(raw)
        lifts = tuple((a, flatten_det(chain[0], a), t)
                      for a, t in zip(goals, targets))
        plans.append(_Plan(p, chain, steps, lifts, wrap))
    return plans


class _Expander:
    """The expansion of schemes along the productions of one grammar,
    for one enumerate_terms or funcH call.

    The terms of a sub-scheme at a nonterminal prove the flattening of
    the nonterminal's annotated sequent and depend only on the two, so
    they are memoized by (nonterminal id, sub-scheme): schemes that
    share a sub-scheme share its expansion (Wells & Yakobowski, LOPSTR
    2004).  A scheme node expands through the productions that fit it;
    a scheme that no production fits has no terms.  Lift plans are
    built once per nonterminal, on first use.  The memos live as long
    as the expander, that is one call."""

    def __init__(self, grammar: Grammar) -> None:
        self._grammar = grammar
        self._by_lhs = productions_by_lhs(grammar)
        self._plans: Dict[int, List[_Plan]] = {}
        self._terms: Dict[Tuple[int, Scheme], List[ProofTerm]] = {}

    def H(self, nt: int, pi: Scheme) -> List[ProofTerm]:
        """The terms proving the flattening of nonterminal nt's annotated
        sequent that collapse to pi, in no fixed order.  The list is
        shared: do not change it."""
        key = (nt, pi)
        out = self._terms.get(key)
        if out is None:
            plans = self._plans.get(nt)
            if plans is None:
                plans = self._plans[nt] = _plans(
                    self._grammar.nonterminals[nt].sequent,
                    self._by_lhs.get(nt, ()))
            out = self._terms[key] = list(dict.fromkeys(
                t for plan in plans if fits(plan.production, pi)
                for t in self._expand(plan, subschemes(pi))))
        return out

    def _expand(self, plan: _Plan,
                subs: Sequence[Scheme]) -> List[ProofTerm]:
        choice_sets = []
        for q, sub, (goal, source, target) in zip(plan.production.premises,
                                                  subs, plan.lifts):
            terms = self.H(q, sub)
            if not terms:
                return []
            choice_sets.append(_relabel(
                source, target, funcG(plan.chain, plan.steps, goal, terms)))
        return [plan.wrap(args) for args in product(*choice_sets)]


def funcH(session: Session, pi: Scheme, seq: LJBSequent) -> List[ProofTerm]:
    """All proof-terms of the flattening of seq's annotated sequent
    (flatten_det(annotate(seq.context), seq.goal)) that collapse to the
    scheme pi, sorted; none when seq does not derive pi.  It runs the
    same expander as enumerate_terms, on the grammar of the annotated
    sequent bounded at pi's height."""
    start = LJBSequent(annotate(seq.context), seq.goal)
    grammar = saturate(start, session, max_height=term_height(pi))
    return sorted(set(_Expander(grammar).H(grammar.start, pi)),
                  key=render_proof)


# ---------------------------------------------------------------------------
# Pipeline

def enumerate_terms(goal: Formula, max_height: int,
                    cap: int = DEFAULT_CAP) -> List[ProofTerm]:
    """The complete set of beta-normal eta-long proof-terms of |- goal of
    height <= max_height, via the scheme grammar.  The terms prove the
    goal as given, with its own binder names in their annotations."""
    distinct = ensure_distinct_binders(goal)
    session = Session()
    grammar = build_grammar(distinct, session, cap, max_height)
    expander = _Expander(grammar)
    out: set = set()
    for pi in enumerate_schemes(grammar, max_height):
        out.update(expander.H(grammar.start, pi))
    if distinct is not goal:
        out = {_onto_goal(t, goal, NamedContext()) for t in out}
    return sorted(out, key=render_proof)


def _onto_goal(t: ProofTerm, goal: Formula,
               ctx: NamedContext) -> ProofTerm:
    """Retype t, a proof of an alpha-variant of goal under ctx, against
    goal itself: term binders take goal's names (fresh ones where ctx
    has the name free, as check_proof requires) and annotations are
    goal's own.  No first-order term is ever applied, so nothing else
    in t changes."""
    if isinstance(t, Spine):
        args, _ = decompose_negative(ctx.lookup(t.head))
        return Spine(t.head, tuple(_onto_goal(u, a, ctx)
                                   for u, a in zip(t.args, args)))
    if isinstance(t, LamTm):
        taken = ctx.free_term_vars()
        var, body = goal.var, goal.body
        if var in taken:
            var = fresh_name(var, taken | goal.fvs)
            body = rename(body, {goal.var: var})
        return LamTm(var, _onto_goal(t.body, body, ctx))
    return LamPf(t.pvar, goal.lhs,
                 _onto_goal(t.body, goal.rhs, ctx.extend(t.pvar, goal.lhs)))
