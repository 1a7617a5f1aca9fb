"""Expansion of schemes into proof-terms: canonical variables,
flattening of bracketed sequents, partial duplications and the paper's
three expansion functions: funcF over a duplication, funcG back across
cleaning and funcH over a whole scheme."""

from __future__ import annotations

from functools import partial
from itertools import chain, count, product
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .grammar import (DEFAULT_CAP, Grammar, Production, build_grammar,
                      enumerate_schemes, fits, productions_by_lhs, saturate,
                      subschemes)
from .ljb import (Fml, InvariantError, LJBContext, LJBSequent, annotate,
                  canon, premises, rule_step)
from .ljplus import (LamPf, LamTm, LJPlusSequent, ProofTerm, Spine,
                     sort_proofs, term_height)
from .syntax import (Formula, NotNegative, Record, _set, all_names,
                     decompose_negative, ensure_distinct_binders, fresh_name,
                     is_negative, match_formula, rename, render, union_all)

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

# The copies of one hypothesis, grouped by formula: (proof variables,
# argument formulas, head) per distinct formula.
Copies = Tuple[Tuple[Tuple[str, ...], Tuple[Formula, ...], Formula], ...]


def _copies(pairs: Iterable[Tuple[str, Formula]]) -> Copies:
    """The (proof variable, formula) pairs of a hypothesis's copies,
    grouped by formula and decomposed into arguments and head."""
    groups: Dict[Formula, List[str]] = {}
    for pv, f in pairs:
        groups.setdefault(f, []).append(pv)
    return tuple((tuple(pvs), *decompose_negative(f))
                 for f, pvs in groups.items())


def _bind(goal: Formula, taken: frozenset) -> Tuple[str, Formula]:
    """The binder name and body of a term binder proving the forall
    goal in a context whose free term variables are taken: goal's own
    name, or a fresh one where taken holds it, as check_proof requires
    (the oracle's rule)."""
    if goal.var not in taken:
        return goal.var, goal.body
    var = fresh_name(goal.var, taken | goal.fvs)
    return var, rename(goal.body, {goal.var: var})


def _lift(u: ProofTerm, goal: Formula, copies: Dict[str, Copies],
          used: frozenset, tvars: frozenset,
          binders: Dict[Tuple[str, Formula], Copies]) -> List[ProofTerm]:
    """All terms proving goal in a larger context whose image under
    copy -> original is u.  copies maps each proof variable of u's
    context to its copies in the larger context, used holds the larger
    context's proof variables and tvars its free term variables.  A
    head takes each of its copies whose formula ends in goal, and its
    arguments are lifted against that copy's argument formulas, once
    per formula: copies with one formula share the lifted arguments.  A
    proof binder gets one copy, typed by goal.lhs, and a term binder is
    named by _bind.  With an empty copy table, _lift retypes a closed
    term proving an alpha-variant of goal onto goal itself.  binders
    caches the copy entry of each proof binder by (name, formula), so
    each is decomposed once per cache."""
    if isinstance(u, Spine):
        out: List[ProofTerm] = []
        for pvs, args, head in copies.get(u.head, ()):
            if head == goal:
                tups = list(product(*(_lift(a, c, copies, used, tvars,
                                            binders)
                                      for a, c in zip(u.args, args))))
                out.extend(Spine(pv, tup) for pv in pvs for tup in tups)
        return out
    if isinstance(u, LamTm):
        var, body = _bind(goal, tvars)
        return [LamTm(var, b)
                for b in _lift(u.body, body, copies, used, tvars, binders)]
    nv = u.pvar if u.pvar not in used else fresh_name(u.pvar, used)
    key = (nv, goal.lhs)
    entry = binders.get(key)
    if entry is None:
        entry = binders[key] = _copies((key,))
    return [LamPf(nv, goal.lhs, b)
            for b in _lift(u.body, goal.rhs, {**copies, u.pvar: entry},
                           used | {nv}, tvars | goal.lhs.fvs, binders)]


class Duplication(Record):
    """sigma1/sigma2 share a domain and have fresh, distinct images;
    copies maps each source proof variable to the target variable of each
    of its retained copies (a nonempty subset of {1, 2})."""
    __slots__ = ("sigma1", "sigma2", "copies")

    def __init__(self, sigma1: dict, sigma2: dict, copies: dict):
        _set(self, "sigma1", sigma1)
        _set(self, "sigma2", sigma2)
        _set(self, "copies", copies)


def funcF(u: ProofTerm, source: LJPlusSequent, target: LJPlusSequent,
          d: Duplication) -> List[ProofTerm]:
    """All duplicated variants of u proving the partial duplication
    target of source (empty when no copy assignment is consistent)."""
    src, tgt = dict(source.context.hyps), dict(target.context.hyps)
    sigma = {1: d.sigma1, 2: d.sigma2}
    copies = {spv: _copies((pv, tgt[pv]) for i, pv in sorted(m.items())
                           if rename(src[spv], sigma[i]) == tgt[pv])
              for spv, m in d.copies.items()}
    out = _lift(u, target.goal, copies, target.context.pvars(),
                target.context.free_term_vars(), {})
    return sort_proofs(set(out))


# ---------------------------------------------------------------------------
# Expansion back across cleaning

def _lift_table(src: Flat, merged: Dict[int, int], target: Flat):
    """How terms proving src lift onto target: _lift's last four
    arguments, or None when the terms prove target as they are.  The
    occurrence ids of src are those of a normal form that cleaning
    reaches from target's occurrences, making the merges merged (see
    normalize), so the copy table maps each hypothesis of src to the
    hypotheses of target that cleaning sends to its occurrence: one
    each unless cleaning merges.  Raises InvariantError when src and
    target do not match on the occurrences they share, or cleaning
    sends one of target's occurrences to none of src's."""
    tmap, pmap = _renaming(src, target)
    if not (merged or tmap or pmap):
        return None
    pv_of = {fid: pv for fid, pv, _ in src.hyps}
    pairs: Dict[str, List[Tuple[str, Formula]]] = {}
    for fid, pv, f in target.hyps:
        while fid in merged:
            fid = merged[fid]
        if fid not in pv_of:
            raise InvariantError(f"cleaning sends no occurrence to {fid}")
        pairs.setdefault(pv_of[fid], []).append((pv, f))
    return ({nv: _copies(ps) for nv, ps in pairs.items()},
            frozenset(pv for _, pv, _ in target.hyps),
            union_all(f.fvs for _, _, f in target.hyps), {})


def funcG(ctx: LJBContext, goal: Formula,
          terms: Sequence[ProofTerm]) -> List[ProofTerm]:
    """Lift terms proving the flattening of normalize(ctx) with goal
    back across cleaning to all the terms proving the flattening of
    canon(ctx) whose cleaned images they are.  ctx is annotated."""
    nf, _, _, merged = premises(ctx, (goal,), merges=True)
    table = _lift_table(flatten_det(nf, goal), merged,
                        flatten_det(canon(ctx), goal))
    if table is None:
        return list(terms)
    return [t for u in terms for t in _lift(u, goal, *table)]


# ---------------------------------------------------------------------------
# Expansion of a whole scheme along the grammar's productions

class _Plan(Record):
    """How the terms of a production's premises become terms of its
    left-hand side.  Each premise's terms prove the flattening of the
    premise nonterminal, whose context is the normal form of the rule
    instance's premise context (occurrence ids fids, cleaning's merges
    merged) up to occurrence ids.  The premise's table (see _lift_table,
    kept in tables once built) lifts them in one pass onto its target,
    the flattening of the left-hand side's hypotheses with the premise's
    goal, and wrap, chosen by the production's kind, puts them together."""
    __slots__ = ("production", "fids", "merged", "targets", "wrap",
                 "tables")

    def __init__(self, production: Production, fids: Tuple[int, ...],
                 merged: Dict[int, int], targets: Tuple[Flat, ...],
                 wrap: Callable[[tuple], ProofTerm]):
        _set(self, "production", production)
        _set(self, "fids", fids)
        _set(self, "merged", merged)
        _set(self, "targets", targets)
        _set(self, "wrap", wrap)
        _set(self, "tables", {})


class _Expander:
    """The expansion of schemes along the productions of one grammar,
    for one enumerate_terms or funcH call.

    The terms of a sub-scheme at a nonterminal prove the flattening of
    the nonterminal's annotated sequent and depend only on the two, so
    they are memoized by (nonterminal id, sub-scheme): schemes that
    share a sub-scheme share its expansion (Wells & Yakobowski, LOPSTR
    2004).  A scheme node expands through the productions that fit it;
    a scheme that no production fits has no terms.  Each nonterminal is
    flattened at most once, and its lift plans are built once, on first
    use, from one rule step on its annotated sequent; a plan's table for
    a premise once the premise has terms.  The memos, and the binder
    caches of the plans' tables, live as long as the expander, that is
    one call.

    The memoized lists are duplicate-free as built, so nothing here
    deduplicates: distinct plans differ at the root head (each spine
    production exposes its own occurrence, a right rule has one plan),
    and lifting is injective.  Terms share their sub-terms (see _lift),
    so the caller's final set hashes each shared node once."""

    def __init__(self, grammar: Grammar) -> None:
        self._grammar = grammar
        self._by_lhs = productions_by_lhs(grammar)
        self._flats: Dict[int, Flat] = {}
        self._plans: Dict[int, List[_Plan]] = {}
        self._terms: Dict[Tuple[int, Scheme], List[ProofTerm]] = {}

    def H(self, nt: int, pi: Scheme) -> List[ProofTerm]:
        """The terms proving the flattening of nonterminal nt's annotated
        sequent that collapse to pi, without duplicates and in no fixed
        order.  The list is shared: do not change it."""
        key = (nt, pi)
        out = self._terms.get(key)
        if out is None:
            plans = self._plans.get(nt)
            if plans is None:
                plans = self._plans[nt] = self._plans_of(nt)
            out = self._terms[key] = [
                t for plan in plans if fits(plan.production, pi)
                for t in self._expand(plan, subschemes(pi))]
        return out

    def _flat(self, nt: int, fids: Iterable[int]) -> Flat:
        """The flattening of nonterminal nt's sequent, with fids, in
        order, as the occurrence ids of its hypotheses.  It is built
        once per nonterminal."""
        flat = self._flats.get(nt)
        if flat is None:
            seq = self._grammar.nonterminals[nt].sequent
            flat = self._flats[nt] = flatten_det(seq.context, seq.goal)
        return Flat(flat.goal, tuple((fid, pv, f) for fid, (_, pv, f)
                                     in zip(fids, flat.hyps)))

    def _plans_of(self, nt: int) -> List[_Plan]:
        """The lift plans of nt's productions, one per rule instance of
        its annotated sequent.  Hypothesis h_i of a flattening is the
        i-th occurrence of its context.  Nonterminal contexts are
        canonical, so in the left-hand side's that is occurrence i of
        the annotated context, and in a premise nonterminal's the i-th
        occurrence of the instance's cleaned premise context."""
        prods = self._by_lhs.get(nt, ())
        if not prods:
            return []
        goal, hyps = self._flat(nt, count())
        ctx = annotate(self._grammar.nonterminals[nt].sequent.context)
        plans = []
        steps = rule_step(LJBSequent(ctx, goal), merges=True)
        for p, (premise_ctx, _, exposed, merged) in zip(prods, steps):
            if p.kind == "spine":
                _, pv, f = hyps[exposed.fid]
                goals, wrap = decompose_negative(f)[0], partial(Spine, pv)
            elif p.kind == "forall":
                y, body = _bind(goal, union_all(f.fvs for _, _, f in hyps))
                goals, wrap = (body,), lambda ts: LamTm(y, ts[0])
            else:
                pvar = f"h{len(hyps)}"
                goals = (goal.rhs,)
                wrap = lambda ts: LamPf(pvar, goal.lhs, ts[0])
                hyps += ((-1, pvar, goal.lhs),)  # see rule_step
            fids = tuple(chain.from_iterable(
                it.fids for it in premise_ctx.items))
            plans.append(_Plan(p, fids, merged,
                               tuple(Flat(b, hyps) for b in goals), wrap))
        return plans

    def _table(self, plan: _Plan, i: int) -> Optional[tuple]:
        """The table of plan's premise i, built on first use."""
        if i not in plan.tables:
            src = self._flat(plan.production.premises[i], plan.fids)
            plan.tables[i] = _lift_table(src, plan.merged, plan.targets[i])
        return plan.tables[i]

    def _expand(self, plan: _Plan,
                subs: Sequence[Scheme]) -> List[ProofTerm]:
        choice_sets = []
        for i, (q, sub) in enumerate(zip(plan.production.premises, subs)):
            terms = self.H(q, sub)
            table = self._table(plan, i) if terms else None
            if table is not None:
                goal = plan.targets[i].goal
                terms = [t for u in terms for t in _lift(u, goal, *table)]
            if not terms:
                return []
            choice_sets.append(terms)
        return [plan.wrap(args) for args in product(*choice_sets)]


def funcH(session: Session, pi: Scheme, seq: LJBSequent) -> List[ProofTerm]:
    """All proof-terms of the flattening of seq's annotated sequent
    (flatten_det(annotate(seq.context), seq.goal)) that collapse to the
    scheme pi, sorted; none when seq does not derive pi.  It runs the
    same expander as enumerate_terms, on the grammar of the annotated
    sequent bounded at pi's height."""
    start = LJBSequent(annotate(seq.context), seq.goal)
    grammar = saturate(start, session, max_height=term_height(pi))
    return sort_proofs(set(_Expander(grammar).H(grammar.start, pi)))


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
        out = {s for t in out
               for s in _lift(t, goal, {}, frozenset(), frozenset(), {})}
    return sort_proofs(out)
