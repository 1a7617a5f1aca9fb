"""Expansion of schemes into proof-terms: canonical variables,
flattening of bracketed sequents, partial duplications and the three
expansion functions (over duplications, over cleaning traces, and over
whole schemes)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .grammar import DEFAULT_CAP, build_grammar, enumerate_schemes
from .ljb import (Bracket, CleaningTrace, Fml, InvariantError, LJBContext,
                  LJBSequent, MergeStep, annotate, expose, is_normal,
                  iter_fmls, merge_pairs, normalize_chain, replay,
                  scheme_check)
from .ljplus import (LamPf, LamTm, LJPlusSequent, NamedContext, ProofTerm,
                     Spine, _match_formula, render_proof, rename_proof,
                     term_height)
from .syntax import (Atom, Forall, Formula, Impl, NotNegative, all_names,
                     bound_vars, decompose_negative, ensure_distinct_binders,
                     free_vars, fresh_name, is_negative, rename, render,
                     union_all)

Scheme = ProofTerm


class InconsistentTrace(Exception):
    """The supplied cleaning trace does not connect the source context to
    its normal form."""


# ---------------------------------------------------------------------------
# Canonical proof variables

class Session:
    """Per-run registry assigning each negative formula (exact syntax, no
    alpha-identification) its canonical proof variable c0, c1, ..."""

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
# Flattening

@dataclass(frozen=True)
class Flat:
    """A flattening in occurrence coordinates: the (unchanged) goal and
    the hypotheses as (occurrence id, proof variable, renamed formula)."""
    goal: Formula
    hyps: Tuple[Tuple[int, str, Formula], ...]


@dataclass(frozen=True)
class Flattening:
    source: LJBSequent
    result: LJPlusSequent
    item_map: Dict[str, Tuple[int, ...]]
    var_renaming: Dict[str, str]


def flatten_det(ctx: LJBContext, goal: Formula,
                record: Optional[Dict[str, str]] = None) -> Flat:
    """Deterministic flattening of an annotated context: every
    bracket-bound variable that occurs in its bracket is renamed to a
    fresh name (left-to-right, numeric suffixes), brackets are erased and
    hypotheses are named h0, h1, ... in traversal order.  The optional
    record collects the fresh-to-original renaming."""
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
                if record is not None:
                    record[nv] = v
            walk(it.inner, env2)

    walk(ctx, {})
    return Flat(goal, tuple(hyps))


def fid_paths(ctx: LJBContext) -> Dict[int, Tuple[int, ...]]:
    out: Dict[int, Tuple[int, ...]] = {}

    def walk(c: LJBContext, path: Tuple[int, ...]) -> None:
        for i, it in enumerate(c.items):
            if isinstance(it, Fml):
                out[it.fid] = path + (i,)
            else:
                walk(it.inner, path + (i,))

    walk(ctx, ())
    return out


def flatten(session: Session, seq: LJBSequent) -> Flattening:
    ann = annotate(seq.context)
    record: Dict[str, str] = {}
    flat = flatten_det(ann, seq.goal, record)
    paths = fid_paths(ann)
    result = LJPlusSequent(
        NamedContext(tuple((pv, f) for _, pv, f in flat.hyps)), flat.goal)
    item_map = {pv: paths[fid] for fid, pv, _ in flat.hyps}
    return Flattening(LJBSequent(ann, seq.goal), result, item_map, record)


def _flattening_to_flat(flat: Flattening) -> Flat:
    inv = {path: fid
           for fid, path in fid_paths(flat.source.context).items()}
    hyps = tuple((inv[flat.item_map[pv]], pv, f)
                 for pv, f in flat.result.context.hyps)
    return Flat(flat.result.goal, hyps)


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
            if not all(choice_sets):
                continue
            combos: List[tuple] = [()]
            for ch in choice_sets:
                combos = [pre + (x,) for pre in combos for x in ch]
            out.extend(Spine(tgt_pv, tup) for tup in combos)
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


def _lift(chain: Sequence[LJBContext], steps, goal: Formula,
          terms: Sequence[ProofTerm]) -> List[ProofTerm]:
    cur = list(terms)
    for i in range(len(steps) - 1, -1, -1):
        cur = _lift_step(chain[i], steps[i], chain[i + 1], goal, cur)
    return cur


def funcG(u: ProofTerm, source: LJBSequent, trace: CleaningTrace,
          flat_source: Flattening,
          flat_target: Flattening) -> List[ProofTerm]:
    """All terms proving the flattening of source whose cleaned image is
    u, obtained by replaying the cleaning trace backwards."""
    ann = annotate(source.context)
    try:
        chain = replay(ann, trace)
    except (IndexError, AttributeError) as exc:
        raise InconsistentTrace(f"trace step not applicable: {exc}")
    if not is_normal(chain[-1]):
        raise InconsistentTrace("trace does not reach the normal form")
    paths = fid_paths(chain[-1])
    inv = {path: fid for fid, path in paths.items()}
    tgt_hyps = []
    for pv, f in flat_target.result.context.hyps:
        path = flat_target.item_map[pv]
        if path not in inv:
            raise InconsistentTrace("target flattening does not match the "
                                    "normal form of the trace")
        tgt_hyps.append((inv[path], pv, f))
    tgt = Flat(flat_target.result.goal, tuple(tgt_hyps))
    base = _relabel(tgt, flatten_det(chain[-1], source.goal), [u])
    lifted = _lift(chain, trace, source.goal, base)
    src_inv = {path: fid for fid, path in fid_paths(chain[0]).items()}
    src_hyps = tuple((src_inv[flat_source.item_map[pv]], pv, f)
                     for pv, f in flat_source.result.context.hyps)
    src = Flat(flat_source.result.goal, src_hyps)
    out = _relabel(flatten_det(chain[0], source.goal), src, lifted)
    return sorted(set(out), key=render_proof)


# ---------------------------------------------------------------------------
# Expansion of a whole scheme

def _H(session: Session, ctx: LJBContext, goal: Formula, flat: Flat,
       pi: Scheme) -> List[ProofTerm]:
    if isinstance(goal, Atom):
        if not isinstance(pi, Spine):
            raise InvariantError(f"scheme {render_proof(pi)} is not a spine "
                                 f"at the atomic goal {render(goal)}")
        by_fid = {fid: (pv, f) for fid, pv, f in flat.hyps}
        out: List[ProofTerm] = []
        for e in expose(ctx, goal):
            if session.canonical_var(e.formula) != pi.head:
                continue
            if len(e.args) != len(pi.args):
                continue
            chain, steps = normalize_chain(e.restructured)
            nf = chain[-1]
            if not all(scheme_check(session, LJBSequent(nf, a), sub)
                       for a, sub in zip(e.args, pi.args)):
                continue
            pv_b, f_b = by_fid[e.fid]
            bargs, _ = decompose_negative(f_b)
            choice_sets: List[List[ProofTerm]] = []
            for i, (a, sub) in enumerate(zip(e.args, pi.args)):
                inner = _H(session, nf, a, flatten_det(nf, a), sub)
                lifted = _lift(chain, steps, a, inner)
                choice_sets.append(_relabel(
                    flatten_det(chain[0], a),
                    Flat(bargs[i], flat.hyps), lifted))
            if not all(choice_sets):
                continue
            combos: List[tuple] = [()]
            for ch in choice_sets:
                combos = [pre + (x,) for pre in combos for x in ch]
            out.extend(Spine(pv_b, tup) for tup in combos)
        return sorted(set(out), key=render_proof)

    if isinstance(goal, Forall):
        if not (isinstance(pi, LamTm) and pi.var == goal.var):
            raise InvariantError(f"scheme {render_proof(pi)} does not "
                                 f"abstract {goal.var} at {render(goal)}")
        bracketed = LJBContext((Bracket(frozenset(bound_vars(goal)), ctx),))
        chain, steps = normalize_chain(bracketed)
        nf = chain[-1]
        inner = _H(session, nf, goal.body,
                   flatten_det(nf, goal.body), pi.body)
        lifted = _lift(chain, steps, goal.body, inner)
        y = goal.var
        hyp_free: set = set()
        for _, _, f in flat.hyps:
            hyp_free |= free_vars(f)
        if y not in hyp_free:
            binder, body_goal = y, flat.goal.body
        else:
            binder = fresh_name(y, hyp_free | all_names(flat.goal))
            body_goal = rename(flat.goal.body, {y: binder})
        relabeled = _relabel(flatten_det(chain[0], goal.body),
                             Flat(body_goal, flat.hyps), lifted)
        return sorted({LamTm(binder, t) for t in relabeled},
                      key=render_proof)

    if not (isinstance(pi, LamPf) and pi.annot == goal.lhs):
        raise InvariantError(f"scheme {render_proof(pi)} does not abstract "
                             f"{render(goal.lhs)} at {render(goal)}")
    nfid = max((it.fid for it in iter_fmls(ctx)), default=-1) + 1
    extended = LJBContext(ctx.items + (Fml(goal.lhs, nfid),))
    chain, steps = normalize_chain(extended)
    nf = chain[-1]
    inner = _H(session, nf, goal.rhs, flatten_det(nf, goal.rhs), pi.body)
    lifted = _lift(chain, steps, goal.rhs, inner)
    pvar = fresh_name_pvar(flat)
    target = Flat(flat.goal.rhs,
                  flat.hyps + ((nfid, pvar, flat.goal.lhs),))
    relabeled = _relabel(flatten_det(chain[0], goal.rhs), target, lifted)
    return sorted({LamPf(pvar, flat.goal.lhs, t) for t in relabeled},
                  key=render_proof)


def fresh_name_pvar(flat: Flat) -> str:
    taken = {pv for _, pv, _ in flat.hyps}
    n = len(flat.hyps)
    pv = f"h{n}"
    while pv in taken:
        n += 1
        pv = f"h{n}"
    return pv


def funcH(session: Session, pi: Scheme, seq: LJBSequent,
          flat: Flattening) -> List[ProofTerm]:
    """All proof-terms of the flattening of seq that collapse to the
    scheme pi."""
    fl = _flattening_to_flat(flat)
    out = _H(session, flat.source.context, flat.source.goal, fl, pi)
    return sorted(set(out), key=render_proof)


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
    schemes = enumerate_schemes(grammar, max_height)
    seq = LJBSequent(LJBContext(), distinct)
    flat = flatten(session, seq)
    out: set = set()
    for pi in schemes:
        out.update(funcH(session, pi, seq, flat))
    if distinct is not goal:
        out = {_onto_goal(t, goal, NamedContext()) for t in out}
    return sorted((t for t in out if term_height(t) <= max_height),
                  key=render_proof)


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
