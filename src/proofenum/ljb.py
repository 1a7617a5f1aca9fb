"""Bracketed contexts, the cleaning rewrite system with traces, and the
three deduction rules of the bracket calculus."""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import partial
from operator import attrgetter
from typing import Dict, List, Optional, Tuple, Union

from .syntax import (Atom, Formula, Impl, Record, key_hash, render,
                     slot_setters, split_arrows, union_all)

STEP_CAP = 10 ** 6


class CleaningOverflow(RuntimeError):
    """Cleaning exceeded the step cap; signals an implementation bug."""


class InvariantError(RuntimeError):
    """An internal invariant of cleaning or expansion does not hold:
    signals an implementation bug or arguments that do not fit together
    (flattenings of other occurrences)."""


# ---------------------------------------------------------------------------
# Contexts and items


# Like formulas, items and contexts compute their canonical key once: the
# rendered string, which orders canonical contexts and identifies the
# sequents of the grammar.  Items also keep their free variables and their
# occurrence ids, and a formula item the split_arrows of its formula, for
# expose.  They hash by key but compare and print their fields.


class Fml(Record):
    __slots__ = ("formula", "fid", "key", "fvs", "fids", "args", "head")
    __hash__ = key_hash

    def __init__(self, formula: Formula, fid: int = -1):
        _fml_formula(self, formula)
        _fml_fid(self, fid)
        _fml_key(self, formula.key)
        _fml_fvs(self, formula.fvs)
        _fml_fids(self, (fid,))
        args, head = split_arrows(formula)
        _fml_args(self, args)
        _fml_head(self, head)


class Bracket(Record):
    __slots__ = ("binds", "inner", "key", "fvs", "fids")
    __hash__ = key_hash

    def __init__(self, binds: frozenset, inner: "LJBContext"):
        _br_binds(self, binds)
        _br_inner(self, inner)
        _br_key(self, f"[{inner.key}]_{{{','.join(sorted(binds))}}}")
        fvs = union_all([it.fvs for it in inner.items])
        _br_fvs(self, fvs - binds if not fvs.isdisjoint(binds) else fvs)
        _br_fids(self, tuple(itertools.chain.from_iterable(
            [it.fids for it in inner.items])))


Item = Union[Fml, Bracket]


class LJBContext(Record):
    __slots__ = ("items", "key", "normal", "top")  # top: see rule_step
    __hash__ = key_hash

    def __init__(self, items: Tuple[Item, ...] = (), *, normal: bool = False):
        _ctx_items(self, items)
        _ctx_key(self, ", ".join([it.key for it in items]))
        _ctx_normal(self, normal)  # normalize(ctx) returns ctx itself


class LJBSequent(Record):
    __slots__ = ("context", "goal")

    def __init__(self, context: LJBContext, goal: Formula):
        _seq_context(self, context)
        _seq_goal(self, goal)


def render_ljb_sequent(s: LJBSequent) -> str:
    ctx = s.context.key
    return f"{ctx} |- {s.goal.key}" if ctx else f"|- {s.goal.key}"


# Each record's slot setters, bound once (see syntax.Record).
(_fml_formula, _fml_fid, _fml_key, _fml_fvs, _fml_fids, _fml_args,
 _fml_head) = slot_setters(Fml)
_br_binds, _br_inner, _br_key, _br_fvs, _br_fids = slot_setters(Bracket)
_ctx_items, _ctx_key, _ctx_normal, _ctx_top = slot_setters(LJBContext)
_seq_context, _seq_goal = slot_setters(LJBSequent)
_canon_key = attrgetter("key", "fids")


def canon(ctx: LJBContext) -> LJBContext:
    """Canonical (sorted) representation; multiset semantics unchanged.
    A context marked normal, which is sorted at every level, is returned
    as it is.  Cleaning needs no canon: normalize sorts every level."""
    if ctx.normal:
        return ctx
    return LJBContext(tuple(sorted(
        [it if isinstance(it, Fml) else Bracket(it.binds, canon(it.inner))
         for it in ctx.items], key=_canon_key)))


def annotate(ctx: LJBContext) -> LJBContext:
    """Assign occurrence ids 0.. in traversal order of the canonical form."""
    return _annotate(canon(ctx), itertools.count())


def _annotate(c: LJBContext, fids) -> LJBContext:
    out = [Fml(it.formula, next(fids)) if isinstance(it, Fml)
           else Bracket(it.binds, _annotate(it.inner, fids))
           for it in c.items]
    return LJBContext(tuple(out))


# ---------------------------------------------------------------------------
# Cleaning


class SplitStep(Record):
    __slots__ = ("parent", "bracket", "inner")

    def __init__(self, parent: Tuple[int, ...], bracket: int, inner: int):
        _split_parent(self, parent)
        _split_bracket(self, bracket)
        _split_inner(self, inner)


class DropStep(Record):
    __slots__ = ("parent", "bracket")

    def __init__(self, parent: Tuple[int, ...], bracket: int):
        _drop_parent(self, parent)
        _drop_bracket(self, bracket)


class MergeStep(Record):
    __slots__ = ("parent", "keep", "drop")

    def __init__(self, parent: Tuple[int, ...], keep: int, drop: int):
        _merge_parent(self, parent)
        _merge_keep(self, keep)
        _merge_drop(self, drop)


_split_parent, _split_bracket, _split_inner = slot_setters(SplitStep)
_drop_parent, _drop_bracket = slot_setters(DropStep)
_merge_parent, _merge_keep, _merge_drop = slot_setters(MergeStep)
CleaningStep = Union[SplitStep, DropStep, MergeStep]


def _rebuild(ctx: LJBContext, path: Tuple[int, ...], fn) -> LJBContext:
    if not path:
        return LJBContext(fn(ctx.items))
    items = list(ctx.items)
    br = items[path[0]]
    items[path[0]] = Bracket(br.binds, _rebuild(br.inner, path[1:], fn))
    return LJBContext(tuple(items))


def _find_step(ctx: LJBContext, path: Tuple[int, ...]) -> Optional[CleaningStep]:
    for idx, it in enumerate(ctx.items):
        if not isinstance(it, Bracket):
            continue
        sub = _find_step(it.inner, path + (idx,))
        if sub is not None:
            return sub
        for j, inner_it in enumerate(it.inner.items):
            if inner_it.fvs.isdisjoint(it.binds):
                return SplitStep(path, idx, j)
        if not it.inner.items:
            return DropStep(path, idx)
    for i in range(len(ctx.items) - 1):
        if ctx.items[i].key == ctx.items[i + 1].key:
            return MergeStep(path, i, i + 1)
    return None


def apply_step(ctx: LJBContext, step: CleaningStep) -> LJBContext:
    if isinstance(step, SplitStep):
        def fn(items):
            items = list(items)
            br = items[step.bracket]
            moved = br.inner.items[step.inner]
            rest = br.inner.items[:step.inner] + br.inner.items[step.inner + 1:]
            items[step.bracket] = Bracket(br.binds, LJBContext(rest))
            items.append(moved)
            return tuple(items)
    elif isinstance(step, DropStep):
        def fn(items):
            return items[:step.bracket] + items[step.bracket + 1:]
    else:
        def fn(items):
            return items[:step.drop] + items[step.drop + 1:]
    return canon(_rebuild(ctx, step.parent, fn))


def normalize_chain(ctx: LJBContext):
    """Small-step normalization under the fixed strategy.

    Returns (chain, steps): chain[0] is the canonical form of ctx,
    chain[-1] the normal form, and steps[i] rewrites chain[i] to
    chain[i+1].
    """
    cur = canon(ctx)
    chain = [cur]
    steps: List[CleaningStep] = []
    for _ in range(STEP_CAP):
        step = _find_step(cur, ())
        if step is None:
            return chain, tuple(steps)
        cur = apply_step(cur, step)
        chain.append(cur)
        steps.append(step)
    raise CleaningOverflow(f"no normal form within {STEP_CAP} steps")


def normalize(ctx: LJBContext,
              merged: Optional[Dict[int, int]] = None) -> LJBContext:
    """The normal form of ctx, equal to normalize_chain(ctx)[0][-1] (fids
    included) but computed in one bottom-up pass with no trace.

    Each bracket's inner level is normalized first; the items whose free
    variables miss the bracket's binds move out, and a bracket left
    empty is dropped.  The level is then sorted and keeps the first item
    of each run of equal keys.  The small-step strategy merges a level
    only once its brackets are clean, and each merge keeps the item that
    sorts first, so both end in the same context.  Levels that are
    normal and sorted already are returned as they are, and every
    context returned is marked normal, so that cleaning it again, or a
    context that reuses it as a bracket's inner level, skips it.

    When merged is a dict, each merge records the occurrence ids of the
    item it drops there, as dropped fid -> fid of the equal item before
    it.  That fid may be dropped in turn: following merged from an
    occurrence of ctx ends at the occurrence of the normal form that
    cleaning sends it to."""
    if ctx.normal:
        return ctx
    out: List[Item] = []
    for it in ctx.items:
        if isinstance(it, Fml):
            out.append(it)
            continue
        inner = normalize(it.inner, merged)
        kept = []
        for x in inner.items:
            (out if x.fvs.isdisjoint(it.binds) else kept).append(x)
        if not kept:
            continue
        if len(kept) < len(inner.items):
            out.append(Bracket(it.binds, _normal(tuple(kept))))
        else:
            out.append(it if inner is it.inner else Bracket(it.binds, inner))
    out.sort(key=_canon_key)
    items = [x for i, x in enumerate(out)
             if i == 0 or x.key != out[i - 1].key]
    if merged is not None:
        for prev, x in zip(out, out[1:]):
            if x.key == prev.key:
                merged.update(zip(x.fids, prev.fids))
    if len(items) == len(ctx.items) and all(
            a is b for a, b in zip(items, ctx.items)):
        _ctx_normal(ctx, True)
        return ctx
    return _normal(tuple(items))


# The context of items, which are sorted, clean and of distinct keys,
# marked normal.
_normal = partial(LJBContext, normal=True)


def _insert(items: Tuple[Item, ...], item: Item,
            merged: Dict[int, int]) -> Tuple[Item, ...]:
    """The items of normalize(LJBContext(items + (item,)), merged) for
    the items of a normal level and a clean item: item goes where it
    sorts and, as in normalize, of two items with one key the one that
    sorts first stays.  items itself when that is the one already
    there."""
    k = _canon_key(item)
    i = bisect_left(items, k, key=_canon_key)
    if i and items[i - 1].key == item.key:
        i -= 1
    if i == len(items) or items[i].key != item.key:
        return items[:i] + (item,) + items[i:]
    kept, dropped = sorted((items[i], item), key=_canon_key)
    merged.update(zip(dropped.fids, kept.fids))
    return items if kept is items[i] else items[:i] + (item,) + items[i + 1:]


# ---------------------------------------------------------------------------
# Deduction rules


def expose(ctx: LJBContext,
           goal_atom: Formula) -> List[Tuple[LJBContext, Fml]]:
    """All usable occurrences of hypotheses whose atomic head equals the
    goal, in traversal order: each the bracket-restructured context and
    the formula item itself."""
    if not isinstance(goal_atom, Atom):
        raise InvariantError(f"expose needs an atomic goal, got "
                             f"{render(goal_atom)}")
    entries: List[Tuple[LJBContext, Fml]] = []
    _expose(ctx, goal_atom.key, [], frozenset(), entries)
    return entries


def _expose(level: LJBContext, goal_key: str, chain, crossed: frozenset,
            entries: List[Tuple[LJBContext, Fml]]) -> None:
    for idx, it in enumerate(level.items):
        if isinstance(it, Bracket):
            _expose(it.inner, goal_key, chain + [(level, idx, it.binds)],
                    crossed | it.binds, entries)
            continue
        head = it.head
        if head.key != goal_key or not head.fvs.isdisjoint(crossed):
            continue
        entries.append((_restructure(chain, level, idx), it))


def _restructure(chain, final_level: LJBContext, final_idx: int) -> LJBContext:
    # Left unsorted: normalize sorts every level and keeps the first of
    # equal keys by (key, fids) whatever the order, so a permutation of
    # final_level (the level itself at top level) cleans the same.
    if not chain:
        return final_level
    exposed = final_level.items[final_idx]
    rest = final_level.items[:final_idx] + final_level.items[final_idx + 1:]
    core: Optional[Item] = None
    for level, idx, binds in chain:
        gamma = level.items[:idx] + level.items[idx + 1:]
        inner = gamma if core is None else (core,) + gamma
        core = Bracket(binds, LJBContext(inner))
    return LJBContext((core,) + rest + (exposed,))


# The premises of one rule instance: (context, goals, hyp, merged),
# their goals over one cleaned context, the hypothesis the rule acts on
# (the Fml of the conclusion's context that a left rule exposes, the new
# Fml of R-impl, None for R-forall) and cleaning's merges (see
# normalize).
Premises = Tuple[LJBContext, Tuple[Formula, ...], Optional[Fml],
                 Dict[int, int]]


def premises(raw: LJBContext, goals: Tuple[Formula, ...],
             hyp: Optional[Fml] = None) -> Premises:
    """The premises with goals over the context raw before cleaning."""
    merged: Dict[int, int] = {}
    return normalize(raw, merged), goals, hyp, merged


def rule_step(s: LJBSequent) -> List[Premises]:
    """The premises of every rule instance with conclusion s, in the
    order of the grammar's productions: one left rule per occurrence
    that expose finds for an atomic goal, else the one right rule.  The
    premise context of each instance is cleaned once, and each instance
    records cleaning's merges in a dict of its own.  The hypothesis
    R-impl adds has occurrence id 1 + the largest of s's context (0 for
    none), so a context whose ids are distinct has premises whose ids
    are distinct.  When the hypothesis stays, R-impl keeps its id as
    the largest (top) of the context it builds, for the next R-impl."""
    if isinstance(s.goal, Atom):
        return [premises(ctx, hyp.args, hyp)
                for ctx, hyp in expose(s.context, s.goal)]
    merged: Dict[int, int] = {}
    ctx = normalize(s.context, merged)
    if isinstance(s.goal, Impl):
        top = getattr(s.context, "top", None)
        if top is None:
            top = max(itertools.chain.from_iterable(
                it.fids for it in s.context.items), default=-1)
        hyp = Fml(s.goal.lhs, top + 1)
        items = _insert(ctx.items, hyp, merged)
        if items is not ctx.items:  # hyp stays
            ctx = _normal(items)
            _ctx_top(ctx, hyp.fid)
        return [(ctx, (s.goal.rhs,), hyp, merged)]
    # R-forall, normalize(LJBContext((Bracket(binds, ctx),))) from the
    # normal ctx: the items free of the binds leave the bracket, which
    # then holds a normal level and is dropped when empty
    binds, free, kept = s.goal.bvs, [], []
    for it in ctx.items:
        (free if it.fvs.isdisjoint(binds) else kept).append(it)
    if kept:
        inner = _normal(tuple(kept)) if free else ctx
        ctx = _normal(_insert(tuple(free), Bracket(binds, inner), merged))
    return [(ctx, (s.goal.body,), None, merged)]
