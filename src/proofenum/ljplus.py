"""The positive-sequent kernel: named contexts, beta-normal eta-long
proof-terms, derivation checking and a brute-force enumerator."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, FrozenSet, List, Optional, Tuple, Union

from .syntax import (Atom, Forall, Formula, NotNegative, Record,
                     decompose_negative, fresh_name, parse_formula, rename,
                     render, slot_setters, union_all)


class IllFormed(Exception):
    """Proof-term violates the beta-normal eta-long shape."""


# ---------------------------------------------------------------------------
# Proof-terms


def _structural(*names: str):
    """__hash__ and __reduce__ of a proof-term class with the fields
    names.  The hash is structural, computed on first use from the
    children's (cached) hashes and kept in the _hash slot, which is
    unset until then; pickling and copying rebuild the node from its
    fields, without the cache."""
    fields = attrgetter(*names)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(fields(self))
            _node_hash(self, h)
            return h

    def __reduce__(self):
        return type(self), fields(self)

    return __hash__, __reduce__


class _Node:
    """The slot of a proof-term's cached hash (see _structural)."""
    __slots__ = ("_hash",)


# Expansion shares sub-terms between the terms it builds, so a term is a
# DAG.  Equality stays structural, and only the hash is cached, on first
# use: a printed key kept on every node would cost memory in proportion
# to size times depth (expansion's sort keys live for one call).  Unlike
# the Records of the other layers, proof-terms are frozen dataclasses,
# so that dataclasses.replace rebuilds them with a field changed.  Each
# __init__ is written out and sets the fields only, through the slots'
# descriptors (syntax.slot_setters): the generated one stores each with
# object.__setattr__, at over twice the cost, and expansion builds every
# node of its output.

@dataclass(frozen=True, slots=True)
class Spine(_Node):
    head: str
    args: tuple = ()

    def __init__(self, head: str, args: tuple = ()):
        _spine_head(self, head)
        _spine_args(self, args)

    __hash__, __reduce__ = _structural("head", "args")


@dataclass(frozen=True, slots=True)
class LamTm(_Node):
    var: str
    body: "ProofTerm"

    def __init__(self, var: str, body: "ProofTerm"):
        _lamtm_var(self, var)
        _lamtm_body(self, body)

    __hash__, __reduce__ = _structural("var", "body")


@dataclass(frozen=True, slots=True)
class LamPf(_Node):
    pvar: str
    annot: Formula
    body: "ProofTerm"

    def __init__(self, pvar: str, annot: Formula, body: "ProofTerm"):
        _lampf_pvar(self, pvar)
        _lampf_annot(self, annot)
        _lampf_body(self, body)

    __hash__, __reduce__ = _structural("pvar", "annot", "body")


_node_hash, = slot_setters(_Node)
_spine_head, _spine_args = slot_setters(Spine)
_lamtm_var, _lamtm_body = slot_setters(LamTm)
_lampf_pvar, _lampf_annot, _lampf_body = slot_setters(LamPf)
ProofTerm = Union[Spine, LamTm, LamPf]


def term_height(t: ProofTerm) -> int:
    height = 0
    todo = [(t, 1)]
    while todo:
        u, h = todo.pop()
        if h > height:
            height = h
        if isinstance(u, Spine):
            todo.extend((a, h + 1) for a in u.args)
        else:
            todo.append((u.body, h + 1))
    return height


def _binder(x: Union[LamTm, LamPf]) -> str:
    return (f"\\{x.var}. " if type(x) is LamTm
            else f"\\{x.pvar}:{render(x.annot)}. ")


def render_proof(t: ProofTerm,
                 binder: Callable[[Union[LamTm, LamPf]], str] = _binder
                 ) -> str:
    """The printed form of t, with binder(x) as the text of each binder
    node x."""
    done: List[str] = []  # printed sub-terms, left to right
    todo: list = [t]
    while todo:
        x = todo.pop()
        if type(x) is str:  # the binders above the last printed sub-term
            done[-1] = x + done[-1]
            continue
        if type(x) is tuple:  # (spine,), its arguments printed last
            x = x[0]
            n = len(x.args)
            done[-n:] = [f"({x.head} {' '.join(done[-n:])})"]
            continue
        binders = ""
        while type(x) is not Spine:
            binders += binder(x)
            x = x.body
        if not x.args:
            done.append(binders + x.head)
            continue
        if binders:
            todo.append(binders)
        todo.append((x,))
        todo.extend(reversed(x.args))
    return done[0]


def proof_to_json(t: ProofTerm) -> dict:
    if isinstance(t, Spine):
        return {"kind": "spine", "head": t.head,
                "args": [proof_to_json(a) for a in t.args]}
    if isinstance(t, LamTm):
        return {"kind": "lam_tm", "var": t.var, "body": proof_to_json(t.body)}
    return {"kind": "lam_pf", "pvar": t.pvar, "annot": render(t.annot),
            "body": proof_to_json(t.body)}


def proof_from_json(d: dict) -> ProofTerm:
    """The proof-term that proof_to_json wrote as d.  Raises ValueError
    on JSON of another shape and KeyError on a missing field."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a proof-term object, got {d!r}")
    kind = d["kind"]
    if kind == "spine":
        args = d["args"]
        if not isinstance(args, list):
            raise ValueError(f"expected a list of arguments, got {args!r}")
        return Spine(_json_name(d, "head"),
                     tuple(proof_from_json(a) for a in args))
    if kind == "lam_tm":
        return LamTm(_json_name(d, "var"), proof_from_json(d["body"]))
    if kind == "lam_pf":
        return LamPf(_json_name(d, "pvar"),
                     parse_formula(_json_name(d, "annot")),
                     proof_from_json(d["body"]))
    raise ValueError(f"unknown proof-term kind {kind!r}")


def _json_name(d: dict, field: str) -> str:
    value = d[field]
    if not isinstance(value, str):
        raise ValueError(f"expected a string as {field}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Sequents


class NamedContext(Record):
    __slots__ = ("hyps",)

    def __init__(self, hyps: Tuple[Tuple[str, Formula], ...] = ()):
        _named_hyps(self, hyps)

    def lookup(self, pvar: str) -> Optional[Formula]:
        return next((f for name, f in self.hyps if name == pvar), None)

    def extend(self, pvar: str, f: Formula) -> "NamedContext":
        return NamedContext(self.hyps + ((pvar, f),))

    def free_term_vars(self) -> FrozenSet[str]:
        return union_all(f.fvs for _, f in self.hyps)

    def pvars(self) -> FrozenSet[str]:
        return frozenset(name for name, _ in self.hyps)


class LJPlusSequent(Record):
    __slots__ = ("context", "goal")

    def __init__(self, context: NamedContext, goal: Formula):
        _ljp_context(self, context)
        _ljp_goal(self, goal)


_named_hyps, = slot_setters(NamedContext)
_ljp_context, _ljp_goal = slot_setters(LJPlusSequent)


# ---------------------------------------------------------------------------
# Checking

def check_proof(ctx: NamedContext, t: ProofTerm, goal: Formula) -> bool:
    """Derivability of ctx |- t : goal by the three rules (left rule for
    implication with atomic conclusion, right rules for forall and
    implication).  Shape violations raise IllFormed; a well-shaped term
    that fails to type merely returns False."""
    if isinstance(goal, Atom):
        if not isinstance(t, Spine):
            raise IllFormed(f"expected a spine at atomic goal {render(goal)}")
        hyp = ctx.lookup(t.head)
        if hyp is None:
            return False
        try:
            args, head = decompose_negative(hyp)
        except NotNegative:
            return False
        if len(t.args) != len(args):
            raise IllFormed(f"head {t.head} expects {len(args)} arguments")
        if head != goal:
            return False
        return all(check_proof(ctx, u, a) for u, a in zip(t.args, args))
    if isinstance(goal, Forall):
        if not isinstance(t, LamTm):
            raise IllFormed(f"expected a term abstraction at {render(goal)}")
        if t.var in ctx.free_term_vars():
            return False
        if t.var == goal.var:
            body_goal = goal.body
        else:
            if t.var in goal.body.fvs:
                return False
            body_goal = rename(goal.body, {goal.var: t.var})
        return check_proof(ctx, t.body, body_goal)
    if not isinstance(t, LamPf):
        raise IllFormed(f"expected a proof abstraction at {render(goal)}")
    if t.annot != goal.lhs:
        return False
    if t.pvar in ctx.pvars():
        return False
    return check_proof(ctx.extend(t.pvar, goal.lhs), t.body, goal.rhs)


# ---------------------------------------------------------------------------
# Brute-force enumeration

def oracle_enumerate(seq: LJPlusSequent, max_height: int):
    """All beta-normal eta-long proof-terms of height <= max_height, by
    direct backward application of the rules; canonically ordered."""
    return list(_oracle(seq.context, seq.goal, max_height, {}))


def _oracle(ctx: NamedContext, goal: Formula, h: int,
            memo: dict) -> Tuple[ProofTerm, ...]:
    """oracle_enumerate's terms of ctx |- goal of height <= h; memo maps
    the rendered sequent and h to them."""
    if h <= 0:
        return ()
    k = (tuple((n, render(f)) for n, f in ctx.hyps), render(goal), h)
    if k in memo:
        return memo[k]
    out: List[ProofTerm] = []
    if isinstance(goal, Atom):
        for name, f in ctx.hyps:
            try:
                args, head = decompose_negative(f)
            except NotNegative:
                continue
            if head != goal:
                continue
            if not args:
                out.append(Spine(name))
                continue
            choices = [_oracle(ctx, a, h - 1, memo) for a in args]
            if all(choices):
                stack = [()]
                for ch in choices:
                    stack = [pre + (u,) for pre in stack for u in ch]
                out.extend(Spine(name, tup) for tup in stack)
    elif isinstance(goal, Forall):
        fv = ctx.free_term_vars()
        if goal.var in fv:
            v = fresh_name(goal.var, fv | goal.fvs)
            body = rename(goal.body, {goal.var: v})
        else:
            v, body = goal.var, goal.body
        out.extend(LamTm(v, u) for u in _oracle(ctx, body, h - 1, memo))
    else:
        pv = f"h{len(ctx.hyps)}"
        while pv in ctx.pvars():
            pv += "'"
        sub = ctx.extend(pv, goal.lhs)
        out.extend(LamPf(pv, goal.lhs, u)
                   for u in _oracle(sub, goal.rhs, h - 1, memo))
    res = tuple(sorted(set(out), key=render_proof))
    memo[k] = res
    return res
