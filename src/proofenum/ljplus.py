"""The positive-sequent kernel: named contexts, beta-normal eta-long
proof-terms, derivation checking and a brute-force enumerator."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .syntax import (Atom, Forall, Formula, NotNegative, Record, _set,
                     decompose_negative, fresh_name, match_formula,
                     parse_formula, rename, render, union_all)


class IllFormed(Exception):
    """Proof-term violates the beta-normal eta-long shape."""


# ---------------------------------------------------------------------------
# Proof-terms


def _structural(*names: str):
    """__hash__ and __reduce__ of a proof-term class with the fields
    names.  The hash is structural, computed on first use from the
    children's (cached) hashes and kept in the _hash slot; pickling and
    copying rebuild the node from its fields, without the cache."""
    fields = attrgetter(*names)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(fields(self))
            _set(self, "_hash", h)
        return h

    def __reduce__(self):
        return type(self), fields(self)

    return __hash__, __reduce__


def _hash_cache():
    return field(default=None, init=False, repr=False, compare=False)


# Expansion shares sub-terms between the terms it builds, so a term is a
# DAG.  Equality stays structural, and only the hash is cached, on first
# use: a printed key per node would cost memory in proportion to size
# times depth.  Unlike the Records of the other layers, proof-terms are
# frozen dataclasses, so that dataclasses.replace rebuilds them with a
# field changed.

@dataclass(frozen=True, slots=True)
class Spine:
    head: str
    args: tuple = ()
    _hash: Optional[int] = _hash_cache()

    __hash__, __reduce__ = _structural("head", "args")


@dataclass(frozen=True, slots=True)
class LamTm:
    var: str
    body: "ProofTerm"
    _hash: Optional[int] = _hash_cache()

    __hash__, __reduce__ = _structural("var", "body")


@dataclass(frozen=True, slots=True)
class LamPf:
    pvar: str
    annot: Formula
    body: "ProofTerm"
    _hash: Optional[int] = _hash_cache()

    __hash__, __reduce__ = _structural("pvar", "annot", "body")


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


def render_proof(t: ProofTerm, memo: Optional[Dict[int, str]] = None) -> str:
    """The printed form of t.  With memo, the printed form of each spine
    with arguments is also kept in memo under id(spine) and read back
    from it, so a spine shared between the terms printed with one memo
    is printed once.  A memo must not outlive the terms printed with
    it."""
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
            text = f"({x.head} {' '.join(done[-n:])})"
            del done[-n:]
            if memo is not None:
                memo[id(x)] = text
            done.append(text)
            continue
        binders = ""
        while type(x) is not Spine:
            binders += (f"\\{x.var}. " if type(x) is LamTm
                        else f"\\{x.pvar}:{render(x.annot)}. ")
            x = x.body
        if not x.args:
            text = x.head
        else:
            text = memo.get(id(x)) if memo is not None else None
        if text is not None:
            done.append(binders + text)
            continue
        if binders:
            todo.append(binders)
        todo.append((x,))
        todo.extend(reversed(x.args))
    return done[0]


def sort_proofs(terms: Iterable[ProofTerm]) -> List[ProofTerm]:
    """terms sorted by render_proof, printing each spine they share
    once."""
    memo: Dict[int, str] = {}
    return sorted(terms, key=lambda t: render_proof(t, memo))


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
        _set(self, "hyps", hyps)

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
        _set(self, "context", context)
        _set(self, "goal", goal)


# ---------------------------------------------------------------------------
# Alpha-equivalence of sequents

def alpha_eq_sequent(s1: LJPlusSequent, s2: LJPlusSequent) -> bool:
    """True iff some renaming of term variables (and of proof variables)
    makes the sequents alpha-equivalent; free variables are treated as
    bound by the turnstile."""
    return len(s1.context.hyps) == len(s2.context.hyps) and \
        _alpha_from(s1, s2, 0, frozenset(), {})


def _alpha_from(s1: LJPlusSequent, s2: LJPlusSequent, i: int,
                used: frozenset, sig: dict) -> bool:
    """Whether sig extends to match s1's hypotheses from i on with
    distinct hypotheses of s2 outside used, and then the goals."""
    h1, h2 = s1.context.hyps, s2.context.hyps
    if i == len(h1):
        return match_formula(s1.goal, s2.goal, sig) is not None
    for j in range(len(h2)):
        if j in used:
            continue
        nxt = match_formula(h1[i][1], h2[j][1], sig)
        if nxt is not None and _alpha_from(s1, s2, i + 1, used | {j}, nxt):
            return True
    return False


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
