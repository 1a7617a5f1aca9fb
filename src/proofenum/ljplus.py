"""The positive-sequent kernel: named contexts, beta-normal eta-long
proof-terms, derivation checking and a brute-force enumerator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .syntax import (Atom, Forall, Formula, Impl, NotNegative, Var,
                     decompose_negative, free_vars, fresh_name,
                     parse_formula, rename, render)


class IllFormed(Exception):
    """Proof-term violates the beta-normal eta-long shape."""


# ---------------------------------------------------------------------------
# Proof-terms


@dataclass(frozen=True)
class Spine:
    head: str
    args: tuple = ()


@dataclass(frozen=True)
class LamTm:
    var: str
    body: "ProofTerm"


@dataclass(frozen=True)
class LamPf:
    pvar: str
    annot: Formula
    body: "ProofTerm"


ProofTerm = Union[Spine, LamTm, LamPf]


def term_height(t: ProofTerm) -> int:
    if isinstance(t, Spine):
        if not t.args:
            return 1
        return 1 + max(term_height(a) for a in t.args)
    return 1 + term_height(t.body)


def render_proof(t: ProofTerm) -> str:
    if isinstance(t, Spine):
        if not t.args:
            return t.head
        return f"({t.head} {' '.join(render_proof(a) for a in t.args)})"
    if isinstance(t, LamTm):
        return f"\\{t.var}. {render_proof(t.body)}"
    return f"\\{t.pvar}:{render(t.annot)}. {render_proof(t.body)}"


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


def free_pvars(t: ProofTerm) -> frozenset:
    if isinstance(t, Spine):
        out = {t.head}
        for a in t.args:
            out |= free_pvars(a)
        return frozenset(out)
    if isinstance(t, LamTm):
        return free_pvars(t.body)
    return free_pvars(t.body) - {t.pvar}


def free_term_vars_of(t: ProofTerm) -> frozenset:
    if isinstance(t, Spine):
        out: set = set()
        for a in t.args:
            out |= free_term_vars_of(a)
        return frozenset(out)
    if isinstance(t, LamTm):
        return free_term_vars_of(t.body) - {t.var}
    return free_term_vars_of(t.body) | free_vars(t.annot)


def rename_proof(t: ProofTerm, tmap: Dict[str, str],
                 pmap: Dict[str, str]) -> ProofTerm:
    """Capture-avoiding renaming of free term variables and free proof
    variables of a term; binders are alpha-renamed when needed."""
    if isinstance(t, Spine):
        return Spine(pmap.get(t.head, t.head),
                     tuple(rename_proof(a, tmap, pmap) for a in t.args))
    if isinstance(t, LamTm):
        inner = {k: v for k, v in tmap.items() if k != t.var}
        if t.var in inner.values():
            nv = fresh_name(t.var, set(inner) | set(inner.values())
                            | free_term_vars_of(t.body))
            body = rename_proof(t.body, {t.var: nv}, {})
            return LamTm(nv, rename_proof(body, inner, pmap))
        return LamTm(t.var, rename_proof(t.body, inner, pmap))
    inner_p = {k: v for k, v in pmap.items() if k != t.pvar}
    pv = t.pvar
    body = t.body
    if pv in inner_p.values():
        npv = fresh_name(pv, set(inner_p) | set(inner_p.values())
                         | free_pvars(body))
        body = rename_proof(body, {}, {pv: npv})
        pv = npv
    return LamPf(pv, rename(t.annot, tmap),
                 rename_proof(body, tmap, inner_p))


def alpha_normalize(t: ProofTerm) -> ProofTerm:
    """Canonical renaming of all binders (v0, v1, ... / p0, p1, ...) in
    traversal order.  Free variables are left untouched, so on closed
    terms this is a complete alpha-equivalence normal form."""
    counter = [0, 0]

    def walk(u: ProofTerm, tmap: dict, pmap: dict) -> ProofTerm:
        if isinstance(u, Spine):
            return Spine(pmap.get(u.head, u.head),
                         tuple(walk(a, tmap, pmap) for a in u.args))
        if isinstance(u, LamTm):
            nv = f"v{counter[0]}"
            counter[0] += 1
            return LamTm(nv, walk(u.body, {**tmap, u.var: nv}, pmap))
        np = f"p{counter[1]}"
        counter[1] += 1
        return LamPf(np, rename(u.annot, tmap),
                     walk(u.body, tmap, {**pmap, u.pvar: np}))

    return walk(t, {}, {})


# ---------------------------------------------------------------------------
# Sequents


@dataclass(frozen=True)
class NamedContext:
    hyps: Tuple[Tuple[str, Formula], ...] = ()

    def lookup(self, pvar: str) -> Optional[Formula]:
        for name, f in self.hyps:
            if name == pvar:
                return f
        return None

    def extend(self, pvar: str, f: Formula) -> "NamedContext":
        return NamedContext(self.hyps + ((pvar, f),))

    def free_term_vars(self) -> FrozenSet[str]:
        out: set = set()
        for _, f in self.hyps:
            out |= free_vars(f)
        return frozenset(out)

    def pvars(self) -> FrozenSet[str]:
        return frozenset(name for name, _ in self.hyps)


@dataclass(frozen=True)
class LJPlusSequent:
    context: NamedContext
    goal: Formula


# ---------------------------------------------------------------------------
# Alpha-equivalence of sequents

def _match_formula(a: Formula, b: Formula, sig: dict, bnd: tuple):
    """Extend the injective free-variable renaming sig so that sig(a) is
    alpha-equivalent to b; return the extension or None."""

    def match_t(s, t, sig, bnd):
        if isinstance(s, Var) and isinstance(t, Var):
            for x, y in reversed(bnd):
                if x == s.name or y == t.name:
                    return sig if (x == s.name and y == t.name) else None
            if s.name in sig:
                return sig if sig[s.name] == t.name else None
            if t.name in sig.values():
                return None
            out = dict(sig)
            out[s.name] = t.name
            return out
        if type(s) is not type(t):
            return None
        if s.symbol != t.symbol or len(s.args) != len(t.args):
            return None
        for sa, ta in zip(s.args, t.args):
            sig = match_t(sa, ta, sig, bnd)
            if sig is None:
                return None
        return sig

    if isinstance(a, Atom) and isinstance(b, Atom):
        if a.pred != b.pred or len(a.args) != len(b.args):
            return None
        for s, t in zip(a.args, b.args):
            sig = match_t(s, t, sig, bnd)
            if sig is None:
                return None
        return sig
    if isinstance(a, Impl) and isinstance(b, Impl):
        sig = _match_formula(a.lhs, b.lhs, sig, bnd)
        if sig is None:
            return None
        return _match_formula(a.rhs, b.rhs, sig, bnd)
    if isinstance(a, Forall) and isinstance(b, Forall):
        return _match_formula(a.body, b.body, sig, bnd + ((a.var, b.var),))
    return None


def alpha_eq_sequent(s1: LJPlusSequent, s2: LJPlusSequent) -> bool:
    """True iff some renaming of term variables (and of proof variables)
    makes the sequents alpha-equivalent; free variables are treated as
    bound by the turnstile."""
    h1, h2 = s1.context.hyps, s2.context.hyps
    if len(h1) != len(h2):
        return False

    def go(i: int, used: frozenset, sig: dict) -> bool:
        if i == len(h1):
            return _match_formula(s1.goal, s2.goal, sig, ()) is not None
        for j in range(len(h2)):
            if j in used:
                continue
            nxt = _match_formula(h1[i][1], h2[j][1], sig, ())
            if nxt is not None and go(i + 1, used | {j}, nxt):
                return True
        return False

    return go(0, frozenset(), {})


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
            if t.var in free_vars(goal.body):
                return False
            try:
                body_goal = rename(goal.body, {goal.var: t.var})
            except ValueError:
                return False
        return check_proof(ctx, t.body, body_goal)
    if not isinstance(t, LamPf):
        raise IllFormed(f"expected a proof abstraction at {render(goal)}")
    if t.annot != goal.lhs:
        return False
    if t.pvar in ctx.pvars():
        return False
    return check_proof(ctx.extend(t.pvar, goal.lhs), t.body, goal.rhs)


def shape_ok(ctx: NamedContext, t: ProofTerm, goal: Formula) -> bool:
    """Structural (eta-long) shape check, ignoring atom identities."""
    try:
        check_proof(ctx, t, goal)
    except IllFormed:
        return False
    return True


# ---------------------------------------------------------------------------
# Brute-force enumeration

def oracle_enumerate(seq: LJPlusSequent, max_height: int):
    """All beta-normal eta-long proof-terms of height <= max_height, by
    direct backward application of the rules; canonically ordered."""
    memo: dict = {}

    def key(ctx: NamedContext, goal: Formula, h: int):
        return (tuple((n, render(f)) for n, f in ctx.hyps), render(goal), h)

    def go(ctx: NamedContext, goal: Formula, h: int):
        if h <= 0:
            return ()
        k = key(ctx, goal, h)
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
                choices = [go(ctx, a, h - 1) for a in args]
                if all(choices):
                    stack = [()]
                    for ch in choices:
                        stack = [pre + (u,) for pre in stack for u in ch]
                    out.extend(Spine(name, tup) for tup in stack)
        elif isinstance(goal, Forall):
            fv = ctx.free_term_vars()
            if goal.var in fv:
                v = fresh_name(goal.var, fv | free_vars(goal))
                body = rename(goal.body, {goal.var: v})
            else:
                v, body = goal.var, goal.body
            out.extend(LamTm(v, u) for u in go(ctx, body, h - 1))
        else:
            pv = f"h{len(ctx.hyps)}"
            while pv in ctx.pvars():
                pv += "'"
            sub = ctx.extend(pv, goal.lhs)
            out.extend(LamPf(pv, goal.lhs, u)
                       for u in go(sub, goal.rhs, h - 1))
        res = tuple(sorted(set(out), key=render_proof))
        memo[k] = res
        return res

    return list(go(seq.context, seq.goal, max_height))
