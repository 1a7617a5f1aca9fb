"""Shared fixtures: the formula corpus, random goals, small comparison
helpers, the reference checks of cleaning, emptiness and
alpha-equivalence, the reference renaming of proof-terms and copy
tables, and helpers that only the tests use."""

import itertools

from proofenum.expand import _copies, _renaming, flatten_det
from proofenum.ljb import (Bracket, Fml, LJBContext, apply_step, canon,
                           normalize)
from proofenum.ljplus import (IllFormed, LamPf, LamTm, LJPlusSequent,
                              NamedContext, Spine, check_proof,
                              oracle_enumerate, render_proof)
from proofenum.syntax import (Atom, Fn, Forall, Impl, Var, fresh_name,
                              parse_formula, rename, union_all)
from proofenum.sysf import parse_sysf_type, phi

FIG_FORMULA = "((forall y. (P(y)->Q) -> (P(y)->Q)) -> Q) -> Q"

SYSF_A1 = "forall X. ((forall Y. (Y->X)->(Y->X)) -> X) -> X"
SYSF_A2 = "forall X. forall Y. (((Y->X)->(Y->X))->X)->X"

CORPUS_TEXTS = [
    "P -> P",
    "((P->Q)->Q)->Q",
    FIG_FORMULA,
    "forall x. P(x) -> P(x)",
    "(P -> Q) -> P -> Q",
    "((P->Q)->Q) -> (P->Q) -> Q",
    "forall x. forall y. P(x) -> P(y) -> P(x)",
    "P(f(x)) -> P(f(x))",
    "Q",
    "(Q -> Q) -> Q",
]

CORPUS_SYSF = [
    SYSF_A1,
    SYSF_A2,
    "forall X. X -> (X->X) -> X",
    "forall X. X -> ((X->X)->X) -> X",
]


def corpus():
    goals = [parse_formula(t) for t in CORPUS_TEXTS]
    goals += [phi(parse_sysf_type(t)) for t in CORPUS_SYSF]
    return goals


def d_family(k):
    """D_k = (B1 -> ... -> Bk -> Q) -> Q with
    Bi = forall xi. (P(xi) -> Q) -> P(xi) -> Q."""
    bs = " -> ".join(f"(forall x{i}. (P(x{i}) -> Q) -> P(x{i}) -> Q)"
                     for i in range(1, k + 1))
    return parse_formula(f"({bs} -> Q) -> Q")


def random_formula(rng):
    """H1 -> ... -> Hn -> G whose hypotheses mostly take quantified
    arguments, in the style of the decide workload's goals."""
    fresh = itertools.count(1)

    def atom(scope):
        if scope and rng.random() < 0.6:
            return f"{rng.choice('PR')}({rng.choice(scope)})"
        return rng.choice("QQS")

    def quantified():
        v = f"x{next(fresh)}"
        parts = [f"({atom(['a', v])} -> {atom(['a', v])})"
                 if rng.random() < 0.5 else atom(["a", v])
                 for _ in range(rng.choice([1, 1, 2]))]
        return f"forall {v}. " + " -> ".join(parts + [atom(["a", v])])

    goal = rng.choice("QS")
    hyps = []
    for _ in range(rng.choice([1, 2, 2, 3])):
        args = [f"({quantified()})" if rng.random() < 0.7 else atom(["a"])
                for _ in range(rng.choice([0, 1, 1, 2]))]
        head = goal if rng.random() < 0.5 else atom(["a"])
        hyps.append("(" + " -> ".join(args + [head]) + ")")
    return parse_formula(" -> ".join(hyps + [goal]))


def random_type(rng):
    """forall X. [forall Y.] H1 -> ... -> Hn -> X with hypotheses taking
    quantified arguments, after phi."""
    fresh = itertools.count(1)
    scope = ["X", "Y"] if rng.random() < 0.5 else ["X"]

    def quantified():
        v = f"Z{next(fresh)}"
        inner = scope + [v]
        return (f"forall {v}. ({rng.choice(inner)} -> {rng.choice(inner)})"
                f" -> {rng.choice(inner)} -> {rng.choice(inner)}")

    hyps = []
    for _ in range(rng.choice([1, 2, 2])):
        args = [f"({quantified()})" if rng.random() < 0.6
                else rng.choice(scope) for _ in range(rng.choice([1, 1, 2]))]
        hyps.append("(" + " -> ".join(args + [rng.choice(scope)]) + ")")
    binders = "".join(f"forall {v}. " for v in scope)
    return phi(parse_sysf_type(binders + " -> ".join(hyps + [scope[0]])))


def alpha_set(terms):
    return frozenset(render_proof(alpha_normalize(t)) for t in terms)


def oracle_set(goal, max_height):
    seq = LJPlusSequent(NamedContext(), goal)
    return alpha_set(oracle_enumerate(seq, max_height))


def is_normal(ctx):
    """Whether ctx is in cleaning's normal form."""
    return normalize(ctx) == canon(ctx)


def replay(ctx, trace):
    """The chain of contexts a recorded cleaning trace goes through from
    ctx; raises on a step that does not apply."""
    cur = canon(ctx)
    chain = [cur]
    for step in trace:
        cur = apply_step(cur, step)
        chain.append(cur)
    return chain


def random_context(rng, budget, depth=0):
    """A random context of at most budget[0] formulas, nested up to
    three brackets deep, all with occurrence id -1."""
    items = []
    n = rng.randint(0, 4 if depth else 6)
    for _ in range(n):
        if budget[0] <= 0:
            break
        if depth < 3 and rng.random() < 0.35:
            binds = frozenset(rng.sample(["x", "y", "z", "w"],
                                         rng.randint(1, 2)))
            items.append(Bracket(binds, random_context(rng, budget,
                                                       depth + 1)))
        else:
            budget[0] -= 1
            pred = rng.choice(["P", "Q", "R"])
            nargs = rng.randint(0, 2)
            args = ", ".join(rng.choice(["x", "y", "z", "w"])
                             for _ in range(nargs))
            text = f"{pred}({args})" if args else pred
            if rng.random() < 0.4:
                text = f"{text} -> Q"
            items.append(Fml(parse_formula(text)))
    return LJBContext(tuple(items))


def fixpoint_is_inhabited(g):
    """Emptiness by sweeping every production until no nonterminal
    becomes productive: the reference for grammar.is_inhabited."""
    productive: set = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs in productive:
                continue
            if all(q in productive for q in p.premises):
                productive.add(p.lhs)
                changed = True
    return g.start in productive


def render_context(ctx):
    return ctx.key


def erase_formulas(ctx):
    """The bracket-erased formula multiset, in traversal order."""
    out = []
    for it in ctx.items:
        if isinstance(it, Fml):
            out.append(it.formula)
        else:
            out.extend(erase_formulas(it.inner))
    return out


def fold_negative(args, head: Atom):
    f = head
    for a in reversed(tuple(args)):
        f = Impl(a, f)
    return f


def formula_size(f) -> int:
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Impl):
        return 1 + formula_size(f.lhs) + formula_size(f.rhs)
    return 1 + formula_size(f.body)


def shape_ok(ctx, t, goal) -> bool:
    """Structural (eta-long) shape check, ignoring atom identities."""
    try:
        check_proof(ctx, t, goal)
    except IllFormed:
        return False
    return True


def alpha_normalize(t):
    """Canonical renaming of all binders (v0, v1, ... / p0, p1, ...) in
    traversal order.  Free variables are left untouched, so on closed
    terms this is a complete alpha-equivalence normal form."""
    counter = [0, 0]

    def walk(u, tmap, pmap):
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


def _free_pvars(t):
    if isinstance(t, Spine):
        out = {t.head}
        for a in t.args:
            out |= _free_pvars(a)
        return frozenset(out)
    if isinstance(t, LamTm):
        return _free_pvars(t.body)
    return _free_pvars(t.body) - {t.pvar}


def _free_term_vars(t):
    if isinstance(t, Spine):
        out = set()
        for a in t.args:
            out |= _free_term_vars(a)
        return frozenset(out)
    if isinstance(t, LamTm):
        return _free_term_vars(t.body) - {t.var}
    return _free_term_vars(t.body) | t.annot.fvs


def reference_rename_proof(t, tmap, pmap):
    """Capture-avoiding renaming of free term variables and free proof
    variables of a term; binders are alpha-renamed when needed.  The
    reference for expansion's lift when cleaning merges nothing."""
    if isinstance(t, Spine):
        return Spine(pmap.get(t.head, t.head),
                     tuple(reference_rename_proof(a, tmap, pmap)
                           for a in t.args))
    if isinstance(t, LamTm):
        inner = {k: v for k, v in tmap.items() if k != t.var}
        if t.var in inner.values():
            nv = fresh_name(t.var, set(inner) | set(inner.values())
                            | _free_term_vars(t.body))
            body = reference_rename_proof(t.body, {t.var: nv}, {})
            return LamTm(nv, reference_rename_proof(body, inner, pmap))
        return LamTm(t.var, reference_rename_proof(t.body, inner, pmap))
    inner_p = {k: v for k, v in pmap.items() if k != t.pvar}
    pv = t.pvar
    body = t.body
    if pv in inner_p.values():
        npv = fresh_name(pv, set(inner_p) | set(inner_p.values())
                         | _free_pvars(body))
        body = reference_rename_proof(body, {}, {pv: npv})
        pv = npv
    return LamPf(pv, rename(t.annot, tmap),
                 reference_rename_proof(body, tmap, inner_p))


def reference_lift_table(raw, goal, target):
    """The copy table of a premise whose context before cleaning is raw,
    built per premise: clean raw, flatten the normal form with goal,
    and send each hypothesis of target, through cleaning's merges, to
    the hypothesis of that flattening with its occurrence id.  The
    first three of _lift's last four arguments, or None when the terms
    prove target as they are.  The reference for the tables of lift
    plans, which take occurrence ids by position."""
    merged = {}
    nf = flatten_det(normalize(raw, merged), goal)
    tmap, pmap = _renaming(nf, target)
    if not (merged or tmap or pmap):
        return None
    pv_of = {fid: pv for fid, pv, _ in nf.hyps}
    pairs = {}
    for fid, pv, f in target.hyps:
        while fid in merged:
            fid = merged[fid]
        pairs.setdefault(pv_of[fid], []).append((pv, f))
    return ({nv: _copies(ps) for nv, ps in pairs.items()},
            len(target.hyps), union_all(f.fvs for _, _, f in target.hyps))


def reference_match_formula(a, b, sig, bnd):
    """The matcher syntax.match_formula, walking both formulas always:
    the reference for its shortcut on equal formulas."""

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
        sig = reference_match_formula(a.lhs, b.lhs, sig, bnd)
        if sig is None:
            return None
        return reference_match_formula(a.rhs, b.rhs, sig, bnd)
    if isinstance(a, Forall) and isinstance(b, Forall):
        return reference_match_formula(a.body, b.body, sig,
                                       bnd + ((a.var, b.var),))
    return None


def reference_alpha_eq(f, g, env=None):
    """Alpha-equivalence under the renaming env (pairs of names, the last
    pair for a name winning) with its own pair environment: the
    reference for syntax.alpha_eq, which runs the matcher."""
    pairs = () if env is None else env

    def look(x, left):
        for a, b in reversed(pairs):
            if left and a == x:
                return b
            if not left and b == x:
                return a
        return None

    def eq_t(s, t, bnd):
        if isinstance(s, Var) and isinstance(t, Var):
            for a, b in reversed(bnd):
                if a == s.name or b == t.name:
                    return a == s.name and b == t.name
            m = look(s.name, True)
            if m is not None:
                return m == t.name
            m = look(t.name, False)
            if m is not None:
                return False
            return s.name == t.name
        if isinstance(s, Fn) and isinstance(t, Fn):
            return (s.symbol == t.symbol and len(s.args) == len(t.args)
                    and all(eq_t(a, b, bnd) for a, b in zip(s.args, t.args)))
        return False

    def eq_f(a, b, bnd):
        if isinstance(a, Atom) and isinstance(b, Atom):
            return (a.pred == b.pred and len(a.args) == len(b.args)
                    and all(eq_t(s, t, bnd) for s, t in zip(a.args, b.args)))
        if isinstance(a, Impl) and isinstance(b, Impl):
            return eq_f(a.lhs, b.lhs, bnd) and eq_f(a.rhs, b.rhs, bnd)
        if isinstance(a, Forall) and isinstance(b, Forall):
            return eq_f(a.body, b.body, bnd + ((a.var, b.var),))
        return False

    return eq_f(f, g, ())
