"""Shared fixtures: the formula corpus, small comparison helpers, the
reference checks of cleaning and emptiness, and helpers that only the
tests use."""

from proofenum.ljb import (Bracket, Fml, LJBContext, apply_step, canon,
                           normalize)
from proofenum.ljplus import (IllFormed, LamPf, LamTm, LJPlusSequent,
                              NamedContext, Spine, check_proof,
                              oracle_enumerate, render_proof)
from proofenum.syntax import Atom, Impl, parse_formula, rename
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
