"""Shared fixtures: the formula corpus, small comparison helpers and
the reference checks of cleaning."""

from proofenum.ljb import apply_step, canon, normalize
from proofenum.ljplus import (LJPlusSequent, NamedContext, alpha_normalize,
                              oracle_enumerate, render_proof)
from proofenum.syntax import parse_formula
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
