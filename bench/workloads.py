"""The inputs of the three workloads, made from the seed alone.

Every workload renames the symbols of its fixed inputs with a
seed-chosen permutation of the letters (the first letter of each
identifier), so that two seeds give different but equally hard inputs.
`decide` adds a seeded draw of random positive formulas and System F
types.  The one input kept as a known failure does not depend on the
seed.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass
from typing import List, Optional

FIG = "((forall y. (P(y)->Q) -> (P(y)->Q)) -> Q) -> Q"
A1 = "forall X. ((forall Y. (Y->X)->(Y->X)) -> X) -> X"
A2 = "forall X. forall Y. (((Y->X)->(Y->X))->X)->X"
TWO_SUCC = "forall X. (X->X) -> (X->X) -> X -> X"
CHURCH = "forall X. X -> (X->X) -> X"

# The formula corpus of the test-suite, copied so that the benchmark's
# inputs stay fixed when the tests change.
CORPUS_TEXTS = [
    "P -> P",
    "((P->Q)->Q)->Q",
    FIG,
    "forall x. P(x) -> P(x)",
    "(P -> Q) -> P -> Q",
    "((P->Q)->Q) -> (P->Q) -> Q",
    "forall x. forall y. P(x) -> P(y) -> P(x)",
    "P(f(x)) -> P(f(x))",
    "Q",
    "(Q -> Q) -> Q",
]
CORPUS_SYSF = [A1, A2, CHURCH, "forall X. X -> ((X->X)->X) -> X"]

RANDOM_FORMULAS = 40
RANDOM_TYPES = 10


@dataclass(frozen=True)
class KnownFault:
    message: str  # the one failure message the checks report
    why: str


@dataclass(frozen=True)
class Input:
    name: str
    text: str
    sysf: bool = False
    height: Optional[int] = None       # enumeration height; None for decide
    closed_form: Optional[int] = None  # term count known in closed form
    dk: Optional[int] = None           # k of the D_k family
    known_fault: Optional[KnownFault] = None  # fails every time, and how


# enumerate_terms renames the repeated binder x through
# ensure_distinct_binders and returns terms whose annotations do not
# match the goal as given, so check_proof rejects them.
BINDER_CLASH = "((forall x. Q(x)) -> P) -> forall x. P(x) -> P(x)"
BINDER_CLASH_FAULT = KnownFault(
    "check_proof rejects a term",
    "enumerate_terms renames repeated binders (ensure_distinct_binders); "
    "check_proof rejects the renamed annotations")


def d_family(k: int) -> str:
    """D_k = (B1 -> ... -> Bk -> Q) -> Q with
    Bi = forall xi. (P(xi) -> Q) -> P(xi) -> Q."""
    bs = " -> ".join(f"(forall x{i}. (P(x{i}) -> Q) -> P(x{i}) -> Q)"
                     for i in range(1, k + 1))
    return f"({bs} -> Q) -> Q"


def renamer(seed: int):
    """An injective renaming of identifiers: the first letter of each
    identifier other than `forall` goes through a seeded permutation of
    the letters of its case."""
    rng = random.Random(f"rename-{seed}")
    table = {}
    for alphabet in (string.ascii_uppercase, string.ascii_lowercase):
        image = list(alphabet)
        rng.shuffle(image)
        table.update(zip(alphabet, image))

    def rename(text: str) -> str:
        def one(m: re.Match) -> str:
            word = m.group(0)
            if word == "forall":
                return word
            return table[word[0]] + word[1:]
        return re.sub(r"[A-Za-z][A-Za-z0-9_']*", one, text)

    return rename


# ---------------------------------------------------------------------------
# Random positive formulas with quantified negative hypotheses


def _fo_atom(rng: random.Random, scope: List[str]) -> str:
    if scope and rng.random() < 0.6:
        return f"{rng.choice('PR')}({rng.choice(scope)})"
    return rng.choice("QQS")


def _fo_quantified(rng: random.Random, scope, fresh) -> str:
    v = f"x{next(fresh)}"
    inner = scope + [v]
    parts = []
    for _ in range(rng.choice([1, 1, 2])):
        if rng.random() < 0.5:
            parts.append(f"({_fo_atom(rng, inner)} -> {_fo_atom(rng, inner)})")
        else:
            parts.append(_fo_atom(rng, inner))
    return f"forall {v}. " + " -> ".join(parts + [_fo_atom(rng, inner)])


def random_formula(rng: random.Random) -> str:
    """H1 -> ... -> Hn -> G with each Hi a negative hypothesis whose
    arguments are mostly quantified positive formulas."""
    fresh = itertools.count(1)
    scope = ["a"]
    goal = rng.choice("QS")
    hyps = []
    for _ in range(rng.choice([1, 2, 2, 3])):
        args = [f"({_fo_quantified(rng, scope, fresh)})"
                if rng.random() < 0.7 else _fo_atom(rng, scope)
                for _ in range(rng.choice([0, 1, 1, 2]))]
        head = goal if rng.random() < 0.5 else _fo_atom(rng, scope)
        hyps.append("(" + " -> ".join(args + [head]) + ")")
    return " -> ".join(hyps + [goal])


def _sf_quantified(rng: random.Random, scope, fresh) -> str:
    v = f"Z{next(fresh)}"
    inner = scope + [v]
    if rng.random() < 0.6:
        return (f"forall {v}. ({rng.choice(inner)} -> {rng.choice(inner)})"
                f" -> {rng.choice(inner)} -> {rng.choice(inner)}")
    return f"forall {v}. {rng.choice(inner)} -> {rng.choice(inner)}"


def random_type(rng: random.Random) -> str:
    """forall X. [forall Y.] H1 -> ... -> Hn -> X over type variables,
    with hypotheses taking quantified arguments."""
    fresh = itertools.count(1)
    scope = ["X", "Y"] if rng.random() < 0.5 else ["X"]
    hyps = []
    for _ in range(rng.choice([1, 2, 2])):
        args = [f"({_sf_quantified(rng, scope, fresh)})"
                if rng.random() < 0.6 else rng.choice(scope)
                for _ in range(rng.choice([1, 1, 2]))]
        head = scope[0] if rng.random() < 0.5 else rng.choice(scope)
        hyps.append("(" + " -> ".join(args + [head]) + ")")
    binders = "".join(f"forall {v}. " for v in scope)
    return binders + " -> ".join(hyps + [scope[0]])


# ---------------------------------------------------------------------------
# Workloads


def decide_inputs(seed: int) -> List[Input]:
    rename = renamer(seed)
    out = [Input(f"D_{k}", rename(d_family(k)), dk=k) for k in (3, 4, 5)]
    rng = random.Random(f"decide-{seed}")
    out += [Input(f"random-{i:02d}", random_formula(rng))
            for i in range(RANDOM_FORMULAS)]
    out += [Input(f"random-type-{i:02d}", random_type(rng), sysf=True)
            for i in range(RANDOM_TYPES)]
    return out


def deep_inputs(seed: int) -> List[Input]:
    rename = renamer(seed)
    return [
        Input("A2@24", rename(A2), sysf=True, height=24),
        Input("A1@20", rename(A1), sysf=True, height=20),
        Input("fig@20", rename(FIG), height=20),
        Input("two-succ@14", rename(TWO_SUCC), sysf=True, height=14,
              closed_form=2 ** (14 - 4) - 1),
        Input("church@40", rename(CHURCH), sysf=True, height=40,
              closed_form=40 - 3),
        Input("D_2@13", rename(d_family(2)), height=13),
        Input("binder-clash@5", BINDER_CLASH, height=5,
              known_fault=BINDER_CLASH_FAULT),
    ]


def shallow_inputs(seed: int) -> List[Input]:
    rename = renamer(seed)
    out = [Input("D_4@9", rename(d_family(4)), height=9),
           Input("D_5@9", rename(d_family(5)), height=9)]
    out += [Input(f"corpus-{i:02d}@6", rename(t), height=6)
            for i, t in enumerate(CORPUS_TEXTS)]
    out += [Input(f"corpus-type-{i}@6", rename(t), sysf=True, height=6)
            for i, t in enumerate(CORPUS_SYSF)]
    return out


WORKLOADS = {
    "decide": decide_inputs,
    "enumerate-deep": deep_inputs,
    "enumerate-shallow": shallow_inputs,
}
