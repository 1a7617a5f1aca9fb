"""Output checks that do not rely on the code producing the outputs.

An enumeration is checked against the brute-force oracle as a set up to
alpha-equivalence (with the benchmark's own alpha-normal form), against
closed-form counts, and term by term with the proof kernel against the
goal as given and the height bound.  A verdict of `decide` is confirmed
by a witness the kernel accepts (written out for D_k, found by the
oracle otherwise), and a "no" by the oracle finding no proof up to
NO_PROOF_HEIGHT.  Each check returns a list of failure messages.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

# A "yes" is confirmed by the first oracle proof of height at most
# WITNESS_HEIGHT; a "no" by the oracle finding none up to NO_PROOF_HEIGHT.
# The oracle's search for a proof that does not exist grows faster than
# exponentially with the height: on one random type it takes 0.003 s at
# height 10, 0.1 s at 11 and over 300 s at 12.
WITNESS_HEIGHT = 16
NO_PROOF_HEIGHT = 10


class Kernel:
    """The library's kernel and oracle, timed from outside."""

    def __init__(self, pe) -> None:
        self.pe = pe
        self.check_s = 0.0
        self.oracle_s = 0.0

    def check(self, term, goal) -> bool:
        t0 = time.perf_counter()
        try:
            ok = self.pe.check_proof(self.pe.NamedContext(), term, goal)
        except self.pe.IllFormed:
            ok = False
        self.check_s += time.perf_counter() - t0
        return ok

    def oracle(self, goal, height: int) -> Tuple[list, float]:
        seq = self.pe.LJPlusSequent(self.pe.NamedContext(), goal)
        t0 = time.perf_counter()
        out = self.pe.oracle_enumerate(seq, height)
        dt = time.perf_counter() - t0
        self.oracle_s += dt
        return out, dt


# ---------------------------------------------------------------------------
# The benchmark's own view of terms: height and alpha-normal form


def height(t) -> int:
    kind = type(t).__name__
    if kind == "Spine":
        return 1 + max((height(a) for a in t.args), default=0)
    return 1 + height(t.body)


def _fo_term(u, env) -> str:
    if type(u).__name__ == "Var":
        return env.get(u.name, "'" + u.name)
    return f"{u.symbol}({','.join(_fo_term(a, env) for a in u.args)})"


def _formula(f, env, depth: int) -> str:
    kind = type(f).__name__
    if kind == "Atom":
        return f"{f.pred}({','.join(_fo_term(a, env) for a in f.args)})"
    if kind == "Impl":
        return f"({_formula(f.lhs, env, depth)}>{_formula(f.rhs, env, depth)})"
    body = _formula(f.body, {**env, f.var: f"#f{depth}"}, depth + 1)
    return f"A{depth}.{body}"


def alpha_key(t) -> str:
    """Equal for two proof-terms exactly when they are alpha-equivalent:
    every bound term or proof variable, also inside annotations, is
    replaced by its binding depth."""

    def go(u, tenv, penv, depth: int) -> str:
        kind = type(u).__name__
        if kind == "Spine":
            head = penv.get(u.head, "'" + u.head)
            args = " ".join(go(a, tenv, penv, depth) for a in u.args)
            return f"[{head} {args}]"
        if kind == "LamTm":
            return (f"L{depth}." +
                    go(u.body, {**tenv, u.var: f"#t{depth}"}, penv, depth + 1))
        annot = _formula(u.annot, tenv, 0)
        return (f"P{depth}:{annot}." +
                go(u.body, tenv, {**penv, u.pvar: f"#p{depth}"}, depth + 1))

    return go(t, {}, {}, 0)


# ---------------------------------------------------------------------------
# Checks


def check_enumeration(kernel: Kernel, goal, max_height: int, terms,
                      closed_form: Optional[int]) -> Tuple[List[str], float]:
    """Failures of an enumeration output, and the oracle's time."""
    failures = []
    for t in terms:
        if not kernel.check(t, goal):
            failures.append("check_proof rejects a term")
            break
    if any(height(t) > max_height for t in terms):
        failures.append(f"a term is higher than {max_height}")
    keys = {alpha_key(t) for t in terms}
    if len(keys) != len(terms):
        failures.append("two terms are alpha-equivalent")
    reference, oracle_s = kernel.oracle(goal, max_height)
    if keys != {alpha_key(t) for t in reference}:
        failures.append(f"not the oracle's set up to alpha ({len(keys)} "
                        f"terms, the oracle has {len(reference)})")
    if closed_form is not None and len(terms) != closed_form:
        failures.append(f"{len(terms)} terms, the closed form gives "
                        f"{closed_form}")
    return failures, oracle_s


def dk_witness(pe, goal):
    """The proof of D_k = (B1 -> ... -> Bk -> Q) -> Q that uses each
    Bi = forall x. (P(x) -> Q) -> P(x) -> Q once: h0 applied to
    \\x. \\h1. \\h2. (h1 h2) for every i."""
    hyp = goal.lhs
    args = []
    b = hyp
    while type(b).__name__ == "Impl":
        bi = b.lhs
        pq, rest = bi.body.lhs, bi.body.rhs
        args.append(pe.LamTm(bi.var, pe.LamPf(
            "h1", pq, pe.LamPf("h2", rest.lhs,
                               pe.Spine("h1", (pe.Spine("h2"),))))))
        b = b.rhs
    return pe.LamPf("h0", hyp, pe.Spine("h0", tuple(args)))


def check_verdict(kernel: Kernel, goal, verdict: bool,
                  dk: Optional[int]) -> Tuple[List[str], Optional[int], float]:
    """Failures of a decide verdict, the height of the oracle's first
    witness (None for "no"), and the oracle's time."""
    failures = []
    if dk is not None and not (
            verdict and kernel.check(dk_witness(kernel.pe, goal), goal)):
        failures.append("D_k is inhabited by the written-out witness")
    if not verdict:
        found, oracle_s = kernel.oracle(goal, NO_PROOF_HEIGHT)
        if found:
            failures.append(f"'no', but the oracle finds a proof of height "
                            f"<= {NO_PROOF_HEIGHT}")
        return failures, None, oracle_s
    oracle_s = 0.0
    for h in range(1, WITNESS_HEIGHT + 1):
        found, dt = kernel.oracle(goal, h)
        oracle_s += dt
        if found:
            if not kernel.check(found[0], goal):
                failures.append("check_proof rejects the oracle's witness")
            return failures, h, oracle_s
    failures.append(f"'yes', but the oracle finds no proof of height "
                    f"<= {WITNESS_HEIGHT}")
    return failures, None, oracle_s
