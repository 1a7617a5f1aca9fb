"""Output fingerprints: the grammars of D_3, D_4 and D_5, the terms of A2 and
of the deep enumeration inputs, and funcH's terms for the corpus schemes
must stay byte-identical, so that nonterminal numbering, fids and
hypothesis names cannot shift unnoticed.  The terms must also equal the
oracle's as rendered lists, binder names included."""

import hashlib
import json

import pytest

from proofenum.expand import Session, enumerate_terms, funcH
from proofenum.grammar import build_grammar, enumerate_schemes, grammar_to_json
from proofenum.ljb import LJBContext, LJBSequent
from proofenum.ljplus import (LJPlusSequent, NamedContext, oracle_enumerate,
                              render_proof, term_height)
from proofenum.syntax import ensure_distinct_binders, parse_formula
from proofenum.sysf import parse_sysf_type, phi

from conftest import FIG_FORMULA, SYSF_A1, SYSF_A2, corpus, d_family


def fingerprint(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grammar_fingerprint(k):
    g = build_grammar(d_family(k), Session())
    return len(g.nonterminals), fingerprint(
        json.dumps(grammar_to_json(g), sort_keys=True))


def test_d3_grammar_fingerprint():
    assert grammar_fingerprint(3) == (271, "47070cfa13694730")


def test_d4_grammar_fingerprint():
    assert grammar_fingerprint(4) == (1054, "cc90f7c176be3886")


def test_d5_grammar_fingerprint():
    assert grammar_fingerprint(5) == (3889, "bed5b106f0102896")


def test_a2_terms_fingerprint():
    terms = enumerate_terms(phi(parse_sysf_type(SYSF_A2)), 16)
    assert len(terms) == 14
    assert fingerprint("\n".join(map(render_proof, terms))) == \
        "1e98fbc83374551f"


CHURCH = "forall X. X -> (X->X) -> X"
TWO_SUCC = "forall X. (X->X) -> (X->X) -> X -> X"
BINDER_CLASH = "((forall x. Q(x)) -> P) -> forall x. P(x) -> P(x)"
# Its deepest term binds x, x1, x2 and x3: the goal's x, made fresh
# where the context already has it free.
NESTED_CLASH = "Q -> ((forall x. P(x) -> forall x. R(x) -> Q) -> Q) -> Q"


@pytest.mark.parametrize("goal, height, count, digest", [
    (phi(parse_sysf_type(CHURCH)), 40, 37, "f30ee6b0b9afd566"),
    (phi(parse_sysf_type(TWO_SUCC)), 14, 1023, "cd1588e35320e4bb"),
    (d_family(2), 13, 25, "680fadd92f45ef74"),
    (d_family(3), 11, 729, "5425cf231ba4682f"),
    (phi(parse_sysf_type(SYSF_A2)), 24, 91, "ae7690bf399262a5"),
    (phi(parse_sysf_type(SYSF_A1)), 20, 10, "e4b2c9afdba0e9f1"),
    (parse_formula(FIG_FORMULA), 20, 10, "771fa7da1b466eb6"),
    (parse_formula(BINDER_CLASH), 5, 1, "3fa300c6c6d914a6"),
    (parse_formula(NESTED_CLASH), 13, 3, "aee8f872242b7c68"),
], ids=["church@40", "two-succ@14", "D_2@13", "D_3@11", "A2@24", "A1@20",
        "fig@20", "binder-clash@5", "nested-clash@13"])
def test_deep_terms_fingerprint(goal, height, count, digest):
    terms = enumerate_terms(goal, height)
    assert len(terms) == count
    rendered = list(map(render_proof, terms))
    assert fingerprint("\n".join(rendered)) == digest
    # Not only up to alpha: the binders are named by the oracle's rule.
    seq = LJPlusSequent(NamedContext(), goal)
    assert rendered == list(map(render_proof, oracle_enumerate(seq, height)))


def _funcH(session, pi, goal):
    return funcH(session, pi, LJBSequent(LJBContext(), goal))


def _funcH_outputs(goal, height):
    """Each scheme of goal up to height with funcH's terms for it."""
    session = Session()
    grammar = build_grammar(goal, session, max_height=height)
    return [(pi, _funcH(session, pi, goal))
            for pi in enumerate_schemes(grammar, height)]


def _outputs_fingerprint(outputs):
    return fingerprint("\n".join(
        "\n".join(map(render_proof, (pi, *terms))) for pi, terms in outputs))


def test_funcH_corpus_fingerprint():
    outputs = [out for goal in corpus()
               for out in _funcH_outputs(ensure_distinct_binders(goal), 9)]
    assert len(outputs) == 19
    assert sum(len(terms) for _, terms in outputs) == 23
    assert _outputs_fingerprint(outputs) == "1b1c3e3b74bf02c3"


def test_funcH_figure_fingerprint():
    goal = ensure_distinct_binders(parse_formula(FIG_FORMULA))
    outputs = [(pi, terms) for pi, terms in _funcH_outputs(goal, 11)
               if term_height(pi) == 11]
    assert len(outputs) == 1
    assert len(outputs[0][1]) == 2
    assert _outputs_fingerprint(outputs) == "6974ae1a1ca3ad25"
