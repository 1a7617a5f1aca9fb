"""Output fingerprints: the grammars of D_3 and D_4 and the terms of A2
and of the deep enumeration inputs must stay byte-identical, so that
nonterminal numbering, fids and hypothesis names cannot shift
unnoticed."""

import hashlib
import json

import pytest

from proofenum.expand import Session, enumerate_terms
from proofenum.grammar import build_grammar, grammar_to_json
from proofenum.ljplus import render_proof
from proofenum.sysf import parse_sysf_type, phi

from conftest import SYSF_A2, alpha_set, d_family, oracle_set


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


def test_a2_terms_fingerprint():
    terms = enumerate_terms(phi(parse_sysf_type(SYSF_A2)), 16)
    assert len(terms) == 14
    assert fingerprint("\n".join(map(render_proof, terms))) == \
        "1e98fbc83374551f"


CHURCH = "forall X. X -> (X->X) -> X"
TWO_SUCC = "forall X. (X->X) -> (X->X) -> X -> X"


@pytest.mark.parametrize("goal, height, count, digest", [
    (phi(parse_sysf_type(CHURCH)), 40, 37, "f30ee6b0b9afd566"),
    (phi(parse_sysf_type(TWO_SUCC)), 14, 1023, "cd1588e35320e4bb"),
    (d_family(2), 13, 25, "680fadd92f45ef74"),
    (d_family(3), 11, 729, "5425cf231ba4682f"),
], ids=["church@40", "two-succ@14", "D_2@13", "D_3@11"])
def test_deep_terms_fingerprint(goal, height, count, digest):
    terms = enumerate_terms(goal, height)
    assert len(terms) == count
    assert fingerprint("\n".join(map(render_proof, terms))) == digest
    assert alpha_set(terms) == oracle_set(goal, height)
