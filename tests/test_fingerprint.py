"""Output fingerprints: the grammars of D_3 and D_4 and the terms of A2
must stay byte-identical, so that nonterminal numbering, fids and
hypothesis names cannot shift unnoticed."""

import hashlib
import json

from proofenum.expand import Session, enumerate_terms
from proofenum.grammar import build_grammar, grammar_to_json
from proofenum.ljplus import render_proof
from proofenum.sysf import parse_sysf_type, phi

from conftest import SYSF_A2, d_family


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
