"""Enumeration of the beta-normal eta-long proofs of positive formulas
of minimal predicate logic (and positive System F types) through the
regular search graph of bracketed sequents and its scheme grammar."""

from .expand import (Duplication, Session, enumerate_terms, funcF, funcG,
                     funcH)
from .grammar import (CapExceeded, Grammar, NotPositive, Production,
                      build_grammar, enumerate_schemes, is_inhabited)
from .ljb import Bracket, Fml, LJBContext, LJBSequent, expose, normalize
from .ljplus import (IllFormed, LamPf, LamTm, LJPlusSequent, NamedContext,
                     ProofTerm, Spine, check_proof, oracle_enumerate,
                     render_proof, term_height)
from .syntax import (Atom, Forall, Formula, Impl, NotNegative, SyntaxError_,
                     alpha_eq, is_negative, is_positive, parse_formula,
                     render)
from .sysf import (Arrow, ForallT, TVar, is_positive_type, parse_sysf_type,
                   phi, render_sysf_term, unphi)

__all__ = [
    "Atom", "Arrow", "Bracket", "CapExceeded", "Duplication", "Fml", "Forall",
    "ForallT", "Formula", "Grammar", "IllFormed", "Impl", "LJBContext",
    "LJBSequent", "LJPlusSequent", "LamPf", "LamTm", "NamedContext",
    "NotNegative", "NotPositive", "Production", "ProofTerm", "Session",
    "Spine", "SyntaxError_", "TVar", "alpha_eq", "build_grammar",
    "check_proof", "enumerate_schemes", "enumerate_terms", "expose", "funcF",
    "funcG", "funcH", "is_inhabited", "is_negative", "is_positive",
    "is_positive_type", "normalize", "oracle_enumerate", "parse_formula",
    "parse_sysf_type", "phi", "render", "render_proof", "render_sysf_term",
    "term_height", "unphi",
]

__version__ = "1.0.0"
