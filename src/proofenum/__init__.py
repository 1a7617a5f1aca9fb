"""Enumeration of the beta-normal eta-long proofs of positive formulas
of minimal predicate logic (and positive System F types) through the
regular search graph of bracketed sequents and its scheme grammar."""

from .expand import (Duplication, Session, enumerate_terms, funcF, funcG,
                     funcH)
from .grammar import (CapExceeded, Grammar, NotPositive, Nonterminal,
                      Production, build_grammar, enumerate_schemes,
                      is_inhabited, scheme_check)
from .ljb import Bracket, Fml, LJBContext, LJBSequent, expose, normalize
from .ljplus import (IllFormed, LamPf, LamTm, LJPlusSequent, NamedContext,
                     ProofTerm, Spine, alpha_eq_sequent, check_proof,
                     oracle_enumerate, render_proof, term_height)
from .syntax import (Atom, Forall, Formula, Impl, NotNegative, Polarity,
                     SyntaxError_, alpha_eq, is_negative, is_positive,
                     parse_formula, polarity, render)
from .sysf import (Arrow, ForallT, TVar, is_positive_type, parse_sysf_type,
                   phi, render_sysf_term, unphi)

__all__ = [
    "Atom", "Arrow", "Bracket", "CapExceeded", "Duplication", "Fml", "Forall",
    "ForallT", "Formula", "Grammar", "IllFormed", "Impl", "LJBContext",
    "LJBSequent", "LJPlusSequent", "LamPf", "LamTm", "NamedContext",
    "Nonterminal", "NotNegative", "NotPositive", "Polarity", "Production",
    "ProofTerm", "Session", "Spine", "SyntaxError_", "TVar", "alpha_eq",
    "alpha_eq_sequent", "build_grammar", "check_proof", "enumerate_schemes",
    "enumerate_terms", "expose", "funcF", "funcG", "funcH", "is_inhabited",
    "is_negative", "is_positive", "is_positive_type", "normalize",
    "oracle_enumerate", "parse_formula", "parse_sysf_type", "phi", "polarity",
    "render", "render_proof", "render_sysf_term", "scheme_check",
    "term_height", "unphi",
]

__version__ = "1.0.0"
