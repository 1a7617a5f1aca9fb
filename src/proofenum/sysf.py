"""Positive System F frontend: types, the translation to unary-predicate
formulas, positivity of types and System F rendering of proof-terms."""

from __future__ import annotations

from typing import Union

from .ljplus import LamPf, LamTm, ProofTerm, render_proof
from .syntax import (Atom, Forall, Formula, Impl, Record, SyntaxError_, Var,
                     is_positive, parse_formula, slot_setters)


class TVar(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _tvar_name(self, name)


class Arrow(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: "FType", rhs: "FType"):
        _arrow_lhs(self, lhs)
        _arrow_rhs(self, rhs)


class ForallT(Record):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: "FType"):
        _forall_var(self, var)
        _forall_body(self, body)


_tvar_name, = slot_setters(TVar)
_arrow_lhs, _arrow_rhs = slot_setters(Arrow)
_forall_var, _forall_body = slot_setters(ForallT)
FType = Union[TVar, Arrow, ForallT]

PRED = "eps"


def parse_sysf_type(text: str) -> FType:
    """`forall X. T`, right-associative `->`, variables as identifiers."""
    return _type_of(parse_formula(text))


def _type_of(g: Formula) -> FType:
    if isinstance(g, Atom):
        if g.args:
            raise SyntaxError_(
                f"type variable {g.pred!r} takes no arguments", 0)
        return TVar(g.pred)
    if isinstance(g, Impl):
        return Arrow(_type_of(g.lhs), _type_of(g.rhs))
    return ForallT(g.var, _type_of(g.body))


def phi(t: FType) -> Formula:
    if isinstance(t, TVar):
        return Atom(PRED, (Var(t.name),))
    if isinstance(t, Arrow):
        return Impl(phi(t.lhs), phi(t.rhs))
    return Forall(t.var, phi(t.body))


def unphi(f: Formula) -> FType:
    if isinstance(f, Atom):
        if f.pred != PRED or len(f.args) != 1 or not isinstance(f.args[0],
                                                               Var):
            raise ValueError(f"not in the image of the translation: {f!r}")
        return TVar(f.args[0].name)
    if isinstance(f, Impl):
        return Arrow(unphi(f.lhs), unphi(f.rhs))
    return ForallT(f.var, unphi(f.body))


def is_positive_type(t: FType) -> bool:
    return is_positive(phi(t))


def _up(name: str) -> str:
    return name[:1].upper() + name[1:]


def render_type(t: FType) -> str:
    if isinstance(t, TVar):
        return _up(t.name)
    if isinstance(t, Arrow):
        lhs = render_type(t.lhs)
        if isinstance(t.lhs, (Arrow, ForallT)):
            lhs = f"({lhs})"
        return f"{lhs} -> {render_type(t.rhs)}"
    return f"forall {_up(t.var)}. {render_type(t.body)}"


def render_sysf_term(t: ProofTerm) -> str:
    """Proof-terms of translated types read back as System F terms: term
    binders become (uppercase) type abstractions and proof binders keep
    their System F type annotations.  Spines need no type applications
    since instantiation happens at binding time."""
    return render_proof(t, binder=_sysf_binder)


def _sysf_binder(x: Union[LamTm, LamPf]) -> str:
    if type(x) is LamTm:
        return f"\\{_up(x.var)}. "
    return f"\\{x.pvar}:{render_type(unphi(x.annot))}. "
