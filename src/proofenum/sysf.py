"""Positive System F frontend: types, the translation to unary-predicate
formulas, positivity of types and System F rendering of proof-terms."""

from __future__ import annotations

from typing import Callable, Iterable, Union

from .ljplus import LamTm, ProofTerm, Spine, render_proof
from .syntax import (Atom, Forall, Formula, Impl, Record, SyntaxError_, Var,
                     all_names, is_positive, parse_formula, slot_setters)


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


def _namer(names: Iterable[str]) -> Callable[[str], str]:
    """_up where it keeps names apart, else str, which prints them as
    written: x and X differ only in the case of their first letter."""
    names = set(names)
    return _up if len(set(map(_up, names))) == len(names) else str


def render_type(t: FType) -> str:
    return _render_type(t, _namer(all_names(phi(t))))


def _render_type(t: FType, up: Callable[[str], str]) -> str:
    if isinstance(t, TVar):
        return up(t.name)
    if isinstance(t, Arrow):
        lhs = _render_type(t.lhs, up)
        if isinstance(t.lhs, (Arrow, ForallT)):
            lhs = f"({lhs})"
        return f"{lhs} -> {_render_type(t.rhs, up)}"
    return f"forall {up(t.var)}. {_render_type(t.body, up)}"


def render_sysf_term(t: ProofTerm) -> str:
    """Proof-terms of translated types read back as System F terms: term
    binders become type abstractions and proof binders keep their System
    F type annotations, with the type variables of the whole term named
    as render_type names them.  Spines need no type applications since
    instantiation happens at binding time."""
    names, todo = set(), [t]
    while todo:
        x = todo.pop()
        if type(x) is Spine:
            todo += x.args
        else:
            names |= {x.var} if type(x) is LamTm else all_names(x.annot)
            todo.append(x.body)
    up = _namer(names)
    return render_proof(t, binder=lambda x: (
        f"\\{up(x.var)}. " if type(x) is LamTm
        else f"\\{x.pvar}:{_render_type(unphi(x.annot), up)}. "))
