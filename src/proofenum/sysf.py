"""Positive System F frontend: types, the translation to unary-predicate
formulas, positivity of types and System F rendering of proof-terms."""

from __future__ import annotations

from typing import Callable, Iterable

from .ljplus import LamTm, ProofTerm, Spine, render_proof
from .syntax import (Atom, Forall, Formula, Impl, SyntaxError_, Var,
                     all_names, is_positive, parse_formula)

# A type is the formula parse_formula reads, with no atom taking
# arguments: a type variable is an Atom, its name the Atom's pred.
TVar, Arrow, ForallT = Atom, Impl, Forall

PRED = "eps"


def parse_sysf_type(text: str) -> Formula:
    """`forall X. T`, right-associative `->`, variables as identifiers."""
    t = parse_formula(text)
    todo = [t]
    while todo:
        g = todo.pop()
        if isinstance(g, Impl):
            todo += (g.rhs, g.lhs)
        elif isinstance(g, Forall):
            todo.append(g.body)
        elif g.args:
            raise SyntaxError_(
                f"type variable {g.pred!r} takes no arguments", 0)
    return t


def phi(t: Formula) -> Formula:
    if isinstance(t, Atom):
        if t.args:
            raise ValueError(f"not a type: {t!r}")
        return Atom(PRED, (Var(t.pred),))
    if isinstance(t, Impl):
        return Impl(phi(t.lhs), phi(t.rhs))
    return Forall(t.var, phi(t.body))


def unphi(f: Formula) -> Formula:
    if isinstance(f, Atom):
        if f.pred != PRED or len(f.args) != 1 or not isinstance(f.args[0],
                                                               Var):
            raise ValueError(f"not in the image of the translation: {f!r}")
        return Atom(f.args[0].name)
    if isinstance(f, Impl):
        return Impl(unphi(f.lhs), unphi(f.rhs))
    return Forall(f.var, unphi(f.body))


def is_positive_type(t: Formula) -> bool:
    return is_positive(phi(t))


def _up(name: str) -> str:
    return name[:1].upper() + name[1:]


def _namer(names: Iterable[str]) -> Callable[[str], str]:
    """_up where it keeps names apart, else str, which prints them as
    written: x and X differ only in the case of their first letter."""
    names = set(names)
    return _up if len(set(map(_up, names))) == len(names) else str


def render_type(t: Formula) -> str:
    return _render_type(t, _namer(all_names(phi(t))))


def _render_type(t: Formula, up: Callable[[str], str]) -> str:
    if isinstance(t, Atom):
        return up(t.pred)
    if isinstance(t, Impl):
        lhs = _render_type(t.lhs, up)
        if isinstance(t.lhs, (Impl, Forall)):
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
