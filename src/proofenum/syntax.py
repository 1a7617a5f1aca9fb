"""First-order formulas over -> and forall: parsing, printing,
positivity and negativity, renaming and alpha-equivalence."""

from __future__ import annotations

import itertools
import re
from typing import Mapping, Optional, Tuple, Union


class SyntaxError_(Exception):
    """Malformed concrete syntax; carries the input offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class NotNegative(Exception):
    """Raised when a formula expected to be negative is not."""


# ---------------------------------------------------------------------------
# Records, terms and formulas


class Record:
    """An immutable record with slots, for the nodes and records of
    every layer but proof-terms.  Its fields are the positional
    parameters of its __init__, which is written out (a generated one
    costs several times more to define at import) and stores each in
    the slot of that name, and other values in further slots, through
    the slot's own descriptor (slot_setters), at under half the cost of
    object.__setattr__.  Nothing else writes a slot but the caches
    filled on first use.  Records of one class with equal fields are
    equal, the hash agrees, repr shows the fields, and pickling and
    copying call __init__ again on the fields."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = getattr(cls.__init__, "__code__", None)  # Node has none
        if code is not None:
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()


def key_hash(node) -> int:
    return hash(node.key)


class Node(Record):
    """A first-order term or formula.  It computes its canonical key in
    __init__: the rendered string, so `render` is a field read and
    orders by key are the printed orders.  It hashes and compares by
    key, without recursion: the string caches its hash, and the key is
    injective on the identifiers that the parser and fresh_name make.
    It also keeps its free variables; a formula its bound ones too."""

    __slots__ = ()
    __hash__ = key_hash

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.key == self.key


def slot_setters(cls) -> list:
    """The __set__ of each of cls's own slots, in __slots__ order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


_EMPTY: frozenset = frozenset()


def union_all(sets) -> frozenset:
    """Union of frozensets, reusing an operand when it covers the rest."""
    out = _EMPTY
    for s in sets:
        if not s <= out:
            out = s if out <= s else out | s
    return out


class Var(Node):
    __slots__ = ("name", "key", "fvs")

    def __init__(self, name: str):
        _var_name(self, name)
        _var_key(self, name)
        _var_fvs(self, frozenset((name,)))


class Fn(Node):
    __slots__ = ("symbol", "args", "key", "fvs")

    def __init__(self, symbol: str, args: tuple):
        _fn_symbol(self, symbol)
        _fn_args(self, args)
        _fn_key(self, f"{symbol}({', '.join(a.key for a in args)})")
        _fn_fvs(self, union_all(a.fvs for a in args))


FoTerm = Union[Var, Fn]


class Atom(Node):
    __slots__ = ("pred", "args", "key", "fvs", "bvs")

    def __init__(self, pred: str, args: tuple = ()):
        _atom_pred(self, pred)
        _atom_args(self, args)
        _atom_bvs(self, _EMPTY)
        if len(args) == 1:
            _atom_key(self, f"{pred}({args[0].key})")
            _atom_fvs(self, args[0].fvs)
        elif args:
            _atom_key(self, f"{pred}({', '.join(a.key for a in args)})")
            _atom_fvs(self, union_all(a.fvs for a in args))
        else:
            _atom_key(self, pred)
            _atom_fvs(self, _EMPTY)


class Impl(Node):
    __slots__ = ("lhs", "rhs", "key", "fvs", "bvs")

    def __init__(self, lhs: "Formula", rhs: "Formula"):
        _impl_lhs(self, lhs)
        _impl_rhs(self, rhs)
        _impl_key(self, f"{lhs.key} -> {rhs.key}" if type(lhs) is Atom
                  else f"({lhs.key}) -> {rhs.key}")
        a, b = lhs.fvs, rhs.fvs
        _impl_fvs(self, a if b <= a else b if a <= b else a | b)
        a, b = lhs.bvs, rhs.bvs
        _impl_bvs(self, a if b <= a else b if a <= b else a | b)


class Forall(Node):
    __slots__ = ("var", "body", "key", "fvs", "bvs")

    def __init__(self, var: str, body: "Formula"):
        _all_var(self, var)
        _all_body(self, body)
        _all_key(self, f"forall {var}. {body.key}")
        fvs = body.fvs
        _all_fvs(self, fvs - {var} if var in fvs else fvs)
        _all_bvs(self, body.bvs | {var})


# Each node's slot setters, bound once (see Record).
_var_name, _var_key, _var_fvs = slot_setters(Var)
_fn_symbol, _fn_args, _fn_key, _fn_fvs = slot_setters(Fn)
_atom_pred, _atom_args, _atom_key, _atom_fvs, _atom_bvs = slot_setters(Atom)
_impl_lhs, _impl_rhs, _impl_key, _impl_fvs, _impl_bvs = slot_setters(Impl)
_all_var, _all_body, _all_key, _all_fvs, _all_bvs = slot_setters(Forall)
Formula = Union[Atom, Impl, Forall]


def is_positive(f: Formula) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, Impl):
        return is_negative(f.lhs) and is_positive(f.rhs)
    return is_positive(f.body)


def is_negative(f: Formula) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, Impl):
        return is_positive(f.lhs) and is_negative(f.rhs)
    return False


def split_arrows(f: Formula):
    """Split A1 -> ... -> An -> B, B not an implication, into
    ((A1, ..., An), B)."""
    args = []
    while isinstance(f, Impl):
        args.append(f.lhs)
        f = f.rhs
    return tuple(args), f


def decompose_negative(f: Formula):
    """Split a negative formula into (positive arguments, atomic head)."""
    args, head = split_arrows(f)
    if not isinstance(head, Atom) or not all(map(is_positive, args)):
        raise NotNegative(f"not a negative formula: {render(f)}")
    return args, head


# ---------------------------------------------------------------------------
# Variables

def all_names(f: Formula) -> frozenset:
    return f.fvs | f.bvs


def subst_term(t: FoTerm, m: Mapping[str, str]) -> FoTerm:
    if isinstance(t, Var):
        return Var(m.get(t.name, t.name))
    return Fn(t.symbol, tuple(subst_term(a, m) for a in t.args))


def rename(f: Formula, m: Mapping[str, str]) -> Formula:
    """Capture-avoiding renaming of free variable occurrences; binders
    shadow the map and are alpha-renamed when they would capture an
    image.  Formulas the map does not touch are returned as they are."""
    if f.fvs.isdisjoint(m):
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(subst_term(t, m) for t in f.args))
    if isinstance(f, Impl):
        return Impl(rename(f.lhs, m), rename(f.rhs, m))
    inner = {k: v for k, v in m.items() if k != f.var}
    relevant = f.body.fvs & set(inner)
    inner = {k: v for k, v in inner.items() if k in relevant}
    if f.var in inner.values():
        nv = fresh_name(f.var,
                        set(inner) | set(inner.values()) | all_names(f.body))
        body = rename(f.body, {f.var: nv})
        return Forall(nv, rename(body, inner))
    return Forall(f.var, rename(f.body, inner))


# ---------------------------------------------------------------------------
# Printing

def render(f: Formula) -> str:
    return f.key


# ---------------------------------------------------------------------------
# Parsing

_TOKEN = re.compile(r"\s*(?:(->|[()\.,]|[A-Za-z_][A-Za-z0-9_']*)|(\S))")


def _tokenize(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        tok, bad = m.groups()
        if bad is not None:
            raise SyntaxError_(f"unexpected character {bad!r}", m.start(2))
        out.append((tok, m.start(1)))
    out.append((None, len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, tok: str):
        got, pos = self.next()
        if got != tok:
            raise SyntaxError_(f"expected {tok!r}, got {got!r}", pos)

    def ident(self) -> str:
        got, pos = self.next()
        if got is None or not got[0].isalpha() and got[0] != "_":
            raise SyntaxError_(f"expected identifier, got {got!r}", pos)
        return got

    def formula(self) -> Formula:
        if self.peek() == "forall":
            self.next()
            v = self.ident()
            self.expect(".")
            return Forall(v, self.formula())
        lhs = self.primary()
        if self.peek() == "->":
            self.next()
            return Impl(lhs, self.formula())
        return lhs

    def primary(self) -> Formula:
        tok, pos = self.toks[self.i]
        if tok == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if tok is None or tok in (")", ".", ",", "->"):
            raise SyntaxError_(f"expected formula, got {tok!r}", pos)
        self.next()
        return Atom(tok, self.args())

    def term(self) -> FoTerm:
        name = self.ident()
        args = self.args()
        return Fn(name, args) if args else Var(name)

    def args(self) -> tuple:
        """A symbol's arguments: `(t1, ..., tn)`, n >= 1, or none."""
        if self.peek() != "(":
            return ()
        self.next()
        args = [self.term()]
        while self.peek() == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return tuple(args)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    tok, pos = p.toks[p.i]
    if tok is not None:
        raise SyntaxError_(f"trailing input {tok!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Fresh names and Barendregt form

_SUFFIX = re.compile(r"[0-9]+$")


def fresh_name(base: str, avoid) -> str:
    stem = _SUFFIX.sub("", base) or base
    for n in itertools.count(1):
        cand = f"{stem}{n}"
        if cand not in avoid:
            return cand


def ensure_distinct_binders(f: Formula) -> Formula:
    """Rename binders so they are pairwise distinct and distinct from the
    free variables.  Already-conforming formulas are returned unchanged."""
    seen, todo = set(f.fvs), [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Impl):
            todo += (g.lhs, g.rhs)
        elif isinstance(g, Forall):
            if g.var in seen:
                return _rebind(f, {}, set(all_names(f)))
            seen.add(g.var)
            todo.append(g.body)
    return f


def _rebind(g: Formula, env: dict, avoid: set) -> Formula:
    if isinstance(g, Atom):
        return Atom(g.pred, tuple(subst_term(t, env) for t in g.args))
    if isinstance(g, Impl):
        return Impl(_rebind(g.lhs, env, avoid), _rebind(g.rhs, env, avoid))
    nv = fresh_name(g.var, avoid)
    avoid.add(nv)
    return Forall(nv, _rebind(g.body, {**env, g.var: nv}, avoid))


# ---------------------------------------------------------------------------
# Alpha-equivalence

def match_formula(a: Formula, b: Formula, sig: dict,
                  bnd: tuple = ()) -> Optional[dict]:
    """Extend the injective free-variable renaming sig so that sig(a) is
    alpha-equivalent to b; return the extension or None.  bnd pairs the
    binders in scope, innermost last.  sig itself is never changed.
    Both formulas are walked node by node, equal ones too."""
    if type(a) is not type(b):
        return None
    if isinstance(a, Atom):
        if a.pred != b.pred or len(a.args) != len(b.args):
            return None
        for s, t in zip(a.args, b.args):
            sig = _match_term(s, t, sig, bnd)
            if sig is None:
                return None
        return sig
    if isinstance(a, Impl):
        sig = match_formula(a.lhs, b.lhs, sig, bnd)
        if sig is None:
            return None
        return match_formula(a.rhs, b.rhs, sig, bnd)
    return match_formula(a.body, b.body, sig, bnd + ((a.var, b.var),))


def _match_term(s: FoTerm, t: FoTerm, sig: dict, bnd: tuple):
    if isinstance(s, Var) and isinstance(t, Var):
        for x, y in reversed(bnd):
            if x == s.name or y == t.name:
                return sig if (x == s.name and y == t.name) else None
        if s.name in sig:
            return sig if sig[s.name] == t.name else None
        if t.name in sig.values():
            return None
        out = dict(sig)
        out[s.name] = t.name
        return out
    if type(s) is not type(t):
        return None
    if s.symbol != t.symbol or len(s.args) != len(t.args):
        return None
    for sa, ta in zip(s.args, t.args):
        sig = _match_term(sa, ta, sig, bnd)
        if sig is None:
            return None
    return sig


def alpha_eq(f: Formula, g: Formula) -> bool:
    """Alpha-equivalence of formulas; free variables must match
    exactly."""
    sig = match_formula(f, g, {})
    return sig is not None and all(k == v for k, v in sig.items())
