import ast
import copy
import dataclasses
import importlib
import importlib.util
import pickle
import re
from pathlib import Path

import pytest

import proofenum
from proofenum.expand import Session
from proofenum.grammar import build_grammar
from proofenum.ljb import (Bracket, DropStep, Fml, LJBContext, LJBSequent,
                           MergeStep, SplitStep)
from proofenum.ljplus import LamPf, LamTm, Spine
from proofenum.syntax import parse_formula
from proofenum.sysf import TVar


def test_public_names_resolve():
    for name in proofenum.__all__:
        assert hasattr(proofenum, name), name


API = [
    "Arrow", "Atom", "Bracket", "CapExceeded", "Duplication", "Fml", "Forall",
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


def test_public_api_is_the_documented_one():
    # The public names are decided, and README's API section gives the
    # reason each one stays.
    assert sorted(proofenum.__all__) == API
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    assert [name for name in API if name not in documented] == []


def test_traced_names_resolve():
    # The benchmark's traced run patches these functions by name; a
    # renamed one would make every traced run fail.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, fname in tracing.TRACED:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        assert callable(getattr(module, fname, None)), (mod, fname)


def test_package_has_no_assert_statements():
    # python -O strips assert statements; invariants raise exceptions.
    found = []
    for path in sorted(Path(proofenum.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_import_is_read():
    # An imported name that nothing reads is dead code; pyflakes would
    # say so, but the suite needs the standard library only.  The
    # package's __init__.py imports to re-export.
    root = Path(__file__).resolve().parent.parent
    found = []
    for path in sorted([*(root / "src").rglob("*.py"),
                        *(root / "tests").rglob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_only_proof_terms_are_dataclasses():
    # @dataclass generates and compiles each class's methods at import,
    # which made up a third of the package's import time; the other
    # records are syntax.Record subclasses.  Proof-terms stay
    # dataclasses, for dataclasses.replace.
    found = []
    for path in sorted(Path(proofenum.__file__).parent.glob("*.py")):
        name = "proofenum" + ("" if path.stem == "__init__"
                              else f".{path.stem}")
        module = importlib.import_module(name)
        found += [obj.__name__ for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == name]
    assert sorted(found) == ["LamPf", "LamTm", "Spine"]


def test_inits_store_through_slot_descriptors():
    # A slot descriptor's __set__ costs under half of object.__setattr__,
    # called by that name or through an alias such as _set, and
    # saturation and expansion build every node through an __init__.
    # The caches filled on first use (a proof-term's hash, a context's
    # normal mark) are set elsewhere.
    found = []
    for path in sorted(Path(proofenum.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for init in ast.walk(tree):
            if not (isinstance(init, ast.FunctionDef)
                    and init.name == "__init__"):
                continue
            for node in ast.walk(init):
                func = getattr(node, "func", None)
                if (isinstance(func, ast.Name) and func.id == "_set"
                        or isinstance(func, ast.Attribute)
                        and func.attr == "__setattr__"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_replace_builds_the_proof_term_built_directly():
    f, g = parse_formula("forall x. P(x) -> Q"), parse_formula("Q")
    spine = Spine("a", (Spine("b"),))
    pairs = [
        (dataclasses.replace(spine, head="c"), Spine("c", (Spine("b"),))),
        (dataclasses.replace(spine, args=()), Spine("a")),
        (dataclasses.replace(LamTm("x", spine), var="y"), LamTm("y", spine)),
        (dataclasses.replace(LamTm("x", spine), body=Spine("b")),
         LamTm("x", Spine("b"))),
        (dataclasses.replace(LamPf("h", f, spine), pvar="k"),
         LamPf("k", f, spine)),
        (dataclasses.replace(LamPf("h", f, spine), annot=g),
         LamPf("h", g, spine)),
        (dataclasses.replace(LamPf("h", f, spine), body=Spine("h")),
         LamPf("h", f, Spine("h"))),
    ]
    for got, want in pairs:
        assert type(got) is type(want) and got == want
        assert hash(got) == hash(want) and repr(got) == repr(want)


def _records():
    f = parse_formula("forall x. P(x) -> Q")
    inner = LJBContext((Fml(parse_formula("P(x)"), 1),))
    ctx = LJBContext((Fml(parse_formula("R"), 0),
                      Bracket(frozenset({"x"}), inner)))
    g = build_grammar(parse_formula("(P -> Q) -> P -> Q"), Session())
    return [f, ctx, g.productions[0], g, LJBSequent(ctx, f), TVar("x")]


@pytest.mark.parametrize("r", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_values(r):
    field = r._fields[0]
    with pytest.raises(AttributeError):
        setattr(r, field, getattr(r, field))
    with pytest.raises(AttributeError):
        delattr(r, field)
    with pytest.raises(AttributeError):
        r.extra = 1
    for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert twin is not r and type(twin) is type(r)
        assert twin == r and hash(twin) == hash(r) and repr(twin) == repr(r)
    fields = tuple(getattr(r, name) for name in r._fields)
    assert r != fields and fields != r
    # a record of another class with the same fields
    other = type("Other", (type(r),), {"__slots__": ()})(*fields)
    assert other._values() == fields
    assert r != other and other != r


def test_records_of_one_shape_differ_by_class():
    assert SplitStep((), 0, 1) != MergeStep((), 0, 1)
    assert DropStep((), 0) != ((), 0)
    assert repr(Fml(parse_formula("P"), 3)) == \
        "Fml(formula=Atom(pred='P', args=()), fid=3)"
    # fields are compared, not keys: occurrence ids tell items apart
    p = parse_formula("P")
    assert Fml(p, 0) != Fml(p, 1) and hash(Fml(p, 0)) == hash(Fml(p, 1))


def _names_in(module: str) -> set:
    """The names that a module of the package imports, reads or looks
    up as attributes."""
    path = Path(proofenum.__file__).parent / module
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def test_expansion_takes_the_rule_step_from_ljb():
    # Expansion follows the rule instances ljb.rule_step decides, as
    # the height-bounded grammar keeps them; it exposes, cleans and
    # takes no rule step of its own.
    assert _names_in("expand.py").isdisjoint(
        {"expose", "normalize", "rule_step"})


def test_tops_are_built_from_the_identity_and_lifted():
    # Lifting has one implementation: funcF, funcG and funcH each start
    # from _identity_top, F and G lift it through _Top.below as a
    # production's plan does, and a _Top is constructed only by _Top's
    # own methods and _identity_top (enumerate_terms starts from the
    # identity top of the empty context).
    path = Path(proofenum.__file__).parent / "expand.py"
    tree = ast.parse(path.read_text(), str(path))
    calls = {}
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            calls[top.name] = [
                node for node in ast.walk(top) if isinstance(node, ast.Call)]

    def called(name, fn):
        return any(isinstance(c.func, ast.Name) and c.func.id == fn
                   or isinstance(c.func, ast.Attribute) and c.func.attr == fn
                   for c in calls[name])

    assert {name for name in calls if called(name, "_Top")} == \
        {"_Top", "_identity_top"}
    for name in ("funcF", "funcG", "funcH", "enumerate_terms"):
        assert called(name, "_identity_top"), name
    for name in ("funcF", "funcG"):
        assert called(name, "below"), name


def test_grammar_prints_no_scheme():
    # Schemes and terms share one order: enumerate_schemes sorts by the
    # skeleton keys built with the schemes, as expansion sorts its
    # terms, and grammar.py prints no scheme to sort it.
    assert _names_in("grammar.py").isdisjoint({"render_proof", "sort_proofs"})
