import ast
import importlib
import importlib.util
from pathlib import Path

import proofenum


def test_public_names_resolve():
    for name in proofenum.__all__:
        assert hasattr(proofenum, name), name


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


def test_expansion_takes_the_rule_step_from_ljb():
    # Expansion follows the rule instances ljb.rule_step decides; it
    # exposes and cleans nothing of its own.
    path = Path(proofenum.__file__).parent / "expand.py"
    tree = ast.parse(path.read_text(), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert names.isdisjoint({"expose", "normalize"})
