import random

import pytest

from proofenum.syntax import (Atom, Forall, Fn, Impl, NotNegative, Polarity,
                              SyntaxError_, Var, alpha_eq, all_names,
                              decompose_negative, ensure_distinct_binders,
                              fresh_name, is_positive, match_formula,
                              parse_formula, polarity, rename, render)

from conftest import (fold_negative, formula_size, reference_alpha_eq,
                      reference_match_formula)


def test_parse_render_roundtrip():
    texts = [
        "P",
        "P -> Q",
        "P -> Q -> R",
        "(P -> Q) -> R",
        "forall x. P(x)",
        "forall x. P(x) -> Q",
        "(forall x. P(x)) -> Q",
        "P(f(x), g(y, z)) -> Q",
        "((forall y. (P(y) -> Q) -> P(y) -> Q) -> Q) -> Q",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(render(f)) == f


def test_parse_structure():
    assert parse_formula("P") == Atom("P")
    assert parse_formula("P(x)") == Atom("P", (Var("x"),))
    assert parse_formula("P -> Q") == Impl(Atom("P"), Atom("Q"))
    assert parse_formula("P -> Q -> R") == Impl(
        Atom("P"), Impl(Atom("Q"), Atom("R")))
    assert parse_formula("forall x. P -> Q") == Forall(
        "x", Impl(Atom("P"), Atom("Q")))
    assert parse_formula("P(f(x))") == Atom("P", (Fn("f", (Var("x"),)),))


def test_parse_errors():
    for bad in ["", "P ->", "(P", "forall . P", "P)", "P Q", "-> P"]:
        with pytest.raises(SyntaxError_):
            parse_formula(bad)


def test_polarity_basics():
    assert polarity(parse_formula("P")) is Polarity.BOTH
    assert polarity(parse_formula("P -> Q")) is Polarity.BOTH
    assert polarity(parse_formula("forall x. P(x)")) is Polarity.POSITIVE_ONLY
    assert polarity(
        parse_formula("(forall x. P(x)) -> Q")) is Polarity.NEGATIVE_ONLY
    assert polarity(
        parse_formula("((forall x. P(x)) -> Q) -> Q")) is Polarity.POSITIVE_ONLY
    assert polarity(
        parse_formula("((forall x. P(x)) -> Q) -> forall y. P(y)")
    ) is Polarity.POSITIVE_ONLY


def test_polarity_neither():
    # a forall on the left of a left-nested implication is neither
    f = parse_formula("(((forall x. P(x)) -> Q) -> Q) -> Q")
    assert is_positive(parse_formula("((forall x. P(x)) -> Q) -> Q"))
    assert polarity(f) is Polarity.NEGATIVE_ONLY
    g = parse_formula("((forall x. P(x)) -> forall y. P(y)) -> Q")
    assert polarity(g) is Polarity.NEITHER


def test_decompose_negative():
    f = parse_formula("P -> Q -> R")
    args, head = decompose_negative(f)
    assert args == (Atom("P"), Atom("Q"))
    assert head == Atom("R")
    assert fold_negative(args, head) == f
    with pytest.raises(NotNegative):
        decompose_negative(parse_formula("P -> forall x. Q(x)"))
    with pytest.raises(NotNegative):
        # argument is negative-only, so the whole formula is not negative
        decompose_negative(
            parse_formula("(((P -> forall x. Q(x)) -> Q) -> R)"))


def test_free_bound_vars():
    f = parse_formula("forall x. P(x, y) -> Q(z)")
    assert f.fvs == frozenset({"y", "z"})
    assert f.bvs == frozenset({"x"})
    assert all_names(f) == frozenset({"x", "y", "z"})


def test_rename_capture_avoiding():
    f = parse_formula("forall x. P(x, y)")
    g = rename(f, {"y": "x"})
    # the binder must move out of the way of the incoming x
    assert isinstance(g, Forall)
    assert g.var != "x"
    assert alpha_eq(g, Forall("z", Atom("P", (Var("z"), Var("x")))))


def test_rename_simple():
    f = parse_formula("P(x) -> Q(y)")
    assert rename(f, {"x": "u", "y": "v"}) == parse_formula("P(u) -> Q(v)")
    assert rename(f, {}) == f


def test_fresh_name():
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1"}) == "x2"
    assert fresh_name("x3", {"x3"}) == "x1"
    assert fresh_name("x1", {"x1", "x2", "x3"}) == "x4"


def test_ensure_distinct_binders():
    f = parse_formula("(forall x. P(x)) -> (forall x. Q(x)) -> R")
    g = ensure_distinct_binders(f)
    assert len(g.bvs) == 2
    assert alpha_eq(f, g)
    assert ensure_distinct_binders(g) is g
    # free variables never get captured
    h = parse_formula("(forall x. P(x, y)) -> P(x, z)")
    k = ensure_distinct_binders(h)
    assert k.fvs == h.fvs
    assert not k.bvs & k.fvs


def test_alpha_eq():
    assert alpha_eq(parse_formula("forall x. P(x)"),
                    parse_formula("forall y. P(y)"))
    assert not alpha_eq(parse_formula("forall x. P(x)"),
                        parse_formula("forall y. P(z)"))
    assert not alpha_eq(parse_formula("P(x)"), parse_formula("P(y)"))
    assert alpha_eq(parse_formula("P(x)"), parse_formula("P(y)"),
                    env=(("x", "y"),))


def test_formula_size():
    assert formula_size(parse_formula("P")) == 1
    assert formula_size(parse_formula("P -> Q")) == 3
    assert formula_size(parse_formula("forall x. P -> Q")) == 4


def test_deep_formulas_compare_without_recursion():
    chain = " -> ".join(["P"] * 901)
    a, b = parse_formula(chain), parse_formula(chain)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_formula(" -> ".join(["P"] * 900 + ["Q"]))


def test_match_formula_on_equal_formulas():
    # Outside every binder, equal formulas map each free variable to
    # itself, whether they are one object or two.
    f = parse_formula("forall y. P(f(x, y)) -> Q(z)")
    for g in (f, parse_formula(f.key)):
        assert match_formula(f, g, {}) == {"x": "x", "z": "z"}
        sig = {"x": "x", "w": "v"}
        assert match_formula(f, g, sig) == {"x": "x", "w": "v", "z": "z"}
        assert sig == {"x": "x", "w": "v"}
        assert match_formula(f, g, sig, (("y", "y"),)) == \
            {"x": "x", "w": "v", "z": "z"}
        assert match_formula(f, g, {"x": "y"}) is None  # x sent elsewhere
        assert match_formula(f, g, {"w": "z"}) is None  # z taken as an image
    closed = parse_formula("forall x. P(x)")
    sig = {"x": "y"}
    assert match_formula(closed, closed, sig) is sig


NAMES = ("x", "y", "z", "u")
BINDERS = ((), (("x", "x"),), (("x", "y"),), (("y", "x"), ("z", "z")))


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.6:
        return Var(rng.choice(NAMES))
    return Fn(rng.choice("fg"), tuple(_random_term(rng, depth - 1)
                                      for _ in range(rng.randint(1, 2))))


def _random_formula(rng, depth):
    """A random formula over NAMES with function symbols, binders that
    may shadow, and free variables."""
    r = rng.random()
    if depth == 0 or r < 0.35:
        return Atom(rng.choice("PQ"), tuple(
            _random_term(rng, 2) for _ in range(rng.randint(0, 2))))
    if r < 0.7:
        return Impl(_random_formula(rng, depth - 1),
                    _random_formula(rng, depth - 1))
    return Forall(rng.choice(NAMES), _random_formula(rng, depth - 1))


def _partners(rng, f, perm):
    """Formulas to compare f with: f itself, a re-parsed copy, renamed
    variants, an alpha-variant and an unrelated formula."""
    v = rng.choice(sorted(f.fvs) or NAMES)
    return [f, parse_formula(f.key), rename(f, perm),
            rename(f, {v: rng.choice(NAMES)}), ensure_distinct_binders(f),
            _random_formula(rng, 4)]


def _random_perm(rng):
    return dict(zip(NAMES, rng.sample(NAMES, len(NAMES))))


def test_match_formula_agrees_with_the_walking_reference():
    rng = random.Random(20261019)
    matched = 0
    for _ in range(300):
        f = _random_formula(rng, 4)
        fvs = sorted(f.fvs)
        sigs = [{}]
        if fvs:
            v = rng.choice(fvs)
            other = rng.choice([w for w in NAMES if w != v])
            sigs += [{w: w for w in fvs if rng.random() < 0.7},
                     {v: other},   # against the identity: v sent elsewhere
                     {other: v}]   # against it: v taken as an image
        for g in _partners(rng, f, _random_perm(rng)):
            for sig in sigs:
                for bnd in BINDERS:
                    before = dict(sig)
                    got = match_formula(f, g, sig, bnd)
                    assert sig == before
                    assert got == reference_match_formula(f, g, dict(sig),
                                                          bnd), (f, g, sig)
                    matched += got is not None
    assert matched > 1000


def test_alpha_eq_agrees_with_the_pair_environment_reference():
    rng = random.Random(1019)
    equal = 0
    for _ in range(300):
        f = _random_formula(rng, 4)
        perm = _random_perm(rng)
        envs = [None, (), tuple(perm.items()),
                tuple(zip(rng.sample(NAMES, 2), rng.sample(NAMES, 2))),
                # not injective: repeated left or right names
                tuple((rng.choice(NAMES), rng.choice(NAMES))
                      for _ in range(rng.randint(2, 5)))]
        for g in _partners(rng, f, perm):
            for env in envs:
                got = alpha_eq(f, g, env)
                assert got == reference_alpha_eq(f, g, env), (f, g, env)
                equal += got
    assert equal > 1000
