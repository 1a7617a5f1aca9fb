import copy
import dataclasses
import pickle

import pytest

from proofenum.ljplus import (IllFormed, LamPf, LamTm, LJPlusSequent,
                              NamedContext, Spine, check_proof,
                              oracle_enumerate, proof_from_json,
                              proof_to_json, render_proof, term_height)
from proofenum.syntax import parse_formula

from conftest import alpha_normalize, reference_rename_proof


def seq(hyps, goal):
    return LJPlusSequent(
        NamedContext(tuple((n, parse_formula(t)) for n, t in hyps)),
        parse_formula(goal))


def test_term_height():
    assert term_height(Spine("a")) == 1
    assert term_height(Spine("a", (Spine("b"),))) == 2
    t = LamPf("a", parse_formula("P"), Spine("a"))
    assert term_height(t) == 2
    assert term_height(LamTm("x", t)) == 3


def test_render_proof():
    t = LamPf("a", parse_formula("P -> Q"),
              LamTm("x", Spine("a", (Spine("b"),))))
    assert render_proof(t) == "\\a:P -> Q. \\x. (a b)"
    assert render_proof(Spine("a")) == "a"
    # a shared spine prints at each of its places
    z = Spine("z")
    a = Spine("s", (z, Spine("s", (z, z))))
    assert render_proof(Spine("f", (a, a))) == \
        "(f (s z (s z z)) (s z (s z z)))"


def test_render_and_height_of_deep_terms():
    # Both walk an explicit stack, so terms nested 5,000 deep are
    # printed and measured without recursion.
    n = 5000
    spine = Spine("z")
    for _ in range(n):
        spine = Spine("s", (spine,))
    assert term_height(spine) == n + 1
    assert render_proof(spine) == "(s " * n + "z" + ")" * n
    binders = Spine("h")
    for i in range(n):
        binders = LamTm("x", binders) if i % 2 else \
            LamPf("h", parse_formula("P"), binders)
    assert term_height(binders) == n + 1
    assert render_proof(binders) == "\\x. \\h:P. " * (n // 2) + "h"


def test_proof_term_identity():
    # Equality and hash are structural; the hash is cached on first use,
    # and neither repr, copies, pickles nor dataclasses.replace carry
    # the cache.  A node is built with its fields only: the cache slot
    # stays unset until the first hash.
    t = LamPf("a", parse_formula("forall x. P(x) -> Q"),
              LamTm("y", Spine("a", (Spine("b"), Spine("c")))))
    assert not hasattr(t, "_hash") and not hasattr(t.body, "_hash")
    pickled = pickle.dumps(t)
    u = proof_from_json(proof_to_json(t))
    assert u == t and u is not t
    assert hash(u) == hash(t) == hash(t)
    assert pickle.dumps(t) == pickled
    assert t._hash == hash(t)
    for v in (copy.deepcopy(t), pickle.loads(pickled),
              dataclasses.replace(t), dataclasses.replace(t, pvar="a")):
        assert not hasattr(v, "_hash")
        assert v == t and hash(v) == hash(t) and v is not t
    swapped = dataclasses.replace(t.body.body, head="b")
    assert swapped == Spine("b", t.body.body.args) != t.body.body
    assert dataclasses.replace(t, body=LamTm("y", swapped)) != t
    assert [f.name for f in dataclasses.fields(t)] == ["pvar", "annot",
                                                      "body"]
    assert "_hash" not in repr(t) and "_hash" not in repr(Spine("b"))
    assert Spine("s", (Spine("z"), Spine("z"))) == \
        Spine("s", (Spine("z"),) * 2)
    assert Spine("a") != LamTm("a", Spine("a"))


def test_json_roundtrip():
    t = LamPf("a", parse_formula("forall x. P(x) -> Q"),
              LamTm("y", Spine("a", (Spine("b"), Spine("c")))))
    assert proof_from_json(proof_to_json(t)) == t
    with pytest.raises(ValueError):
        proof_from_json({"kind": "nope"})


def test_check_proof_identity():
    s = seq([], "P -> P")
    t = LamPf("h", parse_formula("P"), Spine("h"))
    assert check_proof(s.context, t, s.goal)
    # a proof binder may not reuse a name in scope
    s2 = seq([("h", "Q")], "P -> P")
    assert not check_proof(s2.context, t, s2.goal)


def test_check_proof_wrong_annot():
    s = seq([], "P -> P")
    t = LamPf("h", parse_formula("Q"), Spine("h"))
    assert not check_proof(s.context, t, s.goal)


def test_check_proof_shape_errors():
    with pytest.raises(IllFormed):
        check_proof(NamedContext(), Spine("h"), parse_formula("P -> P"))
    with pytest.raises(IllFormed):
        check_proof(NamedContext((("h", parse_formula("P")),)),
                    LamTm("x", Spine("h")), parse_formula("P"))
    with pytest.raises(IllFormed):
        # head applied with wrong arity
        check_proof(NamedContext((("h", parse_formula("P -> Q")),)),
                    Spine("h"), parse_formula("Q"))
    with pytest.raises(IllFormed):
        # a spine at a forall goal
        check_proof(NamedContext(), Spine("h"),
                    parse_formula("forall x. P(x) -> P(x)"))


def test_check_proof_forall():
    s = seq([], "forall x. P(x) -> P(x)")
    t = LamTm("x", LamPf("h", parse_formula("P(x)"), Spine("h")))
    assert check_proof(s.context, t, s.goal)
    # alpha-variant binder is accepted
    t2 = LamTm("z", LamPf("h", parse_formula("P(z)"), Spine("h")))
    assert check_proof(s.context, t2, s.goal)
    # eigenvariable condition: binder free in the context is rejected
    s2 = seq([("g", "P(x) -> Q")], "forall x. Q")
    bad = LamTm("x", Spine("g", (Spine("h"),)))
    assert not check_proof(s2.context, bad, s2.goal)
    # a renamed binder may not be free in the body it renames
    s3 = seq([], "forall x. P(x) -> P(y)")
    bad = LamTm("y", LamPf("h", parse_formula("P(y)"), Spine("h")))
    assert not check_proof(s3.context, bad, s3.goal)


def test_check_proof_spine():
    s = seq([("f", "P -> Q"), ("a", "P")], "Q")
    assert check_proof(s.context, Spine("f", (Spine("a"),)), s.goal)
    assert not check_proof(s.context, Spine("a"), s.goal)
    assert not check_proof(
        s.context, Spine("f", (Spine("f", (Spine("a"),)),)), s.goal)
    # a head not in the context
    assert not check_proof(s.context, Spine("g"), s.goal)
    # a head whose hypothesis is not negative
    s2 = seq([("u", "forall x. Q")], "Q")
    assert not check_proof(s2.context, Spine("u"), s2.goal)


def test_rename_proof_capture():
    t = LamTm("x", Spine("a"))
    # renaming y -> x under \x must not capture
    u = LamPf("h", parse_formula("P(y)"), t)
    r = reference_rename_proof(u, {"y": "x"}, {})
    assert r.annot == parse_formula("P(x)")
    body = r.body
    assert isinstance(body, LamTm)
    assert body.body == Spine("a")

    v = LamTm("x", LamPf("h", parse_formula("P(y)"), Spine("h")))
    r2 = reference_rename_proof(v, {"y": "x"}, {})
    assert r2.var != "x"
    assert r2.body.annot == parse_formula("P(x)")


def test_alpha_normalize():
    t1 = LamPf("a", parse_formula("P"), Spine("a"))
    t2 = LamPf("b", parse_formula("P"), Spine("b"))
    assert alpha_normalize(t1) == alpha_normalize(t2)
    t3 = LamTm("x", LamPf("a", parse_formula("P(x)"), Spine("a")))
    t4 = LamTm("y", LamPf("c", parse_formula("P(y)"), Spine("c")))
    assert alpha_normalize(t3) == alpha_normalize(t4)


def test_oracle_identity():
    out = oracle_enumerate(seq([], "P -> P"), 3)
    assert len(out) == 1
    assert render_proof(out[0]) == "\\h0:P. h0"


def test_oracle_skips_hypotheses_that_are_not_negative():
    # forall x. P(x) is not negative, so no spine takes it as its head.
    s = seq([("h0", "forall x. P(x)"), ("h1", "P(a)")], "P(a)")
    assert [render_proof(t) for t in oracle_enumerate(s, 3)] == ["h1"]


def test_oracle_primes_a_taken_proof_binder_name():
    # R-> names its binder h<n> in a context of n hypotheses, primed
    # until no hypothesis has the name.
    s = seq([("h1", "P")], "Q -> P")
    assert [render_proof(t) for t in oracle_enumerate(s, 3)] == \
        ["\\h1':Q. h1"]
    s = seq([("h2'", "P"), ("h2", "P")], "Q -> P")
    assert [render_proof(t) for t in oracle_enumerate(s, 3)] == \
        ["\\h2'':Q. h2", "\\h2'':Q. h2'"]


def test_oracle_heights():
    s = seq([], "((P->Q)->Q)->Q")
    assert oracle_enumerate(s, 8) == []  # no proof exists at any height
    s2 = seq([], "((P->Q)->Q) -> (P->Q) -> Q")
    assert oracle_enumerate(s2, 5) == []
    out6 = oracle_enumerate(s2, 6)
    # the eta-long form applies h1 under a fresh abstraction
    assert [render_proof(t) for t in out6] == \
        ["\\h0:(P -> Q) -> Q. \\h1:P -> Q. (h0 \\h2:P. (h1 h2))"]
    # all outputs check
    for t in oracle_enumerate(s2, 8):
        assert check_proof(s2.context, t, s2.goal)


def test_oracle_deterministic():
    s = seq([], "((forall y. (P(y)->Q) -> (P(y)->Q)) -> Q) -> Q")
    a = [render_proof(t) for t in oracle_enumerate(s, 7)]
    b = [render_proof(t) for t in oracle_enumerate(s, 7)]
    assert a == b
    assert len(a) == 1
