"""Property-based differential tests: on drawn goals, enumerate_terms
returns the oracle's terms as rendered, name for name, and each one
type-checks."""

from hypothesis import example, given, settings, strategies as st

from proofenum.expand import enumerate_terms
from proofenum.ljplus import (LJPlusSequent, NamedContext, check_proof,
                              oracle_enumerate, render_proof)
from proofenum.syntax import (Atom, Forall, Impl, Var, parse_formula,
                              split_arrows)

from conftest import fold_negative, random_type

MAX_TERMS = 300  # goals with more oracle terms are skipped


@st.composite
def atoms(draw, scope):
    """Q, or P(v) with v in scope."""
    if draw(st.booleans()):
        return Atom("Q")
    return Atom("P", (Var(draw(st.sampled_from(scope))),))


@st.composite
def negatives(draw, scope, depth, heads):
    """A1 -> ... -> Ak -> atom with positive Ai of the given depth."""
    args = draw(st.lists(positives(scope, depth - 1, heads), max_size=2)
                if depth > 0 else st.just([]))
    return fold_negative(args, draw(atoms(scope)))


@st.composite
def positives(draw, scope=("a",), depth=1, heads=()):
    """Binders and negative hypotheses in any order, then an atom, often
    the head of a hypothesis in scope (heads holds those of the
    context), so that many goals have proofs.  The binders are named x
    or y, so that they repeat: the pipeline renames them apart and
    retypes its terms onto the goal as given, and a term binder whose
    name is free in the context is renamed."""
    parts, scope, heads = [], list(scope), list(heads)
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from("xy")))
            scope.append(parts[-1])
        else:
            parts.append(draw(negatives(tuple(scope), depth, tuple(heads))))
            heads.append(split_arrows(parts[-1])[1])
    if heads and draw(st.integers(0, 3)):
        f = draw(st.sampled_from(heads))
    else:
        f = draw(atoms(tuple(scope)))
    for p in reversed(parts):
        f = Forall(p, f) if isinstance(p, str) else Impl(p, f)
    return f


# At height 7 hardly any drawn System F goal has a proof: phi spends
# heights on the type quantifiers and eps atoms.
goals = st.one_of(
    positives().map(lambda goal: (goal, 7)),
    st.randoms(use_true_random=False).map(lambda r: (random_type(r), 10)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(goals)
@example((parse_formula("forall x. P(x) -> forall x. Q -> Q"), 7))
def test_terms_equal_the_oracle_on_drawn_goals(goal_height):
    goal, height = goal_height
    seq = LJPlusSequent(NamedContext(), goal)
    want = oracle_enumerate(seq, height)
    if len(want) > MAX_TERMS:
        return
    got = enumerate_terms(goal, height)
    assert list(map(render_proof, got)) == list(map(render_proof, want))
    for t in got:
        assert check_proof(seq.context, t, goal)
