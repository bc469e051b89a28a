"""The formula trees every property test draws, each call site with its own
leaves, index range and ``max_leaves``."""

from hypothesis import strategies as st

from selfred.formula import FALSE, TRUE, And, Not, Or, Var

CONSTANTS = st.sampled_from([TRUE, FALSE])


def trees(leaves: st.SearchStrategy, max_leaves: int) -> st.SearchStrategy:
    """Trees of ``Not`` and two- or three-child ``And``/``Or`` over ``leaves``."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: And(*cs)),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
        ),
        max_leaves=max_leaves,
    )


def formulas(indices: st.SearchStrategy[int], max_leaves: int) -> st.SearchStrategy:
    """``trees`` over the variables x_i, i drawn from ``indices``, and the constants."""
    return trees(st.one_of(st.builds(Var, indices), CONSTANTS), max_leaves)


SMALL_FORMULAS = formulas(st.integers(1, 4), 8)


# Walkers dispatch on exact node classes, so an instance of this is no formula.
class VarSubclass(Var):
    __slots__ = ()
