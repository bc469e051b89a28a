"""The mask-reading paths of the kernel, held to the definitions they replace:
variable sets and operand placement read off the cached mask, the one-pass
truth table of a formula that fits one block, and the tally test."""

from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfred import formula as formula_module
from selfred.counting import GuessTriple, link_disagreeing_triples
from selfred.errors import InvalidParams, SelfReducibilityError
from selfred.formula import (
    FALSE,
    TRUE,
    And,
    Const,
    Not,
    Or,
    Var,
    brute_force_count,
    brute_force_sat,
    evaluate,
    parse,
    place_variables,
    serialize,
    variable_mask,
    variables,
)
from selfred.generate import generate_random
from selfred.oracles import (
    honest_two_enumerator,
    is_tally_string,
    simulated_sparse_coreduction,
    simulated_tally_reduction,
)
from selfred.pruning import decide_via_sparse


def trees(indices: st.SearchStrategy[int], max_leaves: int = 10) -> st.SearchStrategy:
    leaf = st.one_of(st.builds(Var, indices), st.sampled_from([TRUE, FALSE]))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: And(*cs)),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
        ),
        max_leaves=max_leaves,
    )


# Indices past the widest cached mask (1 024 bits) as well as small ones.
WIDE_INDICES = st.one_of(st.integers(1, 12), st.integers(1000, 1100))


def rename_variables(formula, mapping):
    """The renamed copy that the package's public renaming built, through
    the kernel's one-step copier: x_i becomes x_mapping[i] for every
    occurring variable."""
    return formula_module._map_vars(formula, {i: Var(mapping[i]) for i in variables(formula)})


def in_order(formula, start: int) -> dict[int, int]:
    return {v: start + i for i, v in enumerate(sorted(variables(formula)))}


class TestVariables:
    @settings(max_examples=50, deadline=None)
    @given(trees(WIDE_INDICES))
    def test_the_set_bits_of_the_mask(self, formula):
        mask = variable_mask(formula)
        assert variables(formula) == {i for i in range(mask.bit_length()) if mask >> i & 1}


class TestPlaceVariables:
    @settings(max_examples=50, deadline=None)
    @given(trees(WIDE_INDICES), st.integers(1, 40))
    def test_matches_the_renaming_in_order(self, formula, start):
        placed = place_variables(formula, start)
        renamed = rename_variables(formula, in_order(formula, start))
        assert placed == renamed
        assert serialize(placed) == serialize(renamed)

    @settings(max_examples=30, deadline=None)
    @given(trees(st.integers(1, 12)), st.integers(1, 40))
    def test_a_formula_in_place_is_returned_itself(self, formula, start):
        placed = rename_variables(formula, in_order(formula, start))
        assert place_variables(placed, start) is placed

    def test_examples(self):
        formula = parse("x2 & !x5 | x9")
        assert serialize(place_variables(formula, 1)) == "x1 & !x2 | x3"
        assert serialize(place_variables(formula, 7)) == "x7 & !x8 | x9"
        in_place = parse("x4 | x3 & x5")
        assert place_variables(in_place, 3) is in_place
        assert place_variables(TRUE, 5) is TRUE


class TestTallyString:
    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="01x"))
    def test_matches_the_letterwise_test(self, text):
        assert is_tally_string(text) == all(ch == "0" for ch in text)

    def test_empty_string(self):
        assert is_tally_string("")


def all_assignments(indices):
    """Every assignment over the given variable indices."""
    ordered = sorted(indices)
    return (dict(zip(ordered, values)) for values in product((False, True), repeat=len(ordered)))


def enumerated_count(formula) -> int:
    return sum(evaluate(formula, a) for a in all_assignments(variables(formula)))


# Block widths that put formulas of 0-8 variables on both sides of the
# single-block edge, and the real width, where all of them fit one block.
BLOCK_WIDTHS = (2, 4, formula_module._BLOCK_VARS)


class TestOnePassTruthTable:
    @pytest.mark.parametrize("width", BLOCK_WIDTHS)
    @settings(max_examples=30, deadline=None)
    @given(formula=trees(st.integers(1, 8), max_leaves=14))
    def test_matches_enumeration(self, width, formula):
        expected = enumerated_count(formula)
        with mock.patch.object(formula_module, "_BLOCK_VARS", width):
            assert brute_force_count(formula) == expected
            assert brute_force_sat(formula) == (expected > 0)

    @pytest.mark.parametrize("width", BLOCK_WIDTHS)
    @pytest.mark.parametrize("k", range(9))
    def test_every_variable_count(self, width, k):
        if k == 0:
            cases = [TRUE, FALSE]
        else:  # random ones, and a conjunction whose one model is the last assignment
            cases = [generate_random(k, 2 * k + 2, seed) for seed in range(3)]
            cases.append(And(*(Var(i) for i in range(1, k + 1)), TRUE))
        for formula in cases:
            assert variable_mask(formula).bit_count() == k
            expected = enumerated_count(formula)
            with mock.patch.object(formula_module, "_BLOCK_VARS", width):
                assert brute_force_count(formula) == expected
                assert brute_force_sat(formula) == (expected > 0)


class TestInvalidParams:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: Var(0),
            lambda: Var(True),
            lambda: Var(2.0),
            lambda: Var(10**6),
            lambda: Const(2),
            lambda: Const(None),
            lambda: And(Var(1)),
            lambda: Or(Var(1)),
            lambda: place_variables(TRUE, 0),
            lambda: place_variables(parse("x1 & x2"), 0),
            lambda: simulated_tally_reduction("no such style"),
            lambda: simulated_sparse_coreduction("no such style"),
            lambda: honest_two_enumerator("no such style"),
            lambda: decide_via_sparse(parse("x1"), simulated_sparse_coreduction("singleton"), "no such mode"),
            lambda: link_disagreeing_triples(GuessTriple(2, 1, 1), GuessTriple(2, 2, 0)),
        ],
    )
    def test_is_a_package_error(self, call):
        with pytest.raises(InvalidParams) as exc:
            call()
        assert isinstance(exc.value, SelfReducibilityError)
        assert isinstance(exc.value, ValueError)
