import operator
import time
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfred import oracles as oracles_module
from selfred.counting import combine3, decode3
from selfred.errors import InvalidBound, TooLarge
from selfred.formula import (
    And,
    Const,
    Not,
    Or,
    Var,
    brute_force_count,
    brute_force_sat,
    parse,
    self_reduce,
    serialize,
    serialized_length,
    variable_mask,
)
from selfred.generate import generate_corpus, generate_random
from selfred.oracles import (
    NON_TALLY_TOKEN,
    PolynomialBound,
    adversarial_selector,
    exact_model_count,
    honest_selector,
    honest_two_enumerator,
    is_tally_string,
    simulated_sparse_coreduction,
    simulated_tally_reduction,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(150, 8, seed=3)


class TestPolynomialBound:
    def test_evaluation(self):
        assert PolynomialBound((1, 1))(10) == 11
        assert PolynomialBound((2, 2))(5) == 12
        assert PolynomialBound((3, 0, 1))(4) == 19
        assert PolynomialBound(())(100) == 0

    def test_nondecreasing(self):
        p = PolynomialBound((5, 2, 1))
        values = [p(n) for n in range(20)]
        assert values == sorted(values)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(InvalidBound):
            PolynomialBound((1, -1))


class TestTallyStrings:
    def test_membership(self):
        assert is_tally_string("")
        assert is_tally_string("0000")
        assert not is_tally_string("1")
        assert not is_tally_string("010")
        assert not is_tally_string(NON_TALLY_TOKEN)


class TestSelectors:
    def test_honest_examples(self):
        f = honest_selector()
        assert f.choose(parse("x1"), parse("x1 & !x1")) == Var(1)
        assert f.choose(parse("x1 & !x1"), parse("x2")) == Var(2)
        both_unsat = f.choose(parse("x1 & !x1"), parse("x2 & !x2"))
        assert serialize(both_unsat) == "x1 & !x1"

    def test_identical_arguments_return_first(self):
        for oracle in (honest_selector(), adversarial_selector(9)):
            a = parse("x1 & !x1")
            assert oracle.choose(a, parse("x1 & !x1")) is a

    def test_forced_choice_ignores_seed(self):
        for seed in range(5):
            f = adversarial_selector(seed)
            assert f.choose(parse("x1 & !x1"), parse("x2")) == Var(2)
            assert f.choose(parse("x2"), parse("x1 & !x1")) == Var(2)

    def test_call_counter(self):
        f = honest_selector()
        assert f.call_counter == 0
        f.choose(Var(1), Var(2))
        f.choose(Var(1), Var(2))
        assert f.call_counter == 2

    def test_contract_on_corpus(self, corpus):
        for seed in (0, 1):
            f = adversarial_selector(seed)
            for a, b in zip(corpus[::2], corpus[1::2]):
                chosen = f.choose(a, b)
                assert serialize(chosen) in (serialize(a), serialize(b))
                if brute_force_sat(a) or brute_force_sat(b):
                    assert brute_force_sat(chosen)

    def test_determinism_across_instances(self, corpus):
        picks1 = [serialize(adversarial_selector(4).choose(a, b)) for a, b in zip(corpus, corpus[1:])]
        picks2 = [serialize(adversarial_selector(4).choose(a, b)) for a, b in zip(corpus, corpus[1:])]
        assert picks1 == picks2


class TestTallyReduction:
    def test_canonical_examples(self):
        g = simulated_tally_reduction("canonical")
        assert g.map(parse("x1")) == "00"
        assert g.map(parse("x1 & !x1")) == "0"

    def test_collision_rich_example(self):
        g = simulated_tally_reduction("collision_rich")
        assert g.map(parse("x1 & !x1")) == NON_TALLY_TOKEN
        assert g.map(parse("x1")) == "0"

    def test_spread_shapes(self):
        g = simulated_tally_reduction("spread")
        sat_img = g.map(parse("x1"))
        unsat_img = g.map(parse("x1 & !x1"))
        assert is_tally_string(sat_img) and len(sat_img) % 2 == 0
        assert is_tally_string(unsat_img) and len(unsat_img) % 2 == 1

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            simulated_tally_reduction("bogus")

    @pytest.mark.parametrize("style", ["canonical", "collision_rich", "spread"])
    def test_reduction_contract_on_corpus(self, style, corpus):
        # Membership in the internal tally set is equivalent to satisfiability:
        # canonical T = {00}, collision_rich T = {0}, spread T = even zeros.
        member = {
            "canonical": lambda img: img == "00",
            "collision_rich": lambda img: img == "0",
            "spread": lambda img: is_tally_string(img) and len(img) % 2 == 0,
        }[style]
        g = simulated_tally_reduction(style)
        for formula in corpus:
            assert member(g.map(formula)) == brute_force_sat(formula)


class TestSparseCoReduction:
    def test_singleton_examples(self):
        g = simulated_sparse_coreduction("singleton")
        assert g.map(parse("x1 & !x1")) == "1"
        assert g.map(parse("x1")) != "1"
        assert g.map(parse("x1")).startswith("0")

    def test_scatter_distinct_satisfiable_images(self):
        g = simulated_sparse_coreduction("scatter", seed=2)
        img_a = g.map(parse("x1"))
        img_b = g.map(parse("x2"))
        assert img_a != img_b
        assert img_a.startswith("0") and img_b.startswith("0")

    def test_declared_bounds(self):
        g = simulated_sparse_coreduction("singleton")
        assert g.q(10) == 11
        assert g.r(10) == 26
        g2 = simulated_sparse_coreduction("scatter")
        assert g2.q(10) == 22

    @pytest.mark.parametrize("style", ["singleton", "scatter"])
    def test_coreduction_contract_on_corpus(self, style, corpus):
        g = simulated_sparse_coreduction(style, seed=1)
        in_sparse_set = lambda img: img.startswith("1")
        for formula in corpus:
            image = g.map(formula)
            assert in_sparse_set(image) == (not brute_force_sat(formula))
            assert len(image) <= g.r(serialized_length(formula))
            assert g.map(formula) == image  # functional

    def test_call_counters(self):
        g = simulated_tally_reduction("canonical")
        s = simulated_sparse_coreduction("singleton")
        assert g.call_counter == 0 and s.call_counter == 0
        for _ in range(3):
            g.map(Var(1))
            s.map(Var(1))
        assert g.call_counter == 3 and s.call_counter == 3

    def test_census_bound(self, corpus):
        # The sparse set is exactly the set of images of unsatisfiable inputs;
        # count its members per length and compare against q.
        for style in ("singleton", "scatter"):
            g = simulated_sparse_coreduction(style, seed=5)
            members = {g.map(f) for f in corpus if not brute_force_sat(f)}
            for n in range(0, 40):
                census = sum(1 for s in members if len(s) <= n)
                assert census <= g.q(n)


class TestTwoEnumerator:
    def test_contains_true_count(self):
        h = honest_two_enumerator("exact_plus_offset", seed=7)
        assert 3 in h.enumerate(parse("x1 | x2"))

    def test_woeginger_zero_one(self):
        h = honest_two_enumerator("woeginger")
        assert h.enumerate(parse("x1 & !x1")) == [0, 1]
        assert h.enumerate(parse("x1 & x2")) == [0, 1]

    def test_constant_membership(self):
        for style in ("exact_plus_offset", "woeginger"):
            assert 1 in honest_two_enumerator(style).enumerate(Const(True))

    def test_output_shape(self, corpus):
        for style in ("exact_plus_offset", "woeginger"):
            h = honest_two_enumerator(style, seed=3)
            for formula in corpus:
                listed = h.enumerate(formula)
                assert 1 <= len(listed) <= 2
                assert listed == sorted(set(listed))
                assert all(v >= 0 for v in listed)
                assert brute_force_count(formula) in listed

    def test_determinism(self, corpus):
        runs = []
        for _ in range(2):
            h = honest_two_enumerator("exact_plus_offset", seed=9)
            runs.append([tuple(h.enumerate(f)) for f in corpus[:40]])
        assert runs[0] == runs[1]

    def test_call_counter(self):
        h = honest_two_enumerator("woeginger")
        h.enumerate(Var(1))
        h.enumerate(Var(1))
        assert h.call_counter == 2


class TestExactModelCount:
    def test_matches_brute_force(self, corpus):
        for formula in corpus:
            assert exact_model_count(formula) == brute_force_count(formula)

    def test_redundant_structure_lift(self):
        # Simplification drops x1 and x2 here; the count is still over vars(F).
        formula = parse("(x1 & x2) | T")
        assert exact_model_count(formula) == brute_force_count(formula) == 4

    def test_matches_brute_force_above_cutoff(self):
        # Above 18 variables the counter splits instead of tabulating.  The
        # wrappers add constants whose simplification drops all of big, none
        # of it, or only x25; the count stays over vars(F) either way.
        from selfred.generate import generate_random

        for n in range(19, 23):
            for seed in (n, n + 100):
                big = generate_random(n, 2 * n + 2, seed)
                for formula in (
                    big,
                    Or(big, Const(True)),
                    And(big, Const(True), Var(25)),
                    And(big, Or(Var(25), Const(True))),
                ):
                    assert exact_model_count(formula) == brute_force_count(formula)

    def test_budget_exhaustion(self):
        from selfred.generate import generate_random

        hard = generate_random(30, 120, seed=13)
        with pytest.raises(TooLarge):
            exact_model_count(hard, budget=3)


def literals(indices) -> st.SearchStrategy:
    return st.builds(
        lambda index, negated: Not(Var(index)) if negated else Var(index),
        st.sampled_from(indices),
        st.booleans(),
    )


def bodies(indices=(5, 6, 7, 8)) -> st.SearchStrategy:
    leaf = st.one_of(literals(indices), st.sampled_from([Const(True), Const(False)]))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: And(*cs)),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
        ),
        max_leaves=5,
    )


@st.composite
def exclusive_disjunctions(draw, selectors, extras) -> Or:
    """A decision list over the selector variables: disjunct i holds !s_j for
    every j < i and s_i (the last one only the negations), so any two
    disjuncts contradict on a unit literal.  Each disjunct may add up to two
    ``extras``, in any conjunct order."""
    width = draw(st.integers(2, len(selectors) + 1))
    disjuncts = []
    for i in range(width):
        conjuncts = [Not(Var(s)) for s in selectors[:i]]
        if i < width - 1:
            conjuncts.append(Var(selectors[i]))
        conjuncts += draw(st.lists(extras, max_size=2))
        conjuncts = draw(st.permutations(conjuncts))
        disjuncts.append(conjuncts[0] if len(conjuncts) == 1 else And(*conjuncts))
    return Or(*disjuncts)


# Extras of a disjunct: a body, a constant, or a nested exclusive disjunction.
FLAT_EXTRAS = st.one_of(bodies(), st.sampled_from([Const(True), Const(False)]))
EXCLUSIVE = exclusive_disjunctions(
    (1, 2, 3), st.one_of(FLAT_EXTRAS, exclusive_disjunctions((9, 10), FLAT_EXTRAS))
)


def structural_only():
    """Lower the truth-table cutoff so that every rule of the counter runs on
    small formulas."""
    return mock.patch.object(oracles_module, "_BIT_PARALLEL_LIMIT", 0)


class TestExclusiveDisjunctions:
    @settings(max_examples=300, deadline=None)
    @given(EXCLUSIVE)
    def test_count_matches_brute_force(self, formula):
        assert oracles_module._pairwise_contradictory(formula.children)
        with structural_only():
            assert exact_model_count(formula) == brute_force_count(formula)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.one_of(literals((1, 2, 3)), FLAT_EXTRAS), min_size=1, max_size=3),
            min_size=2,
            max_size=4,
        )
    )
    def test_contradictory_children_never_share_a_model(self, conjunct_lists):
        formula = Or(*(cs[0] if len(cs) == 1 else And(*cs) for cs in conjunct_lists))
        if oracles_module._pairwise_contradictory(formula.children):
            for a, b in combinations(formula.children, 2):
                assert not brute_force_sat(And(a, b))
        with structural_only():
            assert exact_model_count(formula) == brute_force_count(formula)

    @pytest.mark.parametrize(
        "text",
        [
            "(x1 & x2) | (x1 & x3)",
            "x1 & x2 | !x1 & x3 | x1 & x4",
            "(x1 | x2) & x3 | (!x1 | x4) & x5",
            "x1 & x2 | !(x1 | x4) & x3",
            "!(x1 & x2) | !x1 & x3",
            "x1 | x2 & !x3",
        ],
    )
    def test_look_alikes_are_not_exclusive(self, text):
        formula = parse(text)
        assert not oracles_module._pairwise_contradictory(formula.children)
        with structural_only():
            assert exact_model_count(formula) == brute_force_count(formula)

    def test_literals_take_no_truth_table(self, monkeypatch):
        tabulated = []
        reference = oracles_module.brute_force_count

        def recorded_table(formula, *args, **kwargs):
            tabulated.append(serialize(formula))
            return reference(formula, *args, **kwargs)

        monkeypatch.setattr(oracles_module, "brute_force_count", recorded_table)
        cube = And(*(Var(i) for i in range(2, 21)), *(Not(Var(i)) for i in range(21, 41)))
        assert exact_model_count(cube) == 1
        # x1 & cube | !x1 & cube over 40 variables: two exclusive cubes.
        assert exact_model_count(Or(And(Var(1), cube), And(Not(Var(1)), cube))) == 2
        assert tabulated == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10**6))
    def test_combined_formulas(self, n, seed):
        formula = generate_random(n, 2 * n + 2, seed)
        true_child, false_child, _ = self_reduce(formula)
        assume(not isinstance(true_child, Const) and not isinstance(false_child, Const))
        combined = combine3(formula, true_child, false_child).outer.combined
        expected = brute_force_count(combined, limit=variable_mask(combined).bit_count())
        assert exact_model_count(combined) == expected
        with structural_only():
            assert exact_model_count(combined) == expected

    @pytest.mark.parametrize("n", range(14, 21))
    def test_combined_formula_work_bound(self, n, monkeypatch):
        # The 2-enumerator's query H = (F & z) | (!z & x1..xn & G & z') has
        # 3n+2 or so variables, but its disjunctions are exclusive on the
        # switch literals, so it costs about what its three operands cost
        # counted alone.  The slack covers an operand that the conjoined
        # fresh literals lift over the truth-table cutoff, which then splits
        # into its components.  Shannon expansion of H exceeds this budget.
        reference = oracles_module.brute_force_count
        tables = [0]

        def counted_table(*args, **kwargs):
            tables[0] += 1
            return reference(*args, **kwargs)

        monkeypatch.setattr(oracles_module, "brute_force_count", counted_table)

        def count_and_tables(formula, budget=oracles_module._DEFAULT_COUNT_BUDGET):
            tables[0] = 0
            return exact_model_count(formula, budget), tables[0]

        for seed in range(5):
            formula = generate_random(n, 2 * n + 2, seed)
            true_child, false_child, _ = self_reduce(formula)
            if isinstance(true_child, Const) or isinstance(false_child, Const):
                continue
            recipe = combine3(formula, true_child, false_child)
            combined_count, combined_tables = count_and_tables(recipe.outer.combined, budget=64)
            operand_counts, operand_tables = [], 0
            for operand in (formula, true_child, false_child):
                count, used = count_and_tables(operand)
                assert count == reference(operand)
                operand_counts.append(count)
                operand_tables += used
            assert decode3(recipe, combined_count) == (*operand_counts, True)
            assert combined_tables <= operand_tables + 2


def disjoint_groups_by_rebuild(children):
    """The component split as it was first written: the list of groups is
    rebuilt for every conjunct, quadratic in the conjuncts."""
    groups = []
    for child in children:
        child_mask = variable_mask(child)
        merged_mask, merged_children = child_mask, [child]
        kept = []
        for group_mask, group_children in groups:
            if group_mask & child_mask:
                merged_mask |= group_mask
                merged_children = group_children + merged_children
            else:
                kept.append((group_mask, group_children))
        kept.append((merged_mask, merged_children))
        groups = kept
    return [children_ for _, children_ in groups]


def most_frequent_by_walk(formula) -> int:
    """Most frequent variable counted on the tree, ties to the highest index."""
    counts = Counter()
    stack = [formula]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            counts[node.index] += 1
        elif type(node) is Not:
            stack.append(node.child)
        elif type(node) in (And, Or):
            stack.extend(node.children)
    return max(counts, key=lambda index: (counts[index], index))


class TestComponentSplit:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(bodies(indices=(1, 2, 3, 4, 5, 6)), max_size=8))
    def test_same_groups_as_the_rebuilding_split(self, children):
        groups = oracles_module._disjoint_groups(tuple(children))
        expected = disjoint_groups_by_rebuild(children)
        assert groups == expected
        assert all(map(operator.is_, sum(groups, []), sum(expected, [])))

    def test_many_disjoint_literals_in_linear_time(self):
        cube = And(*[Var(i) if i % 2 else Not(Var(i)) for i in range(1, 5001)])
        start = time.perf_counter()
        assert exact_model_count(cube) == 1
        assert time.perf_counter() - start < 1


class TestMostFrequentVariable:
    def check(self, formula):
        text = serialize(formula)
        assert oracles_module._most_frequent_variable(text) == most_frequent_by_walk(formula)

    def test_random_formulas(self):
        for n in (3, 9, 12, 25):
            for seed in range(10):
                self.check(generate_random(n, 2 * n + 2, seed))

    def test_combined_queries(self):
        for seed in range(10):
            formula = generate_random(12, 26, seed)
            true_child, false_child, _ = self_reduce(formula)
            if isinstance(true_child, Const) or isinstance(false_child, Const):
                continue
            self.check(combine3(formula, true_child, false_child).outer.combined)

    @settings(max_examples=300, deadline=None)
    @given(bodies(indices=(1, 2, 12, 21, 121, 211)))
    def test_unsimplified_formulas_with_long_indices(self, formula):
        assume(variable_mask(formula))
        self.check(formula)
