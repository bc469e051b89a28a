import re
import time
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfred import oracles as oracles_module
from selfred.counting import combine, count_via_enumerator, decode_all
from selfred.errors import InvalidBound, OracleContractViolation, TooLarge
from selfred.formula import (
    And,
    Const,
    Not,
    Or,
    Var,
    _most_frequent_variable,
    brute_force_count,
    brute_force_sat,
    parse,
    self_reduce,
    serialize,
    variable_mask,
)
from selfred.generate import generate_corpus, generate_random
from selfred.oracles import (
    ENUMERATOR_STYLES,
    NON_TALLY_TOKEN,
    SPARSE_STYLES,
    TALLY_STYLES,
    PolynomialBound,
    SelectorOracle,
    SparseCoReductionOracle,
    TallyReductionOracle,
    TwoEnumeratorOracle,
    adversarial_selector,
    exact_model_count,
    find_model,
    honest_selector,
    honest_two_enumerator,
    is_tally_string,
    simulated_sparse_coreduction,
    simulated_tally_reduction,
)
from selfred.pruning import decide_via_sparse, decide_via_tally
from selfred.selector import decide_via_selector

from references import evaluated, reference_variables
from strategies import CONSTANTS, trees


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

    @pytest.mark.parametrize("coefficient", [0.5, 2.0, "1", True, False, None])
    def test_non_int_coefficient_rejected(self, coefficient):
        # int() used to truncate 0.5 to 0 and read "1" as 1; a bound that
        # is not the one declared is refused, not rounded.
        with pytest.raises(InvalidBound):
            PolynomialBound((1, coefficient))


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


class TestSelectorContract:
    """``choose`` returns one of its arguments itself, or raises."""

    @pytest.mark.parametrize("answer", [True, False])
    @pytest.mark.parametrize("b_text", ["x2 | x3", "x1 & !x1"])
    def test_answer_serializes_nothing(self, monkeypatch, b_text, answer):
        calls = []
        monkeypatch.setattr(oracles_module, "serialize", lambda f: calls.append(f) or serialize(f))
        a, b = parse("x1 | x2"), parse(b_text)
        oracle = SelectorOracle(lambda a, b: answer)
        assert oracle.choose(a, b) is (a if answer else b)
        assert calls == []
        assert oracle.call_counter == 1

    def test_node_type_checked_before_identity(self):
        oracle = SelectorOracle(lambda a, b: a)
        with pytest.raises(OracleContractViolation, match="type str"):
            oracle.choose("x1", parse("x2"))


class TestOneWrappedMethodPerQuery:
    """Each oracle query passes exactly one of the four query methods, so a
    wrapper set on each class sees every query once."""

    METHODS = (
        (SelectorOracle, "choose"),
        (TallyReductionOracle, "map"),
        (SparseCoReductionOracle, "map"),
        (TwoEnumeratorOracle, "enumerate"),
    )

    def test_wrapper_counts_equal_call_counters(self, monkeypatch, corpus):
        seen = Counter()

        def counting(cls, method):
            original = getattr(cls, method)

            def wrapper(self, *args):
                seen[cls] += 1
                return original(self, *args)

            return wrapper

        for cls, method in self.METHODS:
            monkeypatch.setattr(cls, method, counting(cls, method))
        for cls, _ in self.METHODS:
            assert cls.__bases__ == (oracles_module._CountedOracle,)
        oracles = {
            SelectorOracle: adversarial_selector(1),
            TallyReductionOracle: simulated_tally_reduction("spread"),
            SparseCoReductionOracle: simulated_sparse_coreduction("scatter", seed=2),
            TwoEnumeratorOracle: honest_two_enumerator("exact_plus_offset", seed=3),
        }
        for formula in corpus[:40]:
            decide_via_selector(formula, oracles[SelectorOracle])
            decide_via_tally(formula, oracles[TallyReductionOracle])
            decide_via_sparse(formula, oracles[SparseCoReductionOracle], "capped_continue")
            count_via_enumerator(formula, oracles[TwoEnumeratorOracle])
        for cls, oracle in oracles.items():
            assert oracle.call_counter > 0
            assert seen[cls] == oracle.call_counter, cls.__name__


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

    @pytest.mark.parametrize("style", TALLY_STYLES)
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

    @pytest.mark.parametrize("style", SPARSE_STYLES)
    def test_coreduction_contract_on_corpus(self, style, corpus):
        g = simulated_sparse_coreduction(style, seed=1)
        in_sparse_set = lambda img: img.startswith("1")
        for formula in corpus:
            image = g.map(formula)
            assert in_sparse_set(image) == (not brute_force_sat(formula))
            assert len(image) <= g.r(len(serialize(formula)))
            assert g.map(formula) == image  # functional

    @pytest.mark.parametrize("bound", [lambda n: 1, (1,)], ids=["function", "tuple"])
    def test_bounds_must_be_polynomial_bounds(self, bound):
        # Refused when built, so decide_via_sparse never reads coefficients
        # off something that has none.
        one = PolynomialBound((1,))
        for q, r in ((bound, one), (one, bound)):
            with pytest.raises(InvalidBound, match=re.escape(repr(bound))):
                SparseCoReductionOracle(lambda f: "0", q, r)

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
        for style in SPARSE_STYLES:
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
        for style in ENUMERATOR_STYLES:
            assert 1 in honest_two_enumerator(style).enumerate(Const(True))

    def test_output_shape(self, corpus):
        for style in ENUMERATOR_STYLES:
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

    @pytest.mark.parametrize("style", ENUMERATOR_STYLES)
    def test_each_query_is_serialized_once(self, monkeypatch, style):
        calls = []
        monkeypatch.setattr(oracles_module, "serialize", lambda f: calls.append(f) or serialize(f))
        h = honest_two_enumerator(style, seed=5)
        formulas = [generate_random(n, 2 * n + 2, n) for n in (3, 9, 18)]
        for formula in formulas * 2:
            h.enumerate(formula)
        assert calls == formulas * 2

    def test_answers_are_fresh_lists(self):
        h = honest_two_enumerator("exact_plus_offset", seed=7)
        first = h.enumerate(parse("x1 | x2"))
        expected = list(first)
        first.append(99)
        second = h.enumerate(parse("x1 | x2"))
        assert second == expected
        assert second is not first


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
    return trees(st.one_of(literals(indices), CONSTANTS), 5)


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
FLAT_EXTRAS = st.one_of(bodies(), CONSTANTS)
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
        combined = combine(formula, true_child, false_child).combined
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
            recipe = combine(formula, true_child, false_child)
            combined_count, combined_tables = count_and_tables(recipe.combined, budget=64)
            operand_counts, operand_tables = [], 0
            for operand in (formula, true_child, false_child):
                count, used = count_and_tables(operand)
                assert count == reference(operand)
                operand_counts.append(count)
                operand_tables += used
            assert decode_all(recipe, combined_count) == (tuple(operand_counts), True)
            assert combined_tables <= operand_tables + 2


def components_by_search(children) -> list[list[int]]:
    """Reference component split: conjunct positions grouped by a search that
    links two conjuncts holding a common variable, each group in conjunct
    order and the groups in the order of their first conjunct."""
    holders = {}  # variable -> positions of the conjuncts that hold it
    for position, child in enumerate(children):
        for index in reference_variables(child):
            holders.setdefault(index, []).append(position)
    seen, groups = set(), []
    for start in range(len(children)):
        if start in seen:
            continue
        seen.add(start)
        group, frontier = [], [start]
        while frontier:
            position = frontier.pop()
            group.append(position)
            for index in reference_variables(children[position]):
                for other in holders.pop(index, ()):
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
        groups.append(sorted(group))
    return groups


def check_components(children):
    groups = oracles_module._disjoint_groups(tuple(children))
    expected = [[children[i] for i in group] for group in components_by_search(children)]
    # The same partition, as multisets of conjunct identities ...
    assert sorted(sorted(map(id, group)) for group in groups) == sorted(
        sorted(map(id, group)) for group in expected
    )
    # ... with each group in conjunct order, the groups by their first conjunct.
    assert [list(map(id, group)) for group in groups] == [list(map(id, group)) for group in expected]


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


@st.composite
def conjunct_lists(draw):
    """Conjunct lists over three sharing patterns: no variable shared, each
    linking variable held by exactly two conjuncts, or drawn at random;
    with literals repeated (x1 & x1), constants, and indices raised by 0
    or 3000."""
    pattern = draw(st.sampled_from(["disjoint", "pairs", "random"]))
    offset = draw(st.sampled_from([0, 3000]))
    count = draw(st.integers(1, 10))
    rng = draw(st.randoms(use_true_random=False))
    if pattern == "disjoint":
        held = [range(8 * i + 1, 8 * i + 2 + rng.randrange(3)) for i in range(count)]
    elif pattern == "pairs":
        # Conjunct i holds a variable of its own and the links to its neighbours.
        order = rng.sample(range(count), count)
        held = [[100 + i] + [v for v in (i, i + 1) if 0 < v < count] for i in order]
    else:
        held = [rng.choices(range(1, 13), k=rng.randint(1, 3)) for _ in range(count)]
    constants = [Const(True), Const(False)]
    children = []
    for indices in held:
        leaves = [Var(i + offset) if rng.random() < 0.6 else Not(Var(i + offset)) for i in indices]
        if rng.random() < 0.3:
            leaves.append(rng.choice(constants))
        children.append(leaves[0] if len(leaves) == 1 else rng.choice([And, Or])(*leaves))
    for _ in range(rng.randrange(4)):  # the same literal again, or an equal one
        repeated = rng.choice(children)
        if type(repeated) in (Var, Not):
            again = repeated if rng.random() < 0.5 else parse(serialize(repeated))
            children.insert(rng.randrange(len(children) + 1), again)
    if rng.random() < 0.3:
        children.insert(rng.randrange(len(children) + 1), rng.choice(constants))
    return children


class TestComponentSplit:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.lists(bodies(indices=tuple(range(1, 10))), max_size=12), conjunct_lists()))
    def test_groups_in_first_conjunct_order(self, children):
        check_components(children)

    def test_a_conjunct_joining_two_groups_keeps_conjunct_order(self):
        children = [Var(1), Var(2), And(Var(1), Var(2))]
        assert oracles_module._disjoint_groups(tuple(children)) == [children]

    def test_many_disjoint_literals_in_linear_time(self):
        cube = And(*[Var(i) if i % 2 else Not(Var(i)) for i in range(1, 5001)])
        start = time.perf_counter()
        assert exact_model_count(cube) == 1
        assert time.perf_counter() - start < 1


class TestMostFrequentVariable:
    def check(self, formula):
        assert _most_frequent_variable(formula) == most_frequent_by_walk(formula)

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
            self.check(combine(formula, true_child, false_child).combined)

    @settings(max_examples=300, deadline=None)
    @given(bodies(indices=(1, 2, 12, 21, 121, 211)))
    def test_unsimplified_formulas_with_long_indices(self, formula):
        assume(variable_mask(formula))
        self.check(formula)


class TestUnionFindSplit:
    def test_chains_and_high_indices(self):
        chain = [Or(Var(i), Var(i + 1)) for i in range(3000, 1, -1)]
        for children in (chain, chain[::-1], [Var(5000), Not(Var(5000)), Var(1), Var(2000)]):
            check_components(children)

    def test_conjuncts_meeting_earlier_groups_in_linear_time(self):
        n = 5000
        formula = And(*(Var(i) for i in range(1, n + 1)), *(Not(Var(i)) for i in range(1, n + 1)))
        start = time.perf_counter()
        assert exact_model_count(formula) == 0
        assert time.perf_counter() - start < 1


class TestSharedVariableGroups:
    def test_no_shared_variable_gives_one_group_per_conjunct(self):
        children = (Var(1), Or(Var(2), Not(Var(3))), Const(True), Not(Var(5000)))
        assert oracles_module._disjoint_groups(children) == [[child] for child in children]

    def test_a_repeated_literal_joins_its_copy(self):
        x1 = Var(1)
        children = (x1, Var(2), x1, Not(Var(1)), Var(3))
        assert oracles_module._disjoint_groups(children) == [[x1, x1, Not(Var(1))], [Var(2)], [Var(3)]]


def exact_counts_only(monkeypatch) -> list[bool]:
    """Make every decision oracle count exactly, as they did before they
    searched for models: no kept model answers, and each search is an exact
    count.  Returns, for every search, that it was counted exactly."""
    asked = []

    def exact(formula, budget=oracles_module._DEFAULT_COUNT_BUDGET):
        asked.append(True)
        return {} if exact_model_count(formula, budget) > 0 else None

    monkeypatch.setattr(oracles_module, "find_model", exact)
    monkeypatch.setattr(oracles_module.ModelStore, "holds", lambda store, formula: False)
    return asked


def refuse_exact_counts(monkeypatch):
    """Make exact counting raise, so that only model searches remain."""

    def refused(formula, *args, **kwargs):
        raise AssertionError("exact count asked for")

    monkeypatch.setattr(oracles_module, "exact_model_count", refused)


# Disjunctions whose children share models, and conjunctions of several
# variable-disjoint groups.
OVERLAPPING_OR = st.lists(bodies(indices=(1, 2, 3, 4)), min_size=2, max_size=4).map(lambda cs: Or(*cs))
GROUPED_AND = st.lists(
    st.one_of(bodies(indices=(1, 2)), bodies(indices=(3, 4)), bodies(indices=(5, 6)), OVERLAPPING_OR),
    min_size=2,
    max_size=4,
).map(lambda cs: And(*cs))


class TestDecisionOraclesSearchForModels:
    def test_tables_stop_at_the_first_model(self, monkeypatch):
        asked = []
        monkeypatch.setattr(oracles_module, "brute_force_count", lambda *a, **k: asked.append(a))
        assert find_model(generate_random(12, 26, 1)) is not None
        with structural_only():
            assert find_model(parse("x1 & x2 | x1 & x3 | !x2")) is not None
        assert asked == []

    def test_decision_oracles_never_count_exactly(self, monkeypatch, corpus):
        refuse_exact_counts(monkeypatch)
        for formula in corpus[:60]:
            sat = brute_force_sat(formula)
            for selector in (honest_selector(), adversarial_selector(3)):
                assert decide_via_selector(formula, selector)[0] == sat
            for style in TALLY_STYLES:
                assert decide_via_tally(formula, simulated_tally_reduction(style))[0] == sat
            for style in SPARSE_STYLES:
                assert decide_via_sparse(formula, simulated_sparse_coreduction(style))[0] == sat

    def test_the_enumerator_still_counts_exactly(self, monkeypatch, corpus):
        tables = []
        reference = oracles_module.first_model
        monkeypatch.setattr(
            oracles_module, "first_model", lambda *a, **k: tables.append(a) or reference(*a, **k)
        )
        for formula in corpus[:60]:
            for style in ENUMERATOR_STYLES:
                oracle = honest_two_enumerator(style)
                assert brute_force_count(formula) in oracle.enumerate(formula)
                assert count_via_enumerator(formula, oracle)[0] == brute_force_count(formula)
        assert tables == []

    @pytest.mark.parametrize("n", [32, 40])
    def test_same_outputs_as_exact_counting_oracles(self, tmp_path, monkeypatch, n):
        # Brute force cannot check answers at this size; oracles that count
        # exactly answer the same, so every byte written must match.
        from selfred.cli import ExperimentConfig, run

        formulas = [generate_random(n, 2 * n + 2, seed) for seed in range(3)]

        def outputs(name):
            written = {}
            for algorithm, style in (
                ("selector", "adversarial"),
                ("tally", "spread"),
                ("sparse", "scatter"),
            ):
                trace, summary = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
                run(
                    ExperimentConfig(
                        algorithm=algorithm,
                        formulas=formulas,
                        oracle_style=style,
                        seed=5,
                        verify=False,
                        trace_path=str(trace),
                        summary_path=str(summary),
                    )
                )
                written[algorithm] = (trace.read_bytes(), summary.read_bytes())
            return written

        stopping = outputs("stop")
        asked = exact_counts_only(monkeypatch)
        assert outputs("exact") == stopping
        assert asked and all(asked)  # each search was counted exactly


def check_model(formula, model, satisfiable):
    """The search found a model exactly when the formula has one, and every
    extension of the model satisfies the formula: with the variables it
    leaves out all False, or all True."""
    assert (model is not None) == satisfiable
    if model is not None:
        occurring = reference_variables(formula)
        assert set(model) <= occurring
        for rest in (False, True):
            assert evaluated(formula, {index: model.get(index, rest) for index in occurring})


@st.composite
def random_formulas(draw, max_vars):
    """A generated formula of up to ``max_vars`` variables, its
    contradiction with its own negation, or its negation."""
    n = draw(st.integers(1, max_vars))
    formula = generate_random(n, draw(st.integers(n, 3 * n + 2)), draw(st.integers(0, 10**6)))
    return draw(st.sampled_from([formula, And(formula, Not(formula)), Not(formula)]))


class TestFindModel:
    @settings(max_examples=60, deadline=None)
    @given(random_formulas(24))
    def test_found_exactly_when_satisfiable_up_to_24_variables(self, formula):
        check_model(formula, find_model(formula), brute_force_count(formula, limit=24) > 0)

    def test_found_exactly_when_satisfiable_above_the_table_cutoff(self, corpus):
        formulas = list(corpus)
        for n in (19, 20, 21, 22, 24):
            for seed in range(4):
                big = generate_random(n, 2 * n + 2, seed)
                x = Var(n + 1)
                formulas += [big, And(big, Not(big)), Not(big), Or(And(big, x), And(big, Not(x)))]
        for formula in formulas:
            check_model(formula, find_model(formula), brute_force_count(formula, limit=25) > 0)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(EXCLUSIVE, OVERLAPPING_OR, GROUPED_AND, bodies(), random_formulas(8)))
    def test_every_rule(self, formula):
        satisfiable = brute_force_count(formula) > 0
        check_model(formula, find_model(formula), satisfiable)
        with structural_only():
            check_model(formula, find_model(formula), satisfiable)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10**6))
    def test_combined_formulas(self, n, seed):
        formula = generate_random(n, 2 * n + 2, seed)
        true_child, false_child, _ = self_reduce(formula)
        assume(not isinstance(true_child, Const) and not isinstance(false_child, Const))
        combined = combine(formula, true_child, false_child).combined
        satisfiable = brute_force_count(combined, limit=variable_mask(combined).bit_count()) > 0
        check_model(combined, find_model(combined), satisfiable)
        with structural_only():
            check_model(combined, find_model(combined), satisfiable)

    def test_each_rule_by_hand(self):
        with structural_only():
            assert find_model(parse("x3")) == {3: True}
            assert find_model(parse("!x3")) == {3: False}
            assert find_model(Const(True)) == {}
            assert find_model(Const(False)) is None
            # Two variable-disjoint groups, each a disjunction: the union of
            # the first disjunct's model of each.
            assert find_model(parse("(x1 | x2) & (!x3 | x4)")) == {1: True, 3: False}
            assert find_model(parse("(x1 | x2) & x3 & !x3")) is None
            # A Shannon split on x1, the most frequent variable: the True
            # branch x2 & !x2 has no model, so the False branch's is taken.
            assert find_model(parse("(x1 | x2) & (x1 | !x2) & !x1 & x3")) is None
            assert find_model(parse("(x1 & x2 & !x2 | !x1 & x3) & (x1 | x3)")) == {3: True, 1: False}

    def test_found_exactly_when_the_count_is_positive_above_24_variables(self):
        for n in (25, 30, 35, 40):
            for seed in range(3):
                formula = generate_random(n, 2 * n + 2, seed)
                queries = [formula, And(formula, Not(formula)), Not(formula)]
                true_child, false_child, _ = self_reduce(formula)
                if not isinstance(true_child, Const) and not isinstance(false_child, Const):
                    queries.append(combine(formula, true_child, false_child).combined)
                for query in queries:
                    check_model(query, find_model(query), exact_model_count(query) > 0)

    def test_budget_exhaustion(self):
        # The stop-at-first-model count spent its budget in the same order:
        # it raised on these three formulas below budgets 2, 20 and 6.
        hard = generate_random(30, 120, seed=13)
        for formula, enough, satisfiable in (
            (hard, 2, True),
            (And(hard, Not(hard)), 20, False),
            (Not(hard), 6, True),
        ):
            with pytest.raises(TooLarge):
                find_model(formula, budget=enough - 1)
            check_model(formula, find_model(formula, budget=enough), satisfiable)
        with pytest.raises(TooLarge):
            find_model(And(hard, Not(hard)), budget=3)

    def test_memoized_models_are_not_changed(self):
        # Both conjuncts of each group hold the same subformula; its memoized
        # model must come out of the union unchanged.
        shared = generate_random(20, 42, 3)
        formula = And(Or(shared, Var(30)), Or(shared, Var(31)), Var(32))
        model = find_model(formula)
        check_model(formula, model, True)
        assert find_model(shared) == find_model(shared)
        assert 32 not in find_model(shared)

    def test_the_search_keeps_no_state(self, monkeypatch):
        # Formulas above the table cutoff, so the search recurses: it reads
        # no formula text, and a second search finds the same model.
        hard = generate_random(30, 120, seed=13)
        queries = [generate_random(n, 2 * n + 2, seed) for n in range(20, 25) for seed in range(3)]
        queries += [And(hard, Not(hard)), Not(hard)]
        formula = generate_random(8, 18, seed=2)
        true_child, false_child, _ = self_reduce(formula)
        queries.append(combine(formula, true_child, false_child).combined)
        assert all(variable_mask(query).bit_count() > 18 for query in queries)
        calls = []
        monkeypatch.setattr(oracles_module, "serialize", lambda f: calls.append(f) or serialize(f))
        models = [find_model(query) for query in queries]
        assert calls == []
        assert [find_model(query) for query in queries] == models

    def test_kept_models_answer_without_a_search(self, monkeypatch):
        searched = []
        original = oracles_module.find_model
        monkeypatch.setattr(
            oracles_module, "find_model", lambda f, *a: searched.append(serialize(f)) or original(f, *a)
        )
        oracle = simulated_tally_reduction("canonical")
        formula = parse("(x1 | x2) & (x3 | !x1)")
        assert oracle.map(formula) == "00"
        model = original(formula)
        assert searched == [serialize(formula)]
        # Children consistent with the kept model are answered from it.
        index = min(model)
        child = self_reduce(formula)[0 if model[index] else 1]
        assert oracle.map(child) == "00"
        assert searched == [serialize(formula)]
        # An unsatisfiable query always searches, and adds no model.
        assert oracle.map(parse("x1 & !x1")) == "0"
        assert searched == [serialize(formula), "x1 & !x1"]


# Every shipped oracle, with the one query method a caller asks it through.
SIMULATED_ORACLES = {
    "honest_selector": (honest_selector, "choose"),
    "adversarial_selector": (lambda: adversarial_selector(3), "choose"),
    **{
        f"tally_{style}": (lambda style=style: simulated_tally_reduction(style), "map")
        for style in TALLY_STYLES
    },
    **{
        f"sparse_{style}": (lambda style=style: simulated_sparse_coreduction(style, seed=2), "map")
        for style in SPARSE_STYLES
    },
    **{
        f"enumerator_{style}": (lambda style=style: honest_two_enumerator(style, seed=4), "enumerate")
        for style in ENUMERATOR_STYLES
    },
}


def counted_exact_counts(monkeypatch) -> Counter:
    """Record the canonical text of every formula the oracles ask the
    counter or the model search about."""
    asked = Counter()
    for name in ("exact_model_count", "find_model"):
        original = getattr(oracles_module, name)

        def recorded(formula, *args, original=original, **kwargs):
            asked[serialize(formula)] += 1
            return original(formula, *args, **kwargs)

        monkeypatch.setattr(oracles_module, name, recorded)
    return asked


def repeated_queries(corpus) -> list:
    """Formulas and their split children, each also as a fresh copy of the
    same text, so every text is asked more than once by distinct objects."""
    queries = []
    for formula in corpus:
        nodes = [formula]
        if variable_mask(formula):
            nodes += [child for child in self_reduce(formula)[:2] if not isinstance(child, Const)]
        for node in nodes:
            queries += [node, parse(serialize(node))]
    return queries


class TestOneCountPerText:
    @pytest.mark.parametrize("name", SIMULATED_ORACLES)
    def test_direct_queries(self, name, monkeypatch, corpus):
        asked = counted_exact_counts(monkeypatch)
        build, method = SIMULATED_ORACLES[name]
        oracle = build()
        queries = repeated_queries(corpus[:60])
        asks = 0
        for _ in range(2):
            if method == "choose":  # neighbouring pairs, equal-text pairs among them
                for a, b in zip(queries, queries[1:]):
                    oracle.choose(a, b)
                    asks += 1
            else:
                for query in queries:
                    getattr(oracle, method)(query)
                    asks += 1
        assert oracle.call_counter == asks  # every query counts, memo hit or not
        assert asked and max(asked.values()) == 1
        assert set(asked) <= {serialize(query) for query in queries}

    @pytest.mark.parametrize("name", SIMULATED_ORACLES)
    def test_decider_runs(self, name, monkeypatch, corpus):
        asked = counted_exact_counts(monkeypatch)
        build, method = SIMULATED_ORACLES[name]
        oracle = build()
        for formula in corpus[:60]:
            if method == "choose":
                decide_via_selector(formula, oracle)
            elif method == "enumerate":
                count_via_enumerator(formula, oracle)
            elif isinstance(oracle, TallyReductionOracle):
                decide_via_tally(formula, oracle)
            else:
                decide_via_sparse(formula, oracle, "capped_continue")
        assert oracle.call_counter > 0
        assert asked and max(asked.values()) == 1


class TestSparseArrivalNumbering:
    @pytest.mark.parametrize("style", SPARSE_STYLES)
    def test_satisfiable_texts_numbered_by_first_arrival(self, style, corpus):
        oracle = simulated_sparse_coreduction(style, seed=6)
        images: dict[str, str] = {}  # text -> its first image
        arrivals: list[str] = []  # satisfiable texts, in order of first arrival
        for query in repeated_queries(corpus):
            text, image = serialize(query), oracle.map(query)
            assert images.setdefault(text, image) == image  # functional
            if not brute_force_sat(query):
                assert image and set(image) == {"1"} and len(image) <= 16
            elif text not in arrivals:
                arrivals.append(text)
                assert image == "0" + format(len(arrivals) - 1, "b")
        assert len(arrivals) > 1
        satisfiable = [images[text] for text in arrivals]
        assert len(set(satisfiable)) == len(satisfiable)  # pairwise distinct
