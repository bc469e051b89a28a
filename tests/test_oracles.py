import pytest

from selfred.errors import InvalidBound, TooLarge
from selfred.formula import (
    And,
    Const,
    Or,
    Var,
    brute_force_count,
    brute_force_sat,
    parse,
    serialize,
    serialized_length,
)
from selfred.generate import generate_corpus
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
