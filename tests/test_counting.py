import pytest

from selfred.errors import ConstantOperand, OracleContractViolation
from selfred.formula import (
    Const,
    brute_force_count,
    parse,
    serialize,
    variables,
)
from selfred.generate import generate_corpus
from selfred.oracles import TwoEnumeratorOracle, honest_two_enumerator
from selfred.counting import (
    GuessTriple,
    combine,
    combine3,
    count_via_enumerator,
    decode,
    decode3,
    demonstrate_naive_failure,
    link_disagreeing_triples,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(250, 10, seed=33)


class TestCombine:
    def test_worked_pair(self):
        recipe = combine(parse("x1"), parse("x1 | x2"))
        assert recipe.left_var_count == 1
        assert recipe.right_var_count == 2
        assert brute_force_count(recipe.combined) == 11  # 1 * 2^3 + 3

    def test_unsatisfiable_left(self):
        recipe = combine(parse("x1 & !x1"), parse("x1"))
        assert brute_force_count(recipe.combined) == 1  # 0 * 4 + 1

    def test_same_formula_both_sides(self):
        recipe = combine(parse("x1"), parse("x1"))
        assert brute_force_count(recipe.combined) == 5  # 1 * 4 + 1
        assert variables(recipe.renamed_left).isdisjoint(variables(recipe.renamed_right))

    def test_operands_renamed_apart(self):
        recipe = combine(parse("x3 & x5"), parse("x3 | x9"))
        assert sorted(variables(recipe.renamed_left)) == [1, 2]
        assert sorted(variables(recipe.renamed_right)) == [3, 4]
        assert recipe.fresh_vars == (5, 6)

    def test_constant_operand_rejected(self):
        with pytest.raises(ConstantOperand):
            combine(Const(True), parse("x1"))
        with pytest.raises(ConstantOperand):
            combine(parse("x1"), parse("T & F"))

    def test_identity_on_random_pairs(self, corpus):
        small = [f for f in corpus if 1 <= len(variables(f)) <= 6]
        pairs = list(zip(small[::2], small[1::2]))[:100]
        for left, right in pairs:
            recipe = combine(left, right)
            combined_count = brute_force_count(recipe.combined)
            expected = (
                brute_force_count(left) * 2 ** (recipe.right_var_count + 1)
                + brute_force_count(right)
            )
            assert combined_count == expected
            decoded = decode(recipe, combined_count)
            assert decoded.left_count == brute_force_count(left)
            assert decoded.right_count == brute_force_count(right)
            assert decoded.left_in_range and decoded.right_in_range


class TestDecode:
    def test_worked_values(self):
        recipe = combine(parse("x1"), parse("x1 | x2"))
        assert decode(recipe, 11)[:2] == (1, 3)
        recipe2 = combine(parse("x1"), parse("x2"))
        assert decode(recipe2, 0)[:2] == (0, 0)
        assert decode(recipe2, 5)[:2] == (1, 1)

    def test_out_of_range_flags(self):
        recipe = combine(parse("x1"), parse("x2"))  # n = m = 1
        decoded = decode(recipe, 100)  # left = 25 > 2^1
        assert not decoded.left_in_range
        high_right = decode(recipe, 3)  # right = 3 > 2^1
        assert not high_right.right_in_range


class TestCombine3:
    def test_derived_triple(self):
        # Expected values frozen from brute force: 4 models, children 2 + 2.
        formula = parse("(x1 | x2) & (!x1 | x3)")
        true_child = parse("x3")
        false_child = parse("x2")
        recipe = combine3(formula, true_child, false_child)
        a, b, c, in_range = decode3(recipe, brute_force_count(recipe.outer.combined))
        assert in_range
        slots = len(variables(formula)) - 1
        lifted_b = b << (slots - len(variables(true_child)))
        lifted_c = c << (slots - len(variables(false_child)))
        assert (a, lifted_b, lifted_c) == (4, 2, 2)
        assert a == brute_force_count(formula)

    def test_triples_consistent_on_corpus(self, corpus):
        from selfred.formula import self_reduce

        checked = 0
        for formula in corpus:
            # keep the nested combination inside the brute-force limit
            if not 1 <= len(variables(formula)) <= 7:
                continue
            true_child, false_child, _ = self_reduce(formula)
            if isinstance(true_child, Const) or isinstance(false_child, Const):
                continue
            recipe = combine3(formula, true_child, false_child)
            a, b, c, in_range = decode3(recipe, brute_force_count(recipe.outer.combined))
            assert in_range
            slots = len(variables(formula)) - 1
            lifted = GuessTriple(
                a,
                b << (slots - len(variables(true_child))),
                c << (slots - len(variables(false_child))),
            )
            assert lifted.consistent
            checked += 1
            if checked >= 60:
                break
        assert checked >= 30


class TestLinkage:
    def test_worked_table(self):
        side, mapping = link_disagreeing_triples(
            GuessTriple(100, 83, 17), GuessTriple(101, 85, 16)
        )
        assert side == "right"
        assert mapping == {17: 100, 16: 101}

    def test_left_when_only_left_differs(self):
        side, mapping = link_disagreeing_triples(
            GuessTriple(10, 4, 6), GuessTriple(11, 5, 6)
        )
        assert side == "left"
        assert mapping == {4: 10, 5: 11}

    def test_agreeing_roots_rejected(self):
        with pytest.raises(ValueError):
            link_disagreeing_triples(GuessTriple(5, 2, 3), GuessTriple(5, 3, 2))

    def test_mapping_is_injective(self):
        side, mapping = link_disagreeing_triples(
            GuessTriple(7, 3, 4), GuessTriple(9, 3, 6)
        )
        assert len(mapping) == 2
        assert len(set(mapping.values())) == 2


class TestCountViaEnumerator:
    def test_disjunction(self):
        for style in ("exact_plus_offset", "woeginger"):
            for seed in (0, 7):
                count, _ = count_via_enumerator(
                    parse("x1 | x2"), honest_two_enumerator(style, seed=seed)
                )
                assert count == 3

    def test_constant_formulas_skip_oracle(self):
        oracle = honest_two_enumerator("woeginger")
        assert count_via_enumerator(Const(True), oracle)[0] == 1
        assert count_via_enumerator(Const(False), oracle)[0] == 0
        assert oracle.call_counter == 0

    def test_single_variable_skips_oracle(self):
        oracle = honest_two_enumerator("woeginger")
        assert count_via_enumerator(parse("x1"), oracle)[0] == 1
        assert count_via_enumerator(parse("x1 & !x1"), oracle)[0] == 0
        assert oracle.call_counter == 0

    def test_redundant_structure(self):
        oracle = honest_two_enumerator("woeginger")
        assert count_via_enumerator(parse("(x1 & x2) | T"), oracle)[0] == 4

    @pytest.mark.parametrize("style,seed", [
        ("exact_plus_offset", 0),
        ("exact_plus_offset", 3),
        ("woeginger", 0),
    ])
    def test_corpus_agreement(self, corpus, style, seed):
        for formula in corpus:
            oracle = honest_two_enumerator(style, seed=seed)
            count, chain = count_via_enumerator(formula, oracle)
            assert count == brute_force_count(formula)
            assert oracle.call_counter <= len(variables(formula)) + 1
            assert len(chain) <= len(variables(formula))

    def test_linkages_injective_with_distinct_keys(self, corpus):
        for formula in corpus[:120]:
            oracle = honest_two_enumerator("exact_plus_offset", seed=5)
            _, chain = count_via_enumerator(formula, oracle)
            for linkage in chain:
                assert len(linkage.mapping) == 2
                assert len(set(linkage.mapping.values())) == 2

    def test_chain_depths_increase(self, corpus):
        for formula in corpus[:120]:
            oracle = honest_two_enumerator("exact_plus_offset", seed=1)
            _, chain = count_via_enumerator(formula, oracle)
            assert [l.depth for l in chain] == list(range(len(chain)))

    def test_descent_resolves_through_left_linkage(self):
        self._descent_case(extra=2 * 32 + 4, side="left", expect_child="x3")

    def test_descent_resolves_through_right_linkage(self):
        self._descent_case(extra=2 * 32 + 1, side="right", expect_child="x2")

    def test_descent_prefers_right_when_both_differ(self):
        self._descent_case(extra=4 * 32 + 4 + 1, side="right", expect_child="x2")

    @staticmethod
    def _descent_case(extra: int, side: str, expect_child: str):
        # F = (x1|x2) & (!x1|x3) has 4 models; its combined formula counts
        # 4*32 + 5 = 133.  Adding a consistently-shifted second guess forces
        # the counter to link one child's candidates to the root's and
        # resolve by recursing; the true count must still come back.
        from selfred.oracles import exact_model_count

        formula = parse("(x1 | x2) & (!x1 | x3)")
        recipe = combine3(formula, parse("x3"), parse("x2"))
        target = serialize(recipe.outer.combined)
        truth = brute_force_count(recipe.outer.combined)
        assert truth == 133

        def enumerate_fn(f):
            if serialize(f) == target:
                return sorted({truth, truth + extra})
            return [exact_model_count(f)]

        oracle = TwoEnumeratorOracle(enumerate_fn)
        count, chain = count_via_enumerator(formula, oracle)
        assert count == 4
        assert len(chain) == 1
        assert serialize(chain[0].child) == expect_child
        assert len(chain[0].mapping) == 2
        assert chain[0].triples is not None

    def test_more_than_two_values(self):
        from selfred.oracles import exact_model_count

        formula = parse("(x1 | x2) & (!x1 | x3)")
        target = serialize(combine3(formula, parse("x3"), parse("x2")).outer.combined)

        def enumerate_fn(f):
            return [133, 136, 198] if serialize(f) == target else [exact_model_count(f)]

        with pytest.raises(OracleContractViolation, match="listed 3 candidate counts"):
            count_via_enumerator(formula, TwoEnumeratorOracle(enumerate_fn))

    def test_no_consistent_guess(self):
        # 1 decodes to a triple claiming 0 = 0 + (something positive).
        lying = TwoEnumeratorOracle(lambda f: [1])
        with pytest.raises(OracleContractViolation):
            count_via_enumerator(parse("(x1 | x2) & (x2 | x3)"), lying)

    @pytest.mark.parametrize(
        "answer, message",
        [
            (["3"], "candidate of type str"),
            ([None], "candidate of type NoneType"),
            ([2.0], "candidate of type float"),
            (5, "answered a value of type int, not list"),
            ([4, -1], "candidate -1 is negative"),
        ],
        ids=["str", "none", "float", "bare-int", "negative"],
    )
    def test_malformed_answer(self, answer, message):
        oracle = TwoEnumeratorOracle(lambda g: answer)
        formula = parse("(x1 | x2) & (x2 | !x3) & x4")
        with pytest.raises(OracleContractViolation, match=message):
            count_via_enumerator(formula, oracle)

    def test_resolved_child_matches_neither_key(self):
        # For x1 & x2 the combined values 0 and 10 decode to the consistent
        # triples (0,0,0) and (2,2,0); the true child count 1 is not a key.
        lying = TwoEnumeratorOracle(lambda f: [0, 10])
        with pytest.raises(OracleContractViolation):
            count_via_enumerator(parse("x1 & x2"), lying)


class TestNaiveFailure:
    def test_witnesses(self):
        report = demonstrate_naive_failure()
        first, second = report.witnesses
        assert first.root_count == 0
        assert second.root_count == 1
        assert (first.left_count, first.right_count) == (0, 0)
        assert (second.left_count, second.right_count) == (0, 1)
        for witness in report.witnesses:
            assert witness.guess_sets == ((0, 1), (0, 1), (0, 1))
            assert witness.root_count == brute_force_count(witness.formula)
            assert witness.root_count == witness.left_count + witness.right_count
