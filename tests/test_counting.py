import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfred import formula as formula_module
from selfred.errors import ConstantOperand, OracleContractViolation
from selfred.formula import (
    And,
    Const,
    Not,
    Or,
    brute_force_count,
    parse,
    self_reduce,
    serialize,
    simplify,
    variable_mask,
    variables,
)
from selfred.generate import generate_corpus, generate_random
from selfred.oracles import (
    ENUMERATOR_STYLES,
    TwoEnumeratorOracle,
    exact_model_count,
    honest_two_enumerator,
)
from selfred.counting import (
    GuessTriple,
    combine,
    count_via_enumerator,
    decode,
    decode_all,
    demonstrate_naive_failure,
    link_disagreeing_triples,
)

from references import renamed
from strategies import SMALL_FORMULAS


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


    @pytest.mark.parametrize("operand_count", [2, 3, 4, 5])
    def test_any_number_of_operands(self, corpus, operand_count):
        small = [f for f in corpus if 1 <= len(variables(f)) <= 5]
        groups = list(zip(*[iter(small)] * operand_count))[:20]
        assert len(groups) == 20
        for operands in groups:
            recipe = combine(*operands, start=3)
            widths = [len(variables(f)) for f in operands]
            # Each packing level adds its switch and guard.
            top = 3 + sum(widths) + 2 * (operand_count - 1)
            assert variables(recipe.combined) == frozenset(range(3, top))
            levels, inner = 0, recipe
            while inner is not None:
                levels, inner = levels + 1, inner.inner
            assert levels == operand_count - 1
            counts = tuple(brute_force_count(f) for f in operands)
            assert decode_all(recipe, exact_model_count(recipe.combined)) == (counts, True)


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


    def test_decode_all_flags_any_level_out_of_range(self):
        # The inner packing of x2 and x3 has 4 variables, so the count is
        # a * 2^5 + b * 2^2 + c.
        recipe = combine(parse("x1"), parse("x2"), parse("x3"))
        assert decode_all(recipe, 32 + 5) == ((1, 1, 1), True)
        assert decode_all(recipe, 32 + 3) == ((1, 0, 3), False)  # c = 3 > 2^1
        assert decode_all(recipe, 32 + 12) == ((1, 3, 0), False)  # b = 3 > 2^1
        assert decode_all(recipe, 3 * 32) == ((3, 0, 0), False)  # a = 3 > 2^1


class TestCombineThreeOperands:
    def test_derived_triple(self):
        # Expected values frozen from brute force: 4 models, children 2 + 2.
        formula = parse("(x1 | x2) & (!x1 | x3)")
        true_child = parse("x3")
        false_child = parse("x2")
        recipe = combine(formula, true_child, false_child)
        (a, b, c), in_range = decode_all(recipe, brute_force_count(recipe.combined))
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
            recipe = combine(formula, true_child, false_child)
            (a, b, c), in_range = decode_all(recipe, brute_force_count(recipe.combined))
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


@st.composite
def operand_triples(draw):
    """Three formulas over x1..x4 moved onto four indices out of 1..12, so
    that most draws leave gaps in the indices (say {2, 5, 9})."""
    slots = sorted(draw(st.lists(st.integers(1, 12), min_size=4, max_size=4, unique=True)))
    relabel = {i: slot for i, slot in enumerate(slots, start=1)}
    return tuple(renamed(draw(SMALL_FORMULAS), relabel) for _ in range(3))


def node_count(formula) -> int:
    if isinstance(formula, Not):
        return 1 + node_count(formula.child)
    if isinstance(formula, (And, Or)):
        return 1 + sum(node_count(c) for c in formula.children)
    return 1


class TestThreeOperandLayout:
    """combine with three operands places the children straight into the
    range after the formula's variables and copies nothing that is already
    in place."""

    def test_formula_in_place_is_reused(self):
        formula = parse("(x1 | x2) & (!x1 | x3)")
        recipe = combine(formula, parse("x3"), parse("x2"))
        assert recipe.renamed_left is formula
        assert recipe.renamed_right is recipe.inner.combined

    def test_inner_recipe_sits_above_the_formula(self):
        recipe = combine(parse("(x1 | x2) & (!x1 | x3)"), parse("x3"), parse("x2"))
        assert serialize(recipe.inner.renamed_left) == "x4"
        assert serialize(recipe.inner.renamed_right) == "x5"
        assert recipe.inner.fresh_vars == (6, 7)
        assert (recipe.inner.left_var_count, recipe.inner.right_var_count) == (1, 1)

    def test_formula_with_gaps_is_renamed(self):
        formula = parse("x2 & (x5 | !x9)")
        recipe = combine(formula, parse("x5 | !x9"), parse("F | x9"))
        assert recipe.renamed_left == parse("x1 & (x2 | !x3)")
        assert recipe.renamed_right is recipe.inner.combined

    def test_start_offsets_every_variable(self):
        recipe = combine(parse("x3 & x5"), parse("x3 | x9"), start=10)
        assert serialize(recipe.combined) == "x10 & x11 & x14 | !x14 & x10 & x11 & (x12 | x13) & x15"
        assert recipe.fresh_vars == (14, 15)
        assert variables(recipe.combined) == frozenset(range(10, 16))

    @settings(max_examples=100, deadline=None)
    @given(operand_triples())
    def test_equals_the_two_step_construction(self, operands):
        formula, left_child, right_child = operands
        assume(all(variable_mask(f) for f in operands))
        recipe = combine(formula, left_child, right_child)
        # The construction this replaces: combine the children from x1, then
        # rename that whole combination again, up past the formula's range.
        old_inner = combine(left_child, right_child)
        old_outer = combine(formula, old_inner.combined)
        assert recipe._replace(inner=None) == old_outer
        assert serialize(recipe.combined) == serialize(old_outer.combined)

        n = len(variables(formula))
        shift = {v: v + n for v in variables(old_inner.combined)}
        assert recipe.inner.renamed_left == renamed(old_inner.renamed_left, shift)
        assert recipe.inner.renamed_right == renamed(old_inner.renamed_right, shift)
        assert recipe.inner.fresh_vars == tuple(v + n for v in old_inner.fresh_vars)
        old = old_outer._replace(inner=old_inner)
        count = exact_model_count(recipe.combined)
        assert decode_all(recipe, count) == decode_all(old, count)

    @pytest.mark.parametrize("n", range(14, 21))
    def test_build_renames_only_the_children(self, n, monkeypatch):
        # Every node visited by the variable mapper is a copied node: building
        # the 2-enumerator's query copies each child once and nothing else.
        visited = [0]
        map_vars = formula_module._map_vars

        def counted_map_vars(formula, mapping):
            visited[0] += 1
            return map_vars(formula, mapping)

        monkeypatch.setattr(formula_module, "_map_vars", counted_map_vars)
        checked = 0
        for seed in range(5):
            formula = generate_random(n, 2 * n + 2, seed)
            true_child, false_child, _ = self_reduce(formula)
            if isinstance(true_child, Const) or isinstance(false_child, Const):
                continue
            visited[0] = 0
            combine(formula, true_child, false_child)
            assert visited[0] <= node_count(true_child) + node_count(false_child)
            checked += 1
        assert checked


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
        for style in ENUMERATOR_STYLES:
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
        recipe = combine(formula, parse("x3"), parse("x2"))
        target = serialize(recipe.combined)
        truth = brute_force_count(recipe.combined)
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

    @pytest.mark.parametrize(
        "text, listed, count, mapping",
        [
            # True child T: the query is combine(F, x2), which counts
            # 3*4 + 1 = 13; 8 decodes to the consistent (2, 2, 0).
            ("x1 | x2", [8, 13], 3, {0: 2, 1: 3}),
            # False child F: combine(F, x2) counts 1*4 + 1 = 5; 0 decodes
            # to the consistent (0, 0, 0).
            ("x1 & x2", [0, 5], 1, {0: 0, 1: 1}),
        ],
    )
    def test_descent_through_a_constant_child_split(self, text, listed, count, mapping):
        # With one constant child the counter combines the formula with the
        # open child only; two listed values that disagree on the root link
        # the open child's candidates to the root's.
        formula = parse(text)
        recipe = combine(formula, parse("x2"))  # x2 is the open child of both
        target = serialize(recipe.combined)
        assert brute_force_count(recipe.combined) == listed[1]

        def enumerate_fn(f):
            return list(listed) if serialize(f) == target else [exact_model_count(f)]

        oracle = TwoEnumeratorOracle(enumerate_fn)
        result, chain = count_via_enumerator(formula, oracle)
        assert result == count
        assert len(chain) == 1
        assert serialize(chain[0].child) == "x2"
        assert chain[0].mapping == mapping
        assert chain[0].depth == 0

    def test_more_than_two_values(self):
        from selfred.oracles import exact_model_count

        formula = parse("(x1 | x2) & (!x1 | x3)")
        target = serialize(combine(formula, parse("x3"), parse("x2")).combined)

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
            ([], "no candidate"),
        ],
        ids=["str", "none", "float", "bare-int", "negative", "empty"],
    )
    def test_malformed_answer(self, answer, message):
        oracle = TwoEnumeratorOracle(lambda g: answer)
        formula = parse("(x1 | x2) & (x2 | !x3) & x4")
        with pytest.raises(OracleContractViolation, match=message):
            count_via_enumerator(formula, oracle)

    def test_queries_are_pinned(self):
        # Every query text the counter sends, and every answer, over a batch
        # that makes both query shapes: the formula with its one open child,
        # and the formula with both children.  Oracles that digest the query
        # text (exact_plus_offset) answer by those bytes, so they must not
        # change when the query's construction is refactored.  The digest
        # covers these two styles' own answers, so they are named here.
        stream = hashlib.sha256()
        queries = two_open = 0
        for style in ("exact_plus_offset", "woeginger"):
            for n in range(1, 15):
                for seed in range(6):
                    formula = generate_random(n, 2 * n + 2, seed)
                    oracle = honest_two_enumerator(style, seed=7)
                    sent = []
                    query = oracle._query

                    def spy(f, query=query, sent=sent):
                        sent.append(serialize(f))
                        return query(f)

                    oracle._query = spy
                    count, chain = count_via_enumerator(formula, oracle)
                    assert count == exact_model_count(formula)
                    for text in sent:
                        stream.update(hashlib.sha256(text.encode()).digest())
                    stream.update(f"{count},{len(chain)};".encode())
                    # No built-in style makes the counter descend, so a run
                    # sends at most its root's query.
                    assert len(sent) <= 1 and not chain
                    root = simplify(formula)
                    if sent:
                        true_child, false_child, _ = self_reduce(root)
                        two_open += type(true_child) is not Const and type(false_child) is not Const
                    queries += len(sent)
        assert (queries, two_open) == (140, 102)
        assert stream.hexdigest() == (
            "b3b986363017637af7e3eb867c7e4ab1af6f9737db97fa0d56d779891894ae95"
        )

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
