import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfred.errors import (
    FormulaSyntaxError,
    IncompleteAssignment,
    NoVariables,
    TooLarge,
    UnknownVariable,
)
from selfred.formula import (
    And,
    Const,
    Not,
    Or,
    Var,
    all_assignments,
    brute_force_count,
    brute_force_sat,
    evaluate,
    parse,
    parse_dimacs,
    rename_variables,
    self_reduce,
    serialize,
    serialized_length,
    simplify,
    substitute,
    variables,
)


def formulas(max_vars: int = 4, max_leaves: int = 8) -> st.SearchStrategy:
    leaf = st.one_of(
        st.builds(Var, st.integers(1, max_vars)),
        st.sampled_from([Const(True), Const(False)]),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: And(*cs)),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
        ),
        max_leaves=max_leaves,
    )


def naive_count(formula) -> int:
    # Independent per-assignment loop, kept separate from the bit-parallel path.
    return sum(evaluate(formula, a) for a in all_assignments(variables(formula)))


class TestParse:
    def test_example_formulas(self):
        assert parse("x1 & !x1") == And(Var(1), Not(Var(1)))
        assert parse("T") == Const(True)
        assert parse("(x1 & x2 & !x3) | (x4 & !x4)") == Or(
            And(Var(1), Var(2), Not(Var(3))), And(Var(4), Not(Var(4)))
        )

    def test_whitespace_insensitive(self):
        assert parse("x1&x2 |!x3") == parse("x1 & x2 | !x3")

    def test_precedence(self):
        assert parse("x1 | x2 & x3") == Or(Var(1), And(Var(2), Var(3)))
        assert parse("(x1 | x2) & x3") == And(Or(Var(1), Var(2)), Var(3))

    def test_flattens_same_operator_chains(self):
        assert parse("(x1 & x2) & x3") == parse("x1 & x2 & x3")
        assert parse("x1 | (x2 | x3)") == parse("x1 | x2 | x3")

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("x0", 1),
            ("x1 &", 4),
            ("(x1", 3),
            ("x1 !x2", 3),
            ("y1", 0),
        ],
    )
    def test_syntax_errors_carry_offset(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == offset

    def test_multi_digit_indices(self):
        assert parse("x10 | x2") == Or(Var(10), Var(2))


class TestSerialize:
    def test_minimal_parentheses(self):
        assert serialize(parse("(x1 & x2 & !x3) | (x4 & !x4)")) == "x1 & x2 & !x3 | x4 & !x4"
        assert serialize(parse("!(x1 | x2) & x3")) == "!(x1 | x2) & x3"
        assert serialize(Not(Not(Var(1)))) == "!!x1"

    def test_roundtrip_is_stable(self):
        for text in ["((x1))", "x1&(x2|x3)", "!(T & F) | x2", "(x1|x2)|(x3&x4)"]:
            once = serialize(parse(text))
            assert serialize(parse(once)) == once

    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_roundtrip_property(self, formula):
        text = serialize(formula)
        assert serialize(parse(text)) == text


class TestSimplify:
    def test_paper_constant_chain(self):
        assert simplify(And(Const(True), Const(True), Const(False))) == Const(False)

    def test_negated_constant(self):
        assert simplify(Not(Const(False))) == Const(True)

    def test_absorbed_disjunct(self):
        assert simplify(parse("(T | x1) & x2")) == Var(2)

    def test_no_embedded_constants_remain(self):
        def has_embedded_const(formula, top=True):
            match formula:
                case Const():
                    return not top
                case Var():
                    return False
                case Not(child):
                    return has_embedded_const(child, False)
                case And(children) | Or(children):
                    return any(has_embedded_const(c, False) for c in children)

        for text in ["x1 & T", "x1 | F | x2", "!(T & x1) | (F & x2)", "T & F"]:
            assert not has_embedded_const(simplify(parse(text)))

    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_idempotent(self, formula):
        once = simplify(formula)
        assert simplify(once) == once

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_vars=3, max_leaves=6))
    def test_preserves_models_on_same_variables(self, formula):
        simplified = simplify(formula)
        for assignment in all_assignments(variables(formula)):
            assert evaluate(formula, assignment) == evaluate(simplified, assignment)


class TestSubstitute:
    def test_identity_under_true_conjunct(self):
        assert substitute(parse("x1 & x2"), 1, True) == Var(2)

    def test_annihilator(self):
        assert substitute(parse("x1 & x2"), 1, False) == Const(False)

    def test_derived_example(self):
        result = substitute(parse("(x1 & x2 & !x3) | (x4 & !x4)"), 1, True)
        assert serialize(result) == "x2 & !x3 | x4 & !x4"

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            substitute(parse("x1"), 2, True)

    @settings(max_examples=300, deadline=None)
    @given(formulas(), st.integers(1, 4), st.booleans())
    def test_strictly_length_decreasing(self, formula, index, value):
        if index not in variables(formula):
            return
        child = substitute(formula, index, value)
        assert serialized_length(child) < serialized_length(formula)
        assert variables(child) <= variables(formula) - {index}


class TestSelfReduce:
    def test_single_variable(self):
        assert self_reduce(Var(1)) == (Const(True), Const(False), 1)

    def test_contradiction(self):
        assert self_reduce(parse("x1 & !x1")) == (Const(False), Const(False), 1)

    def test_true_shortcircuit(self):
        assert self_reduce(parse("x1 | x2")) == (Const(True), Var(2), 1)

    def test_constant_rejected(self):
        with pytest.raises(NoVariables):
            self_reduce(Const(True))


class TestEvaluate:
    def test_paper_example_two(self):
        formula = parse("(x1 & x2 & !x3) | (x4 & !x4)")
        assert evaluate(formula, {1: True, 2: True, 3: False, 4: True}) is True

    def test_paper_example_one(self):
        assert evaluate(parse("x1 & !x1"), {1: True}) is False

    def test_constant_under_empty_assignment(self):
        assert evaluate(Const(True), {}) is True

    def test_incomplete_assignment(self):
        with pytest.raises(IncompleteAssignment):
            evaluate(parse("x1 & x2"), {1: True})

    def test_extra_variables_tolerated(self):
        assert evaluate(Var(1), {1: True, 9: False}) is True


class TestBruteForce:
    def test_paper_counts(self):
        assert brute_force_count(parse("x1 | x2")) == 3
        assert brute_force_count(parse("x1 & !x1")) == 0
        assert brute_force_count(Const(True)) == 1
        assert brute_force_count(Const(False)) == 0

    def test_limit(self):
        wide = And(*(Var(i) for i in range(1, 6)))
        with pytest.raises(TooLarge):
            brute_force_count(wide, limit=4)
        assert brute_force_count(wide, limit=5) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SELFRED_BRUTE_LIMIT", "2")
        with pytest.raises(TooLarge):
            brute_force_sat(parse("x1 & x2 & x3"))

    @settings(max_examples=300, deadline=None)
    @given(formulas())
    def test_matches_per_assignment_enumeration(self, formula):
        assert brute_force_count(formula) == naive_count(formula)

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_vars=3, max_leaves=6))
    def test_evaluate_agrees_on_full_substitution(self, formula):
        for assignment in all_assignments(variables(formula)):
            ground = formula
            for index, value in assignment.items():
                if index in variables(ground):
                    ground = substitute(ground, index, value)
            assert brute_force_count(ground) == int(evaluate(formula, assignment))


class TestSelfReducibilityProperties:
    @settings(max_examples=300, deadline=None)
    @given(formulas())
    def test_sat_decomposition(self, formula):
        if not variables(formula):
            return
        true_child, false_child, _ = self_reduce(formula)
        assert brute_force_sat(formula) == (
            brute_force_sat(true_child) or brute_force_sat(false_child)
        )

    @settings(max_examples=300, deadline=None)
    @given(formulas())
    def test_count_decomposition_over_residual_slots(self, formula):
        if not variables(formula):
            return
        true_child, false_child, split = self_reduce(formula)
        slots = variables(formula) - {split}
        total = 0
        for assignment in all_assignments(slots):
            total += evaluate(true_child, assignment)
            total += evaluate(false_child, assignment)
        assert brute_force_count(formula) == total


class TestRename:
    def test_rename(self):
        renamed = rename_variables(parse("x1 & !x2"), {1: 5, 2: 7})
        assert serialize(renamed) == "x5 & !x7"

    def test_rename_preserves_count(self):
        formula = parse("(x1 | x2) & !x3")
        renamed = rename_variables(formula, {1: 10, 2: 20, 3: 30})
        assert brute_force_count(renamed) == brute_force_count(formula)

    def test_missing_mapping(self):
        with pytest.raises(UnknownVariable):
            rename_variables(parse("x1 & x2"), {1: 3})

    def test_non_injective(self):
        with pytest.raises(ValueError):
            rename_variables(parse("x1 & x2"), {1: 3, 2: 3})


class TestDimacs:
    def test_basic(self):
        formula = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n3 0\n")
        assert serialize(formula) == "(x1 | !x2) & x3"

    def test_multiline_clause(self):
        formula = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert serialize(formula) == "x1 | x2 | x3"

    def test_empty_formula_is_true(self):
        assert parse_dimacs("p cnf 0 0\n") == Const(True)

    def test_empty_clause_is_false(self):
        formula = parse_dimacs("p cnf 1 2\n1 0\n0\n")
        assert brute_force_count(formula) == 0

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 0\n",
            "p cnf 1 1\n2 0\n",
            "p cnf 1 1\n1\n",
            "p cnf 1 2\n1 0\n",
            "p nfc 1 1\n1 0\n",
            "p cnf a b\n",
            "p cnf -1 0\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_dimacs(text)


class TestNodeInvariants:
    def test_arity(self):
        with pytest.raises(ValueError):
            And(Var(1))
        with pytest.raises(ValueError):
            Or(Var(1))

    def test_positive_indices(self):
        with pytest.raises(ValueError):
            Var(0)

    def test_constructor_flattening(self):
        assert And(And(Var(1), Var(2)), Var(3)) == And(Var(1), Var(2), Var(3))
        assert Or(Var(1), Or(Var(2), Var(3))) == Or(Var(1), Var(2), Var(3))
