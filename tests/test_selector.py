import pytest

from selfred.errors import MalformedInput, OracleContractViolation
from selfred.formula import (
    Const,
    Var,
    brute_force_sat,
    evaluate,
    parse,
    serialize,
    simplify,
    split,
    variables,
)
from selfred.generate import generate_corpus
from selfred.oracles import SelectorOracle, adversarial_selector, honest_selector
from selfred.selector import decide_via_selector


class VarSubclass(Var):
    __slots__ = ()


class TestExamples:
    def test_contradiction(self):
        verdict, trace = decide_via_selector(parse("x1 & !x1"), honest_selector())
        assert verdict is False
        assert trace.oracle_calls == 1
        assert len(trace.steps) == 1

    def test_four_variable_example(self):
        formula = parse("(x1 & x2 & !x3) | (x4 & !x4)")
        verdict, trace = decide_via_selector(formula, honest_selector())
        assert verdict is True
        assert trace.oracle_calls == 4

    def test_constant_input(self):
        verdict, trace = decide_via_selector(Const(True), honest_selector())
        assert verdict is True
        assert trace.oracle_calls == 0
        verdict, trace = decide_via_selector(parse("T & F"), honest_selector())
        assert verdict is False
        assert trace.oracle_calls == 0

    def test_malformed_input(self):
        with pytest.raises(MalformedInput):
            decide_via_selector("x1", honest_selector())

    def test_rogue_selector(self):
        rogue = SelectorOracle(lambda a, b: parse("x99"))
        with pytest.raises(OracleContractViolation):
            decide_via_selector(parse("x1 & x2"), rogue)

    @pytest.mark.parametrize(
        "answer, kind",
        [
            (None, "NoneType"),
            ("x1", "str"),
            (Var(1), "Var"),
            (VarSubclass(1), "VarSubclass"),
            (1, "int"),
            (0, "int"),
        ],
    )
    def test_selector_answer_not_a_bool(self, answer, kind):
        rogue = SelectorOracle(lambda a, b: answer)
        with pytest.raises(OracleContractViolation, match=f"type {kind}, not bool$"):
            decide_via_selector(parse("x1 & x2"), rogue)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(300, 10, seed=7)


class TestAgainstBruteForce:
    def test_honest(self, corpus):
        oracle = honest_selector()
        for formula in corpus:
            verdict, trace = decide_via_selector(formula, oracle)
            assert verdict == brute_force_sat(formula)
            assert trace.oracle_calls == len(variables(formula))
            assert len(trace.steps) == trace.oracle_calls

    @pytest.mark.parametrize("seed", range(5))
    def test_adversarial(self, corpus, seed):
        oracle = adversarial_selector(seed)
        for formula in corpus[:150]:
            verdict, _ = decide_via_selector(formula, oracle)
            assert verdict == brute_force_sat(formula)

    def test_true_verdicts_carry_satisfying_assignment(self, corpus):
        oracle = adversarial_selector(11)
        for formula in corpus:
            verdict, trace = decide_via_selector(formula, oracle)
            if verdict:
                assert evaluate(formula, trace.assignment()) is True

    def test_per_step_equisatisfiability(self, corpus):
        # Each step's surviving formula is satisfiable iff the input is.
        oracle = honest_selector()
        for formula in corpus[:100]:
            reference = brute_force_sat(formula)
            _, trace = decide_via_selector(formula, oracle)
            for step in trace.steps:
                assert brute_force_sat(parse(step.chosen_formula)) == reference

    def test_steps_chain_by_substitution(self, corpus):
        oracle = honest_selector()
        for formula in corpus[:100]:
            _, trace = decide_via_selector(formula, oracle)
            current = simplify(formula)
            for step in trace.steps:
                if step.split_var in variables(current):
                    current = split(current, step.split_var)[0 if step.chosen_branch else 1]
                assert serialize(current) == step.chosen_formula
