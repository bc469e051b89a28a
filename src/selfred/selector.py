"""SAT decision from a selector oracle by walking one root-to-leaf path.

The walk assigns every variable of the input in ascending index order.  At
each step the current formula is split on the variable (a degenerate
(current, current) split when the variable no longer occurs, which happens
once simplification has collapsed a branch) and the selector picks the child
to follow.  For a contract-valid selector the surviving formula is
satisfiable iff the input is, so the final constant is the verdict, and a
True verdict's branch choices form a satisfying assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Const, Formula, self_reduce, serialize, simplify, variable_mask, variables
from .oracles import SelectorOracle


@dataclass(frozen=True)
class PathStep:
    split_var: int
    chosen_branch: bool
    chosen_formula: str


@dataclass(frozen=True)
class PathTrace:
    steps: tuple[PathStep, ...]
    final_value: bool
    oracle_calls: int

    def assignment(self) -> dict[int, bool]:
        """The branch choices, as an assignment of every walked variable."""
        return {step.split_var: step.chosen_branch for step in self.steps}


def decide_via_selector(
    formula: Formula, selector: SelectorOracle
) -> tuple[bool, PathTrace]:
    """Decide satisfiability with exactly one selector call per variable."""
    current = simplify(formula)
    if isinstance(current, Const):
        return current.value, PathTrace(steps=(), final_value=current.value, oracle_calls=0)

    steps: list[PathStep] = []
    calls_before = selector.call_counter
    for split_var in sorted(variables(current)):  # fixed walk order over the input's variables
        if variable_mask(current) >> split_var & 1:  # then it is the least one left
            true_child, false_child, _ = self_reduce(current)
        else:
            true_child = false_child = current
        current = selector.choose(true_child, false_child)
        steps.append(PathStep(split_var, current is true_child, serialize(current)))

    assert isinstance(current, Const)
    verdict = current.value
    trace = PathTrace(
        steps=tuple(steps),
        final_value=verdict,
        oracle_calls=selector.call_counter - calls_before,
    )
    return verdict, trace
