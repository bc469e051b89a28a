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

from typing import NamedTuple

from .formula import Const, Formula, serialize, simplify, split, variable_mask
from .oracles import SelectorOracle


class PathStep(NamedTuple):
    split_var: int
    chosen_branch: bool
    chosen_formula: str


class PathTrace(NamedTuple):
    steps: tuple[PathStep, ...]
    oracle_calls: int

    def assignment(self) -> dict[int, bool]:
        """The branch choices, as an assignment of every walked variable."""
        return {step.split_var: step.chosen_branch for step in self.steps}


def decide_via_selector(
    formula: Formula, selector: SelectorOracle
) -> tuple[bool, PathTrace]:
    """Decide satisfiability with exactly one selector call per variable."""
    current = simplify(formula)
    if type(current) is Const:
        return current.value, PathTrace(steps=(), oracle_calls=0)

    steps: list[PathStep] = []
    calls_before = selector.call_counter
    # The input's variables, walked lowest first, and those still in current.
    pending = occurring = variable_mask(current)
    while pending:
        bit = pending & -pending
        pending ^= bit
        split_var = bit.bit_length() - 1
        if occurring & bit:
            true_child, false_child = split(current, split_var)
        else:
            true_child = false_child = current
        current = selector.choose(true_child, false_child)
        steps.append(PathStep(split_var, current is true_child, serialize(current)))
        if pending and occurring & bit:  # current is a child, with variables left to walk
            occurring = variable_mask(current)

    assert type(current) is Const
    trace = PathTrace(steps=tuple(steps), oracle_calls=selector.call_counter - calls_before)
    return current.value, trace
