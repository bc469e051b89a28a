"""Known answers for the references in ``references.py``.

The kernel's properties are checked against those references, so the
references are checked here against answers worked by hand, not against
the kernel."""

import pytest

from references import (
    _columns,
    assignments,
    count,
    evaluated,
    is_flat,
    lowest_model,
    reference_simplify,
    reference_variables,
    renamed,
    substituted,
)
from selfred.formula import And, Const, Not, Or, Var

x1, x2, x3, x5 = Var(1), Var(2), Var(3), Var(5)
XOR = Or(And(x1, Not(x2)), And(Not(x1), x2))

# (formula, models over its occurring variables, lowest model or None)
KNOWN = [
    (Const(True), 1, {}),
    (Const(False), 0, None),
    (x1, 1, {1: True}),
    (Not(x1), 1, {1: False}),
    (And(x1, x2), 1, {1: True, 2: True}),
    (Or(x1, x2), 3, {1: True, 2: False}),
    (Or(Not(x1), x2), 3, {1: False, 2: False}),
    (And(Not(x1), x2), 1, {1: False, 2: True}),
    (XOR, 2, {1: True, 2: False}),
    (And(x1, Not(x1)), 0, None),
    (Or(x1, Not(x1)), 2, {1: False}),
    (And(x2, Or(x1, x5)), 3, {1: True, 2: True, 5: False}),
]


@pytest.mark.parametrize("formula, models, lowest", KNOWN)
def test_count_and_lowest_model_of_known_formulas(formula, models, lowest):
    assert count(formula) == models
    assert lowest_model(formula) == lowest
    assert sum(evaluated(formula, a) for a in assignments(reference_variables(formula))) == models


def test_assignments_run_over_every_value_of_the_given_indices():
    assert list(assignments([3, 1])) == [
        {1: False, 3: False},
        {1: False, 3: True},
        {1: True, 3: False},
        {1: True, 3: True},
    ]
    assert list(assignments([])) == [{}]


def test_columns_give_rank_r_bit_r_of_the_assignment_number():
    # Assignment number m sets the variable of rank r to bit r of m.
    assert _columns(1) == (0b10,)
    assert _columns(2) == (0b1010, 0b1100)
    assert _columns(3) == (0b10101010, 0b11001100, 0b11110000)


def test_evaluated_reads_no_child_after_the_value_is_settled():
    # x9 is missing from the assignment: reading it raises KeyError.
    x9 = Var(9)
    assert evaluated(And(x1, x9), {1: False}) is False
    assert evaluated(Or(x1, x9), {1: True}) is True
    with pytest.raises(KeyError):
        evaluated(And(x1, x9), {1: True})
    assert evaluated(Not(x1), {1: 0}) is True


@pytest.mark.parametrize(
    "formula, simplified",
    [
        (Not(Const(True)), Const(False)),
        (And(x1, Const(True)), x1),
        (And(x1, Const(False)), Const(False)),
        (Or(x1, Const(True)), Const(True)),
        (Or(Const(False), Const(False)), Const(False)),
        (And(x1, Not(Or(Const(False), x2)), x3), And(x1, Not(x2), x3)),
    ],
)
def test_reference_simplify_propagates_constants(formula, simplified):
    assert reference_simplify(formula) == simplified


def test_substituted_assigns_then_simplifies():
    assert substituted(And(x1, x2), 1, True) == x2
    assert substituted(And(x1, x2), 1, False) == Const(False)
    assert substituted(Or(x1, Not(x2)), 2, True) == x1
    assert substituted(XOR, 2, False) == x1
    assert substituted(XOR, 3, True) == XOR


def test_renamed_moves_every_variable_and_keeps_the_shape():
    assert renamed(And(x1, Not(x2), Const(True)), {1: 5, 2: 3}) == And(x5, Not(x3), Const(True))
    assert reference_variables(renamed(XOR, {1: 2, 2: 1})) == {1, 2}


def test_is_flat_finds_a_connective_inside_its_own_kind():
    assert is_flat(And(x1, Or(x2, And(x3, x5))))
    # The constructors flatten, so a nested And is built around them.
    nested = object.__new__(And)
    object.__setattr__(nested, "children", (x1, And(x2, x3)))
    assert not is_flat(nested)
    assert not is_flat(Or(x5, Not(nested)))
