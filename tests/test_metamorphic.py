"""Relations between answers above the 24-variable verification limit.

Brute force checks no answer there, but some answers must not change when
the formula does.  The count of F equals the count of F with each
connective's children shuffled, with its variables renamed, and padded with
a fresh conjunct variable; the counter takes different paths through each.
The three deciders must agree with each other and with the count.  Every
decider must reject F ∧ ¬G, where G is F with its children shuffled: the
same function, so the conjunction has no model.
"""

import random

import pytest

from selfred.formula import And, Not, Var
from selfred.generate import generate_random
from selfred.oracles import (
    exact_model_count,
    honest_selector,
    simulated_sparse_coreduction,
    simulated_tally_reduction,
)
from selfred.pruning import decide_via_sparse, decide_via_tally
from selfred.selector import decide_via_selector


def rebuild(formula, rename=lambda index: index, reorder=tuple):
    """The formula built anew from the public node classes, each variable
    index renamed and each connective's children reordered."""
    cls = type(formula)
    if cls is Var:
        return Var(rename(formula.index))
    if cls is Not:
        return Not(rebuild(formula.child, rename, reorder))
    return cls(*reorder([rebuild(child, rename, reorder) for child in formula.children]))


def shuffled(formula, seed):
    rng = random.Random(seed)
    return rebuild(formula, reorder=lambda children: rng.sample(children, len(children)))


def renamed(formula, n, seed):
    image = random.Random(seed).sample(range(1, n + 1), n)
    return rebuild(formula, rename=lambda index: image[index - 1])


def decisions(formula):
    """The three deciders' verdicts, each under its default oracle style."""
    return [
        decide_via_selector(formula, honest_selector())[0],
        decide_via_tally(formula, simulated_tally_reduction("canonical"))[0],
        decide_via_sparse(formula, simulated_sparse_coreduction("singleton"))[0],
    ]


@pytest.mark.parametrize("n", range(26, 49, 2))
def test_count_is_kept_by_shuffling_renaming_and_padding(n):
    for seed in range(10):
        formula = generate_random(n, 2 * n + 2, seed)
        count = exact_model_count(formula)
        assert exact_model_count(shuffled(formula, seed)) == count, seed
        assert exact_model_count(renamed(formula, n, seed)) == count, seed
        assert exact_model_count(And(formula, Var(n + 1))) == count, seed


@pytest.mark.parametrize("n", [32, 48, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_deciders_agree(n, seed):
    formula = generate_random(n, 2 * n + 2, seed)
    verdicts = decisions(formula)
    assert len(set(verdicts)) == 1, verdicts
    if n <= 48:  # the counter's budget gives out at 64
        assert verdicts[0] == (exact_model_count(formula) > 0)


@pytest.mark.parametrize("n", [26, 32, 40])
@pytest.mark.parametrize("seed", [0, 1])
def test_deciders_reject_a_formula_and_its_negated_shuffle(n, seed):
    formula = generate_random(n, 2 * n + 2, seed)
    unsatisfiable = And(formula, Not(shuffled(formula, seed)))
    assert decisions(unsatisfiable) == [False, False, False]
    assert exact_model_count(unsatisfiable) == 0
