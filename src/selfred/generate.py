"""Seeded random formula generation for corpora and CLI experiments."""

from __future__ import annotations

import random

from .errors import InvalidParams
from .formula import And, Formula, Not, Or, Var

# Largest node_budget generate_random accepts.  Folding the leaves pops from
# the middle of a list, so its time grows with the square of the budget:
# about 2 s at this bound with every leaf drawn (2-core Xeon, Python 3.11).
MAX_NODE_BUDGET = 100_000


def generate_random(var_count: int, node_budget: int, seed: int) -> Formula:
    """Deterministic random formula in which every variable occurs.

    ``node_budget`` (at most ``MAX_NODE_BUDGET``) bounds the number of
    variable-occurrence leaves; each of the ``var_count`` variables takes one
    mandatory leaf, the rest are drawn at random.  Connectives are free:
    leaves are optionally negated and then folded together with random
    And/Or nodes (occasionally negated) until one formula remains.
    """
    if var_count < 1:
        raise InvalidParams(f"var_count must be >= 1, got {var_count}")
    if node_budget < var_count:
        raise InvalidParams(
            f"node_budget must be >= var_count, got {node_budget} < {var_count}"
        )
    if node_budget > MAX_NODE_BUDGET:
        raise InvalidParams(f"node_budget must be <= {MAX_NODE_BUDGET}, got {node_budget}")
    rng = random.Random(seed)
    extra = rng.randint(0, node_budget - var_count)
    occurrences = list(range(1, var_count + 1))
    occurrences += [rng.randint(1, var_count) for _ in range(extra)]
    rng.shuffle(occurrences)

    nodes: list[Formula] = []
    for index in occurrences:
        leaf: Formula = Var(index)
        if rng.random() < 0.35:
            leaf = Not(leaf)
        nodes.append(leaf)

    while len(nodes) > 1:
        arity = rng.randint(2, min(3, len(nodes)))
        picked = [nodes.pop(rng.randrange(len(nodes))) for _ in range(arity)]
        op = rng.choice((And, Or))
        combined: Formula = op(*picked)
        if rng.random() < 0.15:
            combined = Not(combined)
        nodes.append(combined)
    return nodes[0]


def generate_corpus(
    count: int, max_vars: int, node_budget_per_var: int = 2, seed: int = 0
) -> list[Formula]:
    """Batch of generated formulas with variable counts cycling 1..max_vars."""
    corpus = []
    for i in range(count):
        var_count = (i % max_vars) + 1
        corpus.append(
            generate_random(var_count, node_budget_per_var * var_count + 2, seed * 100003 + i)
        )
    return corpus
