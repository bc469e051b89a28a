"""Seeded inputs and pass plans for the three benchmark workloads.

A workload is a sequence of rounds.  Each round is one ``selfred.cli.run()``
per pass (algorithm, oracle style, mode) over the pass's part of the round's
formulas.  The ``corpus`` workload repeats the same acceptance corpus every
round, and every pass takes all of it; ``wide`` and ``count`` draw fresh
formulas for every round from the workload seed and deal them out among
their passes, so a run averages over as many formulas as it can time: the
cost of a random formula is heavy-tailed, and the formulas a seed draws
move a run's rate as much as the host does.  Oracles always get seed 0: the
program sees only the generated formulas.

A timed run covers a fixed number of rounds, ``--seconds`` over the
workload's ``round_s``, so two versions of the program given the same seed
and seconds time exactly the same formulas.  ``round_s`` is the time of one
untraced round on a shared 2-core x86-64 machine under Python 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Pass:
    algorithm: str  # selfred.cli algorithm name
    style: str
    mode: str = "early_accept"
    # The pass takes formulas[part::parts] of each round.
    part: int = 0
    parts: int = 1

    @property
    def family(self) -> str:
        """Metric prefix: selector, tally, sparse or enum."""
        return "enum" if self.algorithm == "enum_count" else self.algorithm

    @property
    def label(self) -> str:
        return f"{self.family}/{self.style}"

    def take(self, items: list) -> list:
        return items[self.part :: self.parts]


@dataclass
class Workload:
    name: str
    passes: tuple[Pass, ...]
    # (modules, seed, round) -> formulas of that round
    make_round: Callable[[object, int, int], list]
    # (modules) -> small input run once per pass during set-up
    make_warmup: Callable[[object], list]
    # Rounds in the traced run: fixed, so its counts repeat exactly per seed.
    traced_rounds: int
    # Seconds one untraced round takes on the reference machine.
    round_s: float
    # True when every round reruns the round-0 formulas.
    repeats_inputs: bool = False

    def timed_rounds(self, seconds: float) -> int:
        """Rounds of a timed run of about ``seconds``; at least one."""
        return max(1, round(seconds / self.round_s))


def exhaustive_formulas(modules, max_nodes: int) -> list:
    """Every canonical formula with a binary parse tree of at most
    ``max_nodes`` nodes over x1..x3, deduplicated by text."""
    f = modules.formula
    by_size = {1: [f.Var(i) for i in (1, 2, 3)]}
    seen: set[str] = set()
    result = list(by_size[1])
    seen.update(f.serialize(v) for v in result)
    for size in range(2, max_nodes + 1):
        bucket = []
        bucket_seen: set[str] = set()

        def add(formula) -> None:
            key = f.serialize(formula)
            if key not in bucket_seen:
                bucket_seen.add(key)
                bucket.append(formula)
                if key not in seen:
                    seen.add(key)
                    result.append(formula)

        for child in by_size[size - 1]:
            add(f.Not(child))
        for left_size in range(1, size - 1):
            for left in by_size[left_size]:
                for right in by_size[size - 1 - left_size]:
                    add(f.And(left, right))
                    add(f.Or(left, right))
        by_size[size] = bucket
    return result


def _formula_seed(seed: int, round_index: int, slot: int) -> int:
    # Distinct generator seeds for every (workload seed, round, slot < 1024).
    return (seed * 1_000_003 + round_index) * 1024 + slot


def corpus_workload(max_nodes: int = 7, random_count: int = 500, random_vars: int = 10) -> Workload:
    def make_round(modules, seed, round_index):
        return exhaustive_formulas(modules, max_nodes) + modules.generate.generate_corpus(
            random_count, random_vars, seed=seed
        )

    def make_warmup(modules):
        return exhaustive_formulas(modules, min(max_nodes, 5))[:300]

    return Workload(
        name="corpus",
        passes=(
            Pass("selector", "adversarial"),
            Pass("tally", "spread"),
            Pass("sparse", "scatter", "capped_continue"),
            Pass("enum_count", "woeginger"),
        ),
        make_round=make_round,
        make_warmup=make_warmup,
        traced_rounds=1,
        round_s=11.0,
        repeats_inputs=True,
    )


def _random_formulas(modules, seed, round_index, var_counts, per_count):
    generate_random = modules.generate.generate_random
    return [
        generate_random(n, 2 * n + 2, _formula_seed(seed, round_index, i * 32 + n))
        for i in range(per_count)
        for n in var_counts
    ]


def _dealt(passes: list[Pass]) -> tuple[Pass, ...]:
    """Each pass takes every len(passes)-th formula of a round."""
    return tuple(
        Pass(p.algorithm, p.style, p.mode, part=i, parts=len(passes)) for i, p in enumerate(passes)
    )


def wide_workload(var_counts=range(20, 25), traced_rounds: int = 6) -> Workload:
    var_counts = tuple(var_counts)
    passes = _dealt([Pass("selector", "honest"), Pass("tally", "collision_rich"), Pass("sparse", "singleton")])
    return Workload(
        name="wide",
        passes=passes,
        # One formula per n for every pass: n runs through var_counts three
        # times, and len(var_counts) is prime to 3.
        make_round=lambda m, seed, r: _random_formulas(m, seed, r, var_counts, len(passes)),
        make_warmup=lambda m: _random_formulas(m, -1, 0, (var_counts[0],), 1),
        traced_rounds=traced_rounds,
        round_s=2.1,
    )


def count_workload(var_counts=range(14, 21), per_count: int = 4, traced_rounds: int = 15) -> Workload:
    var_counts = tuple(var_counts)
    return Workload(
        name="count",
        passes=_dealt([Pass("enum_count", "exact_plus_offset"), Pass("enum_count", "woeginger")]),
        make_round=lambda m, seed, r: _random_formulas(m, seed, r, var_counts, per_count),
        make_warmup=lambda m: _random_formulas(m, -1, 0, (var_counts[0],), 1),
        traced_rounds=traced_rounds,
        round_s=0.75,
    )


WORKLOADS = {
    "corpus": corpus_workload,
    "wide": wide_workload,
    "count": count_workload,
}
