"""Simulated oracles for the four decider capabilities.

Each constructor returns an oracle whose input/output behavior satisfies the
declared contract (checked against brute force by the test suite); all of
them answer through one memoized ``exact_model_count``, and satisfiable means
a positive count.  That counter splits variable-disjoint conjunctions, sums
mutually exclusive disjunctions and Shannon-expands the rest.  Oracles are
deterministic, which the deciders' duplicate-image pruning relies on.  The
only mutable state is the call counter and the style-internal image/count
memos, so confine instances to one thread (results never depend on
interleaving; the counter is not atomic).

Answers of the wrong type raise ``OracleContractViolation``: a selector
choice not of the kernel's exact node classes, an enumerator answer that is
not a list of non-negative ints, an image that is not a string.  Nothing here
walks a whole tree: the counter finds its split variable in its memo key text.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, get_args

from .errors import InvalidBound, OracleContractViolation, TooLarge
from .formula import (
    And,
    Const,
    Formula,
    Not,
    Or,
    Var,
    brute_force_count,
    serialize,
    substitute,
    variable_mask,
)

NON_TALLY_TOKEN = "1"
_NODE_CLASSES = get_args(Formula)  # a selector's answer has one of them exactly

TALLY_STYLES = ("canonical", "collision_rich", "spread")
SPARSE_STYLES = ("singleton", "scatter")
ENUMERATOR_STYLES = ("exact_plus_offset", "woeginger")
SELECTOR_STYLES = ("honest", "adversarial")


def is_tally_string(text: str) -> bool:
    """True for strings over the single letter 0 (the empty string counts)."""
    return all(ch == "0" for ch in text)


@dataclass(frozen=True, init=False)
class PolynomialBound:
    """Polynomial with nonnegative coefficients, nondecreasing on naturals."""

    coefficients: tuple[int, ...]

    def __init__(self, coefficients) -> None:
        coeffs = tuple(int(c) for c in coefficients)
        if any(c < 0 for c in coeffs):
            raise InvalidBound(f"negative coefficient in {coeffs}")
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, n: int) -> int:
        value = 0
        for coefficient in reversed(self.coefficients):
            value = value * n + coefficient
        return value


class _CountedOracle:
    """Holds an oracle's query function and counts the queries made."""

    def __init__(self, query: Callable) -> None:
        self._query = query
        self.call_counter = 0

    def _ask(self, *args):
        self.call_counter += 1
        return self._query(*args)

    def _image(self, formula: Formula) -> str:
        image = self._ask(formula)
        if not isinstance(image, str):
            kind = type(image).__name__
            raise OracleContractViolation(f"{type(self).__name__} image of type {kind}, not str")
        return image


class SelectorOracle(_CountedOracle):
    """Always returns one of its two arguments; returns a satisfiable one
    whenever either argument is satisfiable."""

    def __init__(self, choose_fn: Callable[[Formula, Formula], Formula]) -> None:
        super().__init__(choose_fn)

    def choose(self, a: Formula, b: Formula) -> Formula:
        choice = self._ask(a, b)
        if type(choice) not in _NODE_CLASSES:
            kind = type(choice).__name__
            raise OracleContractViolation(f"selector chose a value of type {kind}, not a formula")
        return choice


class TallyReductionOracle(_CountedOracle):
    """Many-one reduction into a tally set: F is satisfiable iff the image is
    a member of the oracle's internal tally set."""

    def __init__(self, map_fn: Callable[[Formula], str]) -> None:
        super().__init__(map_fn)

    def map(self, formula: Formula) -> str:
        return self._image(formula)


class SparseCoReductionOracle(_CountedOracle):
    """Many-one reduction of unsatisfiability into a sparse set, carrying the
    declared census bound q and image-length bound r."""

    def __init__(
        self,
        map_fn: Callable[[Formula], str],
        q: PolynomialBound,
        r: PolynomialBound,
    ) -> None:
        super().__init__(map_fn)
        self.q = q
        self.r = r

    def map(self, formula: Formula) -> str:
        return self._image(formula)


class TwoEnumeratorOracle(_CountedOracle):
    """Outputs a list of one or two non-negative int candidate model counts;
    the true count is always in the list."""

    def __init__(self, enumerate_fn: Callable[[Formula], list[int]]) -> None:
        super().__init__(enumerate_fn)

    def enumerate(self, formula: Formula) -> list[int]:
        values = self._ask(formula)
        if not isinstance(values, list):
            kind = type(values).__name__
            raise OracleContractViolation(f"2-enumerator answered a value of type {kind}, not list")
        if len(values) > 2:
            raise OracleContractViolation(
                f"2-enumerator listed {len(values)} candidate counts {values}; at most two allowed"
            )
        for value in values:
            if type(value) is not int:
                kind = type(value).__name__
                raise OracleContractViolation(f"2-enumerator candidate of type {kind}, not int")
            if value < 0:
                raise OracleContractViolation(f"2-enumerator candidate {value} is negative")
        return values


def _digest_int(*parts: object) -> int:
    payload = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def _memoized_count() -> Callable[[Formula], int]:
    cache: dict[str, int] = {}

    def count(formula: Formula) -> int:
        key = serialize(formula)
        if key not in cache:
            cache[key] = exact_model_count(formula)
        return cache[key]

    return count


def honest_selector() -> SelectorOracle:
    """Selector that prefers its first argument, satisfiable ones first."""
    count = _memoized_count()

    def choose(a: Formula, b: Formula) -> Formula:
        if serialize(a) == serialize(b):
            return a
        if count(a) > 0:
            return a
        if count(b) > 0:
            return b
        return a

    return SelectorOracle(choose)


def adversarial_selector(seed: int) -> SelectorOracle:
    """Contract-respecting but unhelpful: whenever the contract allows either
    argument, the pick is pseudo-random from the seed."""
    count = _memoized_count()

    def choose(a: Formula, b: Formula) -> Formula:
        key_a, key_b = serialize(a), serialize(b)
        if key_a == key_b:
            return a
        sat_a, sat_b = count(a) > 0, count(b) > 0
        if sat_a != sat_b:
            return a if sat_a else b
        return a if _digest_int(seed, key_a, key_b) % 2 == 0 else b

    return SelectorOracle(choose)


def simulated_tally_reduction(style: str) -> TallyReductionOracle:
    """Tally-set reduction in one of three styles.

    canonical: T = {00}; every satisfiable formula maps to "00", every
    unsatisfiable one to "0" (maximal collisions).  collision_rich: T = {0};
    unsatisfiable formulas map to the non-tally token.  spread: T = the
    even-length zero strings; images are bucketed by encoded length mod 8.
    """
    count = _memoized_count()
    if style == "canonical":
        map_fn = lambda f: "00" if count(f) > 0 else "0"
    elif style == "collision_rich":
        map_fn = lambda f: "0" if count(f) > 0 else NON_TALLY_TOKEN
    elif style == "spread":

        def map_fn(f: Formula) -> str:
            bucket = len(serialize(f)) % 8
            return "0" * (2 * bucket if count(f) > 0 else 2 * bucket + 1)

    else:
        raise ValueError(f"unknown tally style {style!r}; expected one of {TALLY_STYLES}")
    return TallyReductionOracle(map_fn)


def simulated_sparse_coreduction(style: str, seed: int = 0) -> SparseCoReductionOracle:
    """Sparse-set co-reduction in one of two styles.

    singleton: S = {"1"}; unsatisfiable formulas map to "1", satisfiable ones
    to pairwise-distinct "0"-prefixed strings numbered by first arrival.
    scatter: S = the all-ones strings of length 1..16; unsatisfiable formulas
    land in a seed-chosen member, satisfiable ones get arrival-numbered
    distinct images outside S, so frontiers of diverse satisfiable nodes are
    never collapsed by deduplication.
    """
    count = _memoized_count()
    # Arrival numbering keeps images functional within an oracle's lifetime;
    # lengths stay under r as long as fewer than 2^16 satisfiable formulas
    # are seen, far beyond desk scale.
    images: dict[str, str] = {}

    def fresh_image(key: str) -> str:
        if key not in images:
            images[key] = "0" + format(len(images), "b")
        return images[key]

    if style == "singleton":
        q = PolynomialBound((1, 1))
        r = PolynomialBound((16, 1))

        def map_fn(f: Formula) -> str:
            key = serialize(f)
            return fresh_image(key) if count(f) > 0 else "1"

    elif style == "scatter":
        q = PolynomialBound((2, 2))
        r = PolynomialBound((32, 1))

        def map_fn(f: Formula) -> str:
            key = serialize(f)
            if count(f) > 0:
                return fresh_image(key)
            return "1" * (1 + _digest_int(seed, key) % 16)

    else:
        raise ValueError(f"unknown sparse style {style!r}; expected one of {SPARSE_STYLES}")
    return SparseCoReductionOracle(map_fn, q, r)


def honest_two_enumerator(style: str, seed: int = 0) -> TwoEnumeratorOracle:
    """Two-enumerator whose output list always contains the true count.

    exact_plus_offset pairs the true count c with c+d for a seeded
    pseudo-random d in {-1, +1, c+1}, clamped at zero and sorted.  woeginger
    answers [0, 1] whenever c is 0 or 1, and falls back to exact_plus_offset
    otherwise.
    """
    if style not in ENUMERATOR_STYLES:
        raise ValueError(
            f"unknown enumerator style {style!r}; expected one of {ENUMERATOR_STYLES}"
        )
    count = _memoized_count()

    def enumerate_fn(f: Formula) -> list[int]:
        c = count(f)
        if style == "woeginger" and c in (0, 1):
            return [0, 1]
        delta = (-1, 1, c + 1)[_digest_int(seed, serialize(f), "offset") % 3]
        return sorted({c, max(0, c + delta)})

    return TwoEnumeratorOracle(enumerate_fn)


# Every oracle counts here, on tree nodes and on combined formulas of about
# triple the input's variables, so it cannot lean on the naive brute force.
# This counter is exact and structure-aware, using the two rules that make
# counting polynomial on d-DNNF (Darwiche and Marquis 2002): conjunctions split
# into variable-disjoint components, and disjunctions whose children pairwise
# contradict on a top-level unit literal sum their children's lifted counts.
# The combiner's switch variable makes its formulas such disjunctions.
# Literals count 1, everything else Shannon-splits on the most frequent
# variable, and residues of at most 18 variables fall through to the truth
# table.
_BIT_PARALLEL_LIMIT = 18
_DEFAULT_COUNT_BUDGET = 50_000
_INDEX = re.compile(r"x(\d+)")


def exact_model_count(formula: Formula, budget: int = _DEFAULT_COUNT_BUDGET) -> int:
    """Exact model count over vars(formula); raises TooLarge if the formula
    resists decomposition within the work budget."""
    if variable_mask(formula).bit_count() <= _BIT_PARALLEL_LIMIT:
        return brute_force_count(formula, limit=_BIT_PARALLEL_LIMIT)
    return _component_count(formula, {}, [budget])


def _component_count(formula: Formula, memo: dict[str, int], remaining: list[int]) -> int:
    if isinstance(formula, Const):
        return 1 if formula.value else 0
    if isinstance(formula, Var) or isinstance(formula, Not) and isinstance(formula.child, Var):
        return 1
    remaining[0] -= 1
    if remaining[0] < 0:
        raise TooLarge("formula resists decomposition within the counting budget")
    key = serialize(formula)
    if key in memo:
        return memo[key]
    k = variable_mask(formula).bit_count()
    if k <= _BIT_PARALLEL_LIMIT:
        result = brute_force_count(formula, limit=_BIT_PARALLEL_LIMIT)
        memo[key] = result
        return result

    if isinstance(formula, And):
        groups = _disjoint_groups(formula.children)
        if len(groups) > 1:
            result = 1
            for group in groups:
                part = group[0] if len(group) == 1 else And(*group)
                result *= _component_count(part, memo, remaining)
                if result == 0:
                    break
            memo[key] = result
            return result

    if isinstance(formula, Or) and _pairwise_contradictory(formula.children):
        result = 0
        for child in formula.children:
            child_count = _component_count(child, memo, remaining)
            result += child_count << (k - variable_mask(child).bit_count())
        memo[key] = result
        return result

    split_var = _most_frequent_variable(key)
    slots = k - 1
    result = 0
    for value in (True, False):
        child = substitute(formula, split_var, value)
        child_count = _component_count(child, memo, remaining)
        result += child_count << (slots - variable_mask(child).bit_count())
    memo[key] = result
    return result


def _disjoint_groups(children: tuple[Formula, ...]) -> list[list[Formula]]:
    groups: list[tuple[int, list[Formula]]] = []
    union = 0  # of every group's mask
    for child in children:
        child_mask = variable_mask(child)
        merged_mask, merged_children = child_mask, [child]
        if child_mask & union:  # rebuild the list only when the child meets a group
            kept = []
            for group_mask, group_children in groups:
                if group_mask & child_mask:
                    merged_mask |= group_mask
                    merged_children = group_children + merged_children
                else:
                    kept.append((group_mask, group_children))
            groups = kept
        groups.append((merged_mask, merged_children))
        union |= child_mask
    return [children_ for _, children_ in groups]


def _unit_literals(formula: Formula) -> tuple[int, int]:
    """Masks of the variables among the top-level conjuncts as positive and
    as negated literals; a literal is its own only conjunct."""
    positive = negative = 0
    for conjunct in formula.children if isinstance(formula, And) else (formula,):
        if isinstance(conjunct, Var):
            positive |= 1 << conjunct.index
        elif isinstance(conjunct, Not) and isinstance(conjunct.child, Var):
            negative |= 1 << conjunct.child.index
    return positive, negative


def _pairwise_contradictory(children: tuple[Formula, ...]) -> bool:
    """True when every two children hold some unit literal with opposite
    signs, so no assignment satisfies two of them."""
    seen: list[tuple[int, int]] = []
    for child in children:
        positive, negative = _unit_literals(child)
        for other_positive, other_negative in seen:
            if not (positive & other_negative or negative & other_positive):
                return False
        seen.append((positive, negative))
    return True


def _most_frequent_variable(text: str) -> int:
    """The variable with the most occurrences in a formula's canonical text."""
    counts = Counter(map(int, _INDEX.findall(text)))
    # Ties break toward the highest index: fresh variables sit above renamed
    # operand ranges, and splitting them decomposes combined formulas.
    return max(counts, key=lambda index: (counts[index], index))
