"""Simulated oracles for the four decider capabilities.

Each constructor returns an oracle whose input/output behavior satisfies the
declared contract (checked against brute force by the test suite).  Each
keeps one memo by canonical text (``_by_text``), which serializes each
query once and answers only on a miss: the selectors memoize whether a
model exists, the tally and sparse oracles their whole image, and the
2-enumerator its whole answer, counted by ``exact_model_count``.  Decision
oracles search (``find_model``, which keeps no memo) only when no model they
kept (``ModelStore``) satisfies the query: a model of F with x_i = b is one
of F[x_i := b].  Oracles are deterministic, which the deciders'
duplicate-image pruning relies on.  The only mutable state is the call
counter, the memo, the model store and sparse's arrival counter, so confine
instances to one thread (results never depend on interleaving; the counter
is not atomic).

Answers that break a contract's form raise ``OracleContractViolation``: a
selector answer that is not a bool, an enumerator answer that is not a list
of one or two non-negative ints, an image that is not a string.  Nothing
here walks a whole tree or looks inside formula text, which serves only as
a key: the counter takes its split variable from ``selfred.formula``, and
counts a conjunction's components in the order of their first conjunct, as
the search does.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidBound, InvalidParams, OracleContractViolation, TooLarge
from .formula import (
    And,
    Assignment,
    Const,
    Formula,
    ModelStore,
    Not,
    Or,
    Var,
    _most_frequent_variable,
    brute_force_count,
    first_model,
    serialize,
    split,
    variable_mask,
)

NON_TALLY_TOKEN = "1"

TALLY_STYLES = ("canonical", "collision_rich", "spread")
SPARSE_STYLES = ("singleton", "scatter")
ENUMERATOR_STYLES = ("exact_plus_offset", "woeginger")
SELECTOR_STYLES = ("honest", "adversarial")


def is_tally_string(text: str) -> bool:
    """True for strings over the single letter 0 (the empty string counts)."""
    return not text.strip("0")


@dataclass(frozen=True, init=False)
class PolynomialBound:
    """Polynomial with nonnegative int coefficients, nondecreasing on naturals."""

    coefficients: tuple[int, ...]

    def __init__(self, coefficients) -> None:
        coeffs = tuple(coefficients)
        if any(type(c) is not int or c < 0 for c in coeffs):
            raise InvalidBound(f"coefficients must be nonnegative ints, got {coeffs}")
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


class SelectorOracle(_CountedOracle):
    """Picks one of its two arguments, a satisfiable one whenever either
    argument is satisfiable.

    The query answers True for the first argument and False for the second;
    ``choose`` returns the argument object itself, so a caller can tell the
    branch by identity."""

    def choose(self, a: Formula, b: Formula) -> Formula:
        self.call_counter += 1
        first = self._query(a, b)
        if type(first) is not bool:
            kind = type(first).__name__
            raise OracleContractViolation(f"selector answered a value of type {kind}, not bool")
        return a if first else b


class TallyReductionOracle(_CountedOracle):
    """Many-one reduction into a tally set: F is satisfiable iff the image is
    a member of the oracle's internal tally set."""

    def map(self, formula: Formula) -> str:
        self.call_counter += 1
        image = self._query(formula)
        if not isinstance(image, str):
            kind = type(image).__name__
            raise OracleContractViolation(f"{type(self).__name__} image of type {kind}, not str")
        return image


class SparseCoReductionOracle(_CountedOracle):
    """Many-one reduction of unsatisfiability into a sparse set, carrying the
    declared census bound q and image-length bound r."""

    def __init__(
        self,
        map_fn: Callable[[Formula], str],
        q: PolynomialBound,
        r: PolynomialBound,
    ) -> None:
        for bound in (q, r):
            if type(bound) is not PolynomialBound:
                raise InvalidBound(f"bound must be a PolynomialBound, got {bound!r}")
        super().__init__(map_fn)
        self.q = q
        self.r = r

    # The same method, held in this class's own namespace, where the tracer
    # patches and restores it.
    map = TallyReductionOracle.map


class TwoEnumeratorOracle(_CountedOracle):
    """Outputs a list of one or two non-negative int candidate model counts;
    the true count is always in the list."""

    def enumerate(self, formula: Formula) -> list[int]:
        self.call_counter += 1
        values = self._query(formula)
        if not isinstance(values, list):
            kind = type(values).__name__
            raise OracleContractViolation(f"2-enumerator answered a value of type {kind}, not list")
        if not 1 <= len(values) <= 2:
            raise OracleContractViolation(
                f"2-enumerator listed {len(values) or 'no'} candidate counts {values}; "
                "one or two allowed"
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


def _by_text(answer: Callable[[Formula, str], object]) -> Callable[[Formula], object]:
    """Memo of ``answer(formula, text)`` by the formula's canonical text,
    which is serialized once per query."""
    cache: dict[str, object] = {}

    def ask(formula: Formula):
        key = serialize(formula)
        if key not in cache:
            cache[key] = answer(formula, key)
        return cache[key]

    return ask


def _model_checker() -> Callable[[Formula], bool]:
    """Whether a formula has a model, asked of the models kept so far first."""
    store = ModelStore()

    def has_model(formula: Formula) -> bool:
        if store.holds(formula):
            return True
        if (model := find_model(formula)) is not None:  # looked up when called
            store.add(model)
        return model is not None

    return has_model


def honest_selector() -> SelectorOracle:
    """Selector that prefers its first argument, satisfiable ones first."""
    has_model = _model_checker()
    sat = _by_text(lambda f, key: has_model(f))

    def choose(a: Formula, b: Formula) -> bool:
        return sat(a) or not sat(b)

    return SelectorOracle(choose)


def adversarial_selector(seed: int) -> SelectorOracle:
    """Contract-respecting but unhelpful: a pick the contract leaves open is
    pseudo-random from the seed, or the first of two equal texts."""
    has_model = _model_checker()
    sat = _by_text(lambda f, key: (has_model(f), key))  # each text read off its memo key

    def choose(a: Formula, b: Formula) -> bool:
        (sat_a, text_a), (sat_b, text_b) = sat(a), sat(b)
        if sat_a != sat_b:
            return sat_a
        return text_a == text_b or _digest_int(seed, text_a, text_b) % 2 == 0

    return SelectorOracle(choose)


def simulated_tally_reduction(style: str) -> TallyReductionOracle:
    """Tally-set reduction in one of three styles.

    canonical: T = {00}; every satisfiable formula maps to "00", every
    unsatisfiable one to "0" (maximal collisions).  collision_rich: T = {0};
    unsatisfiable formulas map to the non-tally token.  spread: T = the
    even-length zero strings; images are bucketed by encoded length mod 8.
    """
    has_model = _model_checker()
    if style == "canonical":
        image = lambda f, key: "00" if has_model(f) else "0"
    elif style == "collision_rich":
        image = lambda f, key: "0" if has_model(f) else NON_TALLY_TOKEN
    elif style == "spread":

        def image(f: Formula, key: str) -> str:
            bucket = len(key) % 8
            return "0" * (2 * bucket if has_model(f) else 2 * bucket + 1)

    else:
        raise InvalidParams(f"unknown tally style {style!r}; expected one of {TALLY_STYLES}")
    return TallyReductionOracle(_by_text(image))


def simulated_sparse_coreduction(style: str, seed: int = 0) -> SparseCoReductionOracle:
    """Sparse-set co-reduction in one of two styles.

    singleton: S = {"1"}; unsatisfiable formulas map to "1", satisfiable ones
    to pairwise-distinct "0"-prefixed strings numbered by first arrival.
    scatter: S = the all-ones strings of length 1..16; unsatisfiable formulas
    land in a seed-chosen member, satisfiable ones get arrival-numbered
    distinct images outside S, so frontiers of diverse satisfiable nodes are
    never collapsed by deduplication.
    """
    # Images are memoized by text, so each satisfiable text draws one number
    # and images stay functional within an oracle's lifetime; lengths stay
    # under r as long as fewer than 2^16 satisfiable formulas are seen, far
    # beyond desk scale.
    arrivals = itertools.count()
    has_model = _model_checker()

    if style == "singleton":
        q = PolynomialBound((1, 1))
        r = PolynomialBound((16, 1))
        unsat_image = lambda key: "1"
    elif style == "scatter":
        q = PolynomialBound((2, 2))
        r = PolynomialBound((32, 1))
        unsat_image = lambda key: "1" * (1 + _digest_int(seed, key) % 16)
    else:
        raise InvalidParams(f"unknown sparse style {style!r}; expected one of {SPARSE_STYLES}")

    def image(f: Formula, key: str) -> str:
        return "0" + format(next(arrivals), "b") if has_model(f) else unsat_image(key)

    return SparseCoReductionOracle(_by_text(image), q, r)


def honest_two_enumerator(style: str, seed: int = 0) -> TwoEnumeratorOracle:
    """Two-enumerator whose output list always contains the true count.

    exact_plus_offset pairs the true count c with c+d for a seeded
    pseudo-random d in {-1, +1, c+1}, clamped at zero and sorted.  woeginger
    answers [0, 1] whenever c is 0 or 1, and falls back to exact_plus_offset
    otherwise.
    """
    if style not in ENUMERATOR_STYLES:
        raise InvalidParams(
            f"unknown enumerator style {style!r}; expected one of {ENUMERATOR_STYLES}"
        )

    def answer(f: Formula, key: str) -> tuple[int, ...]:
        c = exact_model_count(f)
        if style == "woeginger" and c in (0, 1):
            return (0, 1)
        delta = (-1, 1, c + 1)[_digest_int(seed, key, "offset") % 3]
        return tuple(sorted({c, max(0, c + delta)}))

    ask = _by_text(answer)  # the memo keeps tuples; each query gets a fresh list
    return TwoEnumeratorOracle(lambda f: list(ask(f)))


# The 2-enumerator asks here, on tree nodes and on combined formulas of about
# triple the input's variables, so it cannot lean on the naive brute force.
# This counter is exact and structure-aware, using the two rules that make
# counting polynomial on d-DNNF (Darwiche and Marquis 2002): conjunctions split
# into variable-disjoint components, and disjunctions whose children pairwise
# contradict on a top-level unit literal sum their children's lifted counts.
# The combiner's switch variable makes its formulas such disjunctions.
# Literals count 1, everything else Shannon-splits on the most frequent
# variable, and residues of at most 18 variables fall through to the truth
# table.  The model search takes the same steps in the same order, with no
# memo, its first step charged to the budget, and stops at the first model: a
# table at its lowest, any disjunction at its first child with one, a Shannon
# split at its first branch with one, a conjunction at its first component
# without one.
_BIT_PARALLEL_LIMIT = 18
_DEFAULT_COUNT_BUDGET = 50_000


def exact_model_count(formula: Formula, budget: int = _DEFAULT_COUNT_BUDGET) -> int:
    """Exact model count over vars(formula); raises TooLarge if the formula
    resists decomposition within the work budget."""
    if variable_mask(formula).bit_count() <= _BIT_PARALLEL_LIMIT:
        return brute_force_count(formula, limit=_BIT_PARALLEL_LIMIT)
    return _component_count(formula, {}, [budget])


def _component_count(formula: Formula, memo: dict[str, int], remaining: list[int]) -> int:
    cls = type(formula)
    if cls is Const:
        return 1 if formula.value else 0
    if cls is Var or cls is Not and type(formula.child) is Var:
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
    elif cls is And and len(groups := _disjoint_groups(formula.children)) > 1:
        result = 1
        for group in groups:
            result *= _component_count(group[0] if len(group) == 1 else And(*group), memo, remaining)
            if result == 0:
                break
    else:
        # One lifted sum: each part's count times 2^(slots - its variables),
        # over an exclusive disjunction's children or a Shannon split's branches.
        if cls is Or and _pairwise_contradictory(formula.children):
            parts, slots = formula.children, k
        else:
            parts, slots = split(formula, _most_frequent_variable(formula)), k - 1
        result = 0
        for part in parts:
            part_count = _component_count(part, memo, remaining)
            result += part_count << (slots - variable_mask(part).bit_count())
    memo[key] = result
    return result


def find_model(formula: Formula, budget: int = _DEFAULT_COUNT_BUDGET) -> Assignment | None:
    """A model: values of some of the formula's variables, every extension of
    which satisfies it.  None when it has none; raises TooLarge if the
    formula resists decomposition within the work budget."""
    return _component_model(formula, [budget])


def _component_model(formula: Formula, remaining: list[int]) -> Assignment | None:
    # No memo: the searches measured met no text twice.  Every model returned
    # is a fresh dict, which its caller may extend in place.
    cls = type(formula)
    if cls is Const:
        return {} if formula.value else None
    if cls is Var:
        return {formula.index: True}
    if cls is Not and type(formula.child) is Var:
        return {formula.child.index: False}
    remaining[0] -= 1
    if remaining[0] < 0:
        raise TooLarge("formula resists decomposition within the counting budget")
    if variable_mask(formula).bit_count() <= _BIT_PARALLEL_LIMIT:
        return first_model(formula, limit=_BIT_PARALLEL_LIMIT)
    if cls is And and len(groups := _disjoint_groups(formula.children)) > 1:
        model: Assignment = {}
        for group in groups:
            part = _component_model(group[0] if len(group) == 1 else And(*group), remaining)
            if part is None:
                return None
            model.update(part)
        return model
    if cls is Or:
        for child in formula.children:
            if (model := _component_model(child, remaining)) is not None:
                return model
        return None
    index = _most_frequent_variable(formula)
    for value, branch in zip((True, False), split(formula, index)):
        if (model := _component_model(branch, remaining)) is not None:
            model[index] = value
            return model
    return None


def _disjoint_groups(children: tuple[Formula, ...]) -> list[list[Formula]]:
    """The conjuncts in variable-disjoint groups.  One pass over the
    conjuncts' masks finds the variables that two or more of them hold;
    with none, each conjunct is a group of its own.  Otherwise a union-find
    over conjuncts joins each to the first conjunct that holds each of its
    shared variables.  Groups come in the order of their first conjunct,
    and each lists its conjuncts in order."""
    masks = [variable_mask(child) for child in children]
    seen = shared = 0
    for mask in masks:
        shared |= seen & mask
        seen |= mask
    if not shared:
        return [[child] for child in children]
    parent = list(range(len(children)))  # conjunct -> one in its group

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    first: dict[int, int] = {}  # shared variable -> the first conjunct that holds it
    for i, mask in enumerate(masks):
        mask &= shared
        while mask:
            low = mask & -mask
            mask ^= low
            other = first.setdefault(low.bit_length() - 1, i)
            if other != i:
                parent[root(i)] = root(other)
    groups: dict[int, list[Formula]] = {}  # by root, in first-conjunct order
    for i, child in enumerate(children):
        groups.setdefault(root(i), []).append(child)
    return list(groups.values())


def _pairwise_contradictory(children: tuple[Formula, ...]) -> bool:
    """True when every two children hold some unit literal with opposite
    signs, so no assignment satisfies two of them.  A child's unit literals
    are its top-level conjuncts that are literals; a literal is its own only
    conjunct."""
    seen: list[tuple[int, int]] = []  # masks of positive and negated unit literals
    for child in children:
        positive = negative = 0
        for conjunct in child.children if type(child) is And else (child,):
            if type(conjunct) is Var:
                positive |= 1 << conjunct.index
            elif type(conjunct) is Not and type(conjunct.child) is Var:
                negative |= 1 << conjunct.child.index
        for other_positive, other_negative in seen:
            if not (positive & other_negative or negative & other_positive):
                return False
        seen.append((positive, negative))
    return True
