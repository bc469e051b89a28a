"""Exact model counting from a two-candidate enumerator.

The core construction packs two formulas into one: for variable-disjoint
F(x1..xn) and G(y1..ym) and fresh z, z',

    H = (F & z) | (!z & x1 & ... & xn & G & z')

has exactly ||F|| * 2^(m+1) + ||G|| models, so both operand counts can be
read off one combined count by divmod.  Operands are placed in disjoint
index ranges first (an input formula shares variables with its own children,
so renaming is not optional).  The children are renamed once, straight into
their final range, and an operand whose variables already fill its range is
used as it is.

The counter combines a formula with its open split children (both, nested,
or the one that is not a constant), runs the enumerator once on that
combination, and decodes each listed value into a candidate triple (a, b, c)
of root/child counts; a constant child's count is its value.  The child
candidates are lifted to the root's residual variable slots so that
consistency is exactly a = b + c.  Inconsistent or out-of-range triples are
discarded; if the survivors agree on a the count is settled, otherwise they
pin an injective two-point linkage from one child's count to the root's, and
the counter recurses on that child, resolving the recorded chain on the way
back up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .errors import ConstantOperand, InvalidParams, OracleContractViolation
from .formula import (
    And,
    Const,
    Formula,
    Not,
    Or,
    Var,
    place_variables,
    self_reduce,
    simplify,
    variable_mask,
)
from .oracles import TwoEnumeratorOracle, honest_two_enumerator


@dataclass(frozen=True)
class CombineRecipe:
    renamed_left: Formula
    renamed_right: Formula
    left_var_count: int
    right_var_count: int
    combined: Formula
    fresh_vars: tuple[int, int]


class DecodedCounts(NamedTuple):
    left_count: int
    right_count: int
    left_in_range: bool
    right_in_range: bool


@dataclass(frozen=True)
class GuessTriple:
    """Candidate counts for a formula and its two children, child candidates
    lifted to the root's residual slots."""

    a: int
    b: int
    c: int

    @property
    def consistent(self) -> bool:
        return self.a == self.b + self.c


@dataclass
class Linkage:
    child: Formula
    mapping: dict[int, int]  # child count candidate -> root count candidate
    depth: int
    triples: tuple[GuessTriple, GuessTriple]


def combine(left: Formula, right: Formula, *, start: int = 1) -> CombineRecipe:
    """Pack two formulas into one whose count encodes both operand counts.

    The combined formula's variables are exactly start..start+n+m+1: the left
    operand's n variables in order from ``start``, the right operand's m after
    them, then the switch and guard.  An operand whose variables already form
    its range is used as it is, not copied.
    """
    n, m = variable_mask(left).bit_count(), variable_mask(right).bit_count()
    if not n or not m:
        raise ConstantOperand("combine requires operands with at least one variable")
    renamed_left = place_variables(left, start)
    renamed_right = place_variables(right, start + n)
    switch, guard = start + n + m, start + n + m + 1
    combined = Or(
        And(renamed_left, Var(switch)),
        And(
            Not(Var(switch)),
            *(Var(i) for i in range(start, start + n)),
            renamed_right,
            Var(guard),
        ),
    )
    return CombineRecipe(
        renamed_left=renamed_left,
        renamed_right=renamed_right,
        left_var_count=n,
        right_var_count=m,
        combined=combined,
        fresh_vars=(switch, guard),
    )


def decode(recipe: CombineRecipe, combined_count: int) -> DecodedCounts:
    """Invert the combination: (left, right) = divmod(count, 2^(m+1)).

    Out-of-range components flag a bogus enumerator guess; no exception."""
    left, right = divmod(combined_count, 1 << (recipe.right_var_count + 1))
    return DecodedCounts(
        left_count=left,
        right_count=right,
        left_in_range=left <= 1 << recipe.left_var_count,
        right_in_range=right <= 1 << recipe.right_var_count,
    )


@dataclass(frozen=True)
class Combine3Recipe:
    outer: CombineRecipe
    inner: CombineRecipe


def combine3(formula: Formula, left_child: Formula, right_child: Formula) -> Combine3Recipe:
    """Nested combination of a formula with its two non-constant children.

    The children are combined straight into the range after the formula's n
    variables (``start = n + 1``), so the inner recipe's ``renamed_*`` and
    ``fresh_vars`` sit n above those of a combination from 1; its counts and
    ``decode`` are the same.  The outer combination then keeps the inner
    formula as it is, and the formula too when its variables are x1..xn, so
    only the two children are copied.  The result is the same, node for node
    and in its text, as the children combined from 1 and renamed up by n;
    oracles that digest the text of their query rely on that.
    """
    inner = combine(left_child, right_child, start=variable_mask(formula).bit_count() + 1)
    outer = combine(formula, inner.combined)
    return Combine3Recipe(outer=outer, inner=inner)


def decode3(recipe: Combine3Recipe, combined_count: int) -> tuple[int, int, int, bool]:
    """Decode one combined count into raw (a, b, c) plus an in-range flag."""
    outer = decode(recipe.outer, combined_count)
    inner = decode(recipe.inner, outer.right_count)
    in_range = (
        outer.left_in_range
        and outer.right_in_range
        and inner.left_in_range
        and inner.right_in_range
    )
    return outer.left_count, inner.left_count, inner.right_count, in_range


def link_disagreeing_triples(
    first: GuessTriple, second: GuessTriple
) -> tuple[str, dict[int, int]]:
    """Build the injective child-to-root candidate mapping.

    The triples must be individually consistent but disagree on a; they then
    differ on at least one child.  The right child is preferred when both
    differ, matching the worked resolution on the False branch.
    """
    if first.a == second.a:
        raise InvalidParams("triples agree on the root count; nothing to link")
    if first.c != second.c:
        return "right", {first.c: first.a, second.c: second.a}
    if first.b != second.b:
        return "left", {first.b: first.a, second.b: second.a}
    raise InvalidParams("consistent triples disagreeing on a must differ on a child")


def count_via_enumerator(
    formula: Formula, oracle: TwoEnumeratorOracle
) -> tuple[int, list[Linkage]]:
    """Exact model count over vars(formula) using a two-candidate enumerator."""
    chain: list[Linkage] = []
    simplified = simplify(formula)
    lift = variable_mask(formula).bit_count() - variable_mask(simplified).bit_count()
    count = _count(simplified, oracle, chain, depth=0)
    return count << lift, chain


def _lift(count: int, child: Formula, slots: int) -> int:
    return count << (slots - variable_mask(child).bit_count())


def _count(formula: Formula, oracle: TwoEnumeratorOracle, chain: list[Linkage], depth: int) -> int:
    if type(formula) is Const:
        return int(formula.value)
    slots = variable_mask(formula).bit_count() - 1
    true_child, false_child, _ = self_reduce(formula)
    true_const = type(true_child) is Const
    false_const = type(false_child) is Const

    if true_const and false_const:
        return (int(true_child.value) + int(false_child.value)) << slots

    if true_const or false_const:
        # A constant child's raw count is its value; combine with the other.
        recipe = combine(formula, false_child if true_const else true_child)
        query = recipe.combined

        def read(value: int) -> tuple[int, int, int, bool]:
            a, raw, a_in_range, raw_in_range = decode(recipe, value)
            b_raw = int(true_child.value) if true_const else raw
            c_raw = int(false_child.value) if false_const else raw
            return a, b_raw, c_raw, a_in_range and raw_in_range

    else:
        recipe3 = combine3(formula, true_child, false_child)
        query, read = recipe3.outer.combined, partial(decode3, recipe3)

    triples: list[GuessTriple] = []
    for value in oracle.enumerate(query):
        a, b_raw, c_raw, in_range = read(value)
        if in_range:
            b, c = _lift(b_raw, true_child, slots), _lift(c_raw, false_child, slots)
            triples.append(GuessTriple(a, b, c))

    survivors: list[GuessTriple] = []
    for triple in triples:
        if triple.consistent and triple not in survivors:
            survivors.append(triple)
    if not survivors:
        raise OracleContractViolation(
            "every decoded guess was inconsistent or out of range"
        )
    root_candidates = {t.a for t in survivors}
    if len(root_candidates) == 1:
        return survivors[0].a

    first, second = survivors
    side, mapping = link_disagreeing_triples(first, second)
    child = true_child if side == "left" else false_child
    chain.append(Linkage(child=child, mapping=mapping, depth=depth, triples=(first, second)))
    resolved = _count(child, oracle, chain, depth + 1)
    resolved_lifted = _lift(resolved, child, slots)
    if resolved_lifted not in mapping:
        raise OracleContractViolation(
            f"resolved child count {resolved_lifted} matches neither linkage key "
            f"{sorted(mapping)}"
        )
    return mapping[resolved_lifted]


@dataclass(frozen=True)
class NaiveFailureWitness:
    formula: Formula
    root_count: int
    left_count: int
    right_count: int
    guess_sets: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class NaiveFailureReport:
    """Two formulas with identical per-node guess sets but different counts.

    Any procedure that sees only the three guess pairs for a formula and its
    two children treats the witnesses identically, yet their true root counts
    differ, so no such procedure can compute the count without coordinating
    guesses across nodes (which is what the combiner provides).
    """

    witnesses: tuple[NaiveFailureWitness, NaiveFailureWitness]


def demonstrate_naive_failure() -> NaiveFailureReport:
    """Concrete witnesses for the failure of per-node guessing."""
    from .formula import brute_force_count, parse

    oracle = honest_two_enumerator("woeginger")
    witnesses = []
    for text in ("x1 & !x1 & x2", "!x1 & x2"):
        formula = parse(text)
        true_child, false_child, _ = self_reduce(formula)
        slots = variable_mask(formula).bit_count() - 1
        witnesses.append(
            NaiveFailureWitness(
                formula=formula,
                root_count=brute_force_count(formula),
                left_count=_lift(brute_force_count(true_child), true_child, slots),
                right_count=_lift(brute_force_count(false_child), false_child, slots),
                guess_sets=(
                    tuple(oracle.enumerate(formula)),
                    tuple(oracle.enumerate(true_child)),
                    tuple(oracle.enumerate(false_child)),
                ),
            )
        )
    return NaiveFailureReport(witnesses=(witnesses[0], witnesses[1]))
