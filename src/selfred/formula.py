"""Propositional formula ASTs: parsing, simplification, splitting, counting.

Formulas are immutable trees built from five node kinds: ``Const``, ``Var``,
``Not``, and n-ary ``And`` / ``Or``.  The text grammar is

    formula := or ;  or := and ("|" and)* ;  and := unary ("&" unary)* ;
    unary   := "!" unary | atom ;
    atom    := "T" | "F" | VAR | "(" formula ")" ;  VAR := "x" [1-9][0-9]*

and is whitespace-insensitive.  Canonical serialization uses the same grammar
with minimal parentheses and single spaces around binary operators; chains of
the same connective are flattened, so the encoded length of a formula is
stable under simplification.

Everything here is a pure function of its inputs; values are safe to share
across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Union

from .errors import (
    FormulaSyntaxError,
    IncompleteAssignment,
    InvalidParams,
    NoVariables,
    TooLarge,
    UnknownVariable,
)

DEFAULT_BRUTE_FORCE_LIMIT = 24
BRUTE_FORCE_LIMIT_ENV = "SELFRED_BRUTE_LIMIT"


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Var:
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"variable index must be positive, got {self.index}")


@dataclass(frozen=True)
class Not:
    child: "Formula"


class _Connective:
    """Shared constructor of the n-ary connectives: children of the same
    connective are flattened in place, and at least two must remain."""

    def __init__(self, *children: "Formula") -> None:
        kind = type(self)
        flat: list[Formula] = []
        for child in children:
            flat.extend(child.children if isinstance(child, kind) else (child,))
        if len(flat) < 2:
            raise ValueError(f"{kind.__name__} requires at least 2 children")
        object.__setattr__(self, "children", tuple(flat))


@dataclass(frozen=True, init=False)
class And(_Connective):
    children: tuple["Formula", ...]


@dataclass(frozen=True, init=False)
class Or(_Connective):
    children: tuple["Formula", ...]


Formula = Union[Const, Var, Not, And, Or]

TRUE = Const(True)
FALSE = Const(False)

Assignment = Mapping[int, bool]


def variables(formula: Formula) -> frozenset[int]:
    """Set of variable indices occurring in the formula."""
    match formula:
        case Const():
            return frozenset()
        case Var(index):
            return frozenset((index,))
        case Not(child):
            return variables(child)
        case And(children) | Or(children):
            return frozenset().union(*(variables(c) for c in children))
    raise TypeError(f"not a formula: {formula!r}")


# Precedence levels for minimal parenthesization: Or < And < unary.
_PREC_OR, _PREC_AND, _PREC_UNARY = 0, 1, 2


def serialize(formula: Formula) -> str:
    """Canonical text form of the formula."""
    return _serialize(formula, _PREC_OR)


def _serialize(formula: Formula, context: int) -> str:
    match formula:
        case Const(value):
            return "T" if value else "F"
        case Var(index):
            return f"x{index}"
        case Not(child):
            return "!" + _serialize(child, _PREC_UNARY)
        case And(children) | Or(children):
            joiner, own = (" & ", _PREC_AND) if isinstance(formula, And) else (" | ", _PREC_OR)
            text = joiner.join(_serialize(c, _PREC_AND) for c in children)
            return f"({text})" if context > own else text
    raise TypeError(f"not a formula: {formula!r}")


def serialized_length(formula: Formula) -> int:
    """Encoded length |F|: byte length of the canonical serialization."""
    return len(serialize(formula))


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> FormulaSyntaxError:
        offset = len(self.text[: self.pos].encode())
        return FormulaSyntaxError(message, offset)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while True:
            self.skip_ws()
            if self.peek() != "|":
                break
            self.pos += 1
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def parse_and(self) -> Formula:
        parts = [self.parse_unary()]
        while True:
            self.skip_ws()
            if self.peek() != "&":
                break
            self.pos += 1
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(*parts)

    def parse_unary(self) -> Formula:
        self.skip_ws()
        if self.peek() == "!":
            self.pos += 1
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        self.skip_ws()
        ch = self.peek()
        if ch == "T":
            self.pos += 1
            return Const(True)
        if ch == "F":
            self.pos += 1
            return Const(False)
        if ch == "x":
            self.pos += 1
            start = self.pos
            if not ("1" <= self.peek() <= "9"):
                raise self.error("expected variable index starting with 1-9 after 'x'")
            while self.peek().isdigit():
                self.pos += 1
            return Var(int(self.text[start : self.pos]))
        if ch == "(":
            self.pos += 1
            inner = self.parse_or()
            self.skip_ws()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return inner
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected character {ch!r}")


def parse(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with a byte offset."""
    parser = _Parser(text)
    formula = parser.parse_or()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return formula


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into an And-of-Or-of-literals formula.

    Clauses map to disjunctions of literals (a lone literal stays a literal,
    an empty clause becomes Const(False)); zero clauses yield Const(True).
    """
    var_count = clause_count = None
    literal_tokens: list[int] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if var_count is not None:
                raise FormulaSyntaxError("duplicate problem line", 0)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormulaSyntaxError(f"bad problem line on line {line_no}", 0)
            if not (parts[2].isdecimal() and parts[3].isdecimal()):
                raise FormulaSyntaxError(f"negative or non-integer count on line {line_no}", 0)
            var_count, clause_count = int(parts[2]), int(parts[3])
            continue
        if var_count is None:
            raise FormulaSyntaxError(f"clause before problem line on line {line_no}", 0)
        try:
            literal_tokens.extend(int(tok) for tok in stripped.split())
        except ValueError:
            raise FormulaSyntaxError(f"bad literal on line {line_no}", 0) from None
    if var_count is None:
        raise FormulaSyntaxError("missing 'p cnf' problem line", 0)

    clauses: list[list[int]] = []
    current: list[int] = []
    for literal in literal_tokens:
        if literal == 0:
            clauses.append(current)
            current = []
            continue
        if abs(literal) > var_count:
            raise FormulaSyntaxError(f"literal {literal} exceeds declared variable count", 0)
        current.append(literal)
    if current:
        raise FormulaSyntaxError("final clause not terminated by 0", 0)
    if len(clauses) != clause_count:
        raise FormulaSyntaxError(
            f"declared {clause_count} clauses but found {len(clauses)}", 0
        )

    def literal_node(literal: int) -> Formula:
        return Var(literal) if literal > 0 else Not(Var(-literal))

    clause_nodes: list[Formula] = []
    for clause in clauses:
        if not clause:
            clause_nodes.append(FALSE)
        elif len(clause) == 1:
            clause_nodes.append(literal_node(clause[0]))
        else:
            clause_nodes.append(Or(*(literal_node(l) for l in clause)))
    if not clause_nodes:
        return TRUE
    if len(clause_nodes) == 1:
        return clause_nodes[0]
    return And(*clause_nodes)


def simplify(formula: Formula) -> Formula:
    """Constant propagation to a fixed point.

    Rules: True & y = y, False & y = False, True | y = True, False | y = y,
    !True = False, !False = True.  No other rewriting; after simplification
    no Const node remains except as the whole formula.
    """
    match formula:
        case Const() | Var():
            return formula
        case Not(child):
            inner = simplify(child)
            if isinstance(inner, Const):
                return Const(not inner.value)
            return Not(inner)
        case And(children) | Or(children):
            absorbing = isinstance(formula, Or)  # False absorbs And, True absorbs Or
            kept: list[Formula] = []
            for child in children:
                inner = simplify(child)
                if isinstance(inner, Const):
                    if inner.value == absorbing:
                        return Const(absorbing)
                    continue
                kept.append(inner)
            if not kept:
                return Const(not absorbing)
            if len(kept) == 1:
                return kept[0]
            return type(formula)(*kept)
    raise TypeError(f"not a formula: {formula!r}")


def _map_vars(formula: Formula, mapping: Mapping[int, Formula]) -> Formula:
    """Replace each variable that ``mapping`` covers by its image."""
    match formula:
        case Const():
            return formula
        case Var(index):
            return mapping.get(index, formula)
        case Not(child):
            return Not(_map_vars(child, mapping))
        case And(children) | Or(children):
            return type(formula)(*(_map_vars(c, mapping) for c in children))
    raise TypeError(f"not a formula: {formula!r}")


def substitute(formula: Formula, index: int, value: bool) -> Formula:
    """Assign one variable and simplify.

    The result's variable set is contained in vars(F) minus the assigned
    variable and its serialization is strictly shorter than the input's.
    """
    if index not in variables(formula):
        raise UnknownVariable(f"variable x{index} does not occur in the formula")
    return simplify(_map_vars(formula, {index: Const(value)}))


def self_reduce(formula: Formula) -> tuple[Formula, Formula, int]:
    """Split on the least occurring variable.

    Returns (F with the variable True, F with it False, the variable); the
    input is satisfiable iff at least one of the two children is.
    """
    occurring = variables(formula)
    if not occurring:
        raise NoVariables("cannot self-reduce a constant formula")
    split_var = min(occurring)
    return (
        substitute(formula, split_var, True),
        substitute(formula, split_var, False),
        split_var,
    )


def rename_variables(formula: Formula, mapping: Mapping[int, int]) -> Formula:
    """Rewrite variable indices through an injective mapping."""
    occurring = variables(formula)
    missing = occurring - mapping.keys()
    if missing:
        raise UnknownVariable(f"no mapping for variables {sorted(missing)}")
    images = [mapping[i] for i in occurring]
    if len(set(images)) != len(images):
        raise ValueError("variable renaming must be injective")
    return _map_vars(formula, {i: Var(mapping[i]) for i in occurring})


def evaluate(formula: Formula, assignment: Assignment) -> bool:
    """Evaluate under an assignment covering every occurring variable."""
    try:
        return _evaluate(formula, assignment)
    except KeyError as exc:
        raise IncompleteAssignment(f"assignment is missing variable x{exc.args[0]}") from None


def _evaluate(formula: Formula, assignment: Assignment) -> bool:
    match formula:
        case Const(value):
            return value
        case Var(index):
            return assignment[index]
        case Not(child):
            return not _evaluate(child, assignment)
        case And(children):
            return all(_evaluate(c, assignment) for c in children)
        case Or(children):
            return any(_evaluate(c, assignment) for c in children)
    raise TypeError(f"not a formula: {formula!r}")


def all_assignments(indices: frozenset[int] | set[int]) -> Iterator[dict[int, bool]]:
    """Yield every assignment over the given variable indices."""
    ordered = sorted(indices)
    for values in product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, values))


def brute_force_limit() -> int:
    """Exhaustive-enumeration cap; SELFRED_BRUTE_LIMIT overrides the default."""
    raw = os.environ.get(BRUTE_FORCE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_BRUTE_FORCE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise InvalidParams(f"{BRUTE_FORCE_LIMIT_ENV} must be an integer, got {raw!r}") from None


def _variable_mask(position: int, total_bits: int) -> int:
    # Bit m of the mask is the value of this variable in assignment number m.
    half = 1 << position
    segment = ((1 << half) - 1) << half
    width = half << 1
    while width < total_bits:
        segment |= segment << width
        width <<= 1
    return segment


def _truth_table(formula: Formula, masks: dict[int, int], full: int) -> int:
    match formula:
        case Const(value):
            return full if value else 0
        case Var(index):
            return masks[index]
        case Not(child):
            return full ^ _truth_table(child, masks, full)
        case And(children):
            result = full
            for child in children:
                result &= _truth_table(child, masks, full)
                if not result:
                    break
            return result
        case Or(children):
            result = 0
            for child in children:
                result |= _truth_table(child, masks, full)
                if result == full:
                    break
            return result
    raise TypeError(f"not a formula: {formula!r}")


def brute_force_count(formula: Formula, limit: int | None = None) -> int:
    """Exact model count over vars(F) by evaluating all 2^k assignments.

    Intentionally naive (a dense truth table, no solver heuristics); this is
    the reference oracle everything else is checked against.
    """
    effective = brute_force_limit() if limit is None else limit
    occurring = sorted(variables(formula))
    k = len(occurring)
    if k > effective:
        raise TooLarge(f"{k} variables exceeds the exhaustive limit of {effective}")
    if k == 0:
        return 1 if evaluate(formula, {}) else 0
    total_bits = 1 << k
    full = (1 << total_bits) - 1
    masks = {index: _variable_mask(pos, total_bits) for pos, index in enumerate(occurring)}
    return _truth_table(formula, masks, full).bit_count()


def brute_force_sat(formula: Formula, limit: int | None = None) -> bool:
    """Satisfiability by exhaustive enumeration."""
    return brute_force_count(formula, limit) > 0
