"""Propositional formula ASTs: parsing, simplification, splitting, counting.

Formulas are immutable trees built from five node kinds: ``Const``, ``Var``,
``Not``, and n-ary ``And`` / ``Or``.  The text grammar is

    formula := or ;  or := and ("|" and)* ;  and := unary ("&" unary)* ;
    unary   := "!" unary | atom ;
    atom    := "T" | "F" | VAR | "(" formula ")" ;  VAR := "x" [1-9][0-9]*

and is whitespace-insensitive (at most ``MAX_NESTING`` "!"/"(" levels deep).
Canonical serialization uses the same grammar with minimal parentheses and
single spaces around binary operators; chains of the same connective are
flattened, so the encoded length of a formula is stable under simplification.

A split on a variable builds both children in one walk (``split``), after
``simplify``; ``self_reduce`` is ``split`` on the least variable.  Both take
an optional memo the caller owns, so subtrees that many formulas share are
split once per variable.  A rebuilt connective is built in one step unless
a part is of its own kind and must be flattened into it.

Truth tables count models (``brute_force_count``) or find the lowest one
(``first_model``); a ``ModelStore`` holds a formula against all its models
in one table walk.  The one walker (``_truth_table``) treats all-ones and
all-zero columns as constants; past one block of assignments, subtrees
that hold no block-constant variable are tabulated once per call.
Renamed copies are built in one step, keeping the source's marks.

Functions here are pure, except that ``first_model`` and ``brute_force_*``
without ``limit`` read their cap from the environment variable
``SELFRED_BRUTE_LIMIT``.  ``Not``/``And``/``Or`` nodes cache their
variable mask, canonical text and simplified mark, set to sentinels at
construction and filled in on first use, idempotently, so formulas stay
safe to share across threads; a mask too wide to keep stays ``None``, and
leaves cache nothing.  Only this module walks whole trees or reads formula
text.  Walkers dispatch on exact classes and raise ``MalformedInput`` for
the rest, node subclasses included.
"""

from __future__ import annotations

import functools
import operator
import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    FormulaSyntaxError,
    IncompleteAssignment,
    InvalidParams,
    MalformedInput,
    NoVariables,
    TooLarge,
    UnknownVariable,
)

DEFAULT_BRUTE_FORCE_LIMIT = 24
BRUTE_FORCE_LIMIT_ENV = "SELFRED_BRUTE_LIMIT"
# Most "!" and "(" levels parse() accepts around any point of a formula; the
# parser and the tree walkers recurse once or more per level.
MAX_NESTING = 200
# Widest variable mask a node keeps (it costs a bit per index up to the top).
_CACHED_MASK_BITS = 1024
# Longest variable index that formula text and DIMACS input may spell out.
MAX_INDEX_DIGITS = 6
# Highest variable index; Var holds no other, so every variable can be spelt.
_MAX_INDEX = 10**MAX_INDEX_DIGITS - 1
# A variable as canonical text spells it; the group is its index.
_INDEX = re.compile(r"x(\d+)")
# Variables whose assignments one truth-table block spans: their columns are
# 2^16 bits (8 KB), and every other variable is constant within a block.
_BLOCK_VARS = 16
# Models a ModelStore keeps; a full store is emptied before it keeps another.
MODEL_STORE_SIZE = 256
# Longest clause count parse_dimacs converts; far more clauses than any text
# holds, and far below int()'s limit on digits.
_MAX_CLAUSE_COUNT_DIGITS = 18
# A DIMACS literal and a problem-line count, in ASCII digits as the formula
# grammar spells an index (int() would also take "1_0", "+2" and "١").
_DIMACS_LITERAL = re.compile(r"-?[0-9]+")
_DIMACS_COUNT = re.compile(r"[0-9]+")


class _Node:
    """Caches filled on first use: variable bitmask, unparenthesised text, and
    a mark on simplified nodes.  Not fields, so repr, == and hash skip them."""

    __slots__ = ("_mask", "_text", "_simple")


@dataclass(frozen=True, init=False, slots=True)
class Const(_Node):
    value: bool

    def __init__(self, value: bool) -> None:
        if value is not True and value is not False:
            raise InvalidParams(f"constant must be True or False, got {value!r}")
        _set_value(self, value)


@dataclass(frozen=True, init=False, slots=True)
class Var(_Node):
    index: int

    def __init__(self, index: int) -> None:
        if type(index) is not int or not 0 < index <= _MAX_INDEX:
            raise InvalidParams(f"variable index must be an int in 1..{_MAX_INDEX}, got {index!r}")
        _set_index(self, index)


@dataclass(frozen=True, init=False, slots=True)
class Not(_Node):
    child: "Formula"

    def __init__(self, child: "Formula") -> None:
        _set_child(self, child)
        _set_mask(self, None), _set_text(self, None), _set_simple(self, False)

    def __reduce__(self):  # copies and pickles are built by __init__, caches unset
        return Not, (self.child,)


class _Connective(_Node):
    """Shared constructor of the n-ary connectives: children of the same
    connective are flattened in place, and at least two must remain."""

    __slots__ = ()

    def __init__(self, *children: "Formula") -> None:
        kind = type(self)
        flat: list[Formula] = []
        for child in children:
            flat.extend(child.children if type(child) is kind else (child,))
        if len(flat) < 2:
            raise InvalidParams(f"{kind.__name__} requires at least 2 children")
        object.__setattr__(self, "children", tuple(flat))
        _set_mask(self, None), _set_text(self, None), _set_simple(self, False)

    def __reduce__(self):
        return type(self), self.children


@dataclass(frozen=True, init=False, slots=True)
class And(_Connective):
    children: tuple["Formula", ...]


@dataclass(frozen=True, init=False, slots=True)
class Or(_Connective):
    children: tuple["Formula", ...]


# Slot setters that go around the frozen nodes' __setattr__.
_set_mask, _set_text, _set_simple = _Node._mask.__set__, _Node._text.__set__, _Node._simple.__set__
_set_value, _set_index, _set_child = Const.value.__set__, Var.index.__set__, Not.child.__set__

Formula = Const | Var | Not | And | Or

TRUE = Const(True)
FALSE = Const(False)

Assignment = Mapping[int, bool]


def _not_a_formula(value: object) -> MalformedInput:  # what every walker raises
    return MalformedInput(f"not a formula: {value!r}")


def variable_mask(formula: Formula) -> int:
    """Occurring variables as a bitmask: bit i is set iff x_i occurs."""
    cls = type(formula)
    if cls is Var:
        return 1 << formula.index
    if cls is Const:
        return 0
    if cls is not Not and cls is not And and cls is not Or:
        raise _not_a_formula(formula)
    mask = formula._mask
    if mask is not None:
        return mask
    if cls is Not:
        mask = variable_mask(formula.child)
    else:
        mask = 0
        for child in formula.children:
            mask |= variable_mask(child)
    if mask.bit_length() <= _CACHED_MASK_BITS:  # a wider one stays None
        _set_mask(formula, mask)
    return mask


def _indices(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    indices = []
    while mask:
        lowest = mask & -mask
        indices.append(lowest.bit_length() - 1)
        mask ^= lowest
    return indices


def variables(formula: Formula) -> frozenset[int]:
    """Set of variable indices occurring in the formula."""
    return frozenset(_indices(variable_mask(formula)))


def serialize(formula: Formula) -> str:
    """Canonical text form of the formula.  Parentheses go only where the
    grammar needs them: around an ``Or`` under a connective or under ``!``,
    and around an ``And`` under ``!``."""
    cls = type(formula)
    if cls is Var:
        return f"x{formula.index}"
    if cls is Const:
        return "T" if formula.value else "F"
    if cls is not Not and cls is not And and cls is not Or:
        raise _not_a_formula(formula)
    text = formula._text
    if text is not None:
        return text
    if cls is Not:
        inner = serialize(formula.child)
        text = f"!({inner})" if isinstance(formula.child, _Connective) else "!" + inner
    else:
        parts = [f"({serialize(c)})" if type(c) is Or else serialize(c) for c in formula.children]
        text = (" & " if cls is And else " | ").join(parts)
    _set_text(formula, text)
    return text


def _most_frequent_variable(formula: Formula) -> int:
    """The variable with the most occurrences in a formula that holds one,
    counted in its canonical text."""
    counts = Counter(map(int, _INDEX.findall(serialize(formula))))
    # Ties break toward the highest index: fresh variables sit above renamed
    # operand ranges, and splitting them decomposes combined formulas.
    return max(counts, key=lambda index: (counts[index], index))


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

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
        nests = self.peek() in ("!", "(")
        self.depth += nests
        if self.depth > MAX_NESTING:
            raise self.error(f"more than {MAX_NESTING} nested '!' and '(' levels")
        if self.peek() == "!":
            self.pos += 1
            node = Not(self.parse_unary())
        else:
            node = self.parse_atom()
        self.depth -= nests
        return node

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
            while "0" <= self.peek() <= "9":
                if self.pos - start == MAX_INDEX_DIGITS:
                    raise self.error(f"variable index longer than {MAX_INDEX_DIGITS} digits")
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
    A line starting with % ends the clauses, so the %/0 trailer of the SATLIB
    files is read.  One pass: a clause's node is built when its 0 is read,
    and the first literal above the declared variable count is raised after
    the scan, so any other syntax error comes first.
    """
    var_count = clause_count = too_high = None
    clauses: list[Formula] = []
    current: list[Formula] = []  # literal nodes of the open clause
    end = problem_at = 0
    for line_no, line in enumerate(text.splitlines(keepends=True), start=1):
        at, end = end, end + len(line.encode())  # byte offsets of this line
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            end = at
            break
        if stripped.startswith("p"):
            if var_count is not None:
                raise FormulaSyntaxError("duplicate problem line", at)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormulaSyntaxError(f"bad problem line on line {line_no}", at)
            if not (_DIMACS_COUNT.fullmatch(parts[2]) and _DIMACS_COUNT.fullmatch(parts[3])):
                raise FormulaSyntaxError(f"negative or non-integer count on line {line_no}", at)
            if len(parts[2]) > MAX_INDEX_DIGITS:
                raise FormulaSyntaxError(f"variable count above {MAX_INDEX_DIGITS} digits", at)
            if len(parts[3]) > _MAX_CLAUSE_COUNT_DIGITS:
                raise FormulaSyntaxError(f"clause count above {_MAX_CLAUSE_COUNT_DIGITS} digits", at)
            var_count, clause_count, problem_at = int(parts[2]), int(parts[3]), at
            continue
        if var_count is None:
            raise FormulaSyntaxError(f"clause before problem line on line {line_no}", at)
        for token in re.finditer(r"\S+", line):
            try:
                if not _DIMACS_LITERAL.fullmatch(token.group()):
                    raise ValueError
                literal = int(token.group())
            except ValueError:  # also past int()'s limit on digits
                token_at = at + len(line[: token.start()].encode())
                raise FormulaSyntaxError(f"bad literal on line {line_no}", token_at) from None
            if literal == 0:
                clauses.append(Or(*current) if len(current) > 1 else current[0] if current else FALSE)
                current = []
            elif abs(literal) <= var_count:
                current.append(Var(literal) if literal > 0 else Not(Var(-literal)))
            elif too_high is None:
                token_at = at + len(line[: token.start()].encode())
                too_high = FormulaSyntaxError(f"literal {literal} exceeds declared variable count", token_at)
    if var_count is None:
        raise FormulaSyntaxError("missing 'p cnf' problem line", end)
    if too_high is not None:
        raise too_high
    if current:
        raise FormulaSyntaxError("final clause not terminated by 0", end)
    if len(clauses) != clause_count:
        raise FormulaSyntaxError(f"declared {clause_count} clauses but found {len(clauses)}", problem_at)
    return And(*clauses) if len(clauses) > 1 else clauses[0] if clauses else TRUE


def simplify(formula: Formula) -> Formula:
    """Constant propagation to a fixed point.

    Rules: True & y = y, False & y = False, True | y = True, False | y = y,
    !True = False, !False = True.  No other rewriting; after simplification
    no Const node remains except as the whole formula.  Simplified nodes are
    marked, and simplifying a marked node returns it at once.
    """
    # Only simplified nodes are marked, so no node holds another tree.
    cls = type(formula)
    if cls is Var or cls is Const:
        return formula
    if cls is not Not and cls is not And and cls is not Or:
        raise _not_a_formula(formula)
    if formula._simple:
        return formula
    if cls is Not:
        return _negated(simplify(formula.child), formula)
    return _folded(cls, map(simplify, formula.children), formula)


def _split(formula: Formula, index: int, bit: int, memo: dict) -> tuple[Formula, Formula]:
    """Both children of a simplified formula that holds x_index (mask
    ``bit``): the formula with the variable True and with it False,
    simplified.  Only the paths to the variable are rebuilt, and new nodes
    are marked simplified.

    ``memo`` maps the identity of each child split so far on this variable
    to ``(true, false, child)``: a child met again, in this formula or
    another that shares the memo, is split once.  The stored child keeps its
    id valid while the memo lives; without it, CPython would give a freed
    child's id to a new node and the memo would answer for the wrong node."""
    cls = type(formula)
    if cls is Var:
        return TRUE, FALSE
    if cls is Not:
        true_child, false_child = _split(formula.child, index, bit, memo)
        return _negated(true_child), _negated(false_child)
    if cls is not And and cls is not Or:
        raise _not_a_formula(formula)
    true_parts: list[Formula] = []
    false_parts: list[Formula] = []
    for child in formula.children:
        child_cls = type(child)
        if child_cls is Var and child.index == index:
            true_child, false_child = TRUE, FALSE
        elif child_cls is Var or not variable_mask(child) & bit:
            true_child = false_child = child
        elif (known := memo.get(id(child))) is not None:
            true_child, false_child, _ = known
        else:
            true_child, false_child = _split(child, index, bit, memo)
            memo[id(child)] = true_child, false_child, child
        true_parts.append(true_child)
        false_parts.append(false_child)
    return _folded(cls, true_parts), _folded(cls, false_parts)


def _negated(part: Formula, original: Formula | None = None) -> Formula:
    """!part, for a simplified ``part``, simplified and marked: a constant
    flips, and ``original`` stands when its child is ``part`` itself."""
    if type(part) is Const:
        return FALSE if part.value else TRUE
    return _marked(original if original is not None and original.child is part else Not(part))


def _folded(cls: type, parts: Iterable[Formula], original: Formula | None = None) -> Formula:
    """The connective ``cls`` over simplified ``parts``, simplified and
    marked: the neutral constant drops out, the absorbing one decides
    (reading no further part), a lone part stands for itself, and
    ``original`` stands when every part is its own child."""
    absorbing = cls is Or  # False absorbs And, True absorbs Or
    kept: list[Formula] = []
    nested = False  # whether a part is a cls, which the constructor flattens
    for part in parts:
        part_cls = type(part)
        if part_cls is Const:
            if part.value == absorbing:
                return TRUE if absorbing else FALSE
            continue
        nested = nested or part_cls is cls
        kept.append(part)
    if not kept:
        return FALSE if absorbing else TRUE
    if len(kept) == 1:
        return kept[0]
    if original is not None and len(kept) == len(original.children):
        if all(map(operator.is_, kept, original.children)):
            return _marked(original)
    return _marked(cls(*kept)) if nested else _flat(cls, tuple(kept), True)


def _marked(node: Formula) -> Formula:
    _set_simple(node, True)
    return node


def _map_vars(formula: Formula, images: Mapping[int, Var]) -> Formula:
    """The formula with each variable replaced by its image, which
    ``images`` gives for every occurring variable.  Renaming a flat formula
    leaves it flat, so each connective is copied as it is, with fresh caches
    and the source's simplified mark."""
    cls = type(formula)
    if cls is Var:
        return images[formula.index]
    if cls is Not:
        copy = Not(_map_vars(formula.child, images))
        _set_simple(copy, formula._simple)
        return copy
    if cls is And or cls is Or:
        return _flat(cls, tuple([_map_vars(c, images) for c in formula.children]), formula._simple)
    if cls is Const:
        return formula
    raise _not_a_formula(formula)


def _flat(cls: type, children: tuple[Formula, ...], simple: bool = False) -> Formula:
    """``cls(*children)`` for two or more children, none a ``cls``, built
    without the constructor's flattening pass: fresh caches and the given
    simplified mark."""
    node = object.__new__(cls)
    object.__setattr__(node, "children", children)
    _set_mask(node, None), _set_text(node, None), _set_simple(node, simple)
    return node


def split(formula: Formula, index: int, memo: dict | None = None) -> tuple[Formula, Formula]:
    """Both children of a split on x_index, built in one walk: simplify(F)
    with the variable True and with it False.

    Only the paths to the variable are rebuilt; other simplified subtrees
    are kept as they are, shared by both children.  Each child's variable
    set is contained in vars(F) minus the split variable, and its
    serialization is strictly shorter than the input's.

    ``memo`` is an optional dict the caller owns and passes to every split
    of formulas that share subtrees: each shared subtree is then split once
    per variable, and the children share its split.  The results equal
    those of a split without it.
    """
    if not (index > 0 and variable_mask(formula) >> index & 1):
        raise UnknownVariable(f"variable x{index} does not occur in the formula")
    simple = simplify(formula)
    bit = 1 << index
    if simple is not formula and not variable_mask(simple) & bit:
        return simple, simple  # simplification dropped the variable
    return _split(simple, index, bit, {} if memo is None else memo.setdefault(index, {}))


def self_reduce(formula: Formula, memo: dict | None = None) -> tuple[Formula, Formula, int]:
    """``split`` on the least occurring variable, through ``memo`` if given.

    Returns (F with the variable True, F with it False, the variable); the
    input is satisfiable iff at least one of the two children is.
    """
    mask = variable_mask(formula)
    if not mask:
        raise NoVariables("cannot self-reduce a constant formula")
    least = (mask & -mask).bit_length() - 1
    return (*split(formula, least, memo), least)


def place_variables(formula: Formula, start: int) -> Formula:
    """The formula with its k variables renamed, in order, to x_start ..
    x_(start+k-1), the mapping read off the cached mask.  A formula already
    in place is returned as it is."""
    if start < 1:
        raise InvalidParams(f"variable index must be positive, got start {start}")
    mask = variable_mask(formula)
    if mask == ((1 << mask.bit_count()) - 1) << start:
        return formula
    return _map_vars(formula, {index: Var(start + rank) for rank, index in enumerate(_indices(mask))})


def evaluate(formula: Formula, assignment: Assignment) -> bool:
    """Evaluate under an assignment covering every occurring variable: the
    truth table over that one assignment."""
    values = {index: 1 if value else 0 for index, value in assignment.items()}
    try:
        return _truth_table(formula, values, 1) == 1
    except KeyError as exc:
        raise IncompleteAssignment(f"assignment is missing variable x{exc.args[0]}") from None


def brute_force_limit() -> int:
    """Exhaustive-enumeration cap; SELFRED_BRUTE_LIMIT overrides the default."""
    raw = os.environ.get(BRUTE_FORCE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_BRUTE_FORCE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise InvalidParams(f"{BRUTE_FORCE_LIMIT_ENV} must be an integer, got {raw!r}") from None


def _column(position: int, total_bits: int) -> int:
    # Bit m of the column is the value of this variable in assignment number m.
    half = 1 << position
    segment = ((1 << half) - 1) << half
    width = half << 1
    while width < total_bits:
        segment |= segment << width
        width <<= 1
    return segment


@functools.cache
def _block_columns(width: int) -> tuple[int, ...]:
    """Columns of the lowest ``width`` variables in a block of 2^width
    assignments, built once per width: about 250 KB for all widths up to
    _BLOCK_VARS together."""
    return tuple(_column(rank, 1 << width) for rank in range(width))


def _truth_table(formula: Formula, masks: dict[int, int], full: int) -> int:
    """The formula's truth table: bit m is its value in assignment number m,
    where ``masks`` gives each variable's column and ``full`` has a bit set
    for every assignment.  Raises KeyError for a variable with no column.

    The ``full`` object and 0 are constants: an ``And`` skips ``full`` and
    stops at 0, an ``Or`` stops at ``full``, a ``Not`` swaps the two, and
    the first other operand is kept without a copy.  A connective whose
    table equals ``full`` returns ``full`` itself, so columns that are
    ``full`` or 0 propagate by identity.  Children are read in order, and a
    connective reads none after its value is settled."""
    cls = type(formula)
    if cls is Var:
        return masks[formula.index]
    if cls is Not:
        table = _truth_table(formula.child, masks, full)
        if table is full:
            return 0
        return full ^ table if table else full
    if cls is And:
        result = full
        for child in formula.children:
            table = _truth_table(child, masks, full)
            if not table:
                return 0
            if table is not full:
                result = table if result is full else result & table
                if not result:
                    return 0
        return full if result == full else result
    if cls is Or:
        result = 0
        for child in formula.children:
            table = _truth_table(child, masks, full)
            if table is full:
                return full
            if table:
                result = result | table if result else table
                if result == full:
                    return full
        return result
    if cls is Const:
        return full if formula.value else 0
    raise _not_a_formula(formula)


def _tables(formula: Formula, limit: int | None) -> tuple[dict[int, int], Iterable[int]]:
    """The columns and the truth tables of all 2^k assignments, one table
    per block, each yielded with that block's columns in place.  Assignment
    number m gives the variable of rank r the value of bit r of m.  The
    lowest _BLOCK_VARS variables get columns one block wide; the rest are
    constant within a block, all-ones or all-zero, so block b holds the
    assignments b * 2^_BLOCK_VARS onwards."""
    effective = brute_force_limit() if limit is None else limit
    occurring = mask = variable_mask(formula)
    k = mask.bit_count()
    if k > effective:
        raise TooLarge(f"{k} variables exceeds the exhaustive limit of {effective}")
    width = k if k < _BLOCK_VARS else _BLOCK_VARS
    full = (1 << (1 << width)) - 1
    masks: dict[int, int] = {}
    for column in _block_columns(width):  # the lowest variables, by rank
        lowest = mask & -mask
        masks[lowest.bit_length() - 1] = column
        mask ^= lowest
    if not mask:  # every variable fits one block
        return masks, (_truth_table(formula, masks, full),)
    return masks, _block_tables(formula, masks, full, occurring, mask)


def _block_tables(
    formula: Formula, masks: dict, full: int, occurring: int, high_bits: int
) -> Iterator[int]:
    """The block tables: each stand-in's table joins a copy of the columns
    as ``_block_variant`` makes it, and the rest is walked in every block."""
    columns = dict(masks)
    reduced = _block_variant(formula, high_bits, columns, full, [occurring | 1])
    high = _indices(high_bits)
    for block in range(1 << len(high)):
        for rank, index in enumerate(high):
            masks[index] = columns[index] = full if block >> rank & 1 else 0
        yield _truth_table(reduced, columns, full)


def _block_variant(
    formula: Formula, high_bits: int, columns: dict[int, int], full: int, taken: list[int]
) -> Formula | None:
    """None when the formula holds no variable of ``high_bits``, so its table
    is the same in every block; else the formula with the children of each
    connective that hold none gathered under one stand-in, placed first: a
    fresh variable, the lowest index not in ``taken[0]``, whose column in
    ``columns`` is their joint table, made with it.  One pass: a cached mask
    settles a subtree without visiting it, and a wide one is settled bottom-up."""
    cls = type(formula)
    if cls is Var:
        return formula if high_bits >> formula.index & 1 else None
    if cls is Const:
        return None
    if cls is not Not and cls is not And and cls is not Or:
        raise _not_a_formula(formula)
    mask = formula._mask
    if mask is not None and not mask & high_bits:
        return None
    if cls is Not:
        child = _block_variant(formula.child, high_bits, columns, full, taken)
        return None if child is None else formula if child is formula.child else Not(child)
    invariant: list[Formula] = []
    parts: list[Formula] = []
    changed = False
    for child in formula.children:
        part = _block_variant(child, high_bits, columns, full, taken)
        if part is None:
            invariant.append(child)
        else:
            parts.append(part)
            changed = changed or part is not child
    if not parts:
        return None
    if invariant:
        subtree = invariant[0] if len(invariant) == 1 else _flat(cls, tuple(invariant))
        free = ~taken[0] & (taken[0] + 1)  # the lowest index not in use
        taken[0] |= free
        index = free.bit_length() - 1
        columns[index] = _truth_table(subtree, columns, full)
        parts.insert(0, Var(index))
    elif not changed:
        return formula
    return _flat(cls, tuple(parts))


def first_model(formula: Formula, limit: int | None = None) -> Assignment | None:
    """The lowest-numbered model over vars(F), or None: the lowest set bit
    of the first block's table that holds one, read off the columns."""
    masks, tables = _tables(formula, limit)
    for table in filter(None, tables):  # the generator waits at this block
        low = (table & -table).bit_length() - 1
        return {index: column >> low & 1 == 1 for index, column in masks.items()}
    return None


def brute_force_count(formula: Formula, limit: int | None = None) -> int:
    """Exact model count over vars(F) by evaluating all 2^k assignments.

    Intentionally naive (bit-parallel evaluation of the whole tree, block by
    block, no solver heuristics); this is the reference oracle everything
    else is checked against.
    """
    return sum(map(int.bit_count, _tables(formula, limit)[1]))


def brute_force_sat(formula: Formula, limit: int | None = None) -> bool:
    """Satisfiability by exhaustive enumeration, stopping at the first block
    that holds a model: ``first_model`` without building the model."""
    return any(_tables(formula, limit)[1])


class ModelStore(dict):
    """Up to MODEL_STORE_SIZE models as truth-table columns: bit j of column
    i is x_i in model j, and a variable that a model leaves out reads False."""

    size = 0  # models kept

    def __missing__(self, index: int) -> int:
        return 0

    def holds(self, formula: Formula) -> bool:
        """True when some kept model satisfies the formula (one table walk)."""
        return _truth_table(formula, self, (1 << self.size) - 1) != 0

    def add(self, model: Assignment) -> None:
        if self.size == MODEL_STORE_SIZE:
            self.clear()
            self.size = 0
        for index, value in model.items():
            if value:
                self[index] |= 1 << self.size
        self.size += 1
