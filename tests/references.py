"""The references the kernel is checked against, one of each.

Each is built from node fields (``value``, ``index``, ``child``,
``children``) and the five constructors, and shares no code with the
engine: none calls a ``selfred.formula`` function or reads a cache slot.
An assignment number m gives the variable of rank r (in index order) the
value of bit r of m, as the engine numbers them."""

from functools import cache, reduce
from itertools import product
from operator import and_, or_

from selfred.formula import And, Const, Not, Or, Var


def subtrees(formula):
    yield formula
    if type(formula) is Not:
        yield from subtrees(formula.child)
    elif type(formula) in (And, Or):
        for child in formula.children:
            yield from subtrees(child)


def reference_variables(formula) -> frozenset:
    return frozenset(node.index for node in subtrees(formula) if type(node) is Var)


def assignments(indices):
    """Every assignment over the given variable indices."""
    ordered = sorted(indices)
    return (dict(zip(ordered, values)) for values in product((False, True), repeat=len(ordered)))


def evaluated(formula, assignment) -> bool:
    """The formula's value, reading its children in order and none after the
    value is settled; a variable the assignment lacks raises KeyError."""
    if type(formula) is Const:
        return formula.value
    if type(formula) is Var:
        return bool(assignment[formula.index])
    if type(formula) is Not:
        return not evaluated(formula.child, assignment)
    settle = all if type(formula) is And else any
    return settle(evaluated(child, assignment) for child in formula.children)


def _table(formula, columns, full) -> int:
    """Bit m is the formula's value under assignment number m."""
    if type(formula) is Const:
        return full if formula.value else 0
    if type(formula) is Var:
        return columns[formula.index]
    if type(formula) is Not:
        return full ^ _table(formula.child, columns, full)
    join, start = (and_, full) if type(formula) is And else (or_, 0)
    return reduce(join, (_table(child, columns, full) for child in formula.children), start)


@cache
def _columns(k: int) -> tuple[int, ...]:
    """The columns of k variables over all 2^k assignments: the column of
    the variable of rank r repeats 2^r zeros and 2^r ones from bit 0 up."""
    total = 1 << k
    return tuple(int(("1" * (1 << r) + "0" * (1 << r)) * (total >> r + 1), 2) for r in range(k))


def _whole_table(formula) -> tuple[list[int], int]:
    """The occurring variables in index order, and the table of all 2^k
    assignments at once."""
    occurring = sorted(reference_variables(formula))
    columns = dict(zip(occurring, _columns(len(occurring))))
    return occurring, _table(formula, columns, (1 << (1 << len(occurring))) - 1)


def count(formula) -> int:
    """The number of models over the occurring variables."""
    return _whole_table(formula)[1].bit_count()


def lowest_model(formula):
    """The model with the lowest assignment number, or None."""
    occurring, table = _whole_table(formula)
    if not table:
        return None
    number = (table & -table).bit_length() - 1
    return {index: bool(number >> rank & 1) for rank, index in enumerate(occurring)}


def reference_simplify(formula):
    """Constant propagation, rebuilt through the constructors."""
    if type(formula) in (Const, Var):
        return formula
    if type(formula) is Not:
        inner = reference_simplify(formula.child)
        return Const(not inner.value) if type(inner) is Const else Not(inner)
    absorbing = type(formula) is Or
    kept = []
    for child in formula.children:
        inner = reference_simplify(child)
        if type(inner) is Const:
            if inner.value == absorbing:
                return Const(absorbing)
            continue
        kept.append(inner)
    if not kept:
        return Const(not absorbing)
    return kept[0] if len(kept) == 1 else type(formula)(*kept)


def _assigned(formula, index, value):
    if type(formula) is Var:
        return Const(value) if formula.index == index else formula
    if type(formula) is Not:
        return Not(_assigned(formula.child, index, value))
    if type(formula) in (And, Or):
        return type(formula)(*(_assigned(child, index, value) for child in formula.children))
    return formula


def substituted(formula, index, value):
    """The formula with x_index set to ``value``, simplified."""
    return reference_simplify(_assigned(formula, index, value))


def renamed(formula, mapping):
    """The formula with each x_i rebuilt as x_mapping[i]."""
    if type(formula) is Var:
        return Var(mapping[formula.index])
    if type(formula) is Not:
        return Not(renamed(formula.child, mapping))
    if type(formula) in (And, Or):
        return type(formula)(*(renamed(child, mapping) for child in formula.children))
    return formula


def is_flat(formula) -> bool:
    """Whether no connective holds a child of its own kind, which the text
    cannot spell."""
    return all(
        type(child) is not type(node)
        for node in subtrees(formula)
        if type(node) in (And, Or)
        for child in node.children
    )
