"""Breadth-first self-reducibility-tree deciders with per-level pruning.

Both deciders run one level walker, which splits every surviving node on its
least variable, maps each child through the reduction, and prunes the level
in a single pass; each decider supplies only its own pruning rule.  The tally
decider discards children with non-tally images and keeps one node per
duplicate image; equal images mean the nodes stand or fall together, so a
level's satisfiability is preserved and the frontier stays narrow.  The
sparse decider has only duplicate pruning plus a label budget: the moment a
level holds more distinct labels than the sparse set can contain
(1 + q(r(m))) some surviving node must map outside the set and hence be
satisfiable: early_accept mode declares satisfiability on the spot,
capped_continue keeps exactly that many nodes and descends anyway.

Within a level, children are generated True branch before False branch with
parents in level order, and dedup keeps the first occurrence, so traces are
deterministic.  Each node splits on its own least variable, so a residual
formula met at one depth often recurs at a later one: within a walk it is
split once, and every copy shares its children (the same node objects).
Subtrees that several nodes share are split once per variable through one
memo per walk, and each child carries the text it was interned by to the
prune.  Every child is still mapped through the oracle, so calls, levels
and prune events are those of a walk that splits each copy afresh.
Constant nodes ride along unchanged until every node is constant; the
verdict is whether any surviving leaf is True.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import EncodingInvariantBroken, InvalidBound, InvalidParams
from .formula import (
    Const,
    Formula,
    serialize,
    self_reduce,
    simplify,
)
from .oracles import (
    SparseCoReductionOracle,
    TallyReductionOracle,
    is_tally_string,
)

NON_TALLY = "non_tally"
DUPLICATE_IMAGE = "duplicate_image"

OUTCOME_SAT = "sat"
OUTCOME_UNSAT = "unsat"
OUTCOME_EARLY_SAT = "early_sat"

SPARSE_MODES = ("early_accept", "capped_continue")


@dataclass(frozen=True)
class PruneEvent:
    kind: str
    discarded: str
    surviving_image: str | None = None


@dataclass
class TreeLevel:
    """Post-prune frontier at one depth: (formula, image) pairs."""

    depth: int
    nodes: list[tuple[Formula, str]]
    prune_events: list[PruneEvent]

    @property
    def images(self) -> list[str]:
        return [image for _, image in self.nodes]


@dataclass
class LevelStats:
    widths: list[tuple[int, int]]  # (pre_prune, post_prune) per level
    oracle_calls: int
    outcome: str
    levels: list[TreeLevel]
    threshold: int | None = None  # sparse: q(r(m))
    crossed_at: int | None = None  # sparse: first level reaching 1 + threshold
    capped_levels: list[int] = field(default_factory=list)

    @property
    def max_width(self) -> int:
        return max((pre for pre, _ in self.widths), default=0)


def _split_frontier(
    frontier: list[tuple[Formula, str]],
    oracle_map,
    root_length: int,
    interned: dict[str, Formula],
    splits: dict[int, list[tuple[Formula, str]]],
    cofactors: dict,
) -> list[tuple[Formula, str, str | None]]:
    """One level of splitting; constants pass through without a new call.

    Returns (child, image, text) triples; a constant passed through carries
    no text.  Each new child is interned by its text in ``interned``, so a
    formula met again is the same object, and ``splits`` keys its children
    and their texts by that object's identity: a recurring formula is split
    and checked once.  ``cofactors`` is ``self_reduce``'s memo, so a subtree
    that several nodes share is split once per variable.  All three live for
    one walk; every node split is the root or held in ``interned``, so no
    identity is reused while they live.
    """
    children: list[tuple[Formula, str, str | None]] = []
    for node, image in frontier:
        if type(node) is Const:
            children.append((node, image, None))
            continue
        pair = splits.get(id(node))
        if pair is None:
            pair = []
            for child in self_reduce(node, cofactors)[:2]:  # split on the least variable
                text = serialize(child)
                if len(text) > root_length:
                    raise EncodingInvariantBroken(
                        f"child {text!r} exceeds the input length {root_length}"
                    )
                pair.append((interned.setdefault(text, child), text))
            splits[id(node)] = pair
        for child, text in pair:
            children.append((child, oracle_map(child), text))
    return children


def _prune(
    children: list[tuple[Formula, str, str | None]],
    admit: Callable[[str], bool] | None,
) -> tuple[list[tuple[Formula, str]], list[PruneEvent]]:
    """Drop children whose image ``admit`` rejects, then later duplicates of a
    kept image, in one pass so events stay in child order.  An event names
    the child by its carried text, serialized only where it carries none."""
    kept: list[tuple[Formula, str]] = []
    seen: set[str] = set()
    events: list[PruneEvent] = []
    for child, image, text in children:
        if admit is not None and not admit(image):
            kind, surviving = NON_TALLY, None
        elif image in seen:
            kind, surviving = DUPLICATE_IMAGE, image
        else:
            seen.add(image)
            kept.append((child, image))
            continue
        events.append(PruneEvent(kind, serialize(child) if text is None else text, surviving))
    return kept, events


def _walk_levels(
    formula: Formula,
    oracle: TallyReductionOracle | SparseCoReductionOracle,
    admit: Callable[[str], bool] | None = None,
    label_budget: Callable[[int], int] | None = None,
    early_accept: bool = False,
) -> tuple[bool, LevelStats]:
    """The level walk both deciders share.

    ``admit`` is the tally rule: images it rejects are pruned before dedup.
    ``label_budget`` maps |F| to the sparse census bound q(r(|F|)); a level
    keeping more distinct labels than that crosses it, which either accepts
    (``early_accept``) or caps the level at budget + 1 nodes.
    """
    root = simplify(formula)
    if type(root) is Const:
        return root.value, LevelStats([], 0, OUTCOME_SAT if root.value else OUTCOME_UNSAT, [])

    calls_before = oracle.call_counter
    root_length = len(serialize(formula))
    budget = None if label_budget is None else label_budget(root_length)
    levels: list[TreeLevel] = []
    widths: list[tuple[int, int]] = []
    capped_levels: list[int] = []
    crossed_at: int | None = None
    children = [(root, oracle.map(root), None)]
    interned: dict[str, Formula] = {}
    splits: dict[int, list[tuple[Formula, str]]] = {}
    cofactors: dict = {}
    depth = 0
    while True:
        frontier, events = _prune(children, admit)
        widths.append((len(children), len(frontier)))
        levels.append(TreeLevel(depth, frontier, events))
        if budget is not None and len(frontier) > budget:
            if crossed_at is None:
                crossed_at = depth
            if early_accept:
                verdict, outcome = True, OUTCOME_EARLY_SAT
                break
            frontier = levels[-1].nodes = frontier[: budget + 1]
            capped_levels.append(depth)
        for node, _ in frontier:
            if type(node) is not Const:
                break
        else:  # every node is constant, also when all were pruned
            verdict = any(node.value for node, _ in frontier)
            outcome = OUTCOME_SAT if verdict else OUTCOME_UNSAT
            break
        depth += 1
        children = _split_frontier(frontier, oracle.map, root_length, interned, splits, cofactors)

    calls = oracle.call_counter - calls_before
    return verdict, LevelStats(widths, calls, outcome, levels, budget, crossed_at, capped_levels)


def decide_via_tally(
    formula: Formula, oracle: TallyReductionOracle
) -> tuple[bool, LevelStats]:
    """Decide satisfiability given a reduction of SAT to a tally set."""
    return _walk_levels(formula, oracle, admit=is_tally_string)


def decide_via_sparse(
    formula: Formula,
    oracle: SparseCoReductionOracle,
    mode: str = "early_accept",
) -> tuple[bool, LevelStats]:
    """Decide satisfiability given a co-reduction into a sparse set."""
    if mode not in SPARSE_MODES:
        raise InvalidParams(f"unknown mode {mode!r}; expected one of {SPARSE_MODES}")
    for bound in (oracle.q, oracle.r):
        if any(c < 0 for c in bound.coefficients):
            raise InvalidBound(f"negative coefficient in {bound.coefficients}")
    return _walk_levels(
        formula,
        oracle,
        label_budget=lambda length: oracle.q(oracle.r(length)),  # distinct labels S can absorb
        early_accept=mode == "early_accept",
    )
