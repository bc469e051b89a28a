import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfred.pruning
from selfred.errors import EncodingInvariantBroken, InvalidBound, OracleContractViolation
from selfred.formula import Const, brute_force_sat, parse, self_reduce, serialize, simplify
from selfred.generate import generate_corpus, generate_random
from selfred.oracles import (
    SPARSE_STYLES,
    TALLY_STYLES,
    PolynomialBound,
    SparseCoReductionOracle,
    TallyReductionOracle,
    is_tally_string,
    simulated_sparse_coreduction,
    simulated_tally_reduction,
)
from selfred.pruning import (
    DUPLICATE_IMAGE,
    NON_TALLY,
    OUTCOME_EARLY_SAT,
    OUTCOME_SAT,
    OUTCOME_UNSAT,
    SPARSE_MODES,
    PruneEvent,
    decide_via_sparse,
    decide_via_tally,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(250, 10, seed=21)


def tight_sparse_oracle():
    # Contract-valid co-reduction with the tightest possible declared bounds:
    # S = {"1"}, census <= q(n) = 1, image length <= r(n) = 1.  The label
    # budget q(r(m)) = 1 makes threshold crossings routine.
    return SparseCoReductionOracle(
        lambda f: "1" if not brute_force_sat(f) else "0",
        q=PolynomialBound((1,)),
        r=PolynomialBound((1,)),
    )


class TestTallyDecider:
    def test_contradiction_canonical(self):
        verdict, stats = decide_via_tally(parse("x1 & !x1"), simulated_tally_reduction("canonical"))
        assert verdict is False
        assert stats.outcome == OUTCOME_UNSAT

    def test_disjunction_collision_rich(self):
        verdict, stats = decide_via_tally(parse("x1 | x2"), simulated_tally_reduction("collision_rich"))
        assert verdict is True
        assert stats.outcome == OUTCOME_SAT

    def test_non_tally_children_pruned(self):
        verdict, stats = decide_via_tally(parse("x1 & x2"), simulated_tally_reduction("collision_rich"))
        assert verdict is True
        kinds = [e.kind for level in stats.levels for e in level.prune_events]
        assert NON_TALLY in kinds

    def test_non_tally_root_rejects_immediately(self):
        # collision_rich maps unsatisfiable formulas to the non-tally token.
        verdict, stats = decide_via_tally(parse("x1 & !x1"), simulated_tally_reduction("collision_rich"))
        assert verdict is False
        assert stats.oracle_calls == 1
        assert stats.widths == [(1, 0)]

    def test_constant_inputs(self):
        oracle = simulated_tally_reduction("canonical")
        assert decide_via_tally(Const(True), oracle)[0] is True
        assert decide_via_tally(parse("T & F"), oracle)[0] is False
        assert oracle.call_counter == 0

    @pytest.mark.parametrize("style", TALLY_STYLES)
    def test_agrees_with_brute_force(self, style, corpus):
        oracle = simulated_tally_reduction(style)
        for formula in corpus:
            verdict, _ = decide_via_tally(formula, oracle)
            assert verdict == brute_force_sat(formula)

    @pytest.mark.parametrize("style", TALLY_STYLES)
    def test_width_bounded_by_image_length(self, style, corpus):
        oracle = simulated_tally_reduction(style)
        for formula in corpus[:120]:
            _, stats = decide_via_tally(formula, oracle)
            longest_seen = 0
            for level, (_, post) in zip(stats.levels, stats.widths):
                for image in level.images:
                    if is_tally_string(image):
                        longest_seen = max(longest_seen, len(image))
                assert post <= 1 + longest_seen

    def test_images_distinct_after_pruning(self, corpus):
        oracle = simulated_tally_reduction("spread")
        for formula in corpus[:80]:
            _, stats = decide_via_tally(formula, oracle)
            for level in stats.levels:
                assert len(level.images) == len(set(level.images))

    def test_duplicate_pruning_preserves_level_satisfiability(self, corpus):
        oracle = simulated_tally_reduction("spread")
        for formula in corpus[:60]:
            _, stats = decide_via_tally(formula, oracle)
            for level in stats.levels:
                kept_sat = any(brute_force_sat(node) for node, _ in level.nodes)
                discarded = [parse(e.discarded) for e in level.prune_events if e.kind == DUPLICATE_IMAGE]
                pre_sat = kept_sat or any(brute_force_sat(d) for d in discarded)
                assert kept_sat == pre_sat

    def test_width_recurrence(self, corpus):
        oracle = simulated_tally_reduction("spread")
        for formula in corpus[:80]:
            _, stats = decide_via_tally(formula, oracle)
            for (pre, post), (next_pre, _) in zip(stats.widths, stats.widths[1:]):
                assert post <= pre
                assert next_pre <= 2 * post


class TestSparseDecider:
    def test_contradiction_singleton(self):
        verdict, stats = decide_via_sparse(
            parse("x1 & !x1"), simulated_sparse_coreduction("singleton"), "early_accept"
        )
        assert verdict is False
        assert stats.outcome == OUTCOME_UNSAT
        assert all(post == 1 for _, post in stats.widths)
        for level in stats.levels:
            assert level.images == ["1"]

    def test_two_clause_scatter(self):
        formula = parse("(x1 | x2) & (x3 | x4)")
        verdict, stats = decide_via_sparse(
            formula, simulated_sparse_coreduction("scatter", seed=0), "early_accept"
        )
        assert verdict is True
        if stats.outcome == OUTCOME_EARLY_SAT:
            crossing_width = stats.widths[stats.crossed_at][1]
            assert crossing_width > stats.threshold

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            decide_via_sparse(parse("x1"), simulated_sparse_coreduction("singleton"), "bogus")

    def test_fractional_bound_is_refused_not_truncated(self):
        # S = {"11"} is legal under q(l) = l/2, r(l) = l.  Declared as (0, 0.5)
        # and truncated to q = 0, the label budget was 0, so the first level's
        # one label crossed it and this unsatisfiable formula was accepted.
        formula = parse("x1 & !x1 & x2 | x3 & !x3")

        def oracle(q):
            image = lambda f: "0" if brute_force_sat(f) else "11"
            return SparseCoReductionOracle(image, q, PolynomialBound((0, 1)))

        with pytest.raises(InvalidBound):
            oracle(PolynomialBound((0, 0.5)))
        verdict, stats = decide_via_sparse(formula, oracle(PolynomialBound((0, 1))), "early_accept")
        assert verdict is False
        assert stats.outcome == OUTCOME_UNSAT

    def test_invalid_bound(self):
        oracle = simulated_sparse_coreduction("singleton")
        object.__setattr__(oracle.q, "coefficients", (1, -1))
        with pytest.raises(InvalidBound):
            decide_via_sparse(parse("x1"), oracle, "early_accept")

    def test_constant_inputs(self):
        oracle = simulated_sparse_coreduction("singleton")
        assert decide_via_sparse(Const(False), oracle)[0] is False
        assert decide_via_sparse(parse("T | F"), oracle)[0] is True

    @pytest.mark.parametrize("style", SPARSE_STYLES)
    @pytest.mark.parametrize("mode", SPARSE_MODES)
    def test_agrees_with_brute_force(self, style, mode, corpus):
        oracle = simulated_sparse_coreduction(style, seed=4)
        for formula in corpus:
            verdict, stats = decide_via_sparse(formula, oracle, mode)
            assert verdict == brute_force_sat(formula)
            if stats.outcome == OUTCOME_EARLY_SAT:
                assert brute_force_sat(formula)

    def test_mode_equivalence(self, corpus):
        for style in SPARSE_STYLES:
            oracle = simulated_sparse_coreduction(style, seed=8)
            for formula in corpus[:120]:
                early, _ = decide_via_sparse(formula, oracle, "early_accept")
                capped, _ = decide_via_sparse(formula, oracle, "capped_continue")
                assert early == capped

    def test_width_bounded_when_never_crossed(self, corpus):
        oracle = simulated_sparse_coreduction("scatter", seed=6)
        for formula in corpus[:120]:
            _, stats = decide_via_sparse(formula, oracle, "early_accept")
            if stats.crossed_at is None:
                assert all(post <= stats.threshold for _, post in stats.widths)

    def test_call_budget_when_never_crossed(self, corpus):
        from selfred.formula import variables

        oracle = simulated_sparse_coreduction("scatter", seed=6)
        for formula in corpus[:120]:
            verdict, stats = decide_via_sparse(formula, oracle, "early_accept")
            if stats.crossed_at is None:
                k = len(variables(formula))
                assert stats.oracle_calls <= 2 * (stats.threshold + 1) * max(k, 1) + 1


class TestTightBoundOracle:
    """A label budget of 1 makes the width threshold fire constantly."""

    def test_early_accept_fires(self):
        verdict, stats = decide_via_sparse(parse("x1 & x2"), tight_sparse_oracle(), "early_accept")
        assert verdict is True
        assert stats.outcome == OUTCOME_EARLY_SAT
        assert stats.crossed_at is not None

    def test_capped_continue_keeps_budget_plus_one(self):
        verdict, stats = decide_via_sparse(parse("x1 & x2"), tight_sparse_oracle(), "capped_continue")
        assert verdict is True
        assert stats.capped_levels
        for level_index in stats.capped_levels:
            assert len(stats.levels[level_index].nodes) <= stats.threshold + 1

    def test_corpus_agreement_under_constant_crossings(self, corpus):
        oracle = tight_sparse_oracle()
        for formula in corpus:
            early, early_stats = decide_via_sparse(formula, oracle, "early_accept")
            capped, _ = decide_via_sparse(formula, oracle, "capped_continue")
            reference = brute_force_sat(formula)
            assert early == capped == reference
            if early_stats.outcome == OUTCOME_EARLY_SAT:
                assert reference


class TestImageContract:
    def test_tally_image_must_be_a_string(self):
        oracle = TallyReductionOracle(lambda f: 7)
        with pytest.raises(OracleContractViolation, match="type int"):
            decide_via_tally(parse("x1 | x2"), oracle)

    def test_sparse_image_must_be_a_string(self):
        oracle = SparseCoReductionOracle(
            lambda f: None if brute_force_sat(f) else "1",
            q=PolynomialBound((1,)),
            r=PolynomialBound((1,)),
        )
        with pytest.raises(OracleContractViolation, match="type NoneType"):
            decide_via_sparse(parse("x1 | x2"), oracle)


def reference_walk(formula, oracle, admit=None, budget_of=None, early_accept=False):
    """The level walk with every non-constant frontier node split afresh by
    ``self_reduce``: no memo and no interning.  Returns the verdict and a
    dict of everything the deciders report, levels as (texts, images,
    prune events)."""
    calls_before = oracle.call_counter
    root = simplify(formula)
    if type(root) is Const:
        outcome = OUTCOME_SAT if root.value else OUTCOME_UNSAT
        return root.value, dict(calls=0, widths=[], outcome=outcome, crossed_at=None, capped=[], levels=[])
    budget = None if budget_of is None else budget_of(len(serialize(formula)))
    children = [(root, oracle.map(root))]
    widths, capped, levels, crossed_at = [], [], [], None
    while True:
        kept, seen, events = [], set(), []
        for child, image in children:
            if admit is not None and not admit(image):
                events.append(PruneEvent(NON_TALLY, serialize(child)))
            elif image in seen:
                events.append(PruneEvent(DUPLICATE_IMAGE, serialize(child), image))
            else:
                seen.add(image)
                kept.append((child, image))
        depth = len(levels)
        widths.append((len(children), len(kept)))
        crossed = budget is not None and len(kept) > budget
        if crossed:
            crossed_at = depth if crossed_at is None else crossed_at
            if not early_accept:
                kept = kept[: budget + 1]
                capped.append(depth)
        levels.append(([serialize(node) for node, _ in kept], [image for _, image in kept], events))
        if crossed and early_accept:
            verdict, outcome = True, OUTCOME_EARLY_SAT
            break
        if all(type(node) is Const for node, _ in kept):
            verdict = any(node.value for node, _ in kept)
            outcome = OUTCOME_SAT if verdict else OUTCOME_UNSAT
            break
        children = []
        for node, image in kept:
            if type(node) is Const:
                children.append((node, image))
                continue
            true_child, false_child, _ = self_reduce(node)
            children.append((true_child, oracle.map(true_child)))
            children.append((false_child, oracle.map(false_child)))
    calls = oracle.call_counter - calls_before
    return verdict, dict(
        calls=calls, widths=widths, outcome=outcome, crossed_at=crossed_at, capped=capped, levels=levels
    )


def reported(verdict, stats):
    """A decider's result in ``reference_walk``'s form."""
    levels = [
        ([serialize(node) for node, _ in level.nodes], level.images, level.prune_events)
        for level in stats.levels
    ]
    return verdict, dict(
        calls=stats.oracle_calls,
        widths=stats.widths,
        outcome=stats.outcome,
        crossed_at=stats.crossed_at,
        capped=stats.capped_levels,
        levels=levels,
    )


@pytest.fixture
def split_inputs(monkeypatch):
    """The text of every formula the walker splits, in order."""
    texts = []

    def counted(formula, *memo):
        texts.append(serialize(formula))
        return self_reduce(formula, *memo)

    monkeypatch.setattr(selfred.pruning, "self_reduce", counted)
    return texts


random_formulas = st.builds(
    lambda var_count, extra, seed: generate_random(var_count, var_count + extra, seed),
    st.integers(1, 10),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
)


class TestSplitMemo:
    """The walker splits a formula that recurs within one walk once and
    shares its children; nothing it reports may differ from a walk that
    splits every copy afresh."""

    @settings(max_examples=40, deadline=None)
    @given(random_formulas)
    def test_tally_walk_matches_fresh_splits(self, formula):
        for style in TALLY_STYLES:
            expected = reference_walk(formula, simulated_tally_reduction(style), admit=is_tally_string)
            assert reported(*decide_via_tally(formula, simulated_tally_reduction(style))) == expected

    @settings(max_examples=40, deadline=None)
    @given(random_formulas, st.integers(0, 9))
    def test_sparse_walk_matches_fresh_splits(self, formula, seed):
        for style in SPARSE_STYLES:
            for mode in SPARSE_MODES:
                reference_oracle = simulated_sparse_coreduction(style, seed=seed)
                expected = reference_walk(
                    formula,
                    reference_oracle,
                    budget_of=lambda length: reference_oracle.q(reference_oracle.r(length)),
                    early_accept=mode == "early_accept",
                )
                oracle = simulated_sparse_coreduction(style, seed=seed)
                assert reported(*decide_via_sparse(formula, oracle, mode)) == expected

    @pytest.mark.parametrize(
        "text, levels, splits",
        [
            (
                "x1 & x2 | x3",
                [["x1 & x2 | x3"], ["x2 | x3", "x3"], ["T", "x3", "F"], ["T", "F"]],
                ["x1 & x2 | x3", "x2 | x3", "x3"],  # not 4: x3 at depths 1 and 2
            ),
            (
                # The x3 | x4 at depth 2 is built by another split than the
                # one at depth 1; interning makes the two one node.
                "x1 & x2 | x3 | x4",
                [
                    ["x1 & x2 | x3 | x4"],
                    ["x2 | x3 | x4", "x3 | x4"],
                    ["T", "x3 | x4", "x4"],
                    ["T", "x4", "F"],
                    ["T", "F"],
                ],
                ["x1 & x2 | x3 | x4", "x2 | x3 | x4", "x3 | x4", "x4"],
            ),
        ],
    )
    def test_pinned_revisit_is_split_once(self, split_inputs, text, levels, splits):
        for _ in range(2):  # a fresh oracle and a fresh walk: no memo carries over
            split_inputs.clear()
            verdict, stats = decide_via_sparse(parse(text), simulated_sparse_coreduction("singleton"))
            assert verdict is True
            assert [[serialize(node) for node, _ in level.nodes] for level in stats.levels] == levels
            assert split_inputs == splits
            assert stats.levels[1].nodes[1][0] is stats.levels[2].nodes[1][0]

    @pytest.mark.parametrize(
        "style, mode",
        [(style, None) for style in TALLY_STYLES]
        + [(style, mode) for style in SPARSE_STYLES for mode in SPARSE_MODES],
    )
    def test_no_text_split_twice_in_a_walk(self, split_inputs, corpus, style, mode):
        for formula in corpus[:100]:
            split_inputs.clear()
            if mode is None:
                decide_via_tally(formula, simulated_tally_reduction(style))
            else:
                decide_via_sparse(formula, simulated_sparse_coreduction(style), mode)
            assert len(split_inputs) == len(set(split_inputs))


class TestEncodingInvariant:
    LONG = "x1 | x2 | x3 | x4 | x5 | x6"

    @pytest.mark.parametrize("target", ["x1 & x2 | x3", "x2 | x3"])
    @pytest.mark.parametrize(
        "decide",
        [
            lambda f: decide_via_tally(f, simulated_tally_reduction("canonical")),
            lambda f: decide_via_sparse(f, simulated_sparse_coreduction("singleton")),
        ],
        ids=["tally", "sparse"],
    )
    def test_child_longer_than_the_input_is_named(self, monkeypatch, decide, target):
        # The split of ``target`` (the root, or a node both deciders keep at
        # depth 1) yields a child longer than the input: the walk must say so.
        def lengthening(formula, *memo):
            true_child, false_child, index = self_reduce(formula, *memo)
            if serialize(formula) == target:
                return true_child, parse(self.LONG), index
            return true_child, false_child, index

        monkeypatch.setattr(selfred.pruning, "self_reduce", lengthening)
        with pytest.raises(EncodingInvariantBroken, match=re.escape(repr(self.LONG))):
            decide(parse("x1 & x2 | x3"))

    @pytest.mark.parametrize(
        "decide",
        [
            lambda f: decide_via_tally(f, simulated_tally_reduction("canonical")),
            lambda f: decide_via_sparse(f, simulated_sparse_coreduction("singleton")),
        ],
        ids=["tally", "sparse"],
    )
    def test_child_as_long_as_the_input_is_kept(self, monkeypatch, decide):
        # Only a child longer than the input breaks the invariant: one of the
        # same length is walked on.
        root = "x1 & x2 | x3"

        def same_length(formula, *memo):
            true_child, false_child, index = self_reduce(formula, *memo)
            if serialize(formula) == root:
                return parse("x4 & x5 | x6"), false_child, index
            return true_child, false_child, index

        monkeypatch.setattr(selfred.pruning, "self_reduce", same_length)
        assert decide(parse(root))[0] is True
