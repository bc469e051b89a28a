import pytest

from selfred.errors import InvalidBound, OracleContractViolation
from selfred.formula import Const, brute_force_sat, parse
from selfred.generate import generate_corpus
from selfred.oracles import (
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

    @pytest.mark.parametrize("style", ["canonical", "collision_rich", "spread"])
    def test_agrees_with_brute_force(self, style, corpus):
        oracle = simulated_tally_reduction(style)
        for formula in corpus:
            verdict, _ = decide_via_tally(formula, oracle)
            assert verdict == brute_force_sat(formula)

    @pytest.mark.parametrize("style", ["canonical", "spread"])
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

    def test_invalid_bound(self):
        oracle = simulated_sparse_coreduction("singleton")
        object.__setattr__(oracle.q, "coefficients", (1, -1))
        with pytest.raises(InvalidBound):
            decide_via_sparse(parse("x1"), oracle, "early_accept")

    def test_constant_inputs(self):
        oracle = simulated_sparse_coreduction("singleton")
        assert decide_via_sparse(Const(False), oracle)[0] is False
        assert decide_via_sparse(parse("T | F"), oracle)[0] is True

    @pytest.mark.parametrize("style", ["singleton", "scatter"])
    @pytest.mark.parametrize("mode", ["early_accept", "capped_continue"])
    def test_agrees_with_brute_force(self, style, mode, corpus):
        oracle = simulated_sparse_coreduction(style, seed=4)
        for formula in corpus:
            verdict, stats = decide_via_sparse(formula, oracle, mode)
            assert verdict == brute_force_sat(formula)
            if stats.outcome == OUTCOME_EARLY_SAT:
                assert brute_force_sat(formula)

    def test_mode_equivalence(self, corpus):
        for style in ("singleton", "scatter"):
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
