"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The corpus is the exhaustive set of small formulas plus 500 seeded
random formulas with up to 10 variables (session fixtures in conftest)."""

import time
from itertools import product

import pytest

from selfred.cli import main
from selfred.counting import (
    GuessTriple,
    combine,
    count_via_enumerator,
    decode,
    demonstrate_naive_failure,
    link_disagreeing_triples,
)
from selfred.formula import (
    brute_force_count,
    brute_force_sat,
    evaluate,
    self_reduce,
    serialize,
    variables,
)
from selfred.generate import generate_corpus
from selfred.oracles import (
    adversarial_selector,
    honest_selector,
    honest_two_enumerator,
    is_tally_string,
    simulated_sparse_coreduction,
    simulated_tally_reduction,
)
from selfred.pruning import OUTCOME_EARLY_SAT, decide_via_sparse, decide_via_tally
from selfred.selector import decide_via_selector


def all_assignments(indices):
    """Every assignment over the given variable indices."""
    ordered = sorted(indices)
    return (dict(zip(ordered, values)) for values in product((False, True), repeat=len(ordered)))


def report(number: int, detail: str, violations: list, elapsed: float, budget: float | None):
    ok = not violations and (budget is None or elapsed < budget)
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s" + (f" < {budget}s]" if budget else "]")
    print(f"\n{status} criterion {number}: {detail}{timing}")
    assert not violations, f"criterion {number}: {violations[:5]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


@pytest.fixture(scope="module")
def reference_sat(full_corpus):
    return [brute_force_sat(f) for f in full_corpus]


@pytest.fixture(scope="module")
def reference_count(full_corpus):
    return [brute_force_count(f) for f in full_corpus]


def test_criterion_1_self_reducibility(full_corpus, reference_sat, reference_count):
    start = time.perf_counter()
    violations = []
    for formula, ref_sat, ref_count in zip(full_corpus, reference_sat, reference_count):
        if not variables(formula):
            continue
        true_child, false_child, split = self_reduce(formula)
        child_sat = brute_force_sat(true_child) or brute_force_sat(false_child)
        if ref_sat != child_sat:
            violations.append(("sat", serialize(formula)))
        slots = variables(formula) - {split}
        total = 0
        for assignment in all_assignments(slots):
            total += evaluate(true_child, assignment)
            total += evaluate(false_child, assignment)
        if ref_count != total:
            violations.append(("count", serialize(formula)))
    report(
        1,
        "self-reducibility of sat and counts over the full corpus",
        violations,
        time.perf_counter() - start,
        10,
    )


def test_criterion_2_selector(full_corpus, reference_sat):
    start = time.perf_counter()
    violations = []
    oracles = [("honest", honest_selector())]
    oracles += [(f"adversarial:{seed}", adversarial_selector(seed)) for seed in range(5)]
    for name, oracle in oracles:
        for formula, ref in zip(full_corpus, reference_sat):
            verdict, trace = decide_via_selector(formula, oracle)
            if verdict != ref:
                violations.append((name, "verdict", serialize(formula)))
            elif trace.oracle_calls != len(variables(formula)):
                violations.append((name, "calls", serialize(formula)))
            elif verdict and not evaluate(formula, trace.assignment()):
                violations.append((name, "assignment", serialize(formula)))
    report(
        2,
        "selector decider: honest + 5 adversarial seeds, exact call counts, "
        "satisfying assignments recovered",
        violations,
        time.perf_counter() - start,
        30,
    )


def test_criterion_3_tally(full_corpus, reference_sat):
    start = time.perf_counter()
    violations = []
    for style in ("canonical", "collision_rich", "spread"):
        oracle = simulated_tally_reduction(style)
        for formula, ref in zip(full_corpus, reference_sat):
            verdict, stats = decide_via_tally(formula, oracle)
            if verdict != ref:
                violations.append((style, "verdict", serialize(formula)))
                continue
            longest = 0
            for level, (_, post) in zip(stats.levels, stats.widths):
                for image in level.images:
                    if is_tally_string(image) and len(image) > longest:
                        longest = len(image)
                if post > 1 + longest:
                    violations.append((style, "width", serialize(formula)))
                    break
    report(
        3,
        "tally decider: all three styles agree with brute force, width "
        "bounded by 1 + longest tally image",
        violations,
        time.perf_counter() - start,
        60,
    )


def test_criterion_4_sparse(full_corpus, reference_sat):
    start = time.perf_counter()
    violations = []
    for style in ("singleton", "scatter"):
        oracle = simulated_sparse_coreduction(style, seed=4)
        for formula, ref in zip(full_corpus, reference_sat):
            early_verdict, early_stats = decide_via_sparse(formula, oracle, "early_accept")
            capped_verdict, _ = decide_via_sparse(formula, oracle, "capped_continue")
            if early_verdict != ref:
                violations.append((style, "early_accept verdict", serialize(formula)))
            if capped_verdict != ref:
                violations.append((style, "capped_continue verdict", serialize(formula)))
            if early_verdict != capped_verdict:
                violations.append((style, "mode mismatch", serialize(formula)))
            if early_stats.outcome == OUTCOME_EARLY_SAT and not ref:
                violations.append((style, "unsound early accept", serialize(formula)))
            if early_stats.crossed_at is None:
                if any(post > early_stats.threshold for _, post in early_stats.widths):
                    violations.append((style, "width", serialize(formula)))
    report(
        4,
        "sparse decider: both styles and modes agree with brute force, early "
        "accepts are sound, widths within q(r(m)) when uncrossed",
        violations,
        time.perf_counter() - start,
        60,
    )


def test_criterion_5_combiner_identity():
    start = time.perf_counter()
    violations = []
    pool = [f for f in generate_corpus(500, 6, seed=77) if variables(f)]
    pairs = list(zip(pool[::2], pool[1::2]))[:200]
    assert len(pairs) >= 200
    for left, right in pairs:
        recipe = combine(left, right)
        combined_count = brute_force_count(recipe.combined)
        left_count, right_count = brute_force_count(left), brute_force_count(right)
        if combined_count != left_count * 2 ** (recipe.right_var_count + 1) + right_count:
            violations.append(("identity", serialize(left), serialize(right)))
        decoded = decode(recipe, combined_count)
        if decoded[:2] != (left_count, right_count):
            violations.append(("decode", serialize(left), serialize(right)))
    from selfred.formula import parse

    worked = combine(parse("x1"), parse("x1 | x2"))
    if brute_force_count(worked.combined) != 11 or decode(worked, 11)[:2] != (1, 3):
        violations.append(("worked pair",))
    report(
        5,
        "combiner identity and decode round trip on 200 random pairs plus "
        "the worked pair (11 -> (1, 3))",
        violations,
        time.perf_counter() - start,
        30,
    )


def test_criterion_6_enumerator_counting(full_corpus, reference_count):
    start = time.perf_counter()
    violations = []
    styles = [("exact_plus_offset", seed) for seed in range(5)]
    styles.append(("woeginger", 0))
    for style, seed in styles:
        oracle = honest_two_enumerator(style, seed=seed)
        for formula, ref in zip(full_corpus, reference_count):
            before = oracle.call_counter
            count, _ = count_via_enumerator(formula, oracle)
            calls = oracle.call_counter - before
            if count != ref:
                violations.append((style, seed, "count", serialize(formula)))
            elif calls > len(variables(formula)) + 1:
                violations.append((style, seed, "calls", serialize(formula)))
    report(
        6,
        "enumerator counting: 5 offset seeds + woeginger match brute force "
        "with at most |vars|+1 oracle calls",
        violations,
        time.perf_counter() - start,
        120,
    )


def test_criterion_7_worked_linkage():
    start = time.perf_counter()
    violations = []
    side, mapping = link_disagreeing_triples(
        GuessTriple(100, 83, 17), GuessTriple(101, 85, 16)
    )
    if side != "right" or mapping != {17: 100, 16: 101}:
        violations.append((side, mapping))
    report(
        7,
        "worked linkage: triples (100,83,17)/(101,85,16) map {17->100, "
        "16->101} on the right child",
        violations,
        time.perf_counter() - start,
        None,
    )


def test_criterion_8_naive_failure():
    start = time.perf_counter()
    violations = []
    reportee = demonstrate_naive_failure()
    first, second = reportee.witnesses
    for witness in reportee.witnesses:
        if witness.guess_sets != ((0, 1), (0, 1), (0, 1)):
            violations.append(("guess sets", serialize(witness.formula)))
        if witness.root_count != brute_force_count(witness.formula):
            violations.append(("count", serialize(witness.formula)))
    if (first.root_count, second.root_count) != (0, 1):
        violations.append(("roots", first.root_count, second.root_count))
    report(
        8,
        "naive-failure witnesses share guess sets {0,1}^3 with root counts 0 vs 1",
        violations,
        time.perf_counter() - start,
        None,
    )


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    violations = []
    experiments = [
        ("selector", ["decide", "selector", "--random", "vars=6", "count=20", "seed=2",
                      "--oracle", "adversarial", "--seed", "5"]),
        ("tally", ["decide", "tally", "--random", "vars=6", "count=20", "seed=2",
                   "--oracle", "spread"]),
        ("sparse", ["decide", "sparse", "--random", "vars=6", "count=20", "seed=2",
                    "--oracle", "scatter", "--seed", "3", "--mode", "capped_continue"]),
        ("enum", ["count", "enum", "--random", "vars=6", "count=20", "seed=2",
                  "--oracle", "exact_plus_offset", "--seed", "7"]),
    ]
    for name, argv in experiments:
        outputs = []
        for attempt in ("first", "second"):
            trace = tmp_path / f"{name}-{attempt}.jsonl"
            summary = tmp_path / f"{name}-{attempt}.csv"
            code = main(argv + ["--trace", str(trace), "--summary", str(summary)])
            if code != 0:
                violations.append((name, "exit", code))
            outputs.append((trace.read_bytes(), summary.read_bytes()))
        if outputs[0] != outputs[1]:
            violations.append((name, "bytes differ"))
    report(
        9,
        "CLI reruns with identical flags and seeds are byte-identical",
        violations,
        time.perf_counter() - start,
        None,
    )
