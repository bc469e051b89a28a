"""The CLI writes each trace line and summary line as final text; these tests
hold every line against the generic encoders it stands for.

The reference below builds each trace row as a dict, the way the CLI did
before it formatted lines itself, and encodes it with ``json.dumps(row,
sort_keys=True)``; summary lines are held against ``csv.writer``.  Each run
goes through ``selfred.cli.run`` with the algorithm's ``solve`` wrapped, so
the reference formats exactly what the decider or the counter returned.
"""

import csv
import dataclasses
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfred import cli
from selfred.counting import combine
from selfred.formula import And, Const, Not, Or, Var, parse, serialize
from selfred.generate import generate_random
from selfred.oracles import (
    PolynomialBound,
    SparseCoReductionOracle,
    TwoEnumeratorOracle,
    exact_model_count,
    simulated_sparse_coreduction,
)
from selfred.pruning import SPARSE_MODES


def path_rows(raw):
    verdict, trace = raw
    rows = [
        {
            "depth": depth,
            "split_var": step.split_var,
            "branch": step.chosen_branch,
            "formula": step.chosen_formula,
        }
        for depth, step in enumerate(trace.steps)
    ]
    return verdict, trace.oracle_calls, 1, rows


def level_rows(raw):
    verdict, stats = raw
    rows = []
    for level, (pre, post) in zip(stats.levels, stats.widths):
        row = {
            "depth": level.depth,
            "pre_prune_width": pre,
            "post_prune_width": post,
            "images": level.images,
            "prune_events": [vars(event) for event in level.prune_events],
        }
        if stats.threshold is not None:  # sparse
            row["threshold"] = stats.threshold
            row["crossed"] = stats.crossed_at is not None and level.depth >= stats.crossed_at
            row["capped"] = level.depth in stats.capped_levels
        rows.append(row)
    return verdict, stats.oracle_calls, stats.max_width, rows


def count_rows(raw):
    count, chain, oracle_calls = raw
    rows = [
        {
            "depth": linkage.depth,
            "child": serialize(linkage.child),
            "triples": [[t.a, t.b, t.c] for t in linkage.triples],
            "linkage": sorted(linkage.mapping.items()),
        }
        for linkage in chain
    ]
    return count, oracle_calls, None, rows


REFERENCE_ROWS = {
    "selector": path_rows,
    "tally": level_rows,
    "sparse": level_rows,
    "enum_count": count_rows,
}


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def csv_summary(records) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cli.SUMMARY_COLUMNS)
    for record in records:
        writer.writerow([csv_cell(getattr(record, column)) for column in cli.SUMMARY_COLUMNS])
    return out.getvalue().encode()


def run_against_reference(config, make_oracle=None):
    """Run ``config`` through ``cli.run`` into a fresh directory; check every
    trace line against the reference row's ``json.dumps`` and the summary
    against ``csv.writer``.  Returns the trace lines and the records."""
    entry = cli.ALGORITHMS[config.algorithm]
    raws = []

    def solve(config, oracle, formula):
        raws.append(entry.solve(config, oracle, formula))
        return raws[-1]

    replacement = dataclasses.replace(entry, solve=solve)
    if make_oracle is not None:
        replacement = dataclasses.replace(replacement, make_oracle=make_oracle)
    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(
        cli.ALGORITHMS, {config.algorithm: replacement}
    ):
        trace, summary = Path(directory, "t.jsonl"), Path(directory, "s.csv")
        config = dataclasses.replace(config, trace_path=str(trace), summary_path=str(summary))
        records = cli.run(config)
        lines = trace.read_bytes().decode("ascii").splitlines(keepends=True)
        summary_bytes = summary.read_bytes()

    expected = []
    for formula_id, (raw, record) in enumerate(zip(raws, records, strict=True)):
        result, oracle_calls, max_width, rows = REFERENCE_ROWS[config.algorithm](raw)
        assert (record.result, record.oracle_calls, record.max_width) == (
            result,
            oracle_calls,
            max_width,
        )
        for row in rows:
            row.update(formula_id=formula_id, algorithm=config.algorithm)
            expected.append(json.dumps(row, sort_keys=True) + "\n")
    assert lines == expected
    assert summary_bytes == csv_summary(records)
    return lines, records


def small_formulas(max_vars: int = 8) -> st.SearchStrategy:
    leaf = st.one_of(
        st.builds(Var, st.integers(1, max_vars)),
        st.sampled_from([Const(True), Const(False)]),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: And(*cs)),
            st.lists(inner, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
        ),
        max_leaves=12,
    )


SETTINGS = [
    (algorithm, style, mode)
    for algorithm, entry in cli.ALGORITHMS.items()
    for style in entry.styles
    for mode in (SPARSE_MODES if algorithm == "sparse" else ("early_accept",))
]


@pytest.mark.parametrize("algorithm, style, mode", SETTINGS)
@settings(max_examples=25, deadline=None)
@given(
    formulas=st.lists(small_formulas(), min_size=1, max_size=6),
    seed=st.integers(0, 5),
    verify=st.booleans(),
)
def test_lines_equal_the_generic_encoders(algorithm, style, mode, formulas, seed, verify):
    config = cli.ExperimentConfig(
        algorithm=algorithm,
        formulas=formulas,
        oracle_style=style,
        seed=seed,
        mode=mode,
        verify=verify,
    )
    run_against_reference(config)


def test_capped_sparse_run_with_constant_one_bounds():
    # A label budget of one: levels cross the census threshold and are capped.
    one = PolynomialBound((1,))

    def make_oracle(config):
        return SparseCoReductionOracle(simulated_sparse_coreduction("singleton").map, q=one, r=one)

    formulas = [generate_random(5, 12, seed) for seed in range(12)]
    config = cli.ExperimentConfig(
        algorithm="sparse", formulas=formulas, oracle_style="singleton", mode="capped_continue"
    )
    lines, _ = run_against_reference(config, make_oracle)
    rows = [json.loads(line) for line in lines]
    assert any(row["capped"] for row in rows)
    assert any(row["crossed"] for row in rows) and not all(row["crossed"] for row in rows)
    assert {row["threshold"] for row in rows} == {1}


@pytest.mark.parametrize("extra, child", [(2 * 32 + 4, "x3"), (2 * 32 + 1, "x2")])
def test_linkage_descent_count_run_with_a_custom_enumerator(extra, child):
    # F's combined query gets a second, consistently shifted count, so the
    # counter links the root's candidates to one child's and descends into
    # it; every other query gets its count alone.
    formula = parse("(x1 | x2) & (!x1 | x3)")
    target = serialize(combine(formula, parse("x3"), parse("x2")).combined)

    def make_oracle(config):
        def enumerate_fn(f):
            count = exact_model_count(f)
            return sorted({count, count + extra}) if serialize(f) == target else [count]

        return TwoEnumeratorOracle(enumerate_fn)

    formulas = [generate_random(5, 12, 1), formula, generate_random(5, 12, 2)]
    config = cli.ExperimentConfig(
        algorithm="enum_count", formulas=formulas, oracle_style="woeginger"
    )
    lines, records = run_against_reference(config, make_oracle)
    assert all(record.agree for record in records)
    (row,) = [json.loads(line) for line in lines]
    assert (row["formula_id"], row["depth"], row["child"]) == (1, 0, child)
    assert len(row["linkage"]) == 2 and len(row["triples"]) == 2


ODD_TEXTS = ['"', "\\", "\x00", "\x1f", "\x7f", "\n\r\t\b\f", "é", " ", "☃", "😀", "\udc80"]


@settings(max_examples=40, deadline=None)
@given(
    texts=st.lists(st.text(max_size=6) | st.sampled_from(ODD_TEXTS), min_size=1, max_size=5),
    mode=st.sampled_from(SPARSE_MODES),
)
def test_images_escape_as_json_dumps(texts, mode):
    # Images that share text collide, so odd texts also turn up as the
    # surviving image of duplicate prune events.
    def make_oracle(config):
        def image(formula):
            key = serialize(formula)
            return texts[len(key) % len(texts)] + texts[0] * (key.count("!") % 2)

        bound = PolynomialBound((2, 1))
        return SparseCoReductionOracle(image, q=bound, r=bound)

    formulas = [generate_random(4, 9, seed) for seed in range(4)]
    config = cli.ExperimentConfig(
        algorithm="sparse", formulas=formulas, oracle_style="scatter", mode=mode, verify=False
    )
    run_against_reference(config, make_oracle)


def test_odd_images_appear_escaped_in_events():
    # Every node gets one image, so each level's second child is a duplicate.
    def make_oracle(config):
        bound = PolynomialBound((5,))
        return SparseCoReductionOracle(lambda f: '"\\\x01é😀', q=bound, r=bound)

    config = cli.ExperimentConfig(
        algorithm="sparse", formulas=[parse("(x1 | x2) & x3")], oracle_style="scatter", verify=False
    )
    lines, _ = run_against_reference(config, make_oracle)
    assert any('"surviving_image": "\\"\\\\\\u0001\\u00e9\\ud83d\\ude00"' in line for line in lines)


@pytest.mark.parametrize(
    "algorithm, style, verify",
    [
        ("selector", "honest", True),  # bool cells
        ("tally", "spread", False),  # no reference and no agreement
        ("enum_count", "exact_plus_offset", True),  # int results, no max width
        ("enum_count", "woeginger", False),
    ],
)
def test_summary_cells_of_each_type(algorithm, style, verify):
    formulas = [parse("x1 & !x1"), parse("x1 | x2"), parse("T"), generate_random(5, 12, 3)]
    config = cli.ExperimentConfig(
        algorithm=algorithm, formulas=formulas, oracle_style=style, verify=verify
    )
    _, records = run_against_reference(config)
    columns = ("result", "reference", "agree", "max_width")
    cells = {type(getattr(record, column)) for record in records for column in columns}
    assert cells <= {bool, int, type(None)}
    assert (type(None) in cells) == (not verify or algorithm == "enum_count")
