"""The benchmark's layer tracer against the package it wraps.

``bench/tracing.py`` patches names at the package's import sites and reads
fields of its results; a renamed name or field breaks only traced benchmark
runs.  Here the tracer is installed on the already-imported modules (the
benchmark's own loader re-imports the package), one small run of each
algorithm goes through ``cli.run``, and the tracer's counts are held against
the run records.  Nothing is timed.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from selfred import cli, counting, formula, generate, oracles, pruning, selector
from selfred.generate import generate_random

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.append(str(BENCH_DIR))

from tracing import CONSUMERS, ORACLE_METHODS, Tracer  # noqa: E402

MODULES = SimpleNamespace(
    formula=formula,
    generate=generate,
    oracles=oracles,
    selector=selector,
    pruning=pruning,
    counting=counting,
    cli=cli,
)
PASSES = (
    ("selector", "adversarial", "early_accept"),
    ("tally", "spread", "early_accept"),
    ("sparse", "scatter", "capped_continue"),
    ("enum_count", "woeginger", "early_accept"),
)


def _namespaces():
    owners = [getattr(MODULES, name) for name in CONSUMERS]
    owners += [getattr(oracles, class_name) for class_name, _ in ORACLE_METHODS]
    return {owner.__name__: dict(vars(owner)) for owner in owners}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One tracer over one run of each pass; the records' summed oracle calls."""
    outdir = tmp_path_factory.mktemp("traced")
    formulas = [generate_random(n, 2 * n + 2, n) for n in range(3, 9)]
    before = _namespaces()
    tracer = Tracer()
    calls = 0
    tracer.install(MODULES)
    try:
        for algorithm, style, mode in PASSES:
            config = cli.ExperimentConfig(
                algorithm=algorithm,
                formulas=formulas,
                oracle_style=style,
                mode=mode,
                trace_path=str(outdir / f"{algorithm}.jsonl"),
                summary_path=str(outdir / f"{algorithm}.csv"),
            )
            records = cli.run(config)
            assert len(records) == len(formulas)
            assert all(record.agree is True for record in records)
            calls += sum(record.oracle_calls for record in records)
    finally:
        tracer.uninstall()
    return tracer, calls, before


def test_oracle_queries_equal_the_records_calls(traced):
    tracer, calls, _ = traced
    assert calls > 0
    assert tracer.oracle_queries() == calls


@pytest.mark.parametrize("name", ["selector.steps", "pruning.children_mapped", "counting.combines"])
def test_every_layer_is_counted(traced, name):
    tracer, _, _ = traced
    assert tracer.counts[name] > 0


def test_uninstall_restores_every_patched_namespace(traced):
    _, _, before = traced
    assert _namespaces() == before


# The traced ``corpus`` check's accounted fraction grows with the number of
# kernel spans (calls from a consumer module into ``selfred.formula``, each
# wrapped and timed), and a change that added spans failed that run.  A
# change that must add spans raises this bound and says so.
KERNEL_SPANS_BOUND = 914


def test_kernel_spans_stay_within_bound(traced):
    tracer, _, _ = traced
    spans = sum(calls for (layer, _), (calls, _, _) in tracer.spans.items() if layer == "formula")
    assert 0 < spans <= KERNEL_SPANS_BOUND
