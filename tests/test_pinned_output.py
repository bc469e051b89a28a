"""Byte pins on CLI output files and on the level deciders' statistics.

Each digest was recorded from the code as it stood before the tally and
sparse deciders were folded onto one level walker and the CLI onto one
algorithm table; the ``WIDE`` rows were recorded while the decision oracles
still answered from one truth table per formula.  A refactor that keeps
behaviour keeps every byte.  The constant-1 sparse bounds give a label
budget of one, so the sparse decider crosses its census threshold and caps
levels, which no CLI oracle style does on inputs this small.
"""

import hashlib
import json

import pytest

from selfred.cli import main
from selfred.formula import parse, serialize
from selfred.generate import generate_random
from selfred.oracles import (
    PolynomialBound,
    SparseCoReductionOracle,
    simulated_sparse_coreduction,
    simulated_tally_reduction,
)
from selfred.pruning import SPARSE_MODES, decide_via_sparse, decide_via_tally

RANDOM = ["--random", "vars=6", "count=12", "seed=5"]
# Past the counter's 18-variable truth-table cutoff, so the oracles answer
# through component splitting rather than one table.
WIDE = ["--random", "vars=20", "count=3", "seed=5"]

CLI_DIGESTS = [
    (
        ["decide", "selector", *RANDOM, "--oracle", "adversarial", "--seed", "3"],
        "5e17fd4b7ed89b065ced6ba0da0ab809318a7c06709803f119cf47f9a130d3b2",
        "f4e9b143fd686e64ee42f53587763a51fe49b5a92455dc5ba11b2d49fccb32dc",
    ),
    (
        ["decide", "tally", *RANDOM, "--oracle", "spread"],
        "544a6e9afb6093f52600d1836bf62aac348f966e2279018468d073a765fb1767",
        "d87c2da747ec9a02766bbfb06ffb0eee79d992f91a6b771ad4cb4f32945ae36b",
    ),
    (
        ["decide", "sparse", *RANDOM, "--oracle", "scatter", "--mode", "early_accept"],
        "02e0e95b5d3d65be1465d803ba73dfa6147e1b76f7b22a97b4f4596a404af5e1",
        "d75a210fed7008e0c3cd09887d9021a049bbbc2f4ca912aab5736bac5d0417ac",
    ),
    (
        ["decide", "sparse", *RANDOM, "--oracle", "scatter", "--mode", "capped_continue"],
        "02e0e95b5d3d65be1465d803ba73dfa6147e1b76f7b22a97b4f4596a404af5e1",
        "d75a210fed7008e0c3cd09887d9021a049bbbc2f4ca912aab5736bac5d0417ac",
    ),
    (
        ["count", "enum", "--random", "vars=5", "count=8", "seed=5", "--oracle", "woeginger"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "707746bd1be6372f0d0707416113c8f444c433376e50aefeb5821bd4a575abfb",
    ),
    (
        ["decide", "selector", *WIDE, "--oracle", "honest"],
        "5036862d6b12595959f03a729924a02ae111c7d8510ead56e01b38daff933ebe",
        "08d60f0adc02afd85586d1ea31c705a4561a4e2bf98abc114a53ab196fb9950a",
    ),
    (
        ["decide", "tally", *WIDE, "--oracle", "collision_rich"],
        "0112494fb4ba6c1984a561fdcb7b95ea31ffcc1f0aca967d933235e1bce99ffb",
        "7339f5a07d5a8d3d9a4d25fb361a933180b0e0dead61d4bf5b025bda3bc86b0d",
    ),
    (
        ["decide", "sparse", *WIDE, "--oracle", "singleton"],
        "18d3a4cd40be3f4a885f49000d36eeacf62c6f3cb6ff8cb4813763d01cfaa57f",
        "816b33935987eee48d395539c9934c44b6675dc6d7de3610246fc665e9b39106",
    ),
]

STATS_DIGESTS = {
    ("sparse", "early_accept"): "9e3a53e402127d633450aa22e96a24cbce17ff8a561fa82a75afbf51aac86cd4",
    ("sparse", "capped_continue"): "591bc70a9069069fb668133cb216c3d581542d5d56ca34cef2eefeda6716edd8",
    ("tally", "canonical"): "675d284293a713f0aa5c1d23f2fa20fd65864a5dae9035da6a1dd09bf9de17c1",
    ("tally", "collision_rich"): "a31137feb30ce9a9a4dddbd96ae76a2e1bca76e5a862094e4cab393d5a9f76eb",
    ("tally", "spread"): "bbf64b5c1f8f56a1de01e10291808b7cb3210fc365a97cdf136e0d5cbf8aa0ad",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, trace_digest, summary_digest", CLI_DIGESTS)
def test_cli_output_bytes(tmp_path, argv, trace_digest, summary_digest):
    trace, summary = tmp_path / "t.jsonl", tmp_path / "s.csv"
    assert main(argv + ["--trace", str(trace), "--summary", str(summary)]) == 0
    assert sha256(trace.read_bytes()) == trace_digest
    assert sha256(summary.read_bytes()) == summary_digest


def stats_formulas():
    fixed = ["x1 & !x1", "(x1 | x2) & !x1 & !x2", "x1 | !x2 | x3", "T", "x2 & F"]
    randoms = [generate_random(5, 12, seed) for seed in range(12)]
    return [parse(text) for text in fixed] + randoms


def stats_json(verdict, stats) -> str:
    return json.dumps(
        {
            "verdict": verdict,
            "widths": stats.widths,
            "oracle_calls": stats.oracle_calls,
            "outcome": stats.outcome,
            "threshold": stats.threshold,
            "crossed_at": stats.crossed_at,
            "capped_levels": stats.capped_levels,
            "levels": [
                {
                    "depth": level.depth,
                    "nodes": [[serialize(node), image] for node, image in level.nodes],
                    "events": [
                        [event.kind, event.discarded, event.surviving_image]
                        for event in level.prune_events
                    ],
                }
                for level in stats.levels
            ],
        },
        sort_keys=True,
    )


def decide_all(algorithm, variant):
    if algorithm == "sparse":
        base = simulated_sparse_coreduction("singleton")
        one = PolynomialBound((1,))
        oracle = SparseCoReductionOracle(base.map, q=one, r=one)
        decide = lambda formula: decide_via_sparse(formula, oracle, variant)
    else:
        oracle = simulated_tally_reduction(variant)
        decide = lambda formula: decide_via_tally(formula, oracle)
    return "\n".join(stats_json(*decide(formula)) for formula in stats_formulas())


@pytest.mark.parametrize("key", sorted(STATS_DIGESTS))
def test_level_stats_bytes(key):
    assert sha256(decide_all(*key).encode()) == STATS_DIGESTS[key]


def test_constant_one_bounds_cross_and_cap():
    for mode in SPARSE_MODES:
        text = decide_all("sparse", mode)
        assert '"crossed_at": 1' in text
    assert '"early_sat"' in decide_all("sparse", "early_accept")
    assert '"capped_levels": [1' in decide_all("sparse", "capped_continue")
